"""Acceptance gate: every headline check of the laboratory, one test each.

Each test prints a single PASS/FAIL line with the measured numbers next to
the tolerance it was held to, so the suite output doubles as the acceptance
report.  Budgets are desk scale: the whole module runs in minutes, with the
two 10^7-tree forests and the 300k-replica gaussian renewal table shared
through module-scoped fixtures.  Seeds are fixed; every margin below was
calibrated against the stated tolerance before being frozen.  Every
tolerance comes from ``kbrw.cli.TOLERANCES``, the table `kbrw report` reads.
"""

import math
import sys

import numpy as np
import pytest
from scipy import stats as sps

from kbrw import cli, models, oracle, spines, stats, trees, walks
from kbrw.cli import TOLERANCES as TOL
from kbrw.estimates import binomial_estimate, pooled_z
from kbrw.seeds import rng_for_block

R_GEOM = (31.0 - 10.0 * math.sqrt(6.0)) / 19.0


def _line(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {status}  {name}: {detail}")
    sys.stdout.flush()
    assert ok, f"criterion {num:02d} {name}: {detail}"


@pytest.fixture(scope="module")
def model_c():
    return models.critical_lattice_binary()


@pytest.fixture(scope="module")
def two_point():
    return models.two_point_subcritical()


@pytest.fixture(scope="module")
def gauss():
    return models.critical_binary_gaussian()


@pytest.fixture(scope="module")
def tp_progeny(two_point):
    # 10^7 killed trees of the two-point model; Z has a 2.14-moment tail,
    # so the array itself is the only thing worth keeping
    parts = []
    for b in range(10):
        f = trees.simulate_killed_forest(two_point, 0.0, [], 1_000_000,
                                         rng_for_block(930, b))
        assert not f.truncated.any()
        parts.append(f.Z)
    return np.concatenate(parts)


@pytest.fixture(scope="module")
def gauss_progeny(gauss):
    parts = []
    for b in range(10):
        f = trees.simulate_killed_forest(gauss, 0.0, [], 1_000_000,
                                         rng_for_block(931, b))
        assert not f.truncated.any()
        parts.append(f.Z)
    return np.concatenate(parts)


@pytest.fixture(scope="module")
def gauss_renewal(gauss):
    # shared by the survival-scaling test; the table is the expensive part
    tw = walks.make_tilted_walk(gauss, gauss.analytics().rho_star)
    return walks.renewal_function(tw, np.linspace(0.0, 16.0, 33), 300_000,
                                  rng_for_block(920, 0),
                                  method="LadderDuality")


# ---------------------------------------------------------------------------


def test_criterion_01_exploration_identity(model_c, two_point):
    # Y = #L[0] on every non-truncated, fully explored tree; no probe
    # levels here, so full exploration is just non-truncation
    details = []
    ok = True
    n = 10 * 100_000
    for name, model in (("critical-lattice", model_c), ("two-point", two_point)):
        viol = checked = 0
        for b in range(10):
            f = trees.simulate_killed_forest(model, 0.0, [], 100_000,
                                             rng_for_block(900, b))
            good = ~f.truncated
            viol += int(((f.Y != f.leaves) & good).sum())
            checked += int(good.sum())
        ok &= viol == 0 and n - checked <= TOL["truncated_share"] * n
        details.append(f"{name} {viol}/{checked} violations")
    _line(1, "exploration identity", ok, "; ".join(details))


def test_criterion_02_oracle_matrix(model_c, two_point):
    # twelve (exact value, monte carlo estimate) pairs spanning the tree,
    # walk and spine estimators; each must agree within the z bound
    an_c = model_c.analytics()
    an_t = two_point.analytics()
    rho_c = an_c.rho_star
    pairs = []  # (label, exact, mc value, mc stderr)

    # killed-forest means of the two-point model against the lattice DP;
    # the crossing pair needs its own probed forest, since freezing at the
    # probe level changes Z and #L
    dp_free = oracle.tree_expectations(two_point, 0.0, 300)
    f = trees.simulate_killed_forest(two_point, 0.0, [], 1_000_000,
                                     rng_for_block(950, 0))
    assert not f.truncated.any()
    dp_lvl = oracle.tree_expectations(two_point, 0.0, 300, level=2.0)
    fl = trees.simulate_killed_forest(two_point, 0.0, [2.0], 1_000_000,
                                      rng_for_block(950, 10))
    assert not fl.truncated.any()
    for label, exact, sample in (
            ("tp E[#L]", float(dp_free.leaves.sum()), f.leaves),
            ("tp E[Z]", float(dp_free.alive.sum()), f.Z),
            ("tp E[H(2)]", float(dp_lvl.crossers.sum()), fl.H[0])):
        m = sample.mean()
        se = sample.std(ddof=1) / math.sqrt(sample.size)
        pairs.append((label, exact, float(m), float(se)))

    # first-crosser means of the skip-free lattice model in closed form
    for label, x, t, blk in (("C E[H(2)]", 0.0, 2.0, 1),
                             ("C E[H(5)] from 1", 1.0, 5.0, 2)):
        est = spines.estimate_EH(model_c, x, t, 1_000_000,
                                 rng_for_block(950, blk))
        target = math.exp(-rho_c * (t + 1.0 - x)) * (x + 1.0) / (t + 2.0)
        pairs.append((label, target, est.value, est.stderr))

    # killed generation size by many-to-one against the DP
    alive = lambda paths: np.all(paths >= 0.0, axis=1).astype(float)
    dp3 = oracle.tree_expectations(model_c, 1.0, 3)
    est = spines.many_to_one_estimate(model_c, 1.0, 3, alive, 1_000_000,
                                      rng_for_block(950, 3))
    pairs.append(("C alive[3] from 1", float(dp3.alive[3]), est.value, est.stderr))

    # additive martingale mean at generation 10 (free tree, exact mean 1)
    flow = trees.martingale_levels(model_c, 0.0, 10, 1_000_000,
                                   rng_for_block(950, 4),
                                   prune_eps=0.5, freeze_above=4.0)
    w = flow.W[:, 10]
    pairs.append(("C E[W_10]", 1.0, float(w.mean()),
                  float(w.std(ddof=1) / math.sqrt(w.size))))

    # stopped-line tilted mass is exactly e^{rho x} = 1 for both models
    est = trees.stopped_line_tilted_mass(model_c, 0.0, 3.0, 1_000_000,
                                         rng_for_block(950, 5), prune_eps=2e-2)
    pairs.append(("C line mass", 1.0, est.value, est.stderr))
    est = trees.stopped_line_tilted_mass(two_point, 0.0, 2.0, 1_000_000,
                                         rng_for_block(950, 6))
    pairs.append(("tp line mass", 1.0, est.value, est.stderr))

    # two-barrier passage functionals against the exact walk DP
    tw_c = walks.make_tilted_walk(model_c, rho_c)
    wo = oracle.walk_functional([1.0, -1.0], [0.5, 0.5], 2.0,
                                lower=0.0, upper=7.0, rho=rho_c)
    ens = walks.passage_ensemble(tw_c, 2.0, 1_000_000, rng_for_block(950, 7),
                                 lower=0.0, upper=7.0)
    p = ens.p_hit_upper()
    pairs.append(("ssrw P(up)", wo.p_hit_upper, p.value, p.stderr))
    vals = np.where(ens.hit_below, np.exp(-rho_c * ens.finals), 0.0)
    pairs.append(("ssrw E[e^{-rho S}; down]", wo.e_rho_lower,
                  float(vals.mean()),
                  float(vals.std(ddof=1) / math.sqrt(vals.size))))

    tw_p = walks.make_tilted_walk(two_point, an_t.rho_plus)
    sup = np.asarray(tw_p.step.support(), float)
    wo = oracle.walk_functional(sup, tw_p.step.probs(), 1.0,
                                lower=0.0, upper=6.0)
    ens = walks.passage_ensemble(tw_p, 1.0, 1_000_000, rng_for_block(950, 8),
                                 lower=0.0, upper=6.0)
    p = ens.p_hit_upper()
    pairs.append(("tp-plus P(up)", wo.p_hit_upper, p.value, p.stderr))

    # renewal function value against the geometric closed form
    tab = walks.renewal_function(tw_p, [4.0], 1_000_000, rng_for_block(950, 9),
                                 method="VisitCount")
    closed = sum(R_GEOM ** k for k in range(5))
    pairs.append(("tp-plus R(4)", closed, tab.values[0], tab.stderr[0]))

    zs = [abs(mc - exact) / se for _, exact, mc, se in pairs]
    ok = len(pairs) >= 12 and max(zs) <= TOL["z"]
    worst = pairs[int(np.argmax(zs))][0]
    _line(2, "oracle equivalence matrix", ok,
          f"{len(pairs)} pairs, max |z| = {max(zs):.2f} ({worst})")


def test_criterion_03_many_to_one(model_c, two_point):
    # e^{rho x} Q[e^{-rho S_n} F] against the exact tree expectation for
    # n in 1..3 and F in {1, alive}; the n = 1, F = 1 cell is an algebraic
    # identity of the change of measure and must hold to machine precision
    ones = lambda paths: np.ones(paths.shape[0])
    alive = lambda paths: np.all(paths >= 0.0, axis=1).astype(float)
    zs = []
    exact_gap = 0.0
    for mi, model in enumerate((model_c, two_point)):
        an = model.analytics()
        rho = an.regime_tilt()
        tw = walks.make_tilted_walk(model, rho)
        sup = np.asarray(tw.step.support(), float)
        probs = np.asarray(tw.step.probs(), float)
        # sum_d q(d) e^{-rho d} telescopes to the mean offspring number
        ident = float((probs * np.exp(-rho * sup)).sum())
        exact_gap = max(exact_gap, abs(ident - model.mean_offspring))
        dp = oracle.tree_expectations(model, 0.0, 3)
        for n in (1, 2, 3):
            for fi, (F, target) in enumerate(
                    ((ones, model.mean_offspring ** n),
                     (alive, float(dp.alive[n])))):
                est = spines.many_to_one_estimate(
                    model, 0.0, n, F, 300_000,
                    rng_for_block(951, 10 * mi + 2 * n + fi))
                zs.append(abs(est.value - target) / est.stderr)
    ok = exact_gap < TOL["identity_gap"] and max(zs) <= TOL["z"]
    _line(3, "many-to-one functionals", ok,
          f"12 cells, max |z| = {max(zs):.2f}, "
          f"n=1 identity gap {exact_gap:.1e}")


def test_criterion_04_martingale_means(model_c):
    # E[W_n] = 1 and E[dW_n] = 0 at x = 0; exact by enumeration to depth 3,
    # monte carlo at n in {1, 5, 20}.  The upper freeze line makes the
    # deep-generation means testable: without it the mass of W_20 sits in
    # unsampled high climbers and the empirical z is uncalibratable.
    rho = model_c.analytics().rho_star
    dp = oracle.tree_expectations(model_c, 0.0, 3, barrier=False, rho=rho)
    enum_gap = max(float(np.abs(dp.wsum[1:] - 1.0).max()),
                   float(np.abs(dp.vwsum[1:]).max()))

    Ws, dWs = [], []
    for b in range(4):
        flow = trees.martingale_levels(model_c, 0.0, 20, 250_000,
                                       rng_for_block(902, b),
                                       prune_eps=0.5, freeze_above=4.0)
        Ws.append(flow.W)
        dWs.append(flow.dW)
    W = np.concatenate(Ws)
    dW = np.concatenate(dWs)
    zs = {}
    for n in (1, 5, 20):
        w, d = W[:, n], dW[:, n]
        zw = (w.mean() - 1.0) / (w.std(ddof=1) / math.sqrt(w.size))
        zd = d.mean() / (d.std(ddof=1) / math.sqrt(d.size))
        zs[n] = (zw, zd)
    worst = max(max(abs(a), abs(b)) for a, b in zs.values())
    ok = enum_gap < TOL["identity_gap"] and worst <= TOL["z"]
    _line(4, "additive martingale means", ok,
          f"enum gap {enum_gap:.1e}; " +
          ", ".join(f"n={n}: zW={a:+.2f} zdW={b:+.2f}"
                    for n, (a, b) in zs.items()))


def test_criterion_05_renewal_methods(model_c, two_point):
    # VisitCount and LadderDuality agree within the z bound on a ten-point
    # grid, both lie near the closed forms, and so does the first-passage
    # constant, for both tilts
    grid = np.arange(10.0)
    cases = [
        ("critical-lattice", model_c, "rho_star", grid + 1.0, 1.0, 910),
        ("two-point", two_point, "rho_plus",
         np.array([sum(R_GEOM ** k for k in range(int(x) + 1)) for x in grid]),
         1.0 / (1.0 - R_GEOM), 911),
    ]
    details = []
    ok = True
    for name, model, attr, closed, cr_closed, seed in cases:
        tw = walks.make_tilted_walk(model, getattr(model.analytics(), attr))
        v = walks.renewal_function(tw, grid, 10 ** 6, rng_for_block(seed, 0),
                                   method="VisitCount")
        l = walks.renewal_function(tw, grid, 10 ** 6, rng_for_block(seed, 1),
                                   method="LadderDuality")
        cr = walks.estimate_C_R(tw, 10 ** 6, rng_for_block(seed, 2))
        vv, lv = v.values, l.values
        # R(0) is exact under both methods: 0 spread over 0 error is a match
        z = float(pooled_z(vv, v.stderr, lv, l.stderr).max())
        rel = float((np.maximum(np.abs(vv - closed),
                                np.abs(lv - closed)) / closed).max())
        cr_rel = abs(cr.value - cr_closed) / cr_closed
        ok &= (z <= TOL["z"] and rel <= TOL["closed_form_rel"]
               and cr_rel <= TOL["cr_rel"])
        details.append(f"{name}: z {z:.2f}, rel {100 * rel:.2f}%, "
                       f"C_R off {100 * cr_rel:.2f}%")
    _line(5, "renewal estimators vs closed forms", ok, "; ".join(details))


def test_criterion_06_first_passage_band(model_c, two_point):
    # C_R * t * P(up before down) at t = 50 for the zero-drift tilt and
    # C_R * P(up before down) at t = 20 for the drift-up tilt, both in the
    # probe band; the probe products come out of the C_R estimator
    tw_c = walks.make_tilted_walk(model_c, model_c.analytics().rho_star)
    cr_c = walks.estimate_C_R(tw_c, 10 ** 6, rng_for_block(952, 0),
                              probe_t=50.0)
    tw_p = walks.make_tilted_walk(two_point, two_point.analytics().rho_plus)
    cr_p = walks.estimate_C_R(tw_p, 10 ** 6, rng_for_block(952, 1),
                              probe_t=20.0)
    pc = cr_c.extra["probe_product"]
    pp = cr_p.extra["probe_product"]
    lo, hi = TOL["probe_band"]
    ok = lo <= pc <= hi and lo <= pp <= hi
    _line(6, "first-passage constant band", ok,
          f"critical t=50: {pc:.4f}; subcritical t=20: {pp:.4f} "
          f"(band [{lo}, {hi}])")


def test_criterion_07_conditioned_walk(model_c, gauss):
    # Tanaka surgery vs the h-transform chain at step 10 of the lattice
    # walk: same law (two-sample KS), strict positivity past step 0, and
    # min-record weights averaging 1
    ssrw = walks.make_tilted_walk(model_c, model_c.analytics().rho_star)
    n = 100_000
    tk = walks.tanaka_ensemble(ssrw, 10, n, rng_for_block(953, 0))
    z = tk.complete()
    positive = bool(np.all(z[:, 1:] > 0.0))

    # the Tanaka chain stays strictly positive, so its law is the
    # h(v) = v transform: boundary "positive", entered at 1 after the
    # forced first step
    cf = walks.closed_form_renewal(ssrw, np.arange(0.0, 32.0))
    cond = walks.conditioned_chain(ssrw, cf, 1.0, 9, n, rng_for_block(953, 1),
                                   boundary="positive")
    ks = sps.ks_2samp(z[:, 10], cond[:, -1])

    hs = walks.hat_s_ensemble(ssrw, 10, 50_000, rng_for_block(953, 2),
                              max_steps=10 ** 5)
    wl = hs.weights[hs.valid()]
    se_l = 0.0 if wl.std() == 0.0 else wl.std(ddof=1) / math.sqrt(wl.size)
    lattice_ok = abs(wl.mean() - 1.0) <= max(TOL["lattice_se"] * se_l,
                                             TOL["identity_gap"]) \
        and hs.e_h1 == 1.0
    # non-lattice probe: excluding the flagged tail leaves an O(1/sqrt(n))
    # systematic on top of the monte carlo band, so this one is a bounded
    # sanity check rather than a test in standard errors
    hg = walks.hat_s_ensemble(
        walks.make_tilted_walk(gauss, gauss.analytics().rho_star),
        24, 30_000, rng_for_block(953, 3), max_steps=10 ** 5)
    wg = hg.weights[hg.valid()]
    se = wg.std(ddof=1) / math.sqrt(wg.size)
    gauss_ok = abs(wg.mean() - 1.0) <= TOL["gauss_weight"]

    ok = (positive and tk.truncated_fraction < TOL["truncated_share"]
          and ks.pvalue > TOL["ks_p"] and lattice_ok and gauss_ok)
    _line(7, "conditioned-walk consistency", ok,
          f"KS p = {ks.pvalue:.3f}, positivity {positive}, "
          f"lattice weight mean {wl.mean():.1f} exact, "
          f"gaussian weight mean {wg.mean():.4f} +- {se:.4f}")


def test_criterion_08_survival_scaling(gauss, two_point, gauss_renewal):
    # spine estimates of P(H(t) > 0) at t and 2t: the scaled values
    # t e^{rho t} P (critical, non-lattice) agree within a factor and
    # e^{rho t} P (subcritical) within a relative band; each t = 4 estimate
    # also matches a naive forward forest within the z bound
    an_g = gauss.analytics()
    x = 0.5
    sg = {}
    for t in (4.0, 8.0):
        est = spines.estimate_survival_spine(gauss, x, t, 30_000,
                                             rng_for_block(921, int(t)),
                                             renewal=gauss_renewal,
                                             band_eps=1e-4)
        sg[t] = (est, stats.survival_scale(t, an_g.rho_star, an_g.regime)
                 * est.value)
    ratio_g = sg[8.0][1] / sg[4.0][1]

    hits = 0
    for b in range(4):
        f = trees.simulate_killed_forest(gauss, x, [4.0], 250_000,
                                         rng_for_block(922, b))
        hits += int((f.H[0] > 0).sum())
    naive = binomial_estimate(hits, 10 ** 6)
    e4 = sg[4.0][0]
    z_g = float(pooled_z(e4.value, e4.stderr, naive.value, naive.stderr))

    an_p = two_point.analytics()
    st = {}
    for t in (4.0, 8.0):
        est = spines.estimate_survival_spine(two_point, 0.0, t, 30_000,
                                             rng_for_block(923, int(t)),
                                             band_eps=1e-4)
        st[t] = (est, stats.survival_scale(t, an_p.rho_plus, an_p.regime)
                 * est.value)
    ratio_t = st[8.0][1] / st[4.0][1]

    hits = 0
    for b in range(4):
        f = trees.simulate_killed_forest(two_point, 0.0, [4.0], 250_000,
                                         rng_for_block(924, b))
        hits += int((f.H[0] > 0).sum())
    naive_t = binomial_estimate(hits, 10 ** 6)
    e4t = st[4.0][0]
    z_t = float(pooled_z(e4t.value, e4t.stderr, naive_t.value, naive_t.stderr))

    factor = TOL["critical_factor"]
    ok = (1.0 / factor <= ratio_g <= factor
          and abs(ratio_t - 1.0) <= TOL["subcritical_rel"]
          and z_g <= TOL["z"] and z_t <= TOL["z"])
    _line(8, "survival scaling across levels", ok,
          f"gaussian scaled ratio {ratio_g:.3f} (z vs naive {z_g:.2f}); "
          f"two-point scaled ratio {ratio_t:.3f} (z {z_t:.2f})")


def test_criterion_09_subcritical_slope(two_point, tp_progeny):
    # log-log slope of P(Z > n) over the quarter-decade ladder in
    # [10^2, 10^4]; points starved below 20 exceedances drop out, which
    # at 10^7 replicas ends the fit at n = 562 (about 12 exceedances at 1000)
    an = two_point.analytics()
    ref = -an.rho_plus / an.rho_minus
    grid = [100.0, 178.0, 316.0, 562.0, 1000.0,
            1780.0, 3160.0, 5620.0, 10000.0]
    tab = stats.survival_curve(tp_progeny, grid)
    rep = stats.tail_fit(tab, "subcritical", rho_ratio=ref)
    fit = rep.fitted_exponent_or_constant
    dev = rep.extra["relative_deviation"]
    ok = dev <= TOL["slope_rel"]
    _line(9, "subcritical progeny tail slope", ok,
          f"slope {fit.value:.4f} +- {fit.stderr:.4f} vs {ref:.5f}, "
          f"dev {100 * dev:.1f}% (tol {100 * TOL['slope_rel']:g}%), "
          f"usable grid n <= {rep.grid[-1]:g}, chi2/dof {rep.diagnostics:.2f}")


def test_criterion_10_critical_plateau(gauss, gauss_progeny):
    # n (log n)^2 P(Z > n) over the top decade: bounded wobble, and the
    # plateau constant within a factor of c_crit R(0) e^{rho * 0}
    tab = stats.survival_curve(gauss_progeny, [100.0, 178.0, 316.0,
                                               562.0, 1000.0])
    rep = stats.tail_fit(tab, "critical")
    fit = rep.fitted_exponent_or_constant
    ref = stats.c_crit(gauss)       # R(0) = 1 and e^{rho x} = 1 at x = 0
    factor = max(fit.value / ref, ref / fit.value)
    ok = (rep.diagnostics <= TOL["decade_ratio"]
          and factor <= TOL["constant_factor"])
    _line(10, "critical progeny tail plateau", ok,
          f"plateau {fit.value:.4f} +- {fit.stderr:.4f}, decade ratio "
          f"{rep.diagnostics:.3f} (tol {TOL['decade_ratio']:g}), "
          f"constant factor {factor:.3f} "
          f"vs c_crit = {ref:.4f} (tol {TOL['constant_factor']:g})")


def test_criterion_11_weighted_sum_tail():
    # t^p P(sum_i Y_i X_i > t) against a E[sum Y_i^p] at the top grid
    # point, three litter/weight configurations
    ONE = lambda rng, n: np.ones(n)
    TWO = lambda rng, n: np.full(n, 2)
    HALF = lambda rng, n: np.where(rng.random(n) < 0.5, 0.5, 1.5)
    configs = [
        ("xi=1 Y=1 p=2", ONE, ONE, 2.0, [4.0, 8.0, 15.0, 30.0]),
        ("xi=2 Y=1 p=2", TWO, ONE, 2.0, [10.0, 20.0, 40.0, 80.0]),
        ("xi=1 Y~{.5,1.5} p=1", ONE, HALF, 1.0, [4.0, 8.0, 15.0, 30.0]),
    ]
    details = []
    ok = True
    for i, (name, xi, y, p, grid) in enumerate(configs):
        rep = stats.convolution_tail_check(xi, y, p, 1.0, 10 ** 7, grid,
                                           rng_for_block(940 + i, 0))
        dev = rep.relative_deviation_at_top
        ok &= dev <= TOL["weighted_tail_rel"]
        details.append(f"{name}: {100 * dev:.2f}%")
    _line(11, "weighted-sum tail constant", ok,
          "top-point deviation " + "; ".join(details)
          + f" (tol {100 * TOL['weighted_tail_rel']:g}%)")


def test_criterion_12_reproducibility(tmp_path):
    # the same simulate config on 1 and on 8 workers must produce
    # byte-identical records, summary and manifest
    outs = {}
    for workers in (1, 8):
        d = tmp_path / f"w{workers}"
        code = cli.main(["simulate", "--model", "critical-lattice",
                         "--x", "0", "--replicas", "50000",
                         "--levels", "2,4", "--survival-curve", "4,16,64",
                         "--seed", "31", "--workers", str(workers),
                         "--out", str(d)])
        assert code == 0
        outs[workers] = d
    same = {name: (outs[1] / name).read_bytes() == (outs[8] / name).read_bytes()
            for name in ("records.csv", "summary.json", "MANIFEST.json")}
    ok = all(same.values())
    _line(12, "reproducibility across worker counts", ok,
          "byte-identical on 1 vs 8 workers: " +
          ", ".join(f"{k} {v}" for k, v in same.items()))

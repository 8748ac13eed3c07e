"""Walk-level checks: tilts, passage, ladders, renewal, conditioning.

Closed forms used below (unit-up/unit-down lattice walks):
  * gambler's ruin with strict barriers at 0 and t, start x:
    P(up first) = (x+1)/(t+2) at zero drift;
  * renewal function R(x) = floor(x)+1 at zero drift,
    R(x) = sum_{k<=floor(x)} r^k with r = p_down/p_up at positive drift;
  * C_R = 1 at zero drift (undershoot is exactly one),
    C_R = 1/(1-r) at positive drift.
Two-point plus tilt: p_up = (5+sqrt(6))/10, r = (31-10*sqrt(6))/19,
C_R = 1/(1-r) = 1.5206152...
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kbrw import models, oracle, walks
from kbrw.walks import StoppingReason

P_UP_PLUS = (5.0 + math.sqrt(6.0)) / 10.0
R_RUIN = (31.0 - 10.0 * math.sqrt(6.0)) / 19.0
C_R_PLUS = 1.0 / (1.0 - R_RUIN)


@pytest.fixture(scope="module")
def ssrw():
    return walks.make_tilted_walk(models.critical_lattice_binary(), "star")


@pytest.fixture(scope="module")
def plus_walk():
    return walks.make_tilted_walk(models.two_point_subcritical(), "plus")


@pytest.fixture(scope="module")
def minus_walk():
    return walks.make_tilted_walk(models.two_point_subcritical(), "minus")


@pytest.fixture(scope="module")
def gauss_walk():
    return walks.make_tilted_walk(models.critical_binary_gaussian(), "star")


def zero_drift_lattice_walk(values, probs):
    """A zero-drift lattice walk with no branching model behind it."""
    step = models.FiniteStep(values, probs)
    _, m1, m2 = step.mgf_parts(0.0)
    assert m1 == 0.0
    return walks.TiltedWalk(rho=0.0, step=step, drift=m1, variance=m2,
                            span=models.lattice_span(step.support()))


class TestTiltedWalks:
    def test_critical_lattice_star_is_simple_walk(self, ssrw):
        assert abs(ssrw.drift) < 1e-12
        assert ssrw.span == 1.0
        p_up = ssrw.step.probs()[np.argmax(ssrw.step.support())]
        assert abs(p_up - 0.5) < 1e-12

    def test_gaussian_star_is_standard_normal(self, gauss_walk):
        assert abs(gauss_walk.drift) < 1e-10
        assert abs(gauss_walk.variance - 1.0) < 1e-10
        assert gauss_walk.span is None

    def test_two_point_tilts(self, plus_walk, minus_walk):
        assert abs(plus_walk.step.p_up - P_UP_PLUS) < 1e-10
        assert plus_walk.drift > 0 and minus_walk.drift < 0
        # the two drifts are psi'(rho_plus/minus); symmetric step, so p_up
        # under minus is 1 - p_up mirror has no reason to hold; just check sign
        assert abs(plus_walk.drift - (2 * plus_walk.step.p_up - 1)) < 1e-12

    def test_non_root_tilt_rejected(self):
        with pytest.raises(ValueError, match="not a probability tilt"):
            walks.make_tilted_walk(models.two_point_subcritical(), 0.3)

    def test_subcritical_star_rejected(self):
        # psi(rho_star) < 0 away from criticality: not a mass-1 tilt
        with pytest.raises(ValueError, match="not a probability tilt"):
            walks.make_tilted_walk(models.two_point_subcritical(), "star")

    def test_default_is_the_regime_tilt(self):
        for model in (models.critical_lattice_binary(),
                      models.two_point_subcritical()):
            w = walks.make_tilted_walk(model)
            assert w.rho == model.analytics().regime_tilt()
        with pytest.raises(ValueError, match="no default tilt"):
            walks.make_tilted_walk(models.IidModel(
                models.FixedOffspring(2), models.GaussianStep(0.0)))

    def test_drift_sign(self, ssrw, plus_walk, minus_walk, gauss_walk):
        assert [w.drift_sign for w in (ssrw, plus_walk, minus_walk, gauss_walk)] \
            == [0, 1, -1, 0]
        tol = models.REGIME_TOL
        assert [models.drift_sign(d) for d in (-2 * tol, -tol, tol, 2 * tol)] \
            == [-1, 0, 0, 1]

    def test_unknown_name_rejected(self, ssrw):
        with pytest.raises(ValueError, match="unknown tilt"):
            walks.make_tilted_walk(models.critical_lattice_binary(), "best")

    def test_critical_has_no_plus_minus(self):
        with pytest.raises(ValueError, match="undefined"):
            walks.make_tilted_walk(models.critical_lattice_binary(), "plus")

    def test_pattern_model_tilt_normalizes(self):
        # psi(t) = log(0.25 e^t + e^-t) is tangent to 0 at rho* = log 2, and
        # the tilted step law is the simple walk despite the asymmetric atoms
        m = models.PatternModel([(0.75, (-1.0,)), (0.25, (1.0, -1.0))])
        rho = m.analytics().rho_star
        assert abs(rho - math.log(2.0)) < 1e-9
        w = walks.make_tilted_walk(m, "star")
        assert abs(w.step.probs().sum() - 1.0) < 1e-12
        assert np.allclose(w.step.probs(), [0.5, 0.5], atol=1e-9)


class TestPassage:
    def test_gamblers_ruin(self, ssrw):
        rng = np.random.default_rng(101)
        for t, x in ((2.0, 0.0), (4.0, 1.0)):
            ens = walks.passage_ensemble(ssrw, x, 60_000, rng, lower=0.0, upper=t)
            est = ens.p_hit_upper()
            assert est.within((x + 1.0) / (t + 2.0), 4.0)

    def test_immediate_crossings(self, ssrw):
        rng = np.random.default_rng(5)
        ens = walks.passage_ensemble(ssrw, 9.0, 4, rng, lower=0.0, upper=5.0)
        assert np.all(ens.hit_above) and np.all(ens.n_steps == 0)
        assert np.all(ens.finals == 9.0)
        ens = walks.passage_ensemble(ssrw, -1.0, 4, rng, lower=0.0, upper=5.0)
        assert np.all(ens.hit_below) and np.all(ens.n_steps == 0)

    def test_lattice_overshoot_is_one_span(self, ssrw):
        rng = np.random.default_rng(6)
        ens = walks.passage_ensemble(ssrw, 0.0, 5_000, rng, lower=0.0, upper=3.0)
        assert np.all(ens.overshoots() == 1.0)
        assert np.all(ens.undershoots() == 1.0)

    def test_truncation_reported(self, ssrw):
        rng = np.random.default_rng(7)
        ens = walks.passage_ensemble(ssrw, 5.0, 300, rng,
                                     lower=0.0, upper=None, max_steps=8)
        assert ens.truncated.any()
        assert np.all(ens.n_steps[ens.truncated] == 8)

    def test_vector_starts(self, ssrw):
        rng = np.random.default_rng(8)
        xs = np.array([0.0, 1.0, 2.0, 9.0])
        ens = walks.passage_ensemble(ssrw, xs, 4, rng, lower=0.0, upper=4.0)
        assert ens.reasons[3] == StoppingReason.HIT_ABOVE.value

    @given(st.integers(1, 200), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_step_accounting_across_chunks(self, ssrw, max_steps, seed):
        # chunks of 32, 64, 128 steps: max_steps up to 200 cuts each boundary
        rng = np.random.default_rng(seed)
        ens = walks.passage_ensemble(ssrw, 5.0, 64, rng, lower=0.0,
                                     max_steps=max_steps)
        assert np.all(ens.n_steps <= max_steps)
        assert np.all(ens.n_steps[ens.truncated] == max_steps)
        # a row can also hit on its last allowed step, so only the shorter
        # rows are certain to have hit
        assert np.all(ens.hit_below[ens.n_steps < max_steps])
        assert np.all(ens.hit_below | ens.truncated)
        below = ens.n_steps[ens.hit_below]
        assert np.all(ens.finals[ens.hit_below] == -1.0)
        assert np.all(below >= 6) and np.all(below % 2 == 0)
        left = ens.finals[ens.truncated]
        assert np.all(left >= 0.0) and np.all((left - 5.0 - max_steps) % 2 == 0)

    def test_max_steps_must_be_positive(self, ssrw):
        rng = np.random.default_rng(9)
        with pytest.raises(ValueError, match="max_steps"):
            walks.passage_ensemble(ssrw, 5.0, 4, rng, max_steps=0)


class TestRenewal:
    GRID = np.arange(0.0, 6.5, 1.0)

    def test_visit_count_matches_closed_form(self, ssrw):
        rng = np.random.default_rng(210)
        est = walks.renewal_function(ssrw, self.GRID, 20_000, rng,
                                     method="VisitCount", max_steps=10 ** 6)
        exact = np.floor(self.GRID) + 1.0
        assert np.all(np.abs(est.values - exact) <= 4.0 * est.stderr)
        assert est.values[0] == 1.0 and est.stderr[0] == 0.0

    def test_duality_exact_for_skip_free_down(self, ssrw):
        rng = np.random.default_rng(211)
        est = walks.renewal_function(ssrw, self.GRID, 100, rng,
                                     method="LadderDuality")
        assert np.array_equal(est.values, np.floor(self.GRID) + 1.0)
        assert np.all(est.stderr == 0.0)

    def test_two_point_both_methods(self, plus_walk):
        rng = np.random.default_rng(212)
        exact = walks.closed_form_renewal(plus_walk, self.GRID).values
        visit = walks.renewal_function(plus_walk, self.GRID, 60_000, rng,
                                       method="VisitCount")
        dual = walks.renewal_function(plus_walk, self.GRID, 60_000, rng,
                                      method="LadderDuality")
        for est in (visit, dual):
            assert np.all(np.abs(est.values - exact) <= 4.0 * est.stderr + 1e-9)
        pooled = np.hypot(visit.stderr, dual.stderr)
        assert np.all(np.abs(visit.values - dual.values) <= 4.0 * pooled + 1e-9)
        assert dual.certification_bound < 1e-12

    def test_negative_drift_rejected(self, minus_walk):
        rng = np.random.default_rng(213)
        with pytest.raises(ValueError, match="drift"):
            walks.renewal_function(minus_walk, self.GRID, 10, rng)

    def test_grid_validation(self, ssrw):
        rng = np.random.default_rng(214)
        with pytest.raises(ValueError, match="increasing"):
            walks.renewal_function(ssrw, [0.0, 2.0, 1.0], 10, rng)
        with pytest.raises(ValueError, match="start at 0"):
            walks.renewal_function(ssrw, [-1.0, 0.0], 10, rng)
        for bad in ([0.0, math.nan], [0.0, math.inf]):
            with pytest.raises(ValueError, match="finite"):
                walks.renewal_function(ssrw, bad, 10, rng)

    def test_evaluate_interpolates_and_guards(self, ssrw):
        est = walks.closed_form_renewal(ssrw, self.GRID)
        assert est.evaluate(0.0) == 1.0
        assert est.evaluate(-3.0) == 0.0
        assert abs(est.evaluate(2.5) - 3.5) < 1e-12  # linear between 3 and 4
        with pytest.raises(ValueError, match="covers"):
            est.evaluate(100.0)

    def test_closed_form_guards(self, gauss_walk, minus_walk):
        with pytest.raises(ValueError, match="lattice"):
            walks.closed_form_renewal(gauss_walk, self.GRID)
        with pytest.raises(ValueError, match="drift"):
            walks.closed_form_renewal(minus_walk, self.GRID)

    def test_closed_form_geometric(self, plus_walk):
        est = walks.closed_form_renewal(plus_walk, np.array([0.0, 1.0, 2.0]))
        expect = [1.0, 1.0 + R_RUIN, 1.0 + R_RUIN + R_RUIN ** 2]
        assert np.allclose(est.values, expect, atol=1e-12)

    def test_span_scaled_ladder_sums_give_the_unit_table(self):
        # a drift-up +-span walk counts whole spans: its ladder heights add
        # up to the +-1 walk's sums from the same seed, with no rounding
        def table(span):
            step = models.FiniteStep([-span, span], [0.4, 0.6])
            _, m1, m2 = step.mgf_parts(0.0)
            walk = walks.TiltedWalk(rho=0.0, step=step, drift=m1,
                                    variance=m2 - m1 * m1, span=span)
            return walks.renewal_function(walk, span * self.GRID, 5000,
                                          np.random.default_rng(3),
                                          method="LadderDuality")

        unit = table(1.0)
        for span in (0.3, 0.1):
            assert np.array_equal(table(span).values, unit.values), span


class TestSkipFree:
    """One direction at a time: the simple walk is skip-free both ways."""

    GRID = np.arange(0.0, 6.5, 1.0)

    def test_down_only_walk_takes_the_exact_duality(self):
        walk = zero_drift_lattice_walk([-1.0, 2.0], [2.0 / 3.0, 1.0 / 3.0])
        assert walk.skip_free_down and not walk.skip_free_up
        # no generator: the exact table draws nothing
        dual = walks.renewal_function(walk, self.GRID, 10, None,
                                      method="LadderDuality")
        assert np.array_equal(dual.values, np.floor(self.GRID) + 1.0)
        assert np.all(dual.stderr == 0.0)
        visit = walks.renewal_function(walk, self.GRID, 20_000,
                                       np.random.default_rng(216),
                                       method="VisitCount")
        # 0.05 covers the downward truncation bias at the default step cap
        assert np.all(np.abs(visit.values - dual.values)
                      <= 4.0 * visit.stderr + 0.05)
        with pytest.raises(ValueError, match="span steps only"):
            walks.closed_form_renewal(walk, self.GRID)

    def test_up_only_walk_has_unit_ladder_height(self):
        walk = zero_drift_lattice_walk([-2.0, 1.0], [1.0 / 3.0, 2.0 / 3.0])
        assert walk.skip_free_up and not walk.skip_free_down
        assert walks.first_ladder_height_mean(walk) == 1.0
        with pytest.raises(ValueError, match="span steps only"):
            walks.closed_form_renewal(walk, self.GRID)

    @pytest.mark.parametrize("values, probs, exact", [
        # R(x) = 8/9 + 2x/3 + (-1/2)^x/9 solves the recurrence of the walk
        # killed at 0 with roots 1 (double) and -1/2, and R(0) = 1
        ([-2.0, 1.0], [1.0 / 3.0, 2.0 / 3.0],
         lambda x: 8.0 / 9.0 + 2.0 * x / 3.0 + (-0.5) ** x / 9.0),
        ([-1.0, 1.0], [0.5, 0.5], lambda x: np.floor(x) + 1.0),
        # spans 0.1 and 0.3 are no dyadic floats: the walks count whole
        # spans, so no rounding moves a visit off its lattice point
        ([-0.1, 0.1], [0.5, 0.5], lambda x: np.floor(x / 0.1 + 1e-9) + 1.0),
        ([-0.3, 0.3], [0.5, 0.5], lambda x: np.floor(x / 0.3 + 1e-9) + 1.0),
    ], ids=["up-only", "simple", "tenth", "three-tenths"])
    def test_visit_count_restarts_at_the_window_floor(self, values, probs, exact):
        walk = zero_drift_lattice_walk(values, probs)
        assert walk.skip_free_up
        # a walk below the grid restarts at its floor, -6 spans: no walk
        # runs into the step cap, so nothing biases the counts
        grid = self.GRID * walk.span
        est = walks.renewal_function(walk, grid, 100_000,
                                     np.random.default_rng(217),
                                     method="VisitCount")
        assert est.truncated_fraction == 0.0
        assert np.all(np.abs(est.values - exact(grid)) <= 4.0 * est.stderr)

    @pytest.mark.parametrize("top, max_steps", [(0.5, 64), (1.0, 10 ** 6)])
    def test_visit_count_narrow_window(self, ssrw, top, max_steps):
        # below span the window holds no lattice point and a walk that
        # leaves it has only its return to 0 left; at one span nearly every
        # walk that ends a chunk outside restarts, and each restart counts
        # its arrival at -1
        grid = np.array([0.0, top])
        est = walks.renewal_function(ssrw, grid, 20_000,
                                     np.random.default_rng(218),
                                     method="VisitCount", max_steps=max_steps)
        assert est.truncated_fraction == 0.0
        exact = np.floor(grid) + 1.0
        assert np.all(np.abs(est.values - exact) <= 4.0 * est.stderr)

    def test_continuous_walk_is_neither(self, gauss_walk):
        assert not gauss_walk.skip_free_down and not gauss_walk.skip_free_up


class TestCramerRoot:
    @pytest.mark.parametrize("step", [
        models.TwoPointStep(1.0, -1.0, P_UP_PLUS),
        models.FiniteStep([-1.0, 0.5, 2.0], [0.3, 0.3, 0.4]),
        models.GaussianStep(0.7, 1.3),
    ], ids=["two-point", "finite", "gaussian"])
    def test_root_balances_the_mgf(self, step):
        gamma = walks.cramer_gamma(step)
        assert gamma > 0.0
        assert abs(step.mgf_parts(-gamma)[0] - 1.0) <= 1e-12

    def test_gaussian_closed_form(self):
        # at mu/sigma = 20 the bracket's first overshoot overflows e^x
        for mu, sigma in ((0.7, 1.3), (20.0, 1.0)):
            gamma = walks.cramer_gamma(models.GaussianStep(mu, sigma))
            assert abs(gamma - 2.0 * mu / sigma ** 2) <= 1e-12 * max(1.0, gamma)

    def test_needs_positive_drift(self, minus_walk):
        for step in (minus_walk.step, models.GaussianStep(0.0),
                     models.FiniteStep([-1.0, 1.0], [0.5, 0.5])):
            with pytest.raises(ValueError, match="positive drift"):
                walks.cramer_gamma(step)

    def test_bracket_is_bounded(self):
        # no downward step: E[e^{-gamma X}] < 1 for every gamma > 0
        with pytest.raises(ArithmeticError, match="1e6"):
            walks.cramer_gamma(models.FiniteStep([0.0, 1.0], [0.5, 0.5]))


class TestConstantCR:
    def test_critical_lattice_exact(self, ssrw):
        rng = np.random.default_rng(310)
        est = walks.estimate_C_R(ssrw, 20_000, rng, max_steps=10 ** 5)
        assert est.value == 1.0 and est.stderr == 0.0
        assert est.extra["method"] == "exact"
        # probe product C_R * t * P(up before down) = (t)/(t+2) at finite t
        t = est.extra["probe_t"]
        assert abs(est.extra["probe_product"] - t / (t + 2.0)) < 0.05

    def test_probe_truncation_is_reported(self, ssrw):
        # C_R is exact here, so every truncated walk is the probe's: about
        # one in five stays within [0, 50] for 16 steps
        est = walks.estimate_C_R(ssrw, 1_000, np.random.default_rng(314),
                                 max_steps=16)
        assert est.extra["method"] == "exact"
        assert 0.1 < est.truncated_fraction < 0.3

    def test_two_point_plus(self, plus_walk):
        rng = np.random.default_rng(311)
        est = walks.estimate_C_R(plus_walk, 100_000, rng, probe_t=25.0)
        assert est.within(C_R_PLUS, 4.0)
        assert abs(est.extra["probe_product"] - 1.0) < 0.02
        assert est.extra["certification_bound"] < 1e-12

    def test_gaussian_critical_probe(self, gauss_walk):
        rng = np.random.default_rng(312)
        est = walks.estimate_C_R(gauss_walk, 30_000, rng, max_steps=10 ** 5)
        # E[H-] = sigma/sqrt(2) for N(0, sigma^2) steps, so C_R = sqrt(2)/sigma
        sigma = math.sqrt(gauss_walk.variance)
        assert est.extra["method"] == "undershoot"
        assert est.within(math.sqrt(2.0) / sigma, 4.0)
        assert est.truncated_fraction < 0.01
        assert abs(est.extra["probe_product"] - 1.0) < 0.10

    def test_negative_drift_rejected(self, minus_walk):
        rng = np.random.default_rng(313)
        with pytest.raises(ValueError, match="drift"):
            walks.estimate_C_R(minus_walk, 100, rng)


@pytest.fixture(scope="module")
def tanaka_ens(ssrw):
    rng = np.random.default_rng(410)
    return walks.tanaka_ensemble(ssrw, 6, 60_000, rng, max_steps=10 ** 5)


class TestTanaka:
    def test_first_steps_forced(self, tanaka_ens):
        z = tanaka_ens.complete()
        assert np.all(z[:, 1] == 1.0)
        assert np.all(z[:, 2] == 2.0)

    def test_strict_positivity(self, tanaka_ens):
        assert np.all(tanaka_ens.complete()[:, 1:] > 0.0)

    def test_marginals_match_h_transform(self, tanaka_ens, ssrw):
        # exact law: entry state 1, then the Doob chain of h(z) = z
        z = tanaka_ens.complete()
        n = z.shape[0]
        for k in (3, 4):
            exact = oracle.h_chain_marginal([1.0, -1.0], [0.5, 0.5],
                                            lambda v: np.maximum(v, 0.0),
                                            1.0, k - 1)
            for v, p in exact.items():
                phat = float((z[:, k] == v).mean())
                se = math.sqrt(p * (1 - p) / n)
                assert abs(phat - p) <= 4.0 * se + 1e-12

    def test_truncation_small_and_reported(self, tanaka_ens):
        assert tanaka_ens.truncated_fraction < 0.02

    def test_tenth_lattice_records_match_the_unit_lattice(self):
        # all three walks draw the same step indices and count whole spans:
        # a return to the running maximum on span 0.1 or 0.3 is no record
        unit, *scaled = (
            walks.tanaka_ensemble(zero_drift_lattice_walk([-s, s], [0.5, 0.5]),
                                  50, 2_000, np.random.default_rng(3),
                                  max_steps=10 ** 5)
            for s in (1.0, 0.1, 0.3))
        for span, a in zip((0.1, 0.3), scaled):
            assert a.truncated.tolist() == unit.truncated.tolist()
            assert np.array_equal(a.complete(), span * unit.complete())


class TestMinRecordSampler:
    def test_ssrw_weights_identically_one(self, ssrw):
        rng = np.random.default_rng(510)
        ens = walks.hat_s_ensemble(ssrw, 10, 5_000, rng, max_steps=10 ** 5)
        w = ens.weights[ens.valid()]
        assert np.all(w == 1.0)
        assert ens.e_h1 == 1.0

    def test_sigma_tilde_is_last_minimum(self, ssrw):
        rng = np.random.default_rng(511)
        ens = walks.hat_s_ensemble(ssrw, 8, 2_000, rng, max_steps=10 ** 5)
        ok = np.flatnonzero(ens.valid())[:200]
        for i in ok:
            body = ens.zeta[i, 1:]
            m = body.min()
            assert ens.sigma_tilde[i] == np.flatnonzero(body == m)[-1] + 1

    def test_gaussian_weights_mean_one(self, gauss_walk):
        # E[zeta at the last-min epoch] = E[H_1]; flagged tail excluded, so
        # allow a small systematic slack on top of the monte carlo band
        rng = np.random.default_rng(512)
        ens = walks.hat_s_ensemble(gauss_walk, 24, 8_000, rng, max_steps=10 ** 5)
        w = ens.weights[ens.valid()]
        se = w.std(ddof=1) / math.sqrt(w.size)
        assert abs(w.mean() - 1.0) <= 4.0 * se + 0.05

    def test_valid_minimum_is_the_first_ladder_height(self, gauss_walk):
        # a sample is certified exactly when its first ladder epoch T_1 is
        # in 1..n, and then its last minimum sits at T_1
        n = 12
        ens = walks.hat_s_ensemble(gauss_walk, n, 4_000,
                                   np.random.default_rng(513), max_steps=10 ** 5)
        tk = walks.tanaka_ensemble(gauss_walk, n, 4_000,
                                   np.random.default_rng(513), max_steps=10 ** 5)
        late = tk.first_ladder > n
        assert late.any() and np.array_equal(ens.flagged, tk.truncated | late)
        v = ens.valid()
        assert np.array_equal(ens.sigma_tilde[v], tk.first_ladder[v])

    def test_ladder_height_is_exact(self, ssrw, gauss_walk):
        # skip-free-up lattice: H_1 = span; zero-drift unit-variance
        # gaussian: E[H_1] = sigma / sqrt(2)
        assert walks.first_ladder_height_mean(ssrw) == 1.0
        assert gauss_walk.step.sigma == 1.0 and gauss_walk.drift_sign == 0
        assert walks.first_ladder_height_mean(gauss_walk) == 1.0 / math.sqrt(2.0)
        drifting = walks.TiltedWalk(rho=0.0, step=models.GaussianStep(0.5),
                                    drift=0.5, variance=1.0, span=None)
        skipping = zero_drift_lattice_walk([-1.0, 2.0], [2.0 / 3.0, 1.0 / 3.0])
        for walk in (drifting, skipping):
            with pytest.raises(ValueError, match="known exactly only"):
                walks.first_ladder_height_mean(walk)


class ScriptedUniforms:
    """Hands out a fixed list of uniforms through ``random``."""

    def __init__(self, us):
        self.us = list(us)

    def random(self, size):
        out, self.us = np.array(self.us[:size]), self.us[size:]
        return out


@pytest.fixture(scope="module")
def cf_table(ssrw):
    return walks.closed_form_renewal(ssrw, np.arange(0.0, 64.0, 1.0))


class TestConditionedChains:
    def test_weak_step_probabilities(self, ssrw, cf_table):
        # kernel proportional to p(z) R(z) 1{z >= 0}: P(up | y) = (y+2)/(2y+2)
        rng = np.random.default_rng(610)
        for y, p in ((0.0, 1.0), (1.0, 0.75), (2.0, 2.0 / 3.0)):
            ch = walks.conditioned_chain(ssrw, cf_table, y, 1, 40_000, rng)
            phat = float((ch[:, 1] == y + 1.0).mean())
            se = math.sqrt(max(p * (1 - p), 1e-12) / 40_000)
            assert abs(phat - p) <= 4.0 * se + 1e-9

    def test_weak_chain_can_touch_zero(self, ssrw, cf_table):
        rng = np.random.default_rng(611)
        ch = walks.conditioned_chain(ssrw, cf_table, 1.0, 2, 20_000, rng)
        assert (ch[:, 1] == 0.0).any()  # down move from 1 has weight R(0) > 0
        assert ch.min() >= 0.0

    def test_strict_marginals_match_oracle(self, ssrw, cf_table):
        rng = np.random.default_rng(612)
        ch = walks.conditioned_chain(ssrw, cf_table, 1.0, 3, 50_000, rng,
                                     boundary="positive")
        assert ch.min() >= 1.0
        exact = oracle.h_chain_marginal([1.0, -1.0], [0.5, 0.5],
                                        lambda v: np.maximum(v, 0.0), 1.0, 3)
        for v, p in exact.items():
            phat = float((ch[:, 3] == v).mean())
            se = math.sqrt(p * (1 - p) / 50_000)
            assert abs(phat - p) <= 4.0 * se + 1e-12

    def test_shared_draw_ties_go_to_the_next_row(self):
        # weights 0.5 * (1, 3) give the cumulative table (0.25, 1); like
        # models._inverse_cdf, a uniform on a boundary picks the next row
        # and the largest uniform below 1 stays in the table
        z = np.array([-1.0, 1.0])
        h = lambda v: np.where(np.asarray(v) > 2.0, 3.0, 1.0)
        us = [0.25, 0.25 - 2.0 ** -54, 1.0 - 2.0 ** -53]
        pick = walks.h_transform_pick(h, np.full(3, 2.0), z,
                                      np.array([0.5, 0.5]),
                                      ScriptedUniforms(us))
        assert pick.tolist() == [1, 0, 1]
        assert pick.tolist() == models._inverse_cdf(np.array([0.25, 1.0]),
                                                    np.array(us)).tolist()

    def test_vanishing_h_raises(self, ssrw):
        rng = np.random.default_rng(614)
        dead = lambda z: np.zeros_like(np.asarray(z, float))
        with pytest.raises(ValueError, match="vanishes"):
            walks.conditioned_chain(ssrw, dead, 3.0, 1, 4, rng)

    def test_continuous_chain_stays_in_law(self, gauss_walk):
        rng = np.random.default_rng(615)
        grid = np.linspace(0.0, 30.0, 31)
        table = walks.renewal_function(gauss_walk, grid, 8_000, rng,
                                       method="VisitCount", max_steps=10 ** 5)
        ch = walks.conditioned_chain(gauss_walk, table, 0.5, 4, 1_500, rng)
        assert ch.min() >= 0.0
        assert ch[:, -1].mean() > 0.5  # entropic repulsion pushes up

    def test_continuous_start_out_of_reach_raises(self, gauss_walk):
        # h is 0 below the barrier: no move from -10 within the envelope's
        # reach is possible, so the draw refuses instead of spinning
        table = walks.RenewalEstimate(np.array([0.0, 4.0]), np.array([1.0, 3.0]),
                                      np.zeros(2))
        with pytest.raises(ValueError, match="vanishes"):
            walks.conditioned_chain(gauss_walk, table, -10.0, 1, 4,
                                    np.random.default_rng(618))

    def test_continuous_needs_table(self, gauss_walk):
        rng = np.random.default_rng(616)
        with pytest.raises(ValueError, match="table"):
            walks.conditioned_chain(gauss_walk, lambda z: np.asarray(z) + 1.0,
                                    1.0, 1, 4, rng)

    def test_small_table_range_error(self, gauss_walk):
        rng = np.random.default_rng(617)
        grid = np.linspace(0.0, 2.0, 5)
        table = walks.renewal_function(gauss_walk, grid, 2_000, rng,
                                       method="VisitCount", max_steps=10 ** 4)
        with pytest.raises(ValueError, match="extend the grid"):
            walks.conditioned_chain(gauss_walk, table, 1.8, 30, 64, rng)

"""Spine measures: signature tables, many-to-one sums, survival weighting."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbrw import models, oracle, spines, trees, walks
from kbrw.seeds import rng_for_block

RHO_C = math.log(2.0 + math.sqrt(3.0))
P_UP_TILTED = 0.7449489742783178      # two-point step under the rho_plus tilt


@pytest.fixture(scope="module")
def model_c():
    return models.critical_lattice_binary()


@pytest.fixture(scope="module")
def two_point():
    return models.two_point_subcritical()


@pytest.fixture(scope="module")
def pattern():
    # one child down, or an up-down pair; mass-1 root log 2, tilted walk SSRW
    return models.PatternModel([(0.75, (-1.0,)), (0.25, (1.0, -1.0))])


def pooled_sigma(a, b):
    return math.hypot(a.stderr, b.stderr)


class TestSignatureTables:
    def test_iid_lattice_matches_enumeration(self, model_c):
        assert spines.spine_marginal_check(model_c) < 1e-12

    def test_two_point_matches_enumeration(self, two_point):
        assert spines.spine_marginal_check(two_point) < 1e-12

    def test_pattern_matches_enumeration(self, pattern):
        assert spines.spine_marginal_check(pattern) < 1e-15

    def test_untilted_table_is_far(self, model_c):
        # negative control: the raw product law is not the spine law
        kv, kp = model_c.nu.pmf()
        raw = {}
        for k, pk in zip(kv, kp):
            for z, pz in zip(model_c.step.support(), model_c.step.probs()):
                raw[(float(z), int(k))] = float(pk) * float(pz)
        assert spines.spine_marginal_check(model_c, oracle_table=raw) > 0.1

    @given(p_up=st.floats(0.005, 0.05))
    @settings(max_examples=20, deadline=None)
    def test_subcritical_two_point_family(self, p_up):
        m = models.IidModel(models.FixedOffspring(2),
                            models.TwoPointStep(up=1.0, down=-1.0, p_up=p_up))
        assert m.analytics().regime is models.Regime.SUBCRITICAL
        assert spines.spine_marginal_check(m) < 1e-9

    def test_gaussian_table_needs_finite_support(self):
        rep = spines.tilted_reproduction(models.critical_binary_gaussian())
        with pytest.raises(ValueError, match="finite"):
            rep.signature_table()


class TestSpineLaw:
    def test_binary_litters_leave_one_sibling(self, model_c):
        # exact law of (spine step, litter size): binary litters, unit steps
        table = spines.tilted_reproduction(model_c).signature_table()
        assert {k for _, k in table} == {2}
        assert {z for z, _ in table} <= {-1.0, 1.0}
        assert abs(sum(table.values()) - 1.0) < 1e-12

    def test_spine_step_is_tilted(self, two_point):
        rep = spines.tilted_reproduction(two_point)
        sup = rep.walk.step.support()
        p = rep.walk.step.probs()[list(sup).index(1.0)]
        assert abs(p - P_UP_TILTED) < 1e-12

    def test_largest_uniform_draws_the_last_litter_size(self):
        # the size-biased cdf of {2: 0.3, 3: 0.7} ends at 1 - 2^-53, the
        # largest value Generator.random returns
        m = models.IidModel(models.PmfOffspring([2, 3], [0.3, 0.7]),
                            models.TwoPointStep(1.0, -1.0, 0.01))
        rep = spines.tilted_reproduction(m)
        u = np.nextafter(1.0, 0.0)
        assert np.cumsum(rep.nu_probs)[-1] == u

        class TopRng:
            def random(self, n):
                return np.full(n, u)

        srep, spos = spines._iid_litter(rep, np.array([5.0]), np.array([0]),
                                        TopRng())
        assert srep.tolist() == [0, 0]          # litter of 3: two siblings
        assert spos.tolist() == [4.0, 4.0]

    def test_pattern_spine_is_symmetric_walk(self, pattern):
        table = spines.tilted_reproduction(pattern).signature_table()
        p_up = sum(v for (z, _), v in table.items() if z > 0)
        assert abs(p_up - 0.5) < 1e-12

    def test_no_default_tilt_outside_killed_regimes(self):
        m = models.IidModel(models.FixedOffspring(2), models.GaussianStep(0.0))
        with pytest.raises(ValueError, match="no default tilt"):
            spines.tilted_reproduction(m)


class TestManyToOne:
    def test_generation_sizes(self, model_c):
        ones = lambda paths: np.ones(paths.shape[0])
        for n, target, block in [(1, 2.0, 0), (3, 8.0, 1)]:
            est = spines.many_to_one_estimate(model_c, 0.0, n, ones, 100_000,
                                              rng_for_block(401, block))
            assert abs(est.value - target) < 4.0 * est.stderr

    def test_killed_generation_vs_enumeration(self, model_c):
        dp = oracle.tree_expectations(model_c, 1.0, 2)
        alive = lambda paths: np.all(paths >= 0.0, axis=1).astype(float)
        est = spines.many_to_one_estimate(model_c, 1.0, 2, alive, 200_000,
                                          rng_for_block(402, 0))
        assert abs(est.value - dp.alive[2]) < 4.0 * est.stderr

    def test_rejects_wrong_shape(self, model_c):
        bad = lambda paths: paths.sum()
        with pytest.raises(ValueError, match="one value per path"):
            spines.many_to_one_estimate(model_c, 0.0, 2, bad, 100,
                                        rng_for_block(402, 1))


class TestFirstCrosserMean:
    # skip-free-up walk: overshoot is exactly 1, so the tilted gambler's ruin
    # gives E_x[H(t)] = e^{-rho (t + 1 - x)} (x + 1) / (t + 2) in closed form
    def test_matches_closed_form(self, model_c):
        for x, t, block in [(0.0, 4.0, 0), (2.0, 6.0, 1)]:
            est = spines.estimate_EH(model_c, x, t, 200_000,
                                     rng_for_block(403, block))
            target = math.exp(-RHO_C * (t + 1.0 - x)) * (x + 1.0) / (t + 2.0)
            assert abs(est.value - target) < 4.0 * est.stderr

    def test_start_above_level_is_exact(self, model_c):
        est = spines.estimate_EH(model_c, 5.0, 4.0, 10, rng_for_block(403, 2))
        assert est.value == 1.0 and est.stderr == 0.0
        assert est.extra["exact"]

    def test_rejects_negative_start(self, model_c):
        with pytest.raises(ValueError, match="barrier"):
            spines.estimate_EH(model_c, -0.5, 4.0, 10, rng_for_block(403, 3))


class TestSurvival:
    def test_matches_forward_at_shallow_level(self, model_c):
        spine = spines.estimate_survival_spine(model_c, 0.0, 2.0, 20_000,
                                               rng_for_block(404, 0))
        fwd = trees.simulate_killed_forest(model_c, 0.0, [2.0], 150_000,
                                           rng_for_block(404, 1))
        from kbrw.estimates import binomial_estimate
        ref = binomial_estimate(int((fwd.H[0] > 0).sum()), 150_000)
        assert abs(spine.value - ref.value) < 4.0 * pooled_sigma(spine, ref)
        assert spine.stderr < ref.stderr / 3.0

    def test_band_agrees_with_exact_mode(self, model_c):
        exact = spines.estimate_survival_spine(model_c, 0.0, 6.0, 4000,
                                               rng_for_block(405, 0), band_eps=0.0)
        band = spines.estimate_survival_spine(model_c, 0.0, 6.0, 4000,
                                              rng_for_block(405, 1), band_eps=1e-3)
        assert exact.extra["bias_bound"] == 0.0
        assert 0.0 < band.extra["bias_bound"] < 0.1 * band.value
        tol = 4.0 * pooled_sigma(exact, band) + band.extra["bias_bound"]
        assert abs(band.value - exact.value) < tol

    def test_deep_level_is_reachable_and_certified(self, model_c):
        est = spines.estimate_survival_spine(model_c, 0.0, 12.0, 3000,
                                             rng_for_block(406, 0), band_eps=1e-4)
        # tilted gambler's ruin puts t = 12 survival near 2e-9; forward
        # simulation would need ~1e10 replicas to see it at all
        assert 1e-9 < est.value < 5e-9
        assert est.value < est.extra["weight_bound"]
        assert est.extra["ess"] > 1000.0
        assert est.extra["bias_bound"] < 0.1 * est.value
        assert est.extra["invalid_fraction"] == 0.0

    def test_capped_forest_is_truncation(self, model_c, monkeypatch):
        # off-spine trees capped at 4 births: the invalid replicas are the
        # estimate's truncated fraction, which the spine command reports
        forest = trees.simulate_killed_forest
        monkeypatch.setattr(trees, "simulate_killed_forest",
                            lambda *a, **k: forest(*a, trees.SimCaps(max_particles=4),
                                                   **k))
        est = spines.estimate_survival_spine(model_c, 0.0, 6.0, 500,
                                             rng_for_block(406, 1), band_eps=0.0)
        assert est.truncated_fraction > 0.0
        assert est.truncated_fraction == est.extra["invalid_fraction"]

    def test_subcritical_level(self, two_point):
        spine = spines.estimate_survival_spine(two_point, 0.0, 2.0, 20_000,
                                               rng_for_block(407, 0))
        fwd = trees.simulate_killed_forest(two_point, 0.0, [2.0], 200_000,
                                           rng_for_block(407, 1))
        from kbrw.estimates import binomial_estimate
        ref = binomial_estimate(int((fwd.H[0] > 0).sum()), 200_000)
        assert abs(spine.value - ref.value) < 4.0 * pooled_sigma(spine, ref)

    def test_pattern_model_level(self, pattern):
        spine = spines.estimate_survival_spine(pattern, 0.0, 2.0, 10_000,
                                               rng_for_block(408, 0))
        fwd = trees.simulate_killed_forest(pattern, 0.0, [2.0], 100_000,
                                           rng_for_block(408, 1))
        from kbrw.estimates import binomial_estimate
        ref = binomial_estimate(int((fwd.H[0] > 0).sum()), 100_000)
        assert abs(spine.value - ref.value) < 4.0 * pooled_sigma(spine, ref)

    @pytest.mark.parametrize("name", ["model_c", "two_point"])
    def test_off_lattice_start_is_the_shifted_level(self, name, request):
        # half a span up, start and level alike: the same killed tree, so
        # the same survival; only the renewal table's grid differs
        model = request.getfixturevalue(name)
        off = spines.estimate_survival_spine(model, 0.5, 4.0, 40_000,
                                             rng_for_block(411, 0), band_eps=0.0)
        on = spines.estimate_survival_spine(model, 0.0, 3.0, 40_000,
                                            rng_for_block(411, 1), band_eps=0.0)
        assert abs(off.value - on.value) < 4.0 * pooled_sigma(off, on)

    @pytest.mark.parametrize("span", [0.3, 0.1])
    def test_span_scaled_lattice_is_the_unit_lattice(self, span):
        # the +-span spine walks in whole spans: same draws, same weights
        def run(s):
            p_up = (2.0 - math.sqrt(3.0)) / 4.0
            m = models.IidModel(models.FixedOffspring(2),
                                models.TwoPointStep(s, -s, p_up))
            return spines.estimate_survival_spine(m, 0.0, 4 * s, 20_000,
                                                  np.random.default_rng(7),
                                                  band_eps=0.0)
        unit, scaled = run(1.0), run(span)
        assert unit.value == pytest.approx(2.0347e-4, rel=1e-4)
        assert scaled.value == pytest.approx(unit.value, rel=1e-12, abs=0)
        assert scaled.stderr == pytest.approx(unit.stderr, rel=1e-12, abs=0)

    def test_gaussian_with_estimated_renewal(self):
        m = models.critical_binary_gaussian()
        tw = walks.make_tilted_walk(m, m.analytics().rho_star)
        ren = walks.renewal_function(tw, np.linspace(0.0, 15.0, 31), 20_000,
                                     rng_for_block(409, 0),
                                     method="LadderDuality")
        spine = spines.estimate_survival_spine(m, 0.5, 3.0, 4000,
                                               rng_for_block(409, 1),
                                               renewal=ren, band_eps=1e-4)
        fwd = trees.simulate_killed_forest(m, 0.5, [3.0], 100_000,
                                           rng_for_block(409, 2))
        from kbrw.estimates import binomial_estimate
        ref = binomial_estimate(int((fwd.H[0] > 0).sum()), 100_000)
        # the table's harmonicity error adds a small model bias on top of
        # the MC noise; the forward stderr dominates both here
        assert abs(spine.value - ref.value) < 5.0 * pooled_sigma(spine, ref)

    def test_start_above_level_is_exact(self, model_c):
        est = spines.estimate_survival_spine(model_c, 3.0, 2.0, 10,
                                             rng_for_block(410, 0))
        assert est.value == 1.0 and est.extra["exact"]

    def test_continuous_needs_table(self):
        with pytest.raises(ValueError, match="renewal"):
            spines.estimate_survival_spine(models.critical_binary_gaussian(),
                                           0.0, 2.0, 10, rng_for_block(410, 1))

    def test_rejects_negative_start(self, model_c):
        with pytest.raises(ValueError, match="barrier"):
            spines.estimate_survival_spine(model_c, -1.0, 2.0, 10,
                                           rng_for_block(410, 2))

"""Forest engine: progeny counts, probe bookkeeping, martingale means."""

import hashlib
import json
import math

import numpy as np
import pytest

from kbrw import models, oracle, trees
from kbrw.seeds import rng_for_block

RHO_C = math.log(2.0 + math.sqrt(3.0))   # lattice model tangent tilt


@pytest.fixture(scope="module")
def model_c():
    return models.critical_lattice_binary()


@pytest.fixture(scope="module")
def gauss():
    return models.critical_binary_gaussian()


@pytest.fixture(scope="module")
def two_point():
    return models.two_point_subcritical()


@pytest.fixture(scope="module")
def plain_forest(model_c):
    return trees.simulate_killed_forest(model_c, 0.0, [], 30_000,
                                        rng_for_block(300, 0))


@pytest.fixture(scope="module")
def probed_forest(model_c):
    return trees.simulate_killed_forest(model_c, 0.0, [1.0, 2.0, 3.0], 30_000,
                                        rng_for_block(300, 1))


class ScriptedRng:
    """Feeds a fixed displacement list through the N(mu,1) sampler."""

    def __init__(self, disps, mu):
        self.z = [d - mu for d in disps]

    def standard_normal(self, size=None):
        n = 1 if size is None else int(np.prod(size))
        out = np.array([self.z.pop(0) for _ in range(n)])
        return out.reshape(size) if size is not None else out[0]

    def random(self, size=None):
        n = 1 if size is None else int(np.prod(size))
        out = np.zeros(n)
        return out.reshape(size) if size is not None else out[0]


def scripted_counts(model, x, disps):
    """(Z, leaves, Y) of one scripted tree from the forest engine."""
    f = trees.simulate_killed_forest(model, x, [], 1,
                                     ScriptedRng(disps, model.step.mu))
    return int(f.Z[0]), int(f.leaves[0]), int(f.Y[0])


def digest(*parts) -> str:
    """sha256 over arrays (dtype and raw bytes) and JSON of anything else."""
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(p.dtype.str.encode())
            h.update(np.ascontiguousarray(p).tobytes())
        else:
            h.update(json.dumps(p, sort_keys=True).encode())
    return h.hexdigest()


def forest_digest(f, rng) -> str:
    return digest(f.probe_levels, f.Z, f.leaves, f.Y, f.H, f.truncated,
                  f.generations, *f.overshoots, rng.bit_generator.state)


def dying_model():
    # zero-child litters: 0 or 3 offspring, subcritical
    return models.IidModel(models.PmfOffspring([0, 3], [0.4, 0.6]),
                           models.GaussianStep(-1.2, 1.0))


def spine_shaped():
    starts = np.random.default_rng(5).uniform(0.0, 3.0, 3000)
    return models.critical_binary_gaussian(), starts, [4.0], 3000, trees.SimCaps()


def lattice_levels():
    return models.critical_lattice_binary(), 0.0, [1.0, 2.0, 3.0], 5000, trees.SimCaps()


def both_caps():
    # about 1% of trees truncated, by both the particle and generation caps
    caps = trees.SimCaps(max_particles=80, max_generations=10)
    return models.critical_lattice_binary(), 0.0, [3.0, 6.0], 5000, caps


def zero_litters():
    return dying_model(), 0.5, [1.0, 2.5], 5000, trees.SimCaps()


def pattern_model():
    # the spine tests' pattern: one child down, or an up-down pair
    model = models.PatternModel([(0.75, (-1.0,)), (0.25, (1.0, -1.0))])
    return model, 0.0, [2.0], 20_000, trees.SimCaps()


def scaled_critical(span):
    """The critical lattice model with its +-1 steps scaled to +-span."""
    return models.IidModel(models.FixedOffspring(2),
                           models.TwoPointStep(span, -span,
                                               (2.0 - math.sqrt(3.0)) / 4.0))


def half_span():
    # a dyadic span: float positions were exact before the whole-span format
    return scaled_critical(0.5), 0.5, [1.0, 2.0], 5000, trees.SimCaps()


# (case, block, sha256) over the counters and the top level's overshoots,
# computed by the repeat/bincount engine of kbrw 0.2.0 (half_span by the
# float-position engine of 0.4.0); the run-tally engine of 0.3.0 and the
# whole-span positions of 0.5.0 reproduce them
FOREST_DIGESTS = [
    (spine_shaped, 0,
     "7ae550bba66eff2388c5fcc337f415b0bb35a096e913d1252acb9dc7112cbc1c"),
    (lattice_levels, 1,
     "ad63fc0059e02f21b9d6c44623e52f11e5b85161994623c8c3fce68d2e984afb"),
    (both_caps, 2,
     "0f4ccb78eea4afdcc1c4f399f20d473ff13a33f12c8f65d13013a13bd2d1a07b"),
    (zero_litters, 3,
     "f30b2063d7e5c3438e70d7e9f543f37b50ca5b58789ae5b17259d58f4959eea3"),
    (pattern_model, 4,
     "4c32a4fdf1983146dc7d54567985cc5229afa936fb2a1b1732a33379c2126871"),
    (half_span, 5,
     "43e9137dafa9f0fa90365d7ca35745a81879d8a15d0a65b3835ad5f53c8302f7"),
]


class TestSameBytes:
    """Every output byte and the generator's final state, pinned."""

    @pytest.mark.parametrize("case, block, expected", FOREST_DIGESTS,
                             ids=[c[0].__name__ for c in FOREST_DIGESTS])
    def test_forest(self, case, block, expected):
        model, x, levels, n, caps = case()
        rng = rng_for_block(310, block)
        f = trees.simulate_killed_forest(model, x, levels, n, rng, caps)
        assert forest_digest(f, rng) == expected

    def test_martingale_levels(self, gauss):
        got = []
        for block, (model, kw) in enumerate(
                [(gauss, dict(prune_eps=0.5, freeze_above=3.0)),
                 (dying_model(), dict(prune_eps=1e-12, max_particles=200))]):
            rng = rng_for_block(311, block)
            fl = trees.martingale_levels(model, 0.3, 6, 3000, rng, **kw)
            m = fl.M if fl.M is not None else np.empty(0)
            got.append(digest(fl.W, fl.dW, m, fl.extinct, fl.truncated,
                              fl.pruned_mass_fraction, rng.bit_generator.state))
        assert got == [
            "3edae58ed78a48fa5f30500b74a6b29c18d993cb374a009263e3643d80f3b539",
            "ac5c022df51cf26df4d9515097cc50bc9d3e585f47b953322179f5258624b137"]

    def test_stopped_line_tilted_mass(self, model_c, two_point):
        got = []
        for block, model in enumerate([model_c, two_point]):
            rng = rng_for_block(312, block)
            # 6000 replicas take two LINE_BLOCK passes
            est = trees.stopped_line_tilted_mass(model, 0.0, 3.0, 6000, rng)
            got.append(digest(est.value, est.stderr,
                              est.extra["credited_fraction"],
                              rng.bit_generator.state))
        assert got == [
            "bbd9447500057fb05c4c3d28d1aaf58d8727096cb7768f0520d3a4497348e65b",
            "abfe0dff3f9f04ef6eb6c2577a2e8b10c5e6d98110998abe5bd1b94a1eea2e62"]


class TestSpanInvariance:
    """A +-span forest counts positions in whole spans, so the same draws
    give the +-1 forest's counters at every span, dyadic or not: summed in
    floats, 0.6 + 0.3 - 0.3 - 0.3 - 0.3 lands below 0 and kills a child."""

    N = 200_000

    def forest(self, span):
        return trees.simulate_killed_forest(scaled_critical(span), 2 * span,
                                            [4 * span, 8 * span], self.N,
                                            np.random.default_rng(5))

    @pytest.fixture(scope="class")
    def unit(self):
        return self.forest(1.0)

    @pytest.mark.parametrize("span", [1.0, 0.5, 0.1, 0.3])
    def test_counters_equal_the_unit_forest(self, unit, span):
        f = self.forest(span)
        for name in ("Z", "leaves", "Y", "H", "truncated", "generations"):
            assert np.array_equal(getattr(f, name), getattr(unit, name)), name
        assert np.array_equal(f.overshoots[0], unit.overshoots[0])
        np.testing.assert_allclose(f.overshoots[1], span * unit.overshoots[1],
                                   rtol=0, atol=1e-12)

    def test_progeny_mean_matches_the_oracle(self):
        f = self.forest(0.3)
        exact = oracle.tree_expectations(scaled_critical(0.3), 0.6, 400,
                                         level=2.4)
        ez = exact.alive.sum() + exact.crossers.sum()      # 35.387
        se = f.Z.std(ddof=1) / math.sqrt(self.N)
        assert abs(f.Z.mean() - ez) <= 4.0 * se

    def test_starts_on_two_cosets_are_refused(self, model_c):
        with pytest.raises(ValueError, match="coset"):
            trees.simulate_killed_forest(model_c, [0.0, 0.5], [], 2,
                                         rng_for_block(300, 2))


class TestRuns:
    def test_empty(self):
        uniq, starts = trees._runs(np.empty(0, np.int64))
        assert uniq.size == 0 and starts.size == 0

    def test_one_run(self):
        uniq, starts = trees._runs(np.full(5, 7, np.int64))
        assert uniq.tolist() == [7] and starts.tolist() == [0]

    def test_all_distinct(self):
        uniq, count = trees._tally(np.array([0, 3, 4, 9], np.int64))
        assert uniq.tolist() == [0, 3, 4, 9] and count.tolist() == [1, 1, 1, 1]

    def test_mixed_runs(self):
        uniq, count = trees._tally(np.array([1, 1, 2, 5, 5, 5], np.int64))
        assert uniq.tolist() == [1, 2, 5] and count.tolist() == [2, 1, 3]


def test_default_caps_are_frozen():
    with pytest.raises(AttributeError):
        trees.SimCaps().max_particles = 1


class TestForestCounts:
    def test_no_truncation_at_default_caps(self, plain_forest):
        assert plain_forest.truncated_fraction == 0.0

    def test_exploration_equals_leaves_without_probes(self, plain_forest):
        ok = ~plain_forest.truncated
        assert np.all(plain_forest.Y[ok] == plain_forest.leaves[ok])

    def test_binary_leaf_progeny_identity(self, plain_forest):
        # every alive particle begets 2 children, so leaves = Z + 1
        ok = ~plain_forest.truncated
        assert np.all(plain_forest.leaves[ok] == plain_forest.Z[ok] + 1)

    def test_capped_leaf_mean_matches_enumeration(self, model_c):
        # the full mean converges too slowly to test (the progeny tail is
        # 1/(n log^2 n)); the generation-capped mean is bounded and sharp
        f = trees.simulate_killed_forest(model_c, 0.0, [], 200_000,
                                         rng_for_block(300, 2),
                                         trees.SimCaps(max_generations=6))
        dp = oracle.tree_expectations(model_c, x=0.0, depth=6, barrier=True)
        se = f.leaves.std() / math.sqrt(f.n_replicas)
        assert abs(f.leaves.mean() - dp.leaves.sum()) < 4 * se

    def test_crossing_events_monotone_in_level(self, probed_forest):
        ind = probed_forest.H > 0
        assert np.all(ind[2] <= ind[1])
        assert np.all(ind[1] <= ind[0])

    def test_leaf_crossing_decomposition_at_top(self, probed_forest):
        ok = ~probed_forest.truncated
        assert np.all(probed_forest.Y[ok]
                      == probed_forest.leaves[ok] + probed_forest.H[2][ok])

    def test_lattice_overshoots_all_one(self, probed_forest):
        _, vals = probed_forest.overshoots
        assert vals.size > 0
        assert np.allclose(vals, 1.0)

    def test_trace_root_with_two_dead_children(self, gauss):
        assert scripted_counts(gauss, 0.5, [-0.8, -0.8]) == (1, 2, 2)

    def test_trace_one_survivor_then_extinction(self, gauss):
        # gen 1: children at 0.2 and -0.1; gen 2: both of 0.2's children die
        got = scripted_counts(gauss, 0.5, [-0.3, -0.6, -0.5, -0.7])
        assert got == (2, 3, 3)

    def test_rejects_negative_start(self, model_c):
        with pytest.raises(ValueError):
            trees.simulate_killed_forest(model_c, -0.5, [], 10,
                                         rng_for_block(300, 3))

    def test_rejects_supercritical_model(self):
        sup = models.IidModel(models.FixedOffspring(2),
                              models.GaussianStep(0.0, 1.0))
        with pytest.raises(ValueError, match="infinite"):
            trees.simulate_killed_forest(sup, 0.0, [], 10,
                                         rng_for_block(300, 4))

    def test_rejects_probe_at_or_below_start(self, model_c):
        with pytest.raises(ValueError):
            trees.simulate_killed_forest(model_c, 1.0, [0.5], 10,
                                         rng_for_block(300, 5))

    def test_truncation_reported_with_tiny_caps(self, model_c):
        caps = trees.SimCaps(max_particles=8)
        f = trees.simulate_killed_forest(model_c, 3.0, [], 2_000,
                                         rng_for_block(300, 6), caps)
        assert f.truncated_fraction > 0.0


class TestMartingales:
    def test_additive_mean_constant_under_hard_pruning(self, gauss):
        # credits replace pruned subtrees by their conditional means, so the
        # recorded means must stay exactly e^{rho x} at every generation
        flow = trees.martingale_levels(gauss, 0.3, 10, 100_000,
                                       rng_for_block(305, 0), prune_eps=0.5)
        target = math.exp(flow.rho_W * 0.3)
        assert flow.pruned_mass_fraction > 0.05
        for g in range(11):
            se = flow.W[:, g].std() / math.sqrt(100_000)
            assert abs(flow.W[:, g].mean() - target) < 4 * se + 1e-12

    def test_derivative_mean_zero_from_origin(self, gauss):
        # the derivative mass rides the unpruned upper tail, so only small
        # generations give sharp sample means
        flow = trees.martingale_levels(gauss, 0.0, 4, 100_000,
                                       rng_for_block(305, 1), prune_eps=0.5)
        assert flow.rho_W == flow.rho_star and flow.M is None
        for g in range(5):
            se = flow.dW[:, g].std() / math.sqrt(100_000)
            assert abs(flow.dW[:, g].mean()) < 4 * se + 1e-12

    def test_subcritical_pair_small_n(self, two_point):
        flow = trees.martingale_levels(two_point, 0.5, 3, 100_000,
                                       rng_for_block(305, 2), prune_eps=0.5)
        tw = math.exp(flow.rho_W * 0.5)
        tm = math.exp(flow.rho_minus * 0.5)
        for g in range(4):
            sw = flow.W[:, g].std() / math.sqrt(100_000)
            sm = flow.M[:, g].std() / math.sqrt(100_000)
            assert abs(flow.W[:, g].mean() - tw) < 4 * sw + 1e-12
            assert abs(flow.M[:, g].mean() - tm) < 4 * sm + 1e-12

    def test_lattice_matches_free_enumeration(self, model_c):
        dp = oracle.tree_expectations(model_c, x=0.0, depth=3, barrier=False,
                                      rho=RHO_C)
        flow = trees.martingale_levels(model_c, 0.0, 3, 100_000,
                                       rng_for_block(305, 3), prune_eps=1e-9)
        for g in range(4):
            se = flow.W[:, g].std() / math.sqrt(100_000)
            assert abs(dp.wsum[g] - 1.0) < 1e-12
            assert abs(flow.W[:, g].mean() - dp.wsum[g]) < 4 * se + 1e-12

    def test_extinct_trees_hold_zero(self):
        # the free tree only dies if nu = 0 has mass; 0-or-3 offspring dies
        # with probability about 0.45
        flow = trees.martingale_levels(dying_model(), 0.0, 10, 20_000,
                                       rng_for_block(305, 4), prune_eps=1e-12)
        assert 0.3 < flow.extinct.mean() < 0.6
        assert np.all(flow.W[flow.extinct, 10] == 0.0)
        assert np.all(flow.dW[flow.extinct, 10] == 0.0)
        assert np.all(flow.M[flow.extinct, 10] == 0.0)

    def test_supercritical_rejected(self):
        sup = models.IidModel(models.FixedOffspring(2),
                              models.GaussianStep(0.0, 1.0))
        with pytest.raises(ValueError):
            trees.martingale_levels(sup, 0.0, 3, 10, rng_for_block(305, 6))


class TestStoppedLine:
    def test_critical_lattice_mean(self, model_c):
        est = trees.stopped_line_tilted_mass(model_c, 0.0, 3.0, 60_000,
                                             rng_for_block(306, 0))
        assert est.within(1.0, 4.0)
        assert 0.0 < est.extra["credited_fraction"] < 0.8

    def test_subcritical_mean(self, two_point):
        est = trees.stopped_line_tilted_mass(two_point, 0.0, 2.0, 100_000,
                                             rng_for_block(306, 1))
        assert est.within(1.0, 4.0)

    def test_gaussian_mean_from_offset_start(self, gauss):
        est = trees.stopped_line_tilted_mass(gauss, 0.5, 3.0, 20_000,
                                             rng_for_block(306, 2))
        assert est.within(est.extra["target"], 4.0)
        assert est.extra["target"] == pytest.approx(
            math.exp(1.1774100225154747 * 0.5))

    def test_rejects_negative_drift_tilt(self, two_point):
        an = two_point.analytics()
        with pytest.raises(ValueError, match="drift"):
            trees.stopped_line_tilted_mass(two_point, 0.0, 2.0, 10,
                                           rng_for_block(306, 3),
                                           rho=an.rho_minus)

    def test_rejects_level_below_start(self, model_c):
        with pytest.raises(ValueError):
            trees.stopped_line_tilted_mass(model_c, 2.0, 1.0, 10,
                                           rng_for_block(306, 4))

    def test_rejects_non_unit_mass_tilt(self, two_point):
        with pytest.raises(ValueError, match="mass-1"):
            trees.stopped_line_tilted_mass(two_point, 0.0, 2.0, 10,
                                           rng_for_block(306, 5), rho=1.0)


class TestYaglom:
    def test_survival_bounded_by_crossing_mean(self, model_c):
        # P(H(t) > 0) <= E[H(t)], and the skip-free crossing mean is explicit
        t, x = 2.0, 0.0
        f = trees.simulate_killed_forest(model_c, x, [t], 150_000,
                                         rng_for_block(307, 1))
        h = f.H[0].astype(float)
        eh = math.exp(-RHO_C * (t + 1 - x)) * (x + 1) / (t + 2)
        assert (h > 0).mean() <= eh * 1.05
        se = h.std() / math.sqrt(h.size)
        assert abs(h.mean() - eh) < 4 * se

"""Model analytics against closed forms, plus structural properties."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kbrw.models import (
    BUILTIN_MODELS,
    FiniteStep,
    FixedOffspring,
    GaussianStep,
    IidModel,
    LatticeFrame,
    PatternModel,
    PmfOffspring,
    Regime,
    TwoPointStep,
    classify_regime,
    critical_binary_gaussian,
    critical_lattice_binary,
    find_rho_pm,
    find_rho_star,
    in_spans,
    lattice_span,
    lattice_units,
    log_laplace,
    model_from_json,
    model_to_json,
    resolve_model,
    size_biased_pmf,
    subcritical_binary_gaussian,
    two_point_subcritical,
)
from kbrw.walks import make_tilted_walk

SQRT6 = math.sqrt(6.0)
SQRT3 = math.sqrt(3.0)

# closed forms for the built-in models, derived by hand:
#   binary gaussian: psi(t) = log 2 + mu t + t^2/2
#     critical at mu = -sqrt(2 log 2), rho_star = sqrt(2 log 2) = 1.1774100225154747
#     mu = -1.5: rho_star = 1.5, rho_pm = 1.5 -+ sqrt(2.25 - 2 log 2)
#   binary two-point (+1 w.p. p, -1 w.p. 1-p): psi(rho) = 0 iff
#     y = e^{rho} solves p y^2 - y + (1-p) = 0 scaled by 2:
#     p = 0.05: y^2 - 10 y + 19 = 0, y_pm = 5 +- sqrt(6)
#   critical lattice (p = (2-sqrt(3))/4): rho_star = log(2 + sqrt(3)),
#     tilt at rho_star is the symmetric simple random walk
RHO_STAR_CRIT_GAUSS = math.sqrt(2.0 * math.log(2.0))
RHO_MINUS_GAUSS = 1.5 - math.sqrt(2.25 - 2.0 * math.log(2.0))
RHO_PLUS_GAUSS = 1.5 + math.sqrt(2.25 - 2.0 * math.log(2.0))
RHO_MINUS_TWO_POINT = math.log(5.0 - SQRT6)    # 0.9362934400221681
RHO_PLUS_TWO_POINT = math.log(5.0 + SQRT6)     # 2.0081455391442722
RHO_STAR_LATTICE = math.log(2.0 + SQRT3)       # 1.3169578969248166


class TestBuiltinAnalytics:
    def test_critical_gaussian(self):
        m = critical_binary_gaussian()
        an = m.analytics()
        assert an.regime is Regime.CRITICAL
        assert an.rho_star == pytest.approx(RHO_STAR_CRIT_GAUSS, abs=1e-10)
        psi, dpsi, d2psi = log_laplace(m, an.rho_star)
        assert abs(psi) < 1e-10
        assert abs(dpsi) < 1e-9
        assert d2psi == pytest.approx(1.0, abs=1e-8)
        assert make_tilted_walk(m).span is None
        assert an.regime_tilt() == an.rho_star

    def test_subcritical_gaussian(self):
        an = subcritical_binary_gaussian().analytics()
        assert an.regime is Regime.SUBCRITICAL
        # for unit variance the minimizer of psi(t)/t does not depend on mu
        assert an.rho_star == pytest.approx(RHO_STAR_CRIT_GAUSS, abs=1e-10)
        assert an.rho_minus == pytest.approx(RHO_MINUS_GAUSS, abs=1e-10)
        assert an.rho_plus == pytest.approx(RHO_PLUS_GAUSS, abs=1e-10)
        assert an.regime_tilt() == an.rho_plus

    def test_two_point(self):
        m = two_point_subcritical()
        an = m.analytics()
        assert an.regime is Regime.SUBCRITICAL
        assert an.rho_minus == pytest.approx(RHO_MINUS_TWO_POINT, abs=1e-9)
        assert an.rho_plus == pytest.approx(RHO_PLUS_TWO_POINT, abs=1e-9)
        assert make_tilted_walk(m).span == pytest.approx(1.0)
        # slope ratio of the two tail exponents
        assert an.rho_plus / an.rho_minus == pytest.approx(2.1447825, abs=1e-6)

    def test_two_point_tilt_is_positive_drift(self):
        m = two_point_subcritical()
        an = m.analytics()
        tilted = m.step.tilted(an.rho_plus)
        # q = p e^{rho+} / E[e^{rho+ X}] with E[e^{rho+ X}] = 1/2 at psi = 0
        assert tilted.p_up == pytest.approx(0.1 * (5.0 + SQRT6), abs=1e-12)
        _, dpsi, _ = log_laplace(m, an.rho_plus)
        assert dpsi == pytest.approx(2.0 * tilted.p_up - 1.0, abs=1e-12)
        assert dpsi > 0

    def test_critical_lattice(self):
        m = critical_lattice_binary()
        an = m.analytics()
        assert an.regime is Regime.CRITICAL
        assert an.rho_star == pytest.approx(RHO_STAR_LATTICE, abs=1e-9)
        assert make_tilted_walk(m).span == pytest.approx(1.0)
        assert log_laplace(m, an.rho_star)[2] == pytest.approx(1.0, abs=1e-8)
        tilted = critical_lattice_binary().step.tilted(an.rho_star)
        assert tilted.p_up == pytest.approx(0.5, abs=1e-12)

    def test_builtin_registry(self):
        assert set(BUILTIN_MODELS) == {
            "critical-gaussian", "subcritical-gaussian", "two-point", "critical-lattice"}
        for name, ctor in BUILTIN_MODELS.items():
            assert ctor().analytics().regime in (Regime.CRITICAL, Regime.SUBCRITICAL)


class TestRegimeBoundaries:
    def test_supercritical_is_out_of_scope(self):
        m = IidModel(FixedOffspring(2), TwoPointStep(1.0, -1.0, 0.5))
        an = m.analytics()
        assert an.regime is Regime.OUT_OF_SCOPE
        assert an.note

    def test_escape_upward_is_out_of_scope(self):
        for m in (
            # deterministic +1 drift: psi(t)/t decreases to 1, no interior minimum
            IidModel(FixedOffspring(2), FiniteStep([1.0], [1.0])),
            # 1.5 expected children at the top displacement +1
            PatternModel([(0.5, (1.0, 1.0, -1.0)), (0.5, (1.0, -2.0))]),
        ):
            an = m.analytics()
            assert an.regime is Regime.OUT_OF_SCOPE
            assert "escape" in an.note or "minimum" in an.note

    def test_rho_pm_refuses_critical(self):
        with pytest.raises(ValueError):
            find_rho_pm(critical_binary_gaussian())

    def test_mean_offspring_must_exceed_one(self):
        with pytest.raises(ValueError):
            IidModel(FixedOffspring(1), GaussianStep(-1.0))

    def test_regime_tilt_refuses_out_of_scope(self):
        m = IidModel(FixedOffspring(2), TwoPointStep(1.0, -1.0, 0.5))
        with pytest.raises(ValueError):
            m.analytics().regime_tilt()


class TestLogLaplace:
    def test_psi_at_zero_is_log_mean(self):
        for ctor in BUILTIN_MODELS.values():
            m = ctor()
            assert m.psi(0.0) == pytest.approx(math.log(m.mean_offspring), abs=1e-12)

    def test_derivatives_match_finite_differences(self):
        m = two_point_subcritical()
        h = 1e-5
        for t in (-0.7, 0.3, 1.1, 2.4):
            psi, dpsi, d2psi = log_laplace(m, t)
            fd1 = (m.psi(t + h) - m.psi(t - h)) / (2 * h)
            fd2 = (m.psi(t + h) - 2 * psi + m.psi(t - h)) / (h * h)
            assert dpsi == pytest.approx(fd1, abs=1e-7)
            assert d2psi == pytest.approx(fd2, abs=1e-5)

    def test_rho_star_two_strategy_consistency_on_builtin_grid(self):
        # the cross-check inside find_rho_star must hold for every builtin
        for ctor in BUILTIN_MODELS.values():
            r = find_rho_star(ctor())
            assert r > 0


@st.composite
def finite_models(draw):
    n_vals = draw(st.integers(2, 4))
    vals = draw(st.lists(st.floats(-3.0, 3.0), min_size=n_vals, max_size=n_vals,
                         unique=True))
    weights = draw(st.lists(st.integers(1, 9), min_size=n_vals, max_size=n_vals))
    probs = np.asarray(weights, float) / sum(weights)
    mean_nu = draw(st.integers(2, 3))
    return IidModel(FixedOffspring(mean_nu), FiniteStep(vals, probs))


class TestPsiProperties:
    @given(finite_models(), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_psi_is_convex(self, m, s, t):
        mid = m.psi(0.5 * (s + t))
        assert mid <= 0.5 * (m.psi(s) + m.psi(t)) + 1e-10

    @given(finite_models(), st.floats(-2.0, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_second_derivative_nonnegative(self, m, t):
        assert log_laplace(m, t)[2] >= -1e-9

    @given(finite_models(), st.floats(-1.5, 1.5), st.floats(-1.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_tilted_mgf_is_shifted_mgf(self, m, rho, t):
        tilted = m.step.tilted(rho)
        m0_t = tilted.mgf_parts(t)[0]
        m0 = m.step.mgf_parts(t + rho)[0]
        m0_rho = m.step.mgf_parts(rho)[0]
        assert m0_t == pytest.approx(m0 / m0_rho, rel=1e-10)


class TestPatternModel:
    def test_psi_matches_manual_sum(self):
        m = PatternModel([(0.5, (0.3, -0.2)), (0.5, (0.1, -0.1, -0.4))])
        t = 0.8
        manual = 0.5 * (math.exp(t * 0.3) + math.exp(-t * 0.2)) + \
            0.5 * (math.exp(t * 0.1) + math.exp(-t * 0.1) + math.exp(-t * 0.4))
        assert m.psi(t) == pytest.approx(math.log(manual), abs=1e-12)
        assert m.mean_offspring == pytest.approx(2.5)

    def test_atom_probs_must_sum_to_one(self):
        with pytest.raises(ValueError):
            PatternModel([(0.5, (0.1, 0.2)), (0.4, (0.3, -0.3))])

    def test_spawn_uses_atoms(self):
        m = PatternModel([(0.5, (1.0, -1.0)), (0.5, (2.0, -2.0, 0.5))])
        nu, disp = m.spawn(np.random.default_rng(0), 20)
        assert set(nu.tolist()) == {2, 3}
        assert disp.size == nu.sum()
        parent = np.repeat(np.arange(20), nu)
        for i in range(20):
            assert disp[parent == i].tolist() in ([1.0, -1.0], [2.0, -2.0, 0.5])


class TestIntensity:
    def test_pattern_table(self):
        # the spine tests' pattern: one child down, or an up-down pair
        m = PatternModel([(0.75, (-1.0,)), (0.25, (1.0, -1.0))])
        z, lam = m.intensity()
        assert z.tolist() == [-1.0, 1.0]
        assert lam.tolist() == [1.0, 0.25]

    def test_iid_lattice_is_mean_times_probs(self):
        m = critical_lattice_binary()
        z, lam = m.intensity()
        assert z.tolist() == [-1.0, 1.0]
        assert lam.tolist() == (2.0 * m.step.probs()).tolist()

    def test_continuous_step_has_none(self):
        assert critical_binary_gaussian().intensity() is None


def _slot_loop_reference(m, t):
    """tilted_step weights and pattern_mgf_parts summed slot by slot."""
    sup = np.unique(np.concatenate(m.patterns))
    weights = np.zeros(sup.size)
    m0 = m1 = m2 = 0.0
    for q, pat in zip(m.atom_probs, m.patterns):
        for z in pat:
            w = q * math.exp(t * z)
            weights[np.searchsorted(sup, z)] += w
            m0, m1, m2 = m0 + w, m1 + w * z, m2 + w * z * z
    return sup, weights / weights.sum(), (m0, m1, m2, math.log(m0))


class TestPatternAgreesWithSlotLoop:
    @pytest.mark.parametrize("atoms", [
        [(0.5, (0.3, -0.2)), (0.5, (0.1, -0.1, -0.4))],
        [(0.75, (-1.0,)), (0.25, (1.0, -1.0))],
        [(0.2, ()), (0.3, (0.5, 0.5, -1.5)), (0.5, (-1.5, 2.0, 0.5))],
    ])
    def test_tilted_step_and_mgf_parts(self, atoms):
        m = PatternModel(atoms)
        for t in (-0.9, 0.0, 0.7, 2.3):
            sup, probs, parts = _slot_loop_reference(m, t)
            step = m.tilted_step(t)
            assert step.values.tolist() == sup.tolist()
            np.testing.assert_allclose(step.probs(), probs, rtol=1e-14, atol=0)
            np.testing.assert_allclose(m.pattern_mgf_parts(t), parts,
                                       rtol=1e-14, atol=0)


class TestOffspring:
    def test_size_biased_pmf(self):
        nu = PmfOffspring([1, 2, 3], [0.2, 0.5, 0.3])
        vals, probs = size_biased_pmf(nu)
        mean = 0.2 + 1.0 + 0.9
        np.testing.assert_allclose(probs, [0.2 / mean, 1.0 / mean, 0.9 / mean])
        assert probs.sum() == pytest.approx(1.0)

    def test_pmf_offspring_sampling_frequencies(self):
        nu = PmfOffspring([0, 2, 5], [0.3, 0.5, 0.2])
        rng = np.random.default_rng(7)
        draws = nu.sample(rng, 200_000)
        for v, p in zip(*nu.pmf()):
            assert np.mean(draws == v) == pytest.approx(p, abs=5e-3)


class TestLatticeSpan:
    def test_unit_lattice(self):
        assert lattice_span([1.0, -1.0]) == pytest.approx(1.0)

    def test_rational_span(self):
        assert lattice_span([0.5, -0.25]) == pytest.approx(0.25)
        assert lattice_span([1.0 / 3.0, 0.5]) == pytest.approx(1.0 / 6.0)

    def test_zero_values_ignored(self):
        assert lattice_span([0.0, 0.5]) == pytest.approx(0.5)

    def test_irrational_mixture_is_not_lattice(self):
        assert lattice_span([1.0, math.sqrt(2.0)]) is None


class TestLatticeUnits:
    def test_exact_counts_are_whole(self):
        k = lattice_units([0.0, 0.3, 0.9, 2.1, -0.6], 0.3)
        assert k.tolist() == [0.0, 1.0, 3.0, 7.0, -2.0]

    def test_off_lattice_and_non_finite_are_refused(self):
        with pytest.raises(ValueError, match="not on the lattice"):
            lattice_units(0.45, 0.3, what="start")
        with pytest.raises(ValueError, match="level must be finite"):
            lattice_units(math.nan, 0.3, "floor", what="level")

    def test_strict_barriers_round_outward_from_off_points(self):
        # x > 0.45 iff k > 1 and x < 0.45 iff k < 2; a barrier on a lattice
        # point stays there, float noise and all (3 * 0.3 < 0.9)
        assert lattice_units([0.45, 3 * 0.3], 0.3, "floor").tolist() == [1.0, 3.0]
        assert lattice_units([0.45, 3 * 0.3], 0.3, "ceil").tolist() == [2.0, 3.0]

    def test_scaled_law_draws_the_same_uniforms(self):
        model = IidModel(FixedOffspring(2), TwoPointStep(0.3, -0.3, 0.4))
        unit = IidModel(FixedOffspring(2), TwoPointStep(1.0, -1.0, 0.4))
        a = in_spans(model, 0.3).spawn(np.random.default_rng(1), 1000)[1]
        b = unit.spawn(np.random.default_rng(1), 1000)[1]
        assert np.array_equal(a, b)
        c = in_spans(unit, 1.0).spawn(np.random.default_rng(1), 1000)[1]
        assert np.array_equal(c, b)
        gauss = critical_binary_gaussian()
        assert in_spans(gauss, None) is gauss

    def test_frame_counts_from_the_starts_coset(self):
        frame, k = LatticeFrame.through([0.45, 1.05], 0.3)
        assert frame.origin == pytest.approx(0.15) and k.tolist() == [1.0, 3.0]
        assert frame.units(0.0, "ceil") == 0.0 and frame.units(1.0, "floor") == 2.0
        assert frame.positions(k) == pytest.approx([0.45, 1.05])
        frame, k = LatticeFrame.through([0.6, 0.9], 0.3)
        assert frame.origin == 0.0 and k.tolist() == [2.0, 3.0]

    def test_starts_on_two_cosets_are_refused(self):
        with pytest.raises(ValueError, match="coset"):
            LatticeFrame.through([0.0, 0.15], 0.3)


class TestJsonRoundTrip:
    @pytest.mark.parametrize("name", sorted(BUILTIN_MODELS))
    def test_builtin_round_trip(self, name):
        m = BUILTIN_MODELS[name]()
        m2 = model_from_json(model_to_json(m))
        for t in (-1.0, 0.0, 0.7, 1.9):
            assert m2.psi(t) == pytest.approx(m.psi(t), abs=1e-14)
        assert m2.analytics().regime is m.analytics().regime

    def test_iid_json_shape(self):
        d = json.loads(model_to_json(two_point_subcritical()))
        assert d["kind"] == "iid"
        assert d["nu"] == {"type": "deterministic", "value": 2}
        assert d["x"] == {"type": "two_point", "up": 1.0, "p_up": 0.05, "down": -1.0}

    def test_pattern_round_trip(self):
        m = PatternModel([(0.25, (0.5,)), (0.75, (1.0, -1.0))])
        m2 = model_from_json(model_to_json(m))
        assert isinstance(m2, PatternModel)
        assert m2.psi(0.9) == pytest.approx(m.psi(0.9), abs=1e-14)

    def test_resolve_model(self, tmp_path):
        assert resolve_model("two-point").analytics().regime is Regime.SUBCRITICAL
        js = model_to_json(critical_lattice_binary())
        assert resolve_model(js).analytics().regime is Regime.CRITICAL
        p = tmp_path / "model.json"
        p.write_text(js)
        assert resolve_model(str(p)).analytics().regime is Regime.CRITICAL

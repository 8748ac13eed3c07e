"""Exact-enumeration oracles against closed forms and against each other."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kbrw.models import (
    PatternModel,
    critical_lattice_binary,
    two_point_subcritical,
)
from kbrw.oracle import (
    enumerate_tree_expectation,
    h_chain_marginal,
    spine_signature_measure,
    tree_expectations,
    walk_functional,
)

SQRT6 = math.sqrt(6.0)
RHO_LAT = math.log(2.0 + math.sqrt(3.0))

SSRW = ([1.0, -1.0], [0.5, 0.5])
# zero-drift walk with a gap in its support: -2 w.p. 1/3, +1 w.p. 2/3
GAP = ([-2.0, 1.0], [1.0 / 3.0, 2.0 / 3.0])


class TestTreeDP:
    def test_expected_crossers_closed_form(self):
        # skip-free-up lattice model: every crosser of level t lands exactly at
        # t+1, so E_x[H(t)] = e^{-rho*(t+1-x)} (x+1)/(t+2) by the tilt identity
        m = critical_lattice_binary()
        for x, t in ((0.0, 2.0), (1.0, 3.0), (0.0, 4.0)):
            dp = tree_expectations(m, x, 900, level=t)
            closed = math.exp(-RHO_LAT * (t + 1.0 - x)) * (x + 1.0) / (t + 2.0)
            assert dp.expected_crossers_total == pytest.approx(closed, abs=1e-13)

    def test_unkilled_tilted_mass_is_conserved(self):
        m = critical_lattice_binary()
        dp = tree_expectations(m, 1.0, 8, barrier=False, rho=RHO_LAT)
        np.testing.assert_allclose(dp.wsum, math.exp(RHO_LAT), rtol=1e-12)

    def test_killed_alive_counts_decrease_from_zero_start(self):
        m = critical_lattice_binary()
        dp = tree_expectations(m, 0.0, 40)
        # from 0 the critical killed tree dies out; expected counts must not
        # blow up and eventually decay
        assert dp.alive[0] == 1.0
        assert dp.alive[40] < dp.alive[5]

    def test_rejects_non_lattice(self):
        from kbrw.models import critical_binary_gaussian
        with pytest.raises(ValueError):
            tree_expectations(critical_binary_gaussian(), 0.0, 3)


class TestEnumerationAgainstDP:
    """The exhaustive engine and the linear DP are independent; expectations of
    the counting functionals must agree to float precision."""

    @pytest.fixture()
    def model(self):
        return critical_lattice_binary()

    def test_crossers(self, model):
        dp = tree_expectations(model, 0.0, 3, level=1.0)
        res = enumerate_tree_expectation(model, 0.0, 3, lambda t: t.crossers(), level=1.0)
        assert res.value == pytest.approx(dp.crossers.sum(), abs=1e-12)
        assert res.prob_mass == pytest.approx(1.0, abs=1e-12)

    def test_leaves(self, model):
        dp = tree_expectations(model, 0.0, 3, level=1.0)
        res = enumerate_tree_expectation(model, 0.0, 3, lambda t: t.leaves_killed(), level=1.0)
        assert res.value == pytest.approx(dp.leaves.sum(), abs=1e-12)

    def test_alive_at_depth(self, model):
        dp = tree_expectations(model, 0.0, 3, level=1.0)
        res = enumerate_tree_expectation(model, 0.0, 3, lambda t: t.alive_at(3), level=1.0)
        assert res.value == pytest.approx(dp.alive[3], abs=1e-12)

    def test_unkilled_martingale_means(self, model):
        res_w = enumerate_tree_expectation(
            model, 0.0, 3, lambda t: t.tilted_sum(RHO_LAT, 3), barrier=False)
        assert res_w.value == pytest.approx(1.0, abs=1e-12)
        res_d = enumerate_tree_expectation(
            model, 0.0, 3, lambda t: t.derivative_sum(RHO_LAT, 3), barrier=False)
        assert res_d.value == pytest.approx(0.0, abs=1e-12)

    def test_max_terms_guard(self, model):
        with pytest.raises(RuntimeError):
            enumerate_tree_expectation(model, 5.0, 6, lambda t: 1.0,
                                       barrier=False, max_terms=1000)

    def test_pattern_model_agrees_with_dp(self):
        m = PatternModel([(0.6, (1.0, -1.0)), (0.4, (1.0, 1.0, -1.0))])
        dp = tree_expectations(m, 0.0, 2, level=1.0)
        res = enumerate_tree_expectation(m, 0.0, 2, lambda t: t.crossers(), level=1.0)
        assert res.value == pytest.approx(dp.crossers.sum(), abs=1e-12)

    def test_support_with_gaps_agrees_with_dp(self):
        # displacements {-2, 1, 3}: the DP's step table holds zeros at -1, 0, 2
        m = PatternModel([(0.4, (1.0, -2.0)), (0.35, (3.0,)),
                          (0.25, (1.0, 1.0, -2.0))])
        for x, level in ((1.0, 3.0), (0.0, 2.0)):
            dp = tree_expectations(m, x, 3, level=level)
            for functional, exact in (
                    (lambda t: t.crossers(), dp.crossers.sum()),
                    (lambda t: t.leaves_killed(), dp.leaves.sum()),
                    (lambda t: t.alive_at(3), dp.alive[3])):
                res = enumerate_tree_expectation(m, x, 3, functional, level=level)
                assert res.value == pytest.approx(exact, abs=1e-12)

    def test_level_below_the_start_is_refused(self, model):
        # simulate's rule: a start above the level is not a first crosser
        with pytest.raises(ValueError, match="below the start"):
            tree_expectations(model, 5.0, 3, level=2.0)
        with pytest.raises(ValueError, match="below the start"):
            enumerate_tree_expectation(model, 5.0, 3, lambda t: t.crossers(),
                                       level=2.0)
        # a start on the level is fine: it is not above it
        assert tree_expectations(model, 2.0, 3, level=2.0).crossers[0] == 0.0


class TestSpineSignature:
    def test_critical_lattice_spine_is_symmetric_walk(self):
        sig = spine_signature_measure(critical_lattice_binary(), RHO_LAT)
        assert set(sig) == {(1.0, 2), (-1.0, 2)}
        assert sig[(1.0, 2)] == pytest.approx(0.5, abs=1e-12)

    def test_two_point_spine_at_upper_root(self):
        m = two_point_subcritical()
        rho_plus = math.log(5.0 + SQRT6)
        sig = spine_signature_measure(m, rho_plus)
        assert sig[(1.0, 2)] == pytest.approx(0.1 * (5.0 + SQRT6), abs=1e-12)

    def test_pattern_model_weights(self):
        m = PatternModel([(0.5, (0.4, -0.4)), (0.5, (0.2,))])
        rho = 0.3
        sig = spine_signature_measure(m, rho)
        raw = {
            (0.4, 2): 0.5 * math.exp(rho * 0.4),
            (-0.4, 2): 0.5 * math.exp(-rho * 0.4),
            (0.2, 1): 0.5 * math.exp(rho * 0.2),
        }
        z = sum(raw.values())
        for k, v in raw.items():
            assert sig[k] == pytest.approx(v / z, abs=1e-12)


class TestWalkDP:
    def test_two_barrier_hitting_probability(self):
        # symmetric walk from 0 absorbed above t, killed below 0: 1/(t+2)
        for t in (2.0, 4.0, 8.0):
            wo = walk_functional(*SSRW, 0.0, lower=0.0, upper=t)
            assert wo.p_hit_upper == pytest.approx(1.0 / (t + 2.0), abs=1e-12)
            assert wo.p_hit_upper + wo.p_hit_lower == pytest.approx(1.0, abs=1e-12)

    def test_stopped_exponential_identity(self):
        # undershoot is exactly -1, so E[e^{-rho S_tau}; lower] factorizes
        B = 20.0
        wo = walk_functional(*SSRW, 0.0, lower=0.0, upper=B, rho=RHO_LAT)
        expect = math.exp(RHO_LAT) * (B + 1.0) / (B + 2.0)
        assert wo.e_rho_lower == pytest.approx(expect, abs=1e-12)
        assert set(wo.undershoot) == {-1.0}

    def test_ruin_probability_of_tilted_two_point(self):
        # the rho_plus tilt of the two-point model drifts up; survival of the
        # barrier at 0 is 1 - r with r = (31 - 10 sqrt 6)/19
        m = two_point_subcritical()
        an = m.analytics()
        tilted = m.step.tilted(an.rho_plus)
        wo = walk_functional(tilted.support(), tilted.probs(), 0.0,
                             lower=0.0, upper=60.0)
        closed = 1.0 - (31.0 - 10.0 * SQRT6) / 19.0
        assert wo.error_bound < 1e-20
        assert wo.p_survive == pytest.approx(closed, abs=1e-12)

    def test_horizon_mode_conserves_mass(self):
        wo = walk_functional(*SSRW, 1.0, lower=0.0, upper=4.0, horizon=6)
        assert wo.p_hit_upper + wo.p_hit_lower + wo.residual_mass == pytest.approx(1.0, abs=1e-12)
        assert wo.n_steps == 6

    @settings(max_examples=40, deadline=None)
    @given(p_down=st.floats(0.05, 0.95), x=st.integers(0, 6),
           width=st.integers(0, 8), horizon=st.integers(1, 40))
    def test_horizon_mode_conserves_mass_with_a_gap(self, p_down, x, width,
                                                    horizon):
        # steps {-2, +1}: the step table holds zeros at -1 and 0, and a
        # killed walk lands on -1 or -2
        wo = walk_functional([-2.0, 1.0], [p_down, 1.0 - p_down], float(x),
                             lower=0.0, upper=float(x + width), horizon=horizon)
        total = wo.p_hit_upper + wo.p_hit_lower + wo.residual_mass
        assert total == pytest.approx(1.0, abs=1e-12)
        assert set(wo.undershoot) <= {-1.0, -2.0}

    @pytest.mark.parametrize("lower, upper", [(None, 8.0), (0.0, None)])
    def test_one_open_barrier_is_refused_before_a_step(self, lower, upper):
        # a walk drifting toward an open side would widen the window by one
        # point on each of WALK_DP_MAX_STEPS steps
        with pytest.raises(ValueError, match="both barriers"):
            walk_functional([1.0, -1.0], [0.3, 0.7], 5.0, lower=lower,
                            upper=upper)

    def test_walk_without_a_step_down_never_hits_lower(self):
        wo = walk_functional([1.0, 2.0], [0.3, 0.7], 5.0, lower=0.0, upper=8.0)
        assert wo.error_bound == 0.0
        assert wo.p_hit_lower == 0.0
        assert wo.p_hit_upper == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_lattice_steps(self):
        with pytest.raises(ValueError):
            walk_functional([1.0, -math.sqrt(2.0)], [0.5, 0.5], 0.0, upper=4.0)


class TestHChainMarginal:
    def test_weak_nonnegative_chain_from_zero(self):
        # h(y) = y + 1 is harmonic for the symmetric walk killed strictly
        # below 0; two steps from 0 land on {0, 2} with probs {1/4, 3/4}
        h = lambda y: max(y + 1.0, 0.0)
        marg = h_chain_marginal(*SSRW, h, 0.0, 2)
        assert marg[2.0] == pytest.approx(0.75, abs=1e-12)
        assert marg[0.0] == pytest.approx(0.25, abs=1e-12)

    def test_strict_positive_chain_from_one(self):
        # h(z) = z is harmonic for the walk killed at <= 0 (discrete Bessel)
        h = lambda z: max(z, 0.0)
        marg = h_chain_marginal(*SSRW, h, 1.0, 2)
        # from 1: up 2/2*... p(1->2) = 0.5*2/1 = 1? no: 0.5*h(2)/h(1) = 1.0
        # mass check inside the helper guards harmonicity; verify support
        assert set(marg) == {3.0, 1.0}
        assert marg[3.0] == pytest.approx(0.75, abs=1e-12)

    def test_non_harmonic_h_is_rejected(self):
        with pytest.raises(ArithmeticError):
            h_chain_marginal(*SSRW, lambda y: max(y + 1.0, 0.0) ** 2, 0.0, 2)

    def test_span_scaled_chain_is_the_unit_chain(self):
        # keyed in whole spans: from 0.6 the +-0.3 chain visits the five
        # states of the +-1 chain from 2, where float sums split 0 and 0.6
        # into two keys each
        def chain(span):
            h = lambda y: np.floor(y / span + 1e-9) + 1.0
            return h_chain_marginal([span, -span], [0.5, 0.5], h, 2 * span, 6)

        unit, tenths = chain(1.0), chain(0.3)
        assert len(unit) == 5
        assert tenths == {0.3 * y: p for y, p in unit.items()}

    def test_renewal_function_of_a_walk_with_a_gap(self):
        # R(x) = 8/9 + 2x/3 + (-1/2)^x / 9 is harmonic for the {-2, +1}
        # walk killed below 0; the chain from 0 keeps mass 1
        h = lambda y: 8.0 / 9.0 + 2.0 * y / 3.0 + (-0.5) ** y / 9.0 if y >= 0 else 0.0
        marg = h_chain_marginal(*GAP, h, 0.0, 8)
        assert sum(marg.values()) == pytest.approx(1.0, abs=1e-12)
        assert min(marg) >= 0.0
        # one step from 0 must go up: the down step has weight h(-2) = 0
        assert h_chain_marginal(*GAP, h, 0.0, 1) == pytest.approx({1.0: 1.0})

"""Survival tables, tail fits, constants, and the convolution check."""

import math

import numpy as np
import pytest

from kbrw import models, stats, walks
from kbrw.estimates import binomial_estimate
from kbrw.seeds import rng_for_block


def pareto(rng, n, p=2.0):
    return (1.0 - rng.random(n)) ** (-1.0 / p)


class TestSurvivalCurve:
    def test_exceedances_nonincreasing(self):
        rng = rng_for_block(500, 0)
        tab = stats.survival_curve(pareto(rng, 100_000), [2.0, 4.0, 8.0, 16.0])
        assert np.all(np.diff(tab.exceedances) <= 0)
        assert tab.n_replicas == 100_000
        assert tab.values.shape == tab.stderr.shape == (4,)

    def test_censoring_flags_and_counts(self):
        counts = np.array([5, 50, 500])
        trunc = np.array([False, True, False])
        tab = stats.survival_curve(counts, [10.0, 100.0], truncated=trunc)
        # the truncated tree's partial count 50 exceeds 10 but not 100
        assert tab.exceedances.tolist() == [2, 1]
        assert not tab.flagged[0]          # every truncated tree counted
        assert tab.flagged[1]              # 50 <= 100: lower bound only
        assert tab.truncated_fraction == pytest.approx(1 / 3)

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError, match="increasing"):
            stats.survival_curve(np.arange(10), [4.0, 4.0])


class TestTailFit:
    def test_synthetic_power_law_slope(self):
        rng = rng_for_block(501, 0)
        tab = stats.survival_curve(pareto(rng, 2_000_000),
                                   [2.0 ** k for k in range(2, 10)])
        rep = stats.tail_fit(tab, "subcritical", rho_ratio=-2.0)
        fit = rep.fitted_exponent_or_constant
        assert rep.mode == "SubcriticalSlope"
        assert abs(fit.value + 2.0) < 4.0 * fit.stderr
        assert rep.extra["relative_deviation"] < 0.02
        assert rep.diagnostics < 5.0

    def test_synthetic_plateau_constant(self):
        N = 10_000_000
        c = 0.5
        grid = np.array([2.0 ** k for k in range(5, 11)])
        exc = np.round(N * c / (grid * np.log(grid) ** 2)).astype(np.int64)
        ests = [binomial_estimate(int(k), N) for k in exc]
        tab = stats.SurvivalTable(
            grid=grid, values=np.array([e.value for e in ests]),
            stderr=np.array([e.stderr for e in ests]),
            exceedances=exc, flagged=np.zeros(grid.size, bool), n_replicas=N)
        rep = stats.tail_fit(tab, "critical")
        assert rep.mode == "CriticalPlateau"
        assert abs(rep.fitted_exponent_or_constant.value - c) / c < 0.02
        assert rep.diagnostics < 1.05

    def test_insufficient_exceedances_lists_achievable_grid(self):
        rng = rng_for_block(501, 1)
        tab = stats.survival_curve(pareto(rng, 3000), [2.0, 4.0, 128.0, 512.0, 2048.0])
        with pytest.raises(ValueError, match=r"achievable grid: \[2\.0, 4\.0\]"):
            stats.tail_fit(tab, "subcritical")

    def test_rejects_regime_without_tail_law(self):
        rng = rng_for_block(501, 2)
        tab = stats.survival_curve(pareto(rng, 100_000), [2.0, 4.0, 8.0, 16.0])
        with pytest.raises(ValueError, match="regime"):
            stats.tail_fit(tab, "out_of_scope")


def _gaussian_c_crit_reference(model, n_terms=10 ** 6):
    """exp(sum_n erfcx(c sqrt n)/(2n)) by scipy: n_terms terms, then the
    asymptotic erfcx series summed with scipy's Hurwitz zeta."""
    from scipy import special
    tw = walks.make_tilted_walk(model)
    c = tw.rho * math.sqrt(0.5 * tw.variance)
    n = np.arange(1, n_terms + 1, dtype=float)
    head = float(np.sum(special.erfcx(c * np.sqrt(n)) / (2.0 * n)))
    coef, tail = 1.0 / (2.0 * c * math.sqrt(math.pi)), 0.0
    for k in range(6):
        tail += coef * special.zeta(k + 1.5, n_terms + 1)
        coef *= -(2 * k + 1) / (2.0 * c * c)
    return math.exp(head + tail)


def critical_gaussian(children, sigma):
    mu = -sigma * math.sqrt(2.0 * math.log(children))
    return models.IidModel(models.FixedOffspring(children),
                           models.GaussianStep(mu=mu, sigma=sigma))


class TestConstants:
    def test_critical_lattice_closed_forms(self):
        # the tilted walk is skip-free down, so the undershoot is exactly 1
        m = models.critical_lattice_binary()
        assert stats.c_crit(m) == pytest.approx(1.0 + math.sqrt(3.0), abs=1e-12)

    @pytest.mark.parametrize("children,sigma", [(2, 1.0), (3, 2.0)])
    def test_gaussian_matches_scipy_series(self, children, sigma):
        m = critical_gaussian(children, sigma)
        assert m.analytics().regime is models.Regime.CRITICAL
        assert stats.c_crit(m) == pytest.approx(
            _gaussian_c_crit_reference(m), abs=1e-9)

    def test_gaussian_undershoot_identity(self):
        # c_crit = E_Q[e^{-rho* S_tau} - 1]/(m - 1) by Monte Carlo; walks
        # still above 0 after max_steps are left out and their share reported
        m = models.critical_binary_gaussian()
        tw = walks.make_tilted_walk(m)
        ens = walks.passage_ensemble(tw, 0.0, 20_000, rng_for_block(502, 0),
                                     lower=0.0, upper=None, max_steps=10 ** 4)
        a = np.expm1(-tw.rho * ens.finals[ens.hit_below]) \
            / (m.mean_offspring - 1.0)
        assert ens.truncated_fraction < 0.01
        se = a.std(ddof=1) / math.sqrt(a.size)
        assert abs(a.mean() - stats.c_crit(m)) < 4.0 * se, \
            (a.mean(), se, ens.truncated_fraction)

    def test_lattice_walk_not_skip_free_down_is_rejected(self):
        # steps +1/-2, tilted to the zero-mean law (2/3, 1/3): e^{rho*} is
        # the root y > 1 of y^3 - 6y + 2 = 0 and p_up = 1/(3y)
        y = max(r.real for r in np.roots([1.0, 0.0, -6.0, 2.0]))
        m = models.IidModel(models.FixedOffspring(2),
                            models.TwoPointStep(up=1.0, down=-2.0,
                                                p_up=1.0 / (3.0 * y)))
        assert m.analytics().regime is models.Regime.CRITICAL
        assert not walks.make_tilted_walk(m).skip_free_down
        with pytest.raises(ValueError, match="skip-free-down"):
            stats.c_crit(m)

    def test_regime_mismatch_is_rejected(self):
        with pytest.raises(ValueError, match="zero-drift"):
            stats.c_crit(models.two_point_subcritical())


class TestConvolution:
    ONE = staticmethod(lambda rng, n: np.ones(n))
    TWO = staticmethod(lambda rng, n: np.full(n, 2))

    def test_pareto_sampler_is_exact(self):
        from scipy import stats as sps
        g = stats.pareto_samples(rng_for_block(504, 0), 50_000, 2.0, 1.0)
        assert g.min() >= 1.0
        ks = sps.kstest(g, lambda t: 1.0 - np.minimum(t, np.inf) ** -2.0)
        assert ks.pvalue > 0.01

    def test_single_term_identity(self):
        rep = stats.convolution_tail_check(self.ONE, self.ONE, 2.0, 1.0,
                                           1_000_000, [5.0, 10.0, 20.0, 40.0],
                                           rng_for_block(504, 1))
        assert abs(rep.values[-1] - 1.0) < 4.0 * rep.stderr[-1]
        assert rep.limit.value == pytest.approx(1.0, abs=1e-12)
        assert rep.limit.stderr == 0.0

    def test_two_term_sum_approaches_doubled_limit(self):
        rep = stats.convolution_tail_check(self.TWO, self.ONE, 2.0, 1.0,
                                           1_000_000, [10.0, 20.0, 40.0, 80.0],
                                           rng_for_block(504, 2))
        assert rep.limit.value == pytest.approx(2.0, abs=1e-12)
        # preasymptotic level sits a few percent above 2 at t = 80
        assert rep.relative_deviation_at_top < 0.25
        assert rep.values[0] > rep.values[-1] > rep.limit.value * 0.9

    def test_first_moment_case(self):
        rep = stats.convolution_tail_check(self.ONE, self.ONE, 1.0, 1.0,
                                           1_000_000, [5.0, 10.0, 20.0, 40.0],
                                           rng_for_block(504, 3))
        assert abs(rep.values[-1] - 1.0) < 4.0 * rep.stderr[-1]

    def test_rejects_negative_litters(self):
        bad = lambda rng, n: np.full(n, -1)
        with pytest.raises(ValueError, match="nonnegative"):
            stats.convolution_tail_check(bad, self.ONE, 2.0, 1.0, 100,
                                         [5.0], rng_for_block(504, 4))


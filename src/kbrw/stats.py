"""Tail exponents, the exact critical constant, and the convolution-tail check.

The simulation modules produce per-tree record tables; everything here is
post-processing.  Survival curves keep truncated trees as honest lower
bounds, the two tail laws get their own fit modes (log-log slope when the
exponent is a free ratio, plateau of n (log n)^2 P(Z>n) at criticality),
and the plateau's constant c_crit is computed exactly from the tilted walk's
step law, with no Monte Carlo.  The convolution check samples the heavy-tail
lemma directly, with exact Pareto factors.  Survival, tail-fit and
convolution tables hold one array of values and one of standard errors over
their grid, as the walks module's renewal tables do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .estimates import EstimateWithCI
from .models import GaussianStep, Regime
# estimate_C_R and passage_ensemble are bound here only because
# perfbench/layers.py wraps stats' copies; drop them with the next benchmark change
from .walks import estimate_C_R, make_tilted_walk, passage_ensemble  # noqa: F401

MIN_EXCEEDANCES = 20        # exceedances a grid point needs to enter a tail fit
MIN_POINTS = 4              # usable grid points a tail fit needs
CONVOLUTION_BLOCK = 1 << 21  # replicas per pass of convolution_tail_check
ERFCX_FROM = 100.0          # x^2 from which erfcx's asymptotic series is used
ERFCX_TERMS = 12            # its terms: the 13th is below 1e-16 relative there


def _as_regime(regime) -> Regime:
    if isinstance(regime, Regime):
        return regime
    return Regime(str(regime).lower())


def survival_scale(t: float, rho: float, regime) -> float:
    """t e^{rho t} at criticality, e^{rho t} otherwise.

    The inverse of the decay of P(H(t) > 0), so the scaled survival
    probability levels off as t grows.
    """
    scale = math.exp(rho * t)
    return t * scale if _as_regime(regime) is Regime.CRITICAL else scale


# ---------------------------------------------------------------------------
# survival tables


def _binomial(k: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """k/n and its stderr at every grid point, by binomial_estimate's
    arithmetic; NaN for n = 0."""
    p = k / n if n > 0 else np.full(k.size, math.nan)
    return p, np.sqrt(np.maximum(p * (1.0 - p), 0.0) / max(n, 1))


@dataclass
class SurvivalTable:
    """P(count > n) on a threshold grid, with censoring bookkeeping.

    A truncated tree contributes an exceedance only at thresholds below its
    partial count; at larger thresholds it silently counts as a
    non-exceedance, so those estimates are lower bounds and are flagged.
    """

    grid: np.ndarray
    values: np.ndarray           # P(count > n) at each grid point
    stderr: np.ndarray
    exceedances: np.ndarray
    flagged: np.ndarray
    n_replicas: int
    truncated_fraction: float = 0.0


def survival_curve(counts, grid, truncated=None) -> SurvivalTable:
    counts = np.asarray(counts)
    grid = np.asarray(grid, float)
    if grid.size == 0 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be nonempty and strictly increasing")
    if truncated is None:
        truncated = np.zeros(counts.shape, bool)
    truncated = np.asarray(truncated, bool)
    n = counts.size
    exceed = np.array([np.count_nonzero(counts > thr) for thr in grid], np.int64)
    # flagged where some truncated tree's partial count is not past n
    flagged = grid >= counts[truncated].astype(float).min(initial=math.inf)
    return SurvivalTable(grid, *_binomial(exceed, n), exceedances=exceed,
                         flagged=flagged, n_replicas=n,
                         truncated_fraction=float(truncated.mean()) if n else 0.0)


# ---------------------------------------------------------------------------
# tail fits


@dataclass
class TailFitReport:
    mode: str                    # "SubcriticalSlope" or "CriticalPlateau"
    grid: np.ndarray             # the points the fit actually used
    values: np.ndarray           # P(Z > n) at those points
    stderr: np.ndarray
    fitted_exponent_or_constant: EstimateWithCI
    diagnostics: float           # chi2/dof (slope) or max/min ratio (plateau)
    extra: dict = field(default_factory=dict)


def tail_fit(table: SurvivalTable, regime,
             rho_ratio: float | None = None) -> TailFitReport:
    """Fit the regime's tail law to a survival table.

    Subcritical: weighted least-squares slope of log P(Z>n) against log n
    (fitted on the independent log-survival increments, since nested
    exceedance counts are correlated), to be compared with
    -rho_plus/rho_minus.  Critical: the sequence
    n (log n)^2 P(Z>n); the reported constant is the mean over the top
    half-decade and the diagnostic is the max/min ratio over the top decade,
    which is the honest desk-scale reading of a (log n)^-2 correction.
    """
    regime = _as_regime(regime)
    usable = (table.exceedances >= MIN_EXCEEDANCES) \
        & (table.exceedances < table.n_replicas)
    if int(usable.sum()) < MIN_POINTS:
        ach = table.grid[usable]
        raise ValueError(
            f"need >= {MIN_POINTS} grid points with >= {MIN_EXCEEDANCES} "
            f"exceedances; achievable grid: {[float(g) for g in ach]}")
    grid, p, sp = table.grid[usable], table.values[usable], table.stderr[usable]
    if np.any(np.diff(table.exceedances[usable]) > 0):
        raise ValueError("survival table is not nonincreasing")

    if regime is Regime.SUBCRITICAL:
        x = np.log(grid)
        # second-order correction: E[log p_hat] = log p - (1-p)/(2 N p),
        # which matters exactly at the low-count end of the usable grid
        y = np.log(p) + (1.0 - p) / (2.0 * table.n_replicas * p)
        # exceedance events are nested, so the log-survival INCREMENTS are
        # the independent quantities: fit the slope on those, with
        # Var(y_k) = (1 - p_k)/(N p_k) telescoping across the ladder
        var_y = (1.0 - p) / (table.n_replicas * p)
        dx = np.diff(x)
        dy = np.diff(y)
        v = np.diff(var_y)
        info = (dx ** 2 / v).sum()
        slope = float((dx * dy / v).sum() / info)
        se = float(1.0 / math.sqrt(info))
        intercept = float(y[0] - slope * x[0])
        dof = max(dx.size - 1, 1)
        chi2 = float(((dy - slope * dx) ** 2 / v).sum() / dof)
        fitted = EstimateWithCI(value=slope, stderr=se, n_effective=float(grid.size))
        report = TailFitReport(mode="SubcriticalSlope", grid=grid, values=p,
                               stderr=sp,
                               fitted_exponent_or_constant=fitted,
                               diagnostics=chi2,
                               extra={"intercept": intercept})
        if rho_ratio is not None:
            report.extra["reference_exponent"] = float(rho_ratio)
            report.extra["relative_deviation"] = float(
                abs(slope - rho_ratio) / abs(rho_ratio))
        return report

    if regime is Regime.CRITICAL:
        ok = grid > math.e          # (log n)^2 needs n safely above e
        grid, p, sp = grid[ok], p[ok], sp[ok]
        if grid.size < MIN_POINTS:
            raise ValueError(f"critical plateau needs >= {MIN_POINTS} points above n = e")
        scaled = grid * np.log(grid) ** 2 * p
        ses = grid * np.log(grid) ** 2 * sp
        top = grid >= grid[-1] / 10.0
        half = grid >= grid[-1] / math.sqrt(10.0)
        ratio = float(scaled[top].max() / scaled[top].min())
        mean = float(scaled[half].mean())
        # nested exceedance events are positively correlated; the
        # mean-of-stderrs bound holds for any correlation
        se = float(ses[half].mean())
        fitted = EstimateWithCI(value=mean, stderr=se,
                                n_effective=float(half.sum()))
        return TailFitReport(mode="CriticalPlateau", grid=grid, values=p,
                             stderr=sp,
                             fitted_exponent_or_constant=fitted,
                             diagnostics=ratio,
                             extra={"scaled_sequence": scaled.tolist()})

    raise ValueError(f"no tail law fitted in the {regime.value} regime")


# ---------------------------------------------------------------------------
# the explicit critical constant


def _hurwitz_zeta(s: float, a: float) -> float:
    """sum_{k>=0} (a+k)^-s: one by one below 200, then Euler-Maclaurin."""
    total = 0.0
    while a < 200.0:
        total, a = total + a ** -s, a + 1.0
    return total + a ** (1 - s) / (s - 1) + a ** -s / 2 + s * a ** (-s - 1) / 12 \
        - s * (s + 1) * (s + 2) * a ** (-s - 3) / 720 \
        + s * (s + 1) * (s + 2) * (s + 3) * (s + 4) * a ** (-s - 5) / 30240


def c_crit(model) -> float:
    """c_crit = E_Q[e^{-rho* S_tau} - 1]/(m - 1) at the zero-drift rho* tilt,
    exactly; S_tau is where the tilted walk from 0 first goes below 0.

    A skip-free-down lattice walk lands at S_tau = -span.  For a gaussian
    step, Wiener-Hopf and Spitzer-Baxter make it exp(sum_{n>=1}
    E_Q[e^{-rho* S_n}; S_n >= 0]/n), with terms erfcx(sqrt(c2 n))/(2n) for
    c2 = rho*^2 sigma^2/2: math.erfc below c2 n = ERFCX_FROM, and above it
    erfcx(x) = (1/(x sqrt pi)) sum_k (-1)^k (2k-1)!!/(2x^2)^k, whose k-th
    terms sum over n to a Hurwitz zeta.  Other walks raise ValueError.
    """
    tw = make_tilted_walk(model)
    if tw.drift_sign != 0:
        raise ValueError("c_crit needs a zero-drift (critical) tilt")
    if tw.skip_free_down:
        return math.expm1(tw.rho * tw.span) / (model.mean_offspring - 1.0)
    if not isinstance(tw.step, GaussianStep):
        raise ValueError("exact c_crit needs a skip-free-down lattice walk "
                         "or a gaussian step")
    c2 = 0.5 * tw.rho ** 2 * tw.variance
    n0 = math.ceil(ERFCX_FROM / c2)     # first n on the series
    total = sum(0.5 * math.exp(c2 * n) * math.erfc(math.sqrt(c2 * n)) / n
                for n in range(1, n0))
    coef = 1.0 / (2.0 * math.sqrt(math.pi * c2))
    for k in range(ERFCX_TERMS):
        total += coef * _hurwitz_zeta(k + 1.5, n0)
        coef *= -(2 * k + 1) / (2.0 * c2)
    return math.exp(total)


# ---------------------------------------------------------------------------
# convolution-tail lemma check


@dataclass
class ConvolutionReport:
    p: float
    a: float
    t_grid: np.ndarray
    values: np.ndarray                  # t^p P(sum > t) per grid point
    stderr: np.ndarray
    limit: EstimateWithCI               # a E[sum Y_i^p]
    relative_deviation_at_top: float


def pareto_samples(rng, n: int, p: float, a: float) -> np.ndarray:
    """Exact heavy-tail factor: P(G > t) = a t^{-p} for t >= a^{1/p}."""
    u = 1.0 - rng.random(n)             # (0, 1], keeps G finite
    return (a / u) ** (1.0 / p)


def convolution_tail_check(xi_sampler, y_sampler, p: float, a: float,
                           n_replicas: int, t_grid, rng) -> ConvolutionReport:
    """Empirical t^p P(sum_{i<=xi} Y_i G_i > t) against the lemma limit.

    G is sampled from the exact Pareto tail, so the p=1 single-term case is
    an identity and everything beyond it probes the heavy-tail convolution
    structure.  The limit a E[sum Y_i^p] is estimated from the same (xi, Y)
    draws; for the deterministic test configurations it is exact.
    """
    t_grid = np.asarray(t_grid, float)
    if np.any(np.diff(t_grid) <= 0):
        raise ValueError("t grid must be strictly increasing")
    exceed = np.zeros(t_grid.size, np.int64)
    ypsum = 0.0
    ypsumsq = 0.0
    done = 0
    while done < n_replicas:
        b = min(CONVOLUTION_BLOCK, n_replicas - done)
        done += b
        xi = np.asarray(xi_sampler(rng, b), np.int64)
        if np.any(xi < 0):
            raise ValueError("xi must be nonnegative")
        total = int(xi.sum())
        ys = np.asarray(y_sampler(rng, total), float)
        gs = pareto_samples(rng, total, p, a)
        owner = np.repeat(np.arange(b), xi)
        sums = np.bincount(owner, weights=ys * gs, minlength=b)
        yp = np.bincount(owner, weights=ys ** p, minlength=b)
        ypsum += float(yp.sum())
        ypsumsq += float((yp ** 2).sum())
        exceed += (sums[None, :] > t_grid[:, None]).sum(axis=1)
    prob, se = _binomial(exceed, n_replicas)
    scaled = t_grid ** p * prob
    m = ypsum / n_replicas
    var = max(ypsumsq / n_replicas - m * m, 0.0)
    limit = EstimateWithCI(value=a * m,
                           stderr=a * math.sqrt(var / n_replicas),
                           n_effective=float(n_replicas))
    rel = abs(scaled[-1] - limit.value) / limit.value
    return ConvolutionReport(p=float(p), a=float(a), t_grid=t_grid,
                             values=scaled, stderr=t_grid ** p * se, limit=limit,
                             relative_deviation_at_top=float(rel))


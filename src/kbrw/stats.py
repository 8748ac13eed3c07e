"""Tail exponents, explicit constants, and the convolution-tail check.

The simulation modules produce per-tree record tables; everything here is
post-processing.  Survival curves keep truncated trees as honest lower
bounds, the two tail laws get their own fit modes (log-log slope when the
exponent is a free ratio, plateau of n (log n)^2 P(Z>n) at criticality),
and the explicit constants come from first-passage functionals of the
tilted walks rather than from the trees themselves.  The convolution check
samples the heavy-tail lemma directly, with exact Pareto factors.
Survival, tail-fit and convolution tables hold one array of values and one
of standard errors over their grid, as the walks module's renewal tables do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .estimates import EstimateWithCI, binomial_estimate, from_samples
from .models import Regime
from .walks import cramer_cutoff, estimate_C_R, make_tilted_walk, passage_ensemble

MIN_EXCEEDANCES = 20        # exceedances a grid point needs to enter a tail fit
MIN_POINTS = 4              # usable grid points a tail fit needs
CONVOLUTION_BLOCK = 1 << 21  # replicas per pass of convolution_tail_check


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
# explicit constants of the tilted walks


def _ratio_estimate(a: np.ndarray, b: np.ndarray) -> EstimateWithCI:
    """mean(a)/mean(b) with the delta-method stderr for paired samples."""
    n = a.size
    ma, mb = float(a.mean()), float(b.mean())
    cov = np.cov(a, b, ddof=1)
    var = (cov[0, 0] / mb ** 2
           + ma ** 2 * cov[1, 1] / mb ** 4
           - 2.0 * ma * cov[0, 1] / mb ** 3) / n
    return EstimateWithCI(value=ma / mb, stderr=float(math.sqrt(max(var, 0.0))),
                          n_effective=float(n))


def estimate_constants(model, regime, n_replicas: int, rng, *,
                       max_steps: int = 10 ** 6) -> dict[str, EstimateWithCI]:
    """MC estimates of the explicit tail constants for the model's regime.

    Critical: c_prime_crit = E[e^{-rho* S_tau} - 1] over the rho*-tilted
    walk dropped from 0 until it first goes below 0; c_crit divides that by
    the branching surplus; c_star is the same functional in ratio form.
    Subcritical: the analogous rho_minus functionals, plus the probability
    that the rho_plus walk never returns below 0 (with a Cramer-certified
    cutoff).  C_R comes from the first-passage limit in both regimes.
    """
    regime = _as_regime(regime)
    an = model.analytics()
    if regime is not an.regime:
        raise ValueError(f"model is {an.regime.value}; "
                         f"cannot estimate {regime.value} constants")
    out: dict[str, EstimateWithCI] = {}

    if regime is Regime.CRITICAL:
        rho = an.rho_star
        tw = make_tilted_walk(model, rho)
        ens = passage_ensemble(tw, 0.0, n_replicas, rng,
                               lower=0.0, upper=None, max_steps=max_steps)
        under = -ens.finals[ens.hit_below]          # -S_tau > 0
        tf = ens.truncated_fraction
        a = np.exp(rho * under) - 1.0
        out["c_prime_crit"] = from_samples(a, truncated_fraction=tf)
        nu1 = model.mean_offspring - 1.0
        cp = out["c_prime_crit"]
        out["c_crit"] = EstimateWithCI(value=cp.value / nu1, stderr=cp.stderr / nu1,
                                       n_effective=cp.n_effective,
                                       truncated_fraction=tf)
        out["c_star"] = _ratio_estimate(a, rho * under)
        out["c_star"].truncated_fraction = tf
        out["C_R"] = estimate_C_R(tw, n_replicas, rng, max_steps=max_steps)
        return out

    if regime is Regime.SUBCRITICAL:
        rho_m, rho_p = an.rho_minus, an.rho_plus
        twm = make_tilted_walk(model, rho_m)
        ens = passage_ensemble(twm, 0.0, n_replicas, rng,
                               lower=0.0, upper=None, max_steps=max_steps)
        under = -ens.finals[ens.hit_below]
        tf = ens.truncated_fraction
        a = np.exp(rho_m * under) - 1.0
        out["c_star_sub"] = _ratio_estimate(a, rho_m * under)
        out["c_star_sub"].truncated_fraction = tf

        twp = make_tilted_walk(model, rho_p)
        b, cert = cramer_cutoff(twp.step)
        pens = passage_ensemble(twp, 0.0, n_replicas, rng,
                                lower=0.0, upper=b, max_steps=max_steps)
        q = binomial_estimate(int(pens.hit_above.sum()), n_replicas,
                              truncated_fraction=pens.truncated_fraction)
        q.extra["cutoff"] = float(b)
        q.extra["certification_bound"] = float(cert)
        out["q_no_return"] = q
        out["C_R"] = estimate_C_R(twp, n_replicas, rng, max_steps=max_steps)
        return out

    raise ValueError(f"no constants defined in the {regime.value} regime")


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


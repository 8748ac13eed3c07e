"""The spine walk under mass-1 exponential tilts.

Everything here is a plain one-dimensional random walk: first-passage
ensembles, the renewal function of the barrier problem, Tanaka's pathwise
construction of the walk conditioned to stay positive, the min-record
reweighting on top of it, and Doob h-transform stepping.  The two
h-transform draws live here, ``h_transform_pick`` for lattice steps and
``h_transform_accept`` for continuous ones; the conditioned spine and
``conditioned_chain`` both step through them.

Conventions (fixed package-wide): the barrier at a is crossed downward when
S < a strictly and upward when S > a strictly; ascending ladder epochs are
strict records, descending ladders are strict records of -S; tau_star, the
return time used by the renewal function, is weak (first j >= 1 with
S_j >= 0).  A lattice walk steps in whole spans (``TiltedWalk.sample``), so
these comparisons are exact at any span.

All simulators take an explicit numpy Generator and are deterministic given
it; replica-level parallelism is layered on top by the command-line runner
through the block seed schedule.  ``_walk_chunks`` is the only stepping loop:
first passage, visit counting and Tanaka surgery each hand it a per-chunk
``visit`` callback, so all three consume the stream in the same chunk order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .estimates import EstimateWithCI, binomial_estimate
from .models import (GaussianStep, LatticeFrame, _inverse_cdf, drift_sign,
                     in_spans, lattice_span, lattice_units, log_laplace)

MASS_TOL = 1e-8          # |psi(rho)| must be below this for a probability tilt
DEFAULT_MAX_STEPS = 10 ** 7
_MEM_ELEMENTS = 1 << 23  # soft cap on elements per simulation chunk
RENEWAL_BLOCK = 1 << 15  # replicas per renewal pass; fixes the stream layout


class StoppingReason(Enum):
    HIT_ABOVE = 1
    HIT_BELOW = 2
    MAX_STEPS = 3


@dataclass
class TiltedWalk:
    """The walk whose step law is the e^{rho z}-tilt of the offspring intensity."""

    rho: float
    step: object             # displacement law with sample/support/probs
    drift: float             # psi'(rho)
    variance: float          # psi''(rho)
    span: float | None       # lattice span of the step support, None if continuous

    @cached_property
    def unit_step(self):
        """The step law in whole spans (``models.in_spans``): what sample draws."""
        return in_spans(self.step, self.span)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n steps, in whole spans on a lattice."""
        return self.unit_step.sample(rng, n)

    @property
    def drift_sign(self) -> int:
        """-1, 0 or 1; drifts within models.REGIME_TOL of 0 count as zero."""
        return drift_sign(self.drift)

    @property
    def skip_free_down(self) -> bool:
        """Lowest step -span: every descending ladder height is one span."""
        return self.span is not None and self.unit_step.support().min() == -1.0

    @property
    def skip_free_up(self) -> bool:
        """Highest step +span: every ascending ladder height is one span."""
        return self.span is not None and self.unit_step.support().max() == 1.0


def make_tilted_walk(model, rho=None) -> TiltedWalk:
    """Build the spine walk for a mass-1 tilt; the package's one mass-1 check.

    ``rho`` is a number, one of ``models.TILT_NAMES``, or None for the
    regime's tilt; |psi(rho)| <= MASS_TOL must hold (psi-roots, and rho_star
    in the critical case where it is itself a root).
    """
    if rho is None:
        value = model.analytics().regime_tilt()
    elif isinstance(rho, str):
        an = model.analytics()
        table = an.tilts()
        if rho not in table:
            raise ValueError(f"unknown tilt name {rho!r}")
        value = table[rho]
        if value is None:
            raise ValueError(f"tilt {rho!r} undefined in the {an.regime.value} regime")
    else:
        value = float(rho)
    psi, dpsi, d2psi = log_laplace(model, value)
    if abs(psi) > MASS_TOL:
        raise ValueError(f"psi({value}) = {psi:.3e}: not a probability tilt "
                         f"(a mass-1 tilt has |psi| <= {MASS_TOL:g})")

    step = model.tilted_step(value)
    sup = step.support()
    span = lattice_span(sup) if sup is not None else None
    return TiltedWalk(rho=value, step=step, drift=dpsi, variance=d2psi,
                      span=span)


def cramer_gamma(step) -> float:
    """The positive root of E[e^{-gamma X}] = 1 for a positive-drift step law.

    Gives the bound P(walk from h ever drops below 0) <= e^{-gamma h}.  Found
    by bisection on the step's own moment generating function, for lattice
    and continuous laws alike.
    """
    if step.mgf_parts(0.0)[1] <= 0:
        raise ValueError("Cramer root needs positive drift")

    def f(g):
        try:
            return step.mgf_parts(-g)[0] - 1.0
        except OverflowError:    # far past the root: the mgf is huge
            return math.inf

    hi = 1.0
    while f(hi) < 0:
        hi *= 2.0
        if hi > 1e6:
            raise ArithmeticError("no Cramer root below 1e6")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def cramer_cutoff(step, floor: float = 0.0) -> tuple[float, float]:
    """(b, e^{-gamma b}), b = max(40/gamma, floor): a drift-up walk past b
    ever drops below 0 with probability at most e^{-gamma b}."""
    gamma = cramer_gamma(step)
    b = max(40.0 / gamma, floor)
    return b, math.exp(-gamma * b)


def _walk_chunks(walk: TiltedWalk, pos: np.ndarray, rng, max_steps: int, visit):
    """Step every row of ``pos`` until ``visit`` retires it or max_steps run out.

    Chunks start at 16 steps and double, capped by the element budget and by
    the steps left; all live rows share the step count t.  ``visit(t, cum)``
    gets the positions after steps t+1..t+c, one row per live row in order
    and in whole spans on a lattice (``walk.sample``),
    and returns the start positions of the rows that go on, in order: their
    last positions, or a restart point the caller knows the walk reaches.
    Returns ``(t, pos)``: the steps taken and the positions of the rows still
    live, which the caller reports as truncated.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    t = 0
    chunk = 16
    while pos.size and t < max_steps:
        chunk = min(2 * chunk, max(16, _MEM_ELEMENTS // pos.size))
        c = int(min(chunk, max_steps - t))
        cum = walk.sample(rng, pos.size * c).reshape(pos.size, c)
        np.cumsum(cum, axis=1, out=cum)
        cum += pos[:, None]
        pos = visit(t, cum)
        t += c
    return t, pos


# ---------------------------------------------------------------------------
# first passage


@dataclass
class PassageEnsemble:
    reasons: np.ndarray      # StoppingReason values as int8
    units: np.ndarray        # final positions as counts of ``frame``
    n_steps: np.ndarray
    lower: float | None
    upper: float | None
    frame: LatticeFrame

    @property
    def finals(self) -> np.ndarray:
        return self.frame.positions(self.units)

    @property
    def hit_above(self) -> np.ndarray:
        return self.reasons == StoppingReason.HIT_ABOVE.value

    @property
    def hit_below(self) -> np.ndarray:
        return self.reasons == StoppingReason.HIT_BELOW.value

    @property
    def truncated(self) -> np.ndarray:
        return self.reasons == StoppingReason.MAX_STEPS.value

    @property
    def truncated_fraction(self) -> float:
        return float(self.truncated.mean())

    def overshoots(self) -> np.ndarray:
        return self.finals[self.hit_above] - self.upper

    def undershoots(self) -> np.ndarray:
        return self.lower - self.finals[self.hit_below]

    def p_hit_upper(self) -> EstimateWithCI:
        est = binomial_estimate(int(self.hit_above.sum()), self.reasons.size)
        est.truncated_fraction = self.truncated_fraction
        return est


def passage_ensemble(walk: TiltedWalk, x, n_replicas: int, rng, *,
                     lower: float | None = 0.0, upper: float | None = None,
                     max_steps: int = DEFAULT_MAX_STEPS) -> PassageEnsemble:
    """First-passage outcomes for n_replicas independent walks started at x.

    ``x`` may be a scalar or an array of per-replica starts, on one coset of
    a lattice walk.  Barriers are strict on both sides; a replica that
    exhausts max_steps is reported as MAX_STEPS, never silently dropped.
    """
    if lower is None and upper is None:
        raise ValueError("need at least one barrier")
    frame, starts = LatticeFrame.through(x, walk.span)
    starts = np.broadcast_to(starts, (n_replicas,))
    lo = None if lower is None else frame.units(lower, "ceil", "lower")
    hi = None if upper is None else frame.units(upper, "floor", "upper")
    reasons = np.zeros(n_replicas, np.int8)
    units = np.empty(n_replicas)
    steps = np.zeros(n_replicas, np.int64)

    # immediate crossings (tau = inf{k >= 0}) resolve before any step
    if hi is not None:
        m = starts > hi
        reasons[m] = StoppingReason.HIT_ABOVE.value
        units[m] = starts[m]
    if lo is not None:
        m = (reasons == 0) & (starts < lo)
        reasons[m] = StoppingReason.HIT_BELOW.value
        units[m] = starts[m]

    active = np.flatnonzero(reasons == 0)

    def visit(t, cum):
        nonlocal active
        hit = np.zeros(cum.shape, bool)
        if lo is not None:
            hit |= cum < lo
        if hi is not None:
            hit |= cum > hi
        any_hit = hit.any(axis=1)
        stop = np.argmax(hit, axis=1)

        done_rows = np.flatnonzero(any_hit)
        if done_rows.size:
            idx = active[done_rows]
            fin = cum[done_rows, stop[done_rows]]
            units[idx] = fin
            steps[idx] = t + stop[done_rows] + 1
            below = fin < lo if lo is not None else False
            reasons[idx] = np.where(below, StoppingReason.HIT_BELOW.value,
                                    StoppingReason.HIT_ABOVE.value)
        go = ~any_hit
        active = active[go]
        return cum[go, -1]

    t, pos = _walk_chunks(walk, starts[active], rng, max_steps, visit)
    reasons[active] = StoppingReason.MAX_STEPS.value
    units[active] = pos
    steps[active] = t
    return PassageEnsemble(reasons=reasons, units=units, n_steps=steps,
                           lower=lower, upper=upper, frame=frame)


# ---------------------------------------------------------------------------
# renewal function


@dataclass
class RenewalEstimate:
    x_grid: np.ndarray
    values: np.ndarray       # R at each grid point
    stderr: np.ndarray       # 0 where the table is exact
    truncated_fraction: float = 0.0
    certification_bound: float = 0.0

    def isotonic_values(self) -> np.ndarray:
        return np.maximum.accumulate(self.values)

    def evaluate(self, x) -> np.ndarray:
        """R(x) by linear interpolation on the isotonic table; 0 below 0."""
        xs = np.asarray(x, float)
        top = self.x_grid[-1]
        if np.any(xs > top + 1e-12):
            raise ValueError(
                f"renewal table covers [0, {top}], needed up to {float(np.max(xs))}")
        vals = np.interp(xs, self.x_grid, self.isotonic_values())
        return np.where(xs < 0.0, 0.0, vals)


def _check_grid(x_grid) -> np.ndarray:
    grid = np.asarray(x_grid, float)
    if grid.ndim != 1 or grid.size == 0 or np.any(np.diff(grid) <= 0):
        raise ValueError("x_grid must be strictly increasing")
    if not np.all(np.isfinite(grid)):
        raise ValueError("x_grid must be finite")
    if grid[0] < 0:
        raise ValueError("x_grid must start at 0 or above")
    return grid


def _lattice_renewal(grid, span: float, r: float = 1.0) -> RenewalEstimate:
    """Exact R(x) = sum_{k <= floor(x/span)} r^k: every descending ladder
    height is one span and the next ladder exists with probability r."""
    m = lattice_units(grid, span, "floor", "grid")
    values = m + 1.0 if r == 1.0 else (1.0 - r ** (m + 1)) / (1.0 - r)
    return RenewalEstimate(x_grid=grid, values=values, stderr=np.zeros(grid.size))


def _mc_renewal(grid, n_replicas: int, block_hist) -> RenewalEstimate:
    """Mean and stderr of the renewal count, RENEWAL_BLOCK replicas a pass.

    ``block_hist(b)`` runs b replicas and returns their (b, G + 1) histogram
    of events by grid bin and how many of them max_steps cut short.
    """
    G = grid.size
    sums = np.zeros(G)
    sumsq = np.zeros(G)
    n_trunc = 0
    done = 0
    while done < n_replicas:
        b = min(RENEWAL_BLOCK, n_replicas - done)
        done += b
        hist, trunc = block_hist(b)
        counts = 1 + np.cumsum(hist[:, :G], axis=1, dtype=np.float64)
        sums += counts.sum(axis=0)
        sumsq += (counts * counts).sum(axis=0)
        n_trunc += trunc
    mean = sums / n_replicas
    var = np.maximum(sumsq / n_replicas - mean * mean, 0.0)
    return RenewalEstimate(grid, mean, np.sqrt(var / n_replicas),
                           truncated_fraction=n_trunc / n_replicas)


def renewal_function(walk: TiltedWalk, x_grid, n_replicas: int, rng, *,
                     method: str = "VisitCount",
                     max_steps: int = 10 ** 6) -> RenewalEstimate:
    """Estimate R(x) = E[# visits j < tau_star with S_j >= -x] on a grid.

    ``method`` "VisitCount" counts visits directly on walks run to tau_star
    (weak first nonnegative time, j >= 1); "LadderDuality" builds the renewal
    count 1 + #{n: H_1^- + ... + H_n^- <= x} from strict descending ladder
    heights.  Both require drift >= 0 and cap each replica at max_steps,
    reporting the truncated fraction.  VisitCount restarts a skip-free-up
    walk that ends a chunk below the grid at the grid's lowest lattice point,
    where it is bound to return, so no excursion below the grid runs into the
    cap.  Other recurrent zero-drift walks do run into it, and their partial
    counts bias R downward, which the duality cross-check bounds.
    """
    if walk.drift_sign < 0:
        raise ValueError("renewal function needs drift >= 0 (star or plus tilt)")
    grid = _check_grid(x_grid)
    if method == "VisitCount":
        return _renewal_visit_count(walk, grid, n_replicas, rng, max_steps)
    if method == "LadderDuality":
        return _renewal_duality(walk, grid, n_replicas, rng, max_steps)
    raise ValueError(f"unknown renewal method {method!r}")


def _renewal_visit_count(walk, grid, n_replicas, rng, max_steps):
    G = grid.size
    # a visit at S falls in the first bin whose grid point is at least -S;
    # on a lattice the grid is read in whole spans, rounded down
    cells = LatticeFrame(walk.span).units(grid, "floor", "grid")
    x_lo = -cells[-1]
    # A skip-free-up walk (drift >= 0 here) that ends a chunk below the
    # window climbs back through every lattice point on its way to 0, so it
    # next visits the window at its floor x_lo: restart it there and count
    # that visit.  With no lattice point in the window the floor is 0
    # itself, the return that ends the row.  Restarts wait for a chunk's
    # end: inside a chunk the raw path already counts its return.
    restart = walk.skip_free_up
    if restart:
        floor_bin = np.searchsorted(cells, -x_lo)

    def block_hist(b):
        hist = np.zeros((b, G + 1), np.int64)
        rows = np.arange(b)          # live row -> block row

        def visit(t, cum):
            nonlocal hist, rows
            c = cum.shape[1]
            done = cum >= 0.0
            any_done = done.any(axis=1)
            stop = np.where(any_done, np.argmax(done, axis=1), c)
            # count strictly-negative visits before the stop, within window
            live = np.arange(c)[None, :] < stop[:, None]
            live &= cum >= x_lo
            ri, ci = np.nonzero(live)
            if ri.size:
                bins = np.searchsorted(cells, -cum[ri, ci], side="left")
                keys = rows[ri] * (G + 1) + bins
                hist += np.bincount(keys, minlength=hist.size).reshape(hist.shape)
            go = ~any_done
            rows = rows[go]
            pos = cum[go, -1]
            if restart:
                below = pos < x_lo
                if x_lo < 0:
                    hist[rows[below], floor_bin] += 1
                    pos[below] = x_lo
                else:
                    rows, pos = rows[~below], pos[~below]
            return pos

        _walk_chunks(walk, np.zeros(b), rng, max_steps, visit)
        return hist, rows.size

    return _mc_renewal(grid, n_replicas, block_hist)


def _renewal_duality(walk, grid, n_replicas, rng, max_steps):
    G = grid.size
    x_max = grid[-1]
    if walk.drift_sign == 0 and walk.skip_free_down:
        # ladder heights are one span and the ladder sequence never dies:
        # the duality sum 1 + #{n: n*span <= x} is exact with no sampling
        return _lattice_renewal(grid, walk.span)
    # ladder heights add up in whole spans on a lattice, against the grid
    # read the same way (a sum T falls in the first bin at or above it)
    cells = LatticeFrame(walk.span).units(grid, "floor", "grid")
    # drift-up walks terminate their ladder sequence with a Cramer certificate
    cutoff, cert_per_event = (cramer_cutoff(walk.step, x_max + 1.0)
                              if walk.drift_sign > 0 else (None, 0.0))
    cert_bound = 0.0

    def block_hist(b):
        nonlocal cert_bound
        hist = np.zeros((b, G + 1), np.int64)
        trunc = np.zeros(b, bool)
        rows = np.arange(b)
        T = np.zeros(b)              # ladder partial sums per block row, as counts
        while rows.size:
            # one descending-ladder search for every active row
            ens = passage_ensemble(walk, 0.0, rows.size, rng,
                                   lower=0.0, upper=cutoff, max_steps=max_steps)
            found = ens.hit_below
            if cutoff is not None:
                cert_bound += cert_per_event * int(ens.hit_above.sum())
            trunc[rows[ens.truncated]] = True
            idx = rows[found]
            T[idx] += -ens.units[found]
            ok = T[idx] <= cells[-1]
            if ok.any():
                bins = np.searchsorted(cells, T[idx[ok]], side="left")
                np.add.at(hist, (idx[ok], bins), 1)
            rows = idx[ok]
        return hist, int(trunc.sum())

    est = _mc_renewal(grid, n_replicas, block_hist)
    est.certification_bound = cert_bound / n_replicas
    return est


def closed_form_renewal(walk: TiltedWalk, x_grid) -> RenewalEstimate:
    """Exact R(x) for unit-up/unit-down lattice walks.

    Descending ladder heights are deterministic (= span), so R is a pure
    geometric sum: critical R(x) = floor(x/span)+1; drift-up R(x) =
    sum_{k<=floor(x/span)} r^k with r the ruin probability p_down/p_up.
    """
    if walk.span is None:
        raise ValueError("closed-form renewal needs a lattice step law")
    sup = walk.step.support()
    if not (walk.skip_free_down and walk.skip_free_up and sup.size == 2):
        raise ValueError("closed-form renewal implemented for +-span steps only")
    p_up = float(walk.step.probs()[np.argmax(sup)])
    grid = _check_grid(x_grid)
    if walk.drift_sign < 0:
        raise ValueError("closed-form renewal needs drift >= 0")
    r = 1.0 if walk.drift_sign == 0 else (1.0 - p_up) / p_up
    return _lattice_renewal(grid, walk.span, r)


def estimate_C_R(walk: TiltedWalk, n_replicas: int, rng, *,
                 probe_t: float = 50.0,
                 max_steps: int = 10 ** 6) -> EstimateWithCI:
    """The renewal-limit constant C_R = lim R(x)/R-growth-unit.

    Critical tilt: 1/E[-S at first passage below 0] (mean undershoot from 0),
    exactly 1/span for a skip-free-down lattice walk, whose undershoot is
    always one span (method "exact", no undershoot drawn); Monte Carlo
    otherwise (method "undershoot").  Drift-up tilt: 1/P(never below 0),
    certified by a Cramer cutoff (method "survival").  The returned extra
    dict carries the first-passage consistency probe C_R * t * P(up before
    down) (critical) or C_R * P(up before down) (drift-up), both of which
    approach 1; the probe is always Monte Carlo.  ``truncated_fraction`` is
    the larger of the passages' truncated fractions, the probe's included.
    A budget that leaves nothing to divide by raises ValueError.
    """
    if walk.drift_sign < 0:
        raise ValueError("C_R defined for drift >= 0 tilts")
    cert = 0.0
    if walk.drift_sign == 0 and walk.skip_free_down:
        est = EstimateWithCI(value=1.0 / walk.span, stderr=0.0,
                             n_effective=math.inf)
        method = "exact"
    elif walk.drift_sign == 0:
        ens = passage_ensemble(walk, 0.0, n_replicas, rng,
                               lower=0.0, upper=None, max_steps=max_steps)
        under = ens.undershoots()
        if under.size < 2:
            raise ValueError(f"C_R: {under.size} undershoots of {n_replicas} "
                             "walks, need 2; raise --replicas or --max-steps")
        mean = float(under.mean())
        se_mean = float(under.std(ddof=1) / math.sqrt(under.size))
        est = EstimateWithCI(value=1.0 / mean, stderr=se_mean / mean ** 2,
                             n_effective=float(under.size),
                             truncated_fraction=ens.truncated_fraction)
        method = "undershoot"
    else:
        cutoff, cert = cramer_cutoff(walk.step)
        ens = passage_ensemble(walk, 0.0, n_replicas, rng,
                               lower=0.0, upper=cutoff, max_steps=max_steps)
        p = binomial_estimate(int(ens.hit_above.sum()), n_replicas)
        if p.value == 0:
            raise ValueError(f"C_R: none of {n_replicas} walks escaped to the "
                             "Cramer cutoff; raise --replicas or --max-steps")
        est = EstimateWithCI(value=1.0 / p.value, stderr=p.stderr / p.value ** 2,
                             n_effective=float(n_replicas),
                             truncated_fraction=ens.truncated_fraction)
        method = "survival"

    probe = passage_ensemble(walk, 0.0, n_replicas, rng,
                             lower=0.0, upper=probe_t, max_steps=max_steps)
    p_probe = probe.p_hit_upper()
    est.truncated_fraction = max(est.truncated_fraction,
                                 probe.truncated_fraction)
    if walk.drift_sign == 0:
        product = est.value * probe_t * p_probe.value
    else:
        product = est.value * p_probe.value
    est.extra.update(method=method, probe_t=probe_t, probe_product=float(product),
                     probe_p=p_probe.value, certification_bound=cert)
    return est


# ---------------------------------------------------------------------------
# Tanaka's pathwise construction of the walk conditioned to stay positive


@dataclass
class TanakaEnsemble:
    zeta: np.ndarray         # (n_replicas, n_steps + 1); NaN tail where truncated
    truncated: np.ndarray    # replicas whose covering block never completed
    first_ladder: np.ndarray  # first strict ascending ladder epoch; 0 if none

    @property
    def truncated_fraction(self) -> float:
        return float(self.truncated.mean())

    def complete(self) -> np.ndarray:
        return self.zeta[~self.truncated]


def tanaka_ensemble(walk: TiltedWalk, n_steps: int, n_replicas: int, rng, *,
                    max_steps: int = 10 ** 6) -> TanakaEnsemble:
    """Paths of the conditioned-to-stay-positive walk via ladder-block surgery.

    Run the raw walk and, at every strict ascending ladder epoch, emit the
    just-completed block reversed and reflected: for sigma' < j <= sigma the
    conditioned value is zeta_j = S_{sigma'} + S_sigma - S_{sigma - (j - sigma')}.
    The path zeta_1..zeta_n is complete once a ladder epoch lands at or past n.
    The first block ends at the first ladder epoch T_1 in the minimum, H_1.
    Blocks are heavy-tailed for zero-drift walks, so replicas whose covering
    block is still open after max_steps raw steps come back truncated (NaN
    tail) rather than biased.  On a lattice the surgery runs in whole spans,
    so a return to the running maximum is exactly no record.
    """
    n = int(n_steps)
    if n < 0:
        raise ValueError("n_steps must be >= 0")
    Z = np.full((n_replicas, n + 1), np.nan)
    Z[:, 0] = 0.0
    truncated = np.zeros(n_replicas, bool)
    first_ladder = np.zeros(n_replicas, np.int64)
    if n == 0:
        return TanakaEnsemble(Z, truncated, first_ladder)

    orig = np.arange(n_replicas)
    M = np.zeros(n_replicas)            # raw S at the last strict ladder epoch
    sig = np.zeros(n_replicas, np.int64)
    tail = np.zeros((n_replicas, n))    # raw S at steps t - n + 1 .. t

    def visit(t, cum):
        nonlocal orig, M, sig, tail
        na, c = cum.shape
        # steps t - n + 1 .. t + c: every lookback lies in [tau - n, tau - 1]
        window = np.concatenate([tail, cum], axis=1)
        crun = np.maximum.accumulate(cum, axis=1)
        prev_run = np.concatenate(
            [np.full((na, 1), -np.inf), crun[:, :-1]], axis=1)
        rec = cum > np.maximum(M[:, None], prev_run)

        er, ec = np.nonzero(rec)        # row-major: events time-ordered per row
        if er.size:
            tau = t + ec + 1
            ev_val = cum[er, ec]
            first = np.ones(er.size, bool)
            first[1:] = er[1:] != er[:-1]
            prev_tau = np.empty(er.size, np.int64)
            prev_val = np.empty(er.size)
            prev_tau[first] = sig[er[first]]
            prev_val[first] = M[er[first]]
            later = np.flatnonzero(~first)
            prev_tau[later] = tau[later - 1]
            prev_val[later] = ev_val[later - 1]
            t1 = prev_tau == 0
            first_ladder[orig[er[t1]]] = tau[t1]

            hi = np.minimum(tau, n)
            ell = hi - prev_tau
            keep = np.flatnonzero(ell > 0)
            if keep.size:
                ell_k = ell[keep]
                total = int(ell_k.sum())
                starts = np.cumsum(ell_k) - ell_k
                offs = np.arange(total) - np.repeat(starts, ell_k) + 1
                rep_er = np.repeat(er[keep], ell_k)
                back = np.repeat(tau[keep], ell_k) - offs
                s_back = window[rep_er, back - t + n - 1]
                jj = np.repeat(prev_tau[keep], ell_k) + offs
                Z[np.repeat(orig[er[keep]], ell_k), jj] = \
                    np.repeat(prev_val[keep] + ev_val[keep], ell_k) - s_back

            last = np.ones(er.size, bool)
            last[:-1] = er[:-1] != er[1:]
            sig[er[last]] = tau[last]
            M[er[last]] = ev_val[last]

        tail = window[:, c:]
        alive = sig < n
        if not alive.all():
            orig, M, sig, tail = (a[alive] for a in (orig, M, sig, tail))
        return cum[alive, -1]

    _walk_chunks(walk, np.zeros(n_replicas), rng, max_steps, visit)
    truncated[orig] = True
    Z = LatticeFrame(walk.span).positions(Z)

    done = ~truncated
    body = Z[done][:, 1:]
    assert not np.isnan(body).any() and (body > 0.0).all(), \
        "conditioned path must be strictly positive"
    return TanakaEnsemble(Z, truncated, first_ladder)


def first_ladder_height_mean(walk: TiltedWalk) -> float:
    """E[H_1] for the first strict ascending ladder, exactly.

    Skip-free-up lattice walks (max step = +span) have H_1 = span; a
    zero-drift gaussian step has E[H_1] = sigma / sqrt(2) (Spitzer's
    formula, since P(S_n > 0) = 1/2 for every n).  Other laws are refused.
    """
    if walk.skip_free_up:
        return walk.span
    if isinstance(walk.step, GaussianStep) and walk.drift_sign == 0:
        return walk.step.sigma / math.sqrt(2.0)
    raise ValueError("E[H_1] is known exactly only for skip-free-up lattice "
                     "walks and zero-drift gaussian steps")


@dataclass
class MinRecordEnsemble:
    zeta: np.ndarray         # underlying conditioned paths
    weights: np.ndarray      # zeta at the last-min epoch / E[H_1]
    sigma_tilde: np.ndarray  # last epoch achieving the running minimum
    flagged: np.ndarray      # truncated, or first ladder epoch past n
    e_h1: float

    def valid(self) -> np.ndarray:
        return ~self.flagged


def hat_s_ensemble(walk: TiltedWalk, n_steps: int, n_replicas: int, rng, *,
                   max_steps: int = 10 ** 6) -> MinRecordEnsemble:
    """Reweighted conditioned paths whose weighted law is the min-record chain.

    Weight = zeta_{sigma_tilde} / E[H_1] with sigma_tilde the last epoch in
    1..n at the path minimum, final (H_1 at the first ladder epoch T_1)
    exactly when T_1 <= n.  A sample with T_1 > n is flagged: it carries
    weight but should be excluded and accounted by the caller, so the valid
    weights average E[H_1 | T_1 <= n] / E[H_1], which tends to 1.
    """
    n = int(n_steps)
    if n < 1:
        raise ValueError("need n_steps >= 1")
    e_h1 = first_ladder_height_mean(walk)
    tk = tanaka_ensemble(walk, n, n_replicas, rng, max_steps=max_steps)
    body = np.where(np.isnan(tk.zeta[:, 1:]), np.inf, tk.zeta[:, 1:])
    rev_arg = body.shape[1] - 1 - np.argmin(body[:, ::-1], axis=1)
    sigma = rev_arg + 1
    weights = body[np.arange(n_replicas), rev_arg] / e_h1
    flagged = tk.truncated | (tk.first_ladder > n)
    weights[tk.truncated] = np.nan
    return MinRecordEnsemble(zeta=tk.zeta, weights=weights, sigma_tilde=sigma,
                             flagged=flagged, e_h1=e_h1)


# ---------------------------------------------------------------------------
# Doob h-transform stepping


def _h_function(renewal, boundary: str, span: float | None):
    base = renewal if callable(renewal) else renewal.evaluate
    if boundary == "nonnegative":
        return lambda z: base(np.maximum(z, -1.0)) * (np.asarray(z) >= 0.0)
    if boundary == "positive":
        if span is not None:
            return lambda z: base(np.maximum(np.asarray(z) - span, -1.0)) \
                * (np.asarray(z) >= span)
        return lambda z: base(np.maximum(z, -1.0)) * (np.asarray(z) > 0.0)
    raise ValueError(f"unknown boundary {boundary!r}")


def h_transform_pick(h, y, z, probs, rng):
    """One h-transformed lattice move from every position in ``y``.

    Row i of the (displacement ``z``, probability ``probs``) table is drawn
    with weight probs[i] * h(y + z[i]); on a lattice y and z are whole
    spans, so equal positions are equal floats.  Each group of equal
    positions, in increasing order, draws its uniforms and picks its rows by
    ``models._inverse_cdf``.  Returns the row picked for each position.
    """
    pick = np.empty(y.size, np.int64)
    for y0 in np.unique(y):
        rows = np.flatnonzero(y == y0)
        wts = probs * h(y0 + z)
        tot = wts.sum()
        if tot <= 0.0:
            raise ValueError(f"h vanishes on every move from y = {y0}")
        pick[rows] = _inverse_cdf(np.cumsum(wts) / tot, rng.random(rows.size))
    return pick


def h_transform_accept(h, y, step, renewal: RenewalEstimate, rng) -> np.ndarray:
    """One h-transformed move of a continuous ``step`` law from every ``y``.

    Accept-reject: h must be nondecreasing and at most the isotonic top of
    the ``renewal`` table.  A proposal y + z is kept with probability
    h(min(y + z, top)) over an envelope: h(min(y + reach, top)) for
    z <= reach = 6 sigma, the table top beyond.  Returns the accepted
    positions, which may pass the table's last grid point: there h is read
    flat-extended.
    """
    top = float(renewal.x_grid[-1])
    r_top = float(renewal.isotonic_values()[-1])
    reach = 6.0 * getattr(step, "sigma", 1.0)
    out = np.empty(y.size)
    pending = np.arange(y.size)
    while pending.size:
        z = step.sample(rng, pending.size)
        cand = y[pending] + z
        env = np.where(z <= reach, h(np.minimum(y[pending] + reach, top)), r_top)
        if not np.all(env > 0.0):
            raise ValueError("h vanishes within reach of a start")
        ok = rng.random(pending.size) * env <= h(np.minimum(cand, top))
        out[pending[ok]] = cand[ok]
        pending = pending[~ok]
    return out


def conditioned_chain(walk: TiltedWalk, renewal, x0, n_steps: int,
                      n_replicas: int, rng, *,
                      boundary: str = "nonnegative") -> np.ndarray:
    """(n_replicas, n_steps+1) paths of the renewal-h-transformed walk from x0.

    ``renewal`` is a RenewalEstimate (its isotonic interpolant is used) or a
    callable h.  Lattice walks step by ``h_transform_pick`` and continuous
    walks by ``h_transform_accept``, the draws the conditioned spine takes;
    a continuous chain needs the table and raises once a position passes
    its last grid point.
    """
    h = _h_function(renewal, boundary, walk.span)
    frame, pos = LatticeFrame.through(x0, walk.span)
    pos = np.broadcast_to(pos, (n_replicas,))
    out = np.empty((n_replicas, n_steps + 1))
    out[:, 0] = frame.positions(pos)
    sup = walk.unit_step.support()
    if sup is None and callable(renewal):
        raise ValueError("continuous h-chains need a RenewalEstimate table")
    h_units = lambda k: h(frame.positions(k))
    for k in range(1, n_steps + 1):
        if sup is not None:
            pick = h_transform_pick(h_units, pos, sup, walk.unit_step.probs(), rng)
            pos = pos + sup[pick]
        else:
            pos = h_transform_accept(h, pos, walk.step, renewal, rng)
            top = renewal.x_grid[-1]
            if np.any(pos > top + 1e-12):
                raise ValueError(f"renewal table covers [0, {top}]; the chain "
                                 f"reached {float(pos.max()):.3f}, extend the grid")
        out[:, k] = frame.positions(pos)
    return out

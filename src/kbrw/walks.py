"""The spine walk under mass-1 exponential tilts.

Everything here is a plain one-dimensional random walk: first-passage
ensembles, the renewal function of the barrier problem, Tanaka's pathwise
construction of the walk conditioned to stay positive, the min-record
reweighting on top of it, and Doob h-transform stepping.

Conventions (fixed package-wide): the barrier at a is crossed downward when
S < a strictly and upward when S > a strictly; ascending ladder epochs are
strict records, descending ladders are strict records of -S; tau_star, the
return time used by the renewal function, is weak (first j >= 1 with
S_j >= 0).

All simulators take an explicit numpy Generator and are deterministic given
it; replica-level parallelism is layered on top by the command-line runner
through the block seed schedule.  ``_walk_chunks`` is the only stepping loop:
first passage, visit counting and Tanaka surgery each hand it a per-chunk
``visit`` callback, so all three consume the stream in the same chunk order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .estimates import EstimateWithCI, binomial_estimate
from .models import _inverse_cdf, drift_sign, lattice_span, log_laplace

MASS_TOL = 1e-8          # |psi(rho)| must be below this for a probability tilt
DEFAULT_MAX_STEPS = 10 ** 7
_MEM_ELEMENTS = 1 << 23  # soft cap on elements per simulation chunk
RENEWAL_BLOCK = 1 << 15  # replicas per renewal pass; fixes the stream layout
H1_REPLICAS = 200_000    # Monte Carlo budget of first_ladder_height_mean


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
    _h1_cache: tuple | None = field(default=None, repr=False, compare=False)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.step.sample(rng, n)

    @property
    def drift_sign(self) -> int:
        """-1, 0 or 1; drifts within models.REGIME_TOL of 0 count as zero."""
        return drift_sign(self.drift)

    @property
    def skip_free_down(self) -> bool:
        """Lowest step -span: every descending ladder height is one span."""
        return self.span is not None and \
            abs(float(np.min(self.step.support())) + self.span) <= 1e-12

    @property
    def skip_free_up(self) -> bool:
        """Highest step +span: every ascending ladder height is one span."""
        return self.span is not None and \
            abs(float(np.max(self.step.support())) - self.span) <= 1e-12


def make_tilted_walk(model, rho=None) -> TiltedWalk:
    """Build the spine walk for a mass-1 tilt; the package's one mass-1 check.

    ``rho`` is a number, one of "star", "plus", "minus", or None for the
    regime's tilt; |psi(rho)| <= MASS_TOL must hold (psi-roots, and rho_star
    in the critical case where it is itself a root).
    """
    if rho is None:
        value = model.analytics().regime_tilt()
    elif isinstance(rho, str):
        an = model.analytics()
        table = {"star": an.rho_star, "plus": an.rho_plus, "minus": an.rho_minus}
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
    gets the positions after steps t+1..t+c, one row per live row in order,
    and returns the mask of rows that go on.  Returns ``(t, pos)``: the steps
    taken and the last positions of the rows still live, which the caller
    reports as truncated.
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
        keep = visit(t, cum)
        t += c
        pos = cum[keep, -1]
    return t, pos


# ---------------------------------------------------------------------------
# first passage


@dataclass
class PassageEnsemble:
    reasons: np.ndarray      # StoppingReason values as int8
    finals: np.ndarray
    n_steps: np.ndarray
    lower: float | None
    upper: float | None

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

    ``x`` may be a scalar or an array of per-replica starts.  Barriers are
    strict on both sides; a replica that exhausts max_steps is reported as
    MAX_STEPS, never silently dropped.
    """
    if lower is None and upper is None:
        raise ValueError("need at least one barrier")
    starts = np.broadcast_to(np.asarray(x, float), (n_replicas,)).copy()
    reasons = np.zeros(n_replicas, np.int8)
    finals = np.empty(n_replicas)
    steps = np.zeros(n_replicas, np.int64)

    # immediate crossings (tau = inf{k >= 0}) resolve before any step
    if upper is not None:
        m = starts > upper
        reasons[m] = StoppingReason.HIT_ABOVE.value
        finals[m] = starts[m]
    if lower is not None:
        m = (reasons == 0) & (starts < lower)
        reasons[m] = StoppingReason.HIT_BELOW.value
        finals[m] = starts[m]

    active = np.flatnonzero(reasons == 0)

    def visit(t, cum):
        nonlocal active
        hit = np.zeros(cum.shape, bool)
        if lower is not None:
            hit |= cum < lower
        if upper is not None:
            hit |= cum > upper
        any_hit = hit.any(axis=1)
        stop = np.argmax(hit, axis=1)

        done_rows = np.flatnonzero(any_hit)
        if done_rows.size:
            idx = active[done_rows]
            fin = cum[done_rows, stop[done_rows]]
            finals[idx] = fin
            steps[idx] = t + stop[done_rows] + 1
            if lower is not None and upper is not None:
                below = fin < lower
                reasons[idx] = np.where(below, StoppingReason.HIT_BELOW.value,
                                        StoppingReason.HIT_ABOVE.value)
            elif lower is not None:
                reasons[idx] = StoppingReason.HIT_BELOW.value
            else:
                reasons[idx] = StoppingReason.HIT_ABOVE.value
        go = ~any_hit
        active = active[go]
        return go

    t, pos = _walk_chunks(walk, starts[active], rng, max_steps, visit)
    reasons[active] = StoppingReason.MAX_STEPS.value
    finals[active] = pos
    steps[active] = t
    return PassageEnsemble(reasons=reasons, finals=finals, n_steps=steps,
                           lower=lower, upper=upper)


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
    m = np.floor(grid / span + 1e-9)
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
    heights.  Both require drift >= 0; recurrent zero-drift walks are capped
    at max_steps per replica with the truncated fraction reported (their
    partial counts bias R downward, which the duality cross-check bounds).
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
    x_max = grid[-1]

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
            live &= cum >= -x_max
            ri, ci = np.nonzero(live)
            if ri.size:
                bins = np.searchsorted(grid, -cum[ri, ci], side="left")
                keys = rows[ri] * (G + 1) + bins
                hist += np.bincount(keys, minlength=hist.size).reshape(hist.shape)
            go = ~any_done
            rows = rows[go]
            return go

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
    # drift-up walks terminate their ladder sequence with a Cramer certificate
    cutoff, cert_per_event = (cramer_cutoff(walk.step, x_max + 1.0)
                              if walk.drift_sign > 0 else (None, 0.0))
    cert_bound = 0.0

    def block_hist(b):
        nonlocal cert_bound
        hist = np.zeros((b, G + 1), np.int64)
        trunc = np.zeros(b, bool)
        rows = np.arange(b)
        T = np.zeros(b)              # ladder partial sums per block row
        while rows.size:
            # one descending-ladder search for every active row
            ens = passage_ensemble(walk, 0.0, rows.size, rng,
                                   lower=0.0, upper=cutoff, max_steps=max_steps)
            found = ens.hit_below
            if cutoff is not None:
                cert_bound += cert_per_event * int(ens.hit_above.sum())
            trunc[rows[ens.truncated]] = True
            idx = rows[found]
            T[idx] += -ens.finals[found]
            ok = T[idx] <= x_max
            if ok.any():
                bins = np.searchsorted(grid, T[idx[ok]], side="left")
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

    Critical tilt: 1/E[-S at first passage below 0] (mean undershoot from 0).
    Drift-up tilt: 1/P(never below 0), certified by a Cramer cutoff.  The
    returned extra dict carries the first-passage consistency probe
    C_R * t * P(up before down) (critical) or C_R * P(up before down)
    (drift-up), both of which approach 1.
    """
    if walk.drift_sign < 0:
        raise ValueError("C_R defined for drift >= 0 tilts")
    if walk.drift_sign == 0:
        ens = passage_ensemble(walk, 0.0, n_replicas, rng,
                               lower=0.0, upper=None, max_steps=max_steps)
        under = ens.undershoots()
        mean = float(under.mean())
        se_mean = float(under.std(ddof=1) / math.sqrt(under.size))
        est = EstimateWithCI(value=1.0 / mean, stderr=se_mean / mean ** 2,
                             n_effective=float(under.size),
                             truncated_fraction=ens.truncated_fraction)
        method = "undershoot"
        cert = 0.0
    else:
        cutoff, cert = cramer_cutoff(walk.step)
        ens = passage_ensemble(walk, 0.0, n_replicas, rng,
                               lower=0.0, upper=cutoff, max_steps=max_steps)
        p = binomial_estimate(int(ens.hit_above.sum()), n_replicas)
        est = EstimateWithCI(value=1.0 / p.value, stderr=p.stderr / p.value ** 2,
                             n_effective=float(n_replicas),
                             truncated_fraction=ens.truncated_fraction)
        method = "survival"

    probe = passage_ensemble(walk, 0.0, n_replicas, rng,
                             lower=0.0, upper=probe_t, max_steps=max_steps)
    p_probe = probe.p_hit_upper()
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
    Blocks are heavy-tailed for zero-drift walks, so replicas whose covering
    block is still open after max_steps raw steps come back truncated (NaN
    tail) rather than biased.
    """
    n = int(n_steps)
    if n < 0:
        raise ValueError("n_steps must be >= 0")
    Z = np.full((n_replicas, n + 1), np.nan)
    Z[:, 0] = 0.0
    truncated = np.zeros(n_replicas, bool)
    if n == 0:
        return TanakaEnsemble(Z, truncated)

    L = 2 * (n + 1)                     # ring of raw positions, covers lookbacks
    orig = np.arange(n_replicas)
    M = np.zeros(n_replicas)            # raw S at the last strict ladder epoch
    sig = np.zeros(n_replicas, np.int64)
    ring = np.zeros((n_replicas, L))

    def visit(t, cum):
        nonlocal orig, M, sig, ring
        na, c = cum.shape
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
                incol = back - t - 1
                ring_vals = ring[rep_er, back % L]
                s_back = np.where(incol >= 0,
                                  cum[rep_er, np.maximum(incol, 0)], ring_vals)
                jj = np.repeat(prev_tau[keep], ell_k) + offs
                Z[np.repeat(orig[er[keep]], ell_k), jj] = \
                    np.repeat(prev_val[keep] + ev_val[keep], ell_k) - s_back

            last = np.ones(er.size, bool)
            last[:-1] = er[:-1] != er[1:]
            sig[er[last]] = tau[last]
            M[er[last]] = ev_val[last]

        if c >= L:
            cols = (np.arange(L) + t + c - L + 1) % L
            ring[:, cols] = cum[:, c - L:]
        else:
            cols = (np.arange(c) + t + 1) % L
            ring[:, cols] = cum

        alive = sig < n
        if not alive.all():
            orig, M, sig, ring = (a[alive] for a in (orig, M, sig, ring))
        return alive

    _walk_chunks(walk, np.zeros(n_replicas), rng, max_steps, visit)
    truncated[orig] = True

    done = ~truncated
    body = Z[done][:, 1:]
    assert not np.isnan(body).any() and (body > 0.0).all(), \
        "conditioned path must be strictly positive"
    return TanakaEnsemble(Z, truncated)


def first_ladder_height_mean(walk: TiltedWalk, rng) -> tuple:
    """(E[H_1], stderr, truncated_fraction) for the first strict ascending ladder.

    Skip-free-up lattice walks (max step = +span) have H_1 = span exactly;
    otherwise Monte Carlo with truncated replicas excluded and reported.
    Cached on the walk instance: the constant is reused by every reweighted
    sample.
    """
    if walk._h1_cache is not None:
        return walk._h1_cache
    if walk.skip_free_up:
        walk._h1_cache = (walk.span, 0.0, 0.0)
        return walk._h1_cache
    ens = passage_ensemble(walk, 0.0, H1_REPLICAS, rng,
                           lower=None, upper=0.0, max_steps=10 ** 6)
    h = ens.finals[ens.hit_above]
    if h.size == 0:
        raise RuntimeError("no ladder epochs observed; drift too negative?")
    walk._h1_cache = (float(h.mean()),
                      float(h.std(ddof=1) / math.sqrt(h.size)),
                      ens.truncated_fraction)
    return walk._h1_cache


@dataclass
class MinRecordEnsemble:
    zeta: np.ndarray         # underlying conditioned paths
    weights: np.ndarray      # zeta at the last-min epoch / E[H_1]
    sigma_tilde: np.ndarray  # last epoch achieving the running minimum
    flagged: np.ndarray      # truncated, or sigma_tilde inside the guard window
    e_h1: float
    e_h1_stderr: float

    def valid(self) -> np.ndarray:
        return ~self.flagged


def hat_s_ensemble(walk: TiltedWalk, n_steps: int, n_replicas: int, rng, *,
                   max_steps: int = 10 ** 6) -> MinRecordEnsemble:
    """Reweighted conditioned paths whose weighted law is the min-record chain.

    Weight = zeta_{sigma_tilde} / E[H_1] with sigma_tilde the last epoch in
    1..n at the path minimum.  A sample whose sigma_tilde falls within a
    guard of max(1, n/5) epochs of the horizon cannot be certified as final
    (a later epoch could still undercut the minimum) and is flagged; flagged
    samples carry weight but should be excluded and accounted by the caller.
    """
    n = int(n_steps)
    if n < 1:
        raise ValueError("need n_steps >= 1")
    guard = max(1, n // 5)
    e_h1 = first_ladder_height_mean(walk, rng)
    tk = tanaka_ensemble(walk, n, n_replicas, rng, max_steps=max_steps)
    body = np.where(np.isnan(tk.zeta[:, 1:]), np.inf, tk.zeta[:, 1:])
    rev_arg = body.shape[1] - 1 - np.argmin(body[:, ::-1], axis=1)
    sigma = rev_arg + 1
    weights = body[np.arange(n_replicas), rev_arg] / e_h1[0]
    flagged = tk.truncated | (sigma > n - guard)
    weights[tk.truncated] = np.nan
    return MinRecordEnsemble(zeta=tk.zeta, weights=weights, sigma_tilde=sigma,
                             flagged=flagged, e_h1=e_h1[0], e_h1_stderr=e_h1[1])


# ---------------------------------------------------------------------------
# Doob h-transform stepping


def _h_function(renewal, boundary: str, span: float | None):
    base = renewal if callable(renewal) else renewal.evaluate
    if boundary == "nonnegative":
        return lambda z: base(np.maximum(z, -1.0)) * (np.asarray(z) >= 0.0)
    if boundary == "positive":
        if span is not None:
            return lambda z: base(np.maximum(np.asarray(z) - span, -1.0)) \
                * (np.asarray(z) >= span - 1e-12)
        return lambda z: base(np.maximum(z, -1.0)) * (np.asarray(z) > 0.0)
    raise ValueError(f"unknown boundary {boundary!r}")


def h_transform_pick(h, y, z, probs, rng):
    """One h-transformed lattice move from every position in ``y``.

    Row i of the (displacement ``z``, probability ``probs``) table is drawn
    with weight probs[i] * h(y + z[i]).  Positions are grouped after
    rounding to 9 decimals, and each group in increasing order draws its
    uniforms and picks its rows by ``models._inverse_cdf``.  Returns the
    rounded positions and the row picked for each.
    """
    keys = np.round(y, 9)
    pick = np.empty(y.size, np.int64)
    for y0 in np.unique(keys):
        rows = np.flatnonzero(keys == y0)
        wts = probs * h(y0 + z)
        tot = wts.sum()
        if tot <= 0.0:
            raise ValueError(f"h vanishes on every move from y = {y0}")
        pick[rows] = _inverse_cdf(np.cumsum(wts) / tot, rng.random(rows.size))
    return keys, pick


def conditioned_chain(walk: TiltedWalk, renewal, x0, n_steps: int,
                      n_replicas: int, rng, *,
                      boundary: str = "nonnegative") -> np.ndarray:
    """(n_replicas, n_steps+1) paths of the renewal-h-transformed walk from x0.

    ``renewal`` is a RenewalEstimate (its isotonic interpolant is used) or a
    callable h.  Lattice walks step by ``h_transform_pick``, the draw the
    conditioned spine takes; continuous walks use acceptance-rejection with
    the table maximum as the envelope, raising if a proposal leaves the
    covered range.
    """
    h = _h_function(renewal, boundary, walk.span)
    pos = np.broadcast_to(np.asarray(x0, float), (n_replicas,)).copy()
    out = np.empty((n_replicas, n_steps + 1))
    out[:, 0] = pos
    sup = walk.step.support()
    if sup is not None:
        sup = np.asarray(sup, float)
        probs = np.asarray(walk.step.probs(), float)
        for k in range(1, n_steps + 1):
            keys, pick = h_transform_pick(h, pos, sup, probs, rng)
            pos = keys + sup[pick]
            out[:, k] = pos
        return out

    if callable(renewal):
        raise ValueError("continuous h-chains need a RenewalEstimate table")
    top = renewal.x_grid[-1]
    envelope = float(renewal.isotonic_values()[-1])
    for k in range(1, n_steps + 1):
        pending = np.arange(n_replicas)
        nxt = np.empty(n_replicas)
        while pending.size:
            z = pos[pending] + walk.sample(rng, pending.size)
            if np.any(z > top + 1e-12):
                raise ValueError(
                    f"renewal table covers [0, {top}]; proposal reached "
                    f"{float(z.max()):.3f}, extend the grid")
            acc = rng.random(pending.size) * envelope < h(z)
            nxt[pending[acc]] = z[acc]
            pending = pending[~acc]
        pos = nxt
        out[:, k] = pos
    return out

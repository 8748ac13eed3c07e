"""Forward simulation of the branching walk killed below zero.

The forest engine runs many replica trees at once on flat numpy arrays: one
frontier of (position, tree id, probe bitmask) rows, expanded a generation at
a time.  Trees are never materialized beyond the frontier.  The frontier's
tree ids stay sorted (roots are 0..n-1, children repeat their parent's id in
parent order, and every filter keeps order), so each tree's rows form one
run and every per-tree tally is a run tally costing O(frontier), not
O(n_replicas), per generation.

Conventions: a child born strictly below 0 is killed on the spot and counted
as a leaf of the barrier line; a child at exactly 0 survives.  Crossing a
probe level is strict (position > level), recorded once per line of descent,
and only the largest probe stops expansion; the smaller ones are pure
bookkeeping barriers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimates import EstimateWithCI, from_samples
from .models import LatticeFrame, Regime, in_spans, lattice_span
from .walks import make_tilted_walk

LINE_BLOCK = 5000      # replicas per pass of stopped_line_tilted_mass
LINE_MAX_GENERATIONS = 300   # its generation cap; the frontier left is credited


@dataclass(frozen=True)
class SimCaps:
    max_particles: int = 10 ** 7    # births per tree, alive or killed
    max_generations: int = 10 ** 5


@dataclass
class ForestResult:
    probe_levels: np.ndarray
    Z: np.ndarray
    leaves: np.ndarray
    Y: np.ndarray
    H: np.ndarray            # (n_levels, n_replicas)
    truncated: np.ndarray
    generations: np.ndarray
    overshoots: tuple        # top level's (tree ids, overshoot values)

    @property
    def n_replicas(self) -> int:
        return self.Z.size

    @property
    def truncated_fraction(self) -> float:
        return float(self.truncated.mean())


def _runs(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values of sorted ids and the index where each one's run starts."""
    head = np.empty(ids.size, bool)
    head[:1] = True
    np.not_equal(ids[1:], ids[:-1], out=head[1:])
    starts = np.flatnonzero(head)
    return ids[starts], starts


def _tally(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values of sorted ids and how often each occurs."""
    uniq, starts = _runs(ids)
    return uniq, np.diff(starts, append=ids.size)


def simulate_killed_forest(model, x, probe_levels, n_replicas: int, rng,
                           caps: SimCaps = SimCaps()) -> ForestResult:
    """n_replicas independent killed trees from x, reduced to counters.

    x is a single start height or one per replica.  Exceeding a cap marks the
    tree truncated and freezes its partial counts; nothing is dropped
    silently.  Starts and probe_levels must be finite, the levels must lie
    above every start, and on a lattice the starts must share one coset.
    Overshoots are booked at the top level only, in crossing order; with no
    level both arrays are empty.

    Z, leaves and Y are each booked from their own observation (alive
    children, dead children, litter sizes), never one from another.
    """
    xarr = np.broadcast_to(np.asarray(x, float), (n_replicas,))
    levels = np.sort(np.asarray(probe_levels, float))
    if not (np.all(np.isfinite(xarr)) and np.all(np.isfinite(levels))):
        raise ValueError("starts and probe levels must be finite")
    # on a lattice, positions are whole spans and every comparison is exact
    mu = model.intensity()
    frame, fpos = LatticeFrame.through(x, None if mu is None else lattice_span(mu[0]))
    fpos = np.broadcast_to(fpos, (n_replicas,))
    barrier = frame.units(0.0, "ceil")         # alive: position >= 0
    cuts = frame.units(levels, "floor")        # crossed: position > level
    if np.any(fpos < barrier):
        raise ValueError("root below the barrier")
    regime = model.analytics().regime
    if regime not in (Regime.CRITICAL, Regime.SUBCRITICAL):
        raise ValueError(f"total progeny is infinite in regime {regime.value}")
    if levels.size > 8:
        raise ValueError("at most 8 probe levels (bitmask bookkeeping)")
    if levels.size and np.any(levels < xarr.max()):
        raise ValueError("probe levels must not lie below a start position")
    draw = in_spans(model, frame.span)
    nl = levels.size
    top = cuts[-1] if nl else math.inf

    Z = np.ones(n_replicas, np.int64)
    leaves = np.zeros(n_replicas, np.int64)
    Y = np.ones(n_replicas, np.int64)
    births = np.ones(n_replicas, np.int64)
    H = np.zeros((nl, n_replicas), np.int64)
    truncated = np.zeros(n_replicas, bool)
    gen_last = np.zeros(n_replicas, np.int64)
    over_ids, over_vals = [], []

    ftree = np.arange(n_replicas, dtype=np.int64)
    # the top level's bit is never set on the frontier, so one level needs no mask
    fmask = np.zeros(n_replicas, np.uint8) if nl > 1 else None
    # the frontier's trees, where each one's run of rows starts, and its length
    live, starts, rows = ftree, ftree, np.ones(n_replicas, np.int64)
    g = 0
    while ftree.size and g < caps.max_generations:
        g += 1
        nu, disp = draw.spawn(rng, fpos.size)
        litter = np.add.reduceat(nu, starts)
        over_budget = births[live] + litter > caps.max_particles
        if over_budget.any():
            # freeze over-budget trees before this generation is booked
            truncated[live[over_budget]] = True
            keep = np.repeat(~over_budget, rows)
            disp = disp[np.repeat(keep, nu)]
            nu, fpos, ftree = nu[keep], fpos[keep], ftree[keep]
            if fmask is not None:
                fmask = fmask[keep]
            within = ~over_budget
            live, litter, rows = live[within], litter[within], rows[within]
            if ftree.size == 0:
                break
        births[live] += litter
        Y[live] += litter - rows
        gen_last[live] = g

        cpos = np.repeat(fpos, nu)
        cpos += disp
        ctree = np.repeat(ftree, nu)
        cmask = np.repeat(fmask, nu) if fmask is not None else None
        del fpos, ftree, fmask, nu, disp     # spent parents: freed to lower the peak
        dead_trees, dead = _tally(ctree.take(np.flatnonzero(cpos < barrier)))
        leaves[dead_trees] += dead
        for k in range(nl):
            if k == nl - 1:
                hit = np.flatnonzero(cpos > top)
            else:
                bit = np.uint8(1 << k)
                hit = np.flatnonzero((cpos > cuts[k]) & ((cmask & bit) == 0))
                cmask[hit] |= bit
            if hit.size:
                ids = ctree.take(hit)
                crossed, count = _tally(ids)
                H[k, crossed] += count
                if k == nl - 1:
                    Z[crossed] += count          # alive, but not continued
                    over_ids.append(ids)
                    over_vals.append(frame.positions(cpos.take(hit)) - levels[-1])
        nxt = np.flatnonzero((cpos >= barrier) & (cpos <= top))
        fpos, ftree = cpos.take(nxt), ctree.take(nxt)
        fmask = cmask.take(nxt) if cmask is not None else None
        live, starts = _runs(ftree)
        rows = np.diff(starts, append=ftree.size)
        Z[live] += rows
    truncated[ftree] = True

    overshoots = (np.concatenate(over_ids) if over_ids else np.empty(0, np.int64),
                  np.concatenate(over_vals) if over_vals else np.empty(0))
    return ForestResult(probe_levels=levels, Z=Z, leaves=leaves, Y=Y, H=H,
                        truncated=truncated, generations=gen_last,
                        overshoots=overshoots)


# ---------------------------------------------------------------------------
# additive and derivative martingales on the free (unkilled) walk


@dataclass
class MartingaleFlow:
    generations: np.ndarray
    W: np.ndarray            # (n_replicas, n_max+1), tilt rho_W
    dW: np.ndarray           # same shape, minus sum of rho* V e^{rho* V}
    M: np.ndarray | None     # subcritical only, tilt rho_minus
    extinct: np.ndarray
    truncated: np.ndarray
    rho_W: float
    rho_star: float
    rho_minus: float | None
    pruned_mass_fraction: float


def martingale_levels(model, x: float, n_max: int, n_replicas: int, rng, *,
                      prune_eps: float = 1e-8,
                      freeze_above: float | None = None,
                      max_particles: int = 10 ** 6) -> MartingaleFlow:
    """Generation-by-generation martingale sums on free trees from x.

    Critical models track W_n at rho* and the derivative sum
    -sum rho* V e^{rho* V}; subcritical models track W_n at rho_plus and
    M_n at rho_minus (the derivative column is still filled, it just is not
    a martingale away from criticality).

    Particles whose lead weight e^{rho_ref V} drops below prune_eps (and the
    whole frontier of a tree past max_particles births) are not expanded;
    their conditional expected contribution to every later generation is
    credited instead, so all recorded means stay exactly unbiased while the
    tail variance is deliberately given up.  Trees that needed the forced
    frontier credit are flagged truncated.

    freeze_above adds the same exact-credit treatment at an upper level: a
    child born strictly above it is replaced by its current weights.  The
    mean of every recorded column is unchanged (optional stopping at the
    crossing line), but the weight a single particle can reach is bounded
    by e^{rho * freeze_above}, which tames the upper-tail variance that
    otherwise makes deep-generation mean tests uncalibratable.  In the
    subcritical regime the dW column is not a martingale, so its frozen
    values are not exact credits there; use it at criticality only.
    """
    an = model.analytics()
    rho_w, rho_minus, rho_star = an.regime_tilt(), an.rho_minus, an.rho_star
    rho_ref = rho_minus if rho_minus is not None else rho_star

    # summand of each column; a dropped particle is credited its own summands
    terms = [lambda v: np.exp(rho_w * v),
             lambda v: -rho_star * v * np.exp(rho_star * v)]
    if rho_minus is not None:
        terms.append(lambda v: np.exp(rho_minus * v))
    cols = [np.zeros((n_replicas, n_max + 1)) for _ in terms]
    creds = [np.zeros(n_replicas) for _ in terms]
    truncated = np.zeros(n_replicas, bool)
    births = np.ones(n_replicas, np.int64)
    pruned_mass = 0.0
    total_mass = 0.0

    pos = np.full(n_replicas, float(x))
    tree = np.arange(n_replicas, dtype=np.int64)
    for g in range(n_max + 1):
        for col, cred, term in zip(cols, creds, terms):
            col[:, g] = np.bincount(tree, weights=term(pos),
                                    minlength=n_replicas) + cred
        if g == n_max or tree.size == 0:
            break

        nu, disp = model.spawn(rng, pos.size)
        incoming = np.bincount(tree, weights=nu, minlength=n_replicas)
        over = births + incoming.astype(np.int64) > max_particles
        cpos = np.repeat(pos, nu) + disp
        ctree = np.repeat(tree, nu)
        lead = np.exp(rho_ref * cpos)
        total_mass += float(lead.sum())
        drop = (lead < prune_eps) | over[ctree]
        if freeze_above is not None:
            drop |= cpos > freeze_above
        if drop.any():
            dt, dp = ctree[drop], cpos[drop]
            for cred, term in zip(creds, terms):
                cred += np.bincount(dt, weights=term(dp), minlength=n_replicas)
            pruned_mass += float(lead[drop].sum())
            truncated |= over
        keep = ~drop
        pos, tree = cpos[keep], ctree[keep]
        births += incoming.astype(np.int64)

    alive_trees = np.zeros(n_replicas, bool)
    alive_trees[tree] = True
    extinct = ~alive_trees & (creds[0] == 0.0)
    W, dW, *M = cols
    return MartingaleFlow(generations=np.arange(n_max + 1), W=W, dW=dW,
                          M=M[0] if M else None,
                          extinct=extinct, truncated=truncated, rho_W=rho_w,
                          rho_star=rho_star, rho_minus=rho_minus,
                          pruned_mass_fraction=pruned_mass / max(total_mass, 1e-300))


def stopped_line_tilted_mass(model, x: float, t: float, n_replicas: int, rng, *,
                             rho=None, prune_eps: float = 1e-3) -> EstimateWithCI:
    """Mean of sum e^{rho V} over the first-crossing line of level t, free tree.

    For mass-1 tilts with nonnegative drift every line of descent crosses t
    with Q-probability one, so a particle at v below t can be replaced by its
    conditional mean contribution e^{rho v} with zero bias.  Pruning and the
    generation cap therefore only trade collected mass for credited mass; the
    split is reported as credited_fraction.  The default prune_eps is coarse
    on purpose: simulating the raw measure, the population in the band grows
    like 2^g until paths fall below the pruning line, so every extra decade
    of eps multiplies the work.
    """
    tw = make_tilted_walk(model, rho)
    if tw.drift_sign < 0:
        raise ValueError("negative-drift tilt: the crossing line is defective")
    rho = tw.rho
    if t <= x:
        raise ValueError("level must lie above the start")
    floor_w = prune_eps * math.exp(rho * x)

    mass = np.zeros(n_replicas)
    credited = np.zeros(n_replicas)
    for lo in range(0, n_replicas, LINE_BLOCK):
        nb = min(LINE_BLOCK, n_replicas - lo)
        pos = np.full(nb, float(x))
        tree = np.arange(nb, dtype=np.int64)
        g = 0
        while tree.size and g < LINE_MAX_GENERATIONS:
            g += 1
            nu, disp = model.spawn(rng, pos.size)
            cpos = np.repeat(pos, nu) + disp
            ctree = np.repeat(tree, nu)
            w = np.exp(rho * cpos)
            crossed = cpos > t
            if crossed.any():
                mass[lo:lo + nb] += np.bincount(ctree[crossed], weights=w[crossed],
                                                minlength=nb)
            prune = ~crossed & (w < floor_w)
            if prune.any():
                credited[lo:lo + nb] += np.bincount(ctree[prune], weights=w[prune],
                                                    minlength=nb)
            keep = ~crossed & ~prune
            pos, tree = cpos[keep], ctree[keep]
        if tree.size:
            # generation cap: leftover frontier credited at its conditional mean
            credited[lo:lo + nb] += np.bincount(tree, weights=np.exp(rho * pos),
                                                minlength=nb)
    total = mass + credited
    est = from_samples(total)
    est.extra.update(rho=float(rho),
                     credited_fraction=float(credited.sum() / max(total.sum(), 1e-300)),
                     target=math.exp(rho * x))
    return est


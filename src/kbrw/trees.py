"""Forward simulation of the branching walk killed below zero.

The forest engine runs many replica trees at once on flat numpy arrays: one
frontier of (position, tree id, probe bitmask) rows, expanded a generation at
a time with repeat/bincount bookkeeping.  Trees are never materialized beyond
the frontier.

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
from .models import Regime
from .walks import make_tilted_walk

LINE_BLOCK = 5000      # replicas per pass of stopped_line_tilted_mass


@dataclass
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
    max_position: np.ndarray
    truncated: np.ndarray
    generations: np.ndarray
    overshoots: dict         # level -> (tree ids, overshoot values)

    @property
    def n_replicas(self) -> int:
        return self.Z.size

    @property
    def truncated_fraction(self) -> float:
        return float(self.truncated.mean())


def simulate_killed_forest(model, x, probe_levels, n_replicas: int, rng,
                           caps: SimCaps = SimCaps()) -> ForestResult:
    """n_replicas independent killed trees from x, reduced to counters.

    x is a single start height or one per replica.  Exceeding a cap marks the
    tree truncated and freezes its partial counts; nothing is dropped
    silently.  Starts and probe_levels must be finite, and the levels must
    lie above every start.
    """
    xarr = np.broadcast_to(np.asarray(x, float), (n_replicas,))
    levels = np.sort(np.asarray(probe_levels, float))
    if not (np.all(np.isfinite(xarr)) and np.all(np.isfinite(levels))):
        raise ValueError("starts and probe levels must be finite")
    if np.any(xarr < 0):
        raise ValueError("root below the barrier")
    regime = model.analytics().regime
    if regime not in (Regime.CRITICAL, Regime.SUBCRITICAL):
        raise ValueError(f"total progeny is infinite in regime {regime.value}")
    if levels.size > 8:
        raise ValueError("at most 8 probe levels (bitmask bookkeeping)")
    if levels.size and np.any(levels < xarr.max()):
        raise ValueError("probe levels must not lie below a start position")
    nl = levels.size
    top = levels[-1] if nl else math.inf

    Z = np.ones(n_replicas, np.int64)
    leaves = np.zeros(n_replicas, np.int64)
    Y = np.ones(n_replicas, np.int64)
    births = np.ones(n_replicas, np.int64)
    H = np.zeros((nl, n_replicas), np.int64)
    max_pos = xarr.astype(float).copy()
    truncated = np.zeros(n_replicas, bool)
    gen_last = np.zeros(n_replicas, np.int64)
    over_ids = [[] for _ in range(nl)]
    over_vals = [[] for _ in range(nl)]

    fpos = xarr.astype(float).copy()
    ftree = np.arange(n_replicas, dtype=np.int64)
    fmask = np.zeros(n_replicas, np.uint8)
    g = 0
    while ftree.size and g < caps.max_generations:
        g += 1
        nu, parent, disp = model.spawn(rng, fpos.size)
        incoming = np.bincount(ftree, weights=nu, minlength=n_replicas)
        over_budget = births + incoming.astype(np.int64) > caps.max_particles
        if over_budget.any():
            # freeze over-budget trees before this generation is booked
            truncated |= over_budget
            keep_row = ~over_budget[ftree]
            child_keep = keep_row[parent]
            remap = np.cumsum(keep_row) - 1
            parent = remap[parent[child_keep]]
            disp = disp[child_keep]
            nu = nu[keep_row]
            fpos, ftree, fmask = fpos[keep_row], ftree[keep_row], fmask[keep_row]
        if ftree.size == 0:
            break
        births += np.bincount(ftree, weights=nu, minlength=n_replicas).astype(np.int64)
        Y += np.bincount(ftree, weights=nu - 1, minlength=n_replicas).astype(np.int64)
        gen_last[ftree] = g

        cpos = fpos[parent] + disp
        ctree = ftree[parent]
        cmask = fmask[parent]

        dead = cpos < 0.0
        if dead.any():
            leaves += np.bincount(ctree[dead], minlength=n_replicas)

        alive = ~dead
        cpos, ctree, cmask = cpos[alive], ctree[alive], cmask[alive]
        if cpos.size:
            Z += np.bincount(ctree, minlength=n_replicas)
            np.maximum.at(max_pos, ctree, cpos)
            for k in range(nl):
                bit = np.uint8(1 << k)
                nc = (cpos > levels[k]) & ((cmask & bit) == 0)
                if nc.any():
                    H[k] += np.bincount(ctree[nc], minlength=n_replicas)
                    over_ids[k].append(ctree[nc].copy())
                    over_vals[k].append(cpos[nc] - levels[k])
                    cmask[nc] |= bit
        cont = cpos <= top
        fpos, ftree, fmask = cpos[cont], ctree[cont], cmask[cont]
    truncated[ftree] = True

    overshoots = {}
    for k in range(nl):
        ids = np.concatenate(over_ids[k]) if over_ids[k] else np.empty(0, np.int64)
        vals = np.concatenate(over_vals[k]) if over_vals[k] else np.empty(0)
        overshoots[float(levels[k])] = (ids, vals)
    return ForestResult(probe_levels=levels, Z=Z, leaves=leaves, Y=Y, H=H,
                        max_position=max_pos, truncated=truncated,
                        generations=gen_last, overshoots=overshoots)


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

    W = np.zeros((n_replicas, n_max + 1))
    dW = np.zeros((n_replicas, n_max + 1))
    Mm = np.zeros((n_replicas, n_max + 1)) if rho_minus is not None else None
    extinct = np.zeros(n_replicas, bool)
    truncated = np.zeros(n_replicas, bool)
    credW = np.zeros(n_replicas)
    creddW = np.zeros(n_replicas)
    credM = np.zeros(n_replicas)
    births = np.ones(n_replicas, np.int64)
    pruned_mass = 0.0
    total_mass = 0.0

    pos = np.full(n_replicas, float(x))
    tree = np.arange(n_replicas, dtype=np.int64)
    for g in range(n_max + 1):
        wvals = np.exp(rho_w * pos)
        W[:, g] = np.bincount(tree, weights=wvals, minlength=n_replicas) + credW
        dvals = -rho_star * pos * np.exp(rho_star * pos)
        dW[:, g] = np.bincount(tree, weights=dvals, minlength=n_replicas) + creddW
        if Mm is not None:
            mvals = np.exp(rho_minus * pos)
            Mm[:, g] = np.bincount(tree, weights=mvals,
                                   minlength=n_replicas) + credM
        if g == n_max or tree.size == 0:
            break

        nu, parent, disp = model.spawn(rng, pos.size)
        incoming = np.bincount(tree, weights=nu, minlength=n_replicas)
        over = births + incoming.astype(np.int64) > max_particles
        cpos = pos[parent] + disp
        ctree = tree[parent]
        lead = np.exp(rho_ref * cpos)
        total_mass += float(lead.sum())
        drop = (lead < prune_eps) | over[ctree]
        if freeze_above is not None:
            drop |= cpos > freeze_above
        if drop.any():
            dt = ctree[drop]
            dp = cpos[drop]
            credW += np.bincount(dt, weights=np.exp(rho_w * dp),
                                 minlength=n_replicas)
            creddW += np.bincount(dt, weights=-rho_star * dp * np.exp(rho_star * dp),
                                  minlength=n_replicas)
            if Mm is not None:
                credM += np.bincount(dt, weights=np.exp(rho_minus * dp),
                                     minlength=n_replicas)
            pruned_mass += float(lead[drop].sum())
            truncated |= over
        keep = ~drop
        pos, tree = cpos[keep], ctree[keep]
        births += incoming.astype(np.int64)

    alive_trees = np.zeros(n_replicas, bool)
    alive_trees[tree] = True
    extinct = ~alive_trees & (credW == 0.0)
    return MartingaleFlow(generations=np.arange(n_max + 1), W=W, dW=dW, M=Mm,
                          extinct=extinct, truncated=truncated, rho_W=rho_w,
                          rho_star=rho_star, rho_minus=rho_minus,
                          pruned_mass_fraction=pruned_mass / max(total_mass, 1e-300))


def stopped_line_tilted_mass(model, x: float, t: float, n_replicas: int, rng, *,
                             rho=None, prune_eps: float = 1e-3,
                             max_generations: int = 300) -> EstimateWithCI:
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
        while tree.size and g < max_generations:
            g += 1
            _, parent, disp = model.spawn(rng, pos.size)
            cpos = pos[parent] + disp
            ctree = tree[parent]
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


"""Exact enumeration oracles.

Two independent engines cross-check the Monte Carlo machinery:

* linear DP over the position lattice, each step a convolution with a
  finite law read in whole spans: killed-tree expected counts by
  many-to-one (alive, leaves, level first-crossers, tilted sums), lattice
  walk functionals (barrier hits, stopped exponentials, ruin) and, on
  mass/h, the marginals of Doob h-transform chains;
* exhaustive enumeration of every offspring outcome of a small tree, for
  arbitrary functionals, with compensated summation.

Both engines require finite displacement support on a common lattice span;
models with continuous displacements are checked against closed forms instead.
The step is kept apart from the walk and forest kernels it checks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .models import (FiniteStep, IidModel, PatternModel, lattice_span,
                     lattice_units)
from .walks import cramer_gamma

WALK_DP_TOL = 1e-15           # walk_functional stops once less mass is left
WALK_DP_MAX_STEPS = 10 ** 6   # ... and raises if that takes longer
LEVEL_BELOW_START = "the level must not lie below the start"


class KahanSum:
    """Compensated accumulator; float(s) gives the running sum."""

    __slots__ = ("s", "c")

    def __init__(self):
        self.s = 0.0
        self.c = 0.0

    def add(self, x: float) -> None:
        y = float(x) - self.c
        t = self.s + y
        self.c = (t - self.s) - y
        self.s = t

    def __float__(self) -> float:
        return float(self.s)


# ---------------------------------------------------------------------------
# the killed lattice step, which every DP below iterates


def _lattice_law(values, weights, what: str):
    """(span, first, table): a finite law read once in whole spans, with
    table[j] the weight of a step of first + j spans (gaps weigh 0)."""
    span = lattice_span(values)
    if span is None:
        raise ValueError(f"{what} support is not a lattice")
    units = lattice_units(values, span, what=what).astype(int)
    first = int(units.min())
    return span, first, np.bincount(units - first,
                                    weights=np.asarray(weights, float))


def _killed_step(mass, base, first, table, lo, hi):
    """One step of the lattice operator killed below ``lo``.

    ``mass[i]`` sits at lattice point base + i.  The step convolves it with
    the table; what lands below ``lo`` is killed (kept by landing point),
    above ``hi`` absorbed (summed); None leaves a side open.  Returns (mass,
    base, killed, absorbed), where killed[i] landed at base - killed.size + i.
    """
    out = np.convolve(mass, table) if mass.size else mass
    base += first
    a = 0 if lo is None else min(max(lo - base, 0), out.size)
    b = out.size if hi is None else max(min(hi + 1 - base, out.size), a)
    return out[a:b], base + a, out[:a], float(out[b:].sum())


# ---------------------------------------------------------------------------
# expected counts in the tree, by linear DP


@dataclass
class TreeDPResult:
    alive: np.ndarray          # alive[g] = E[# particles alive at generation g]
    leaves: np.ndarray         # leaves[g] = E[# children killed at generation g]
    crossers: np.ndarray       # first-crossers of `level` at generation g (0 if no level)
    wsum: np.ndarray           # E[sum_alive e^{rho V}] per generation (if rho given)
    vwsum: np.ndarray          # E[sum_alive V e^{rho V}] per generation

    @property
    def expected_crossers_total(self) -> float:
        return float(self.crossers.sum())


def tree_expectations(model, x: float, depth: int, *, barrier: bool = True,
                      level: float | None = None, rho: float | None = None) -> TreeDPResult:
    """Exact expectations of additive tree functionals on a lattice model.

    Killed-tree convention: a child strictly below 0 is removed at birth (and
    counted in ``leaves``); with ``level`` set, a particle strictly above the
    level is absorbed there (counted in ``crossers``) and not expanded, which
    is the stopping-line bookkeeping.  ``barrier=False`` disables the killing
    (free tree), for additive-martingale expectations.  By the many-to-one
    identity each generation is one killed step of the intensity measure.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    mu = model.intensity()
    if mu is None:
        raise ValueError("oracle DP needs finite displacement support")
    span, first, table = _lattice_law(*mu, "displacement")
    base = int(lattice_units(x, span, what="start"))
    # crossing is strict: position index > floor(level/span)
    top = None if level is None else \
        int(lattice_units(level, span, "floor", "level"))
    if barrier and base < 0:
        raise ValueError("start below the barrier")
    if level is not None and level < x:
        raise ValueError(LEVEL_BELOW_START)

    mass = np.ones(1)
    alive, leaves, crossers, wsum, vwsum = np.zeros((5, depth + 1))
    for g in range(depth + 1):
        if g:
            mass, base, killed, crossers[g] = _killed_step(
                mass, base, first, table, 0 if barrier else None, top)
            leaves[g] = killed.sum()
        alive[g] = mass.sum()
        if rho is not None:
            v = (base + np.arange(mass.size)) * span
            w = mass * np.exp(rho * v)
            wsum[g], vwsum[g] = w.sum(), (v * w).sum()
    return TreeDPResult(alive=alive, leaves=leaves, crossers=crossers,
                        wsum=wsum, vwsum=vwsum)


# ---------------------------------------------------------------------------
# exhaustive enumeration of small trees


class EnumTree:
    """One realized outcome of the first ``depth`` generations.

    Nodes are stored breadth-first in birth order; node 0 is the root.  A node
    is alive if its whole ancestry (including itself) stayed >= 0; killed
    children are present with alive=False and are never expanded.  With a
    level set, first-crossers are flagged and not expanded either.
    """

    def __init__(self, x: float, alive: bool = True):
        self.pos = [x]
        self.gen = [0]
        self.alive = [alive]
        self.crossed = [False]

    def leaves_killed(self) -> int:
        return sum(1 for a in self.alive if not a)

    def alive_at(self, g: int) -> int:
        return sum(1 for i in range(len(self.pos))
                   if self.gen[i] == g and self.alive[i] and not self.crossed[i])

    def crossers(self) -> int:
        return sum(1 for i in range(len(self.pos)) if self.crossed[i])

    def tilted_sum(self, rho: float, g: int) -> float:
        return sum(math.exp(rho * self.pos[i]) for i in range(len(self.pos))
                   if self.gen[i] == g and self.alive[i])

    def derivative_sum(self, rho: float, g: int) -> float:
        # derivative-martingale summand with positions rescaled by rho
        return -sum(rho * self.pos[i] * math.exp(rho * self.pos[i])
                    for i in range(len(self.pos)) if self.gen[i] == g and self.alive[i])


def _node_outcomes(model) -> list[tuple[float, tuple[float, ...]]]:
    if isinstance(model, PatternModel):
        return [(float(q), tuple(p)) for q, p in zip(model.atom_probs, model.patterns)]
    if isinstance(model, IidModel):
        sup = model.step.support()
        if sup is None:
            raise ValueError("exhaustive enumeration needs finite displacement support")
        sp = model.step.probs()
        out = []
        nv, np_ = model.nu.pmf()
        for k, pk in zip(nv, np_):
            if k == 0:
                out.append((float(pk), ()))
                continue
            for combo in itertools.product(range(len(sup)), repeat=int(k)):
                pr = float(pk) * math.prod(sp[c] for c in combo)
                out.append((pr, tuple(float(sup[c]) for c in combo)))
        return out
    raise TypeError("unsupported model type")


@dataclass
class EnumerationResult:
    value: float
    prob_mass: float


def enumerate_tree_expectation(model, x: float, depth: int, functional,
                               *, barrier: bool = True, level: float | None = None,
                               max_terms: int = 10 ** 8) -> EnumerationResult:
    """E[functional(EnumTree)] over every offspring outcome, exactly.

    The functional sees each fully realized outcome; weighted terms are
    accumulated with compensated summation.  Raises once more than
    ``max_terms`` outcomes would be visited.
    """
    outcomes = _node_outcomes(model)
    acc = KahanSum()
    mass = KahanSum()
    state = {"terms": 0}

    if barrier and x < 0:
        raise ValueError("start below the barrier")
    if level is not None and level < x:
        raise ValueError(LEVEL_BELOW_START)
    tree = EnumTree(x, alive=(not barrier) or x >= 0.0)

    def do_level(frontier: list[int], g: int, prob: float) -> None:
        if g == depth or not frontier:
            state["terms"] += 1
            if state["terms"] > max_terms:
                raise RuntimeError(f"enumeration exceeds max_terms={max_terms}")
            acc.add(prob * functional(tree))
            mass.add(prob)
            return

        # one outcome per frontier node, the first node varying slowest
        base = len(tree.pos)
        for choice in itertools.product(outcomes, repeat=len(frontier)):
            nxt = []
            for node, (_, disp) in zip(frontier, choice):
                for z in disp:
                    p = tree.pos[node] + z
                    ok = (not barrier) or p >= 0.0
                    crossed = level is not None and ok and p > level
                    tree.pos.append(p)
                    tree.gen.append(g + 1)
                    tree.alive.append(ok)
                    tree.crossed.append(crossed)
                    if ok and not crossed:
                        nxt.append(len(tree.pos) - 1)
            do_level(nxt, g + 1, math.prod((q for q, _ in choice), start=prob))
            for column in (tree.pos, tree.gen, tree.alive, tree.crossed):
                del column[base:]

    do_level([0] if tree.alive[0] else [], 0, 1.0)   # the root never crosses
    pm = float(mass)
    if abs(pm - 1.0) > 1e-9:
        raise ArithmeticError(f"enumeration probability mass {pm} != 1")
    return EnumerationResult(value=float(acc), prob_mass=pm)


# ---------------------------------------------------------------------------
# exact spine-step measure (model side of the spine marginal check)


def spine_signature_measure(model, rho: float) -> dict[tuple[float, int], float]:
    """Exact one-generation law of (spine displacement, litter size).

    Computed straight from the model's node outcomes: picking a depth-1
    child with weight e^{rho z} inside the size-biased tree gives
    P(step=z, nu=k) = sum over outcomes of size k of q * (# of z in the
    outcome) * e^{rho z} (normalized by e^{psi(rho)}, which is 1 at a mass-1
    tilt).  Used as the enumeration side against the sampler's own tables.
    """
    table: dict[tuple[float, int], float] = {}
    for q, outcome in _node_outcomes(model):
        for z in outcome:
            key = (float(z), len(outcome))
            table[key] = table.get(key, 0.0) + q * math.exp(rho * z)
    total = sum(table.values())
    return {k: v / total for k, v in table.items()}


# ---------------------------------------------------------------------------
# lattice walk functionals


@dataclass
class WalkOracle:
    p_hit_upper: float
    p_hit_lower: float
    p_survive: float            # mass absorbed at the upper cutoff (drift-up runs)
    e_rho_lower: float          # E[e^{-rho S_tau}; hit lower] (nan if rho not given)
    undershoot: dict            # position -> probability, at the lower barrier
    residual_mass: float
    error_bound: float
    n_steps: int


def walk_functional(step_values, step_probs, x: float, *, lower: float | None = 0.0,
                    upper: float | None = None, rho: float | None = None,
                    horizon: int | None = None) -> WalkOracle:
    """Exact lattice DP for a walk with finite step support.

    ``lower`` kills on S < lower (strict), ``upper`` absorbs on S > upper
    (strict); both are required.  With only one barrier and positive drift
    away from it, pass the other as a cutoff and read ``error_bound``: the
    Cramer bound on mass that would still have hit the barrier beyond the
    cutoff.  With no ``horizon`` the DP runs until less than WALK_DP_TOL mass
    is left, and raises if that takes more than WALK_DP_MAX_STEPS steps.
    """
    if lower is None or upper is None:
        raise ValueError("the walk DP needs both barriers; pass a cutoff as one")
    vals = np.asarray(step_values, float)
    probs = np.asarray(step_probs, float)
    if abs(probs.sum() - 1.0) > 1e-12:
        raise ValueError("step probabilities must sum to 1")
    span, first, table = _lattice_law(vals, probs, "step")
    base = int(lattice_units(x, span, what="start"))
    lo = int(lattice_units(lower, span, what="lower"))
    up = int(lattice_units(upper, span, what="upper"))
    if base < lo:
        raise ValueError("start below lower barrier")
    if base > up:
        raise ValueError("start above upper barrier")

    mass = np.ones(1)
    u0 = lo + first
    under = np.zeros(max(-first, 0))   # under[j]: killed mass landing at u0 + j
    upper = KahanSum()
    n = 0
    limit = horizon if horizon is not None else WALK_DP_MAX_STEPS
    while n < limit and mass.any():
        n += 1
        mass, base, killed, absorbed = _killed_step(mass, base, first, table,
                                                    lo, up)
        j = base - killed.size - u0
        under[j:j + killed.size] += killed
        upper.add(absorbed)
        if horizon is None and mass.sum() < WALK_DP_TOL:
            break
    residual = float(mass.sum())
    if horizon is None and residual >= WALK_DP_TOL and n >= limit:
        raise RuntimeError(f"walk DP did not absorb within {WALK_DP_MAX_STEPS} steps")
    p_upper = float(upper)
    hit = np.flatnonzero(under)
    landed = (u0 + hit) * span
    p_lower = math.fsum(under[hit])

    # Cramer bound for reading the upper cutoff as "never hits lower": with
    # gamma > 0 the root of sum p e^{-gamma v} = 1 (drift > 0, a step down),
    # P(ever drop below `lower` from height h) <= e^{-gamma (h - lower + span)}
    drift = float((vals * probs).sum())
    err = 0.0
    if drift > 0 and vals.min() < 0:
        gamma = cramer_gamma(FiniteStep(vals, probs))
        err = p_upper * math.exp(-gamma * ((up - lo) * span + span))

    return WalkOracle(
        p_hit_upper=p_upper, p_hit_lower=p_lower,
        p_survive=p_upper if drift > 0 else 0.0,
        e_rho_lower=math.nan if rho is None else
        math.fsum(under[hit] * np.exp(-rho * landed)),
        undershoot=dict(zip(landed.tolist(), under[hit].tolist())),
        residual_mass=residual, error_bound=err, n_steps=n)


def h_chain_marginal(step_values, step_probs, h, x0: float, k: int) -> dict[float, float]:
    """Exact k-step marginal of the Doob h-transform chain (lattice steps).

    ``h`` maps positions to harmonic-function values; transitions are
    p(y->z) proportional to p(z-y) h(z), which is a probability kernel when h
    is harmonic for the killed walk (checked to 1e-9 at every visited y).
    States are keyed in whole spans and returned as positions k * span.
    """
    span, first, table = _lattice_law(step_values, step_probs, "step")
    base = int(lattice_units(x0, span, what="start"))
    # h once per lattice point w_lo.. reachable in k steps; h <= 0 weighs 0
    w_lo = base + min(0, k * first)
    w_hi = base + max(0, k * (first + table.size - 1))
    hv = np.maximum([h(y * span) for y in range(w_lo, w_hi + 1)], 0.0)
    ph = np.correlate(hv, table, "valid")     # (P h)(w_lo + i) at ph[i + first]
    o = base - w_lo                           # q[j] sits at w_lo + o + j
    if hv[o] <= 0:
        raise ValueError(f"h({base * span}) <= 0 on a reachable state")
    q = np.ones(1)                            # mass * h(x0) / h, which P moves
    for _ in range(k):
        live = o + np.flatnonzero(q)
        tot = ph[live + first] / hv[live]
        bad = np.flatnonzero(np.abs(tot - 1.0) > 1e-9)
        if bad.size:
            y = w_lo + int(live[bad[0]])
            raise ArithmeticError(
                f"h is not harmonic at y={y * span}: kernel mass {float(tot[bad[0]])}")
        q, o = np.convolve(q, table), o + first
        q *= hv[o:o + q.size] > 0
    mass = q * hv[o:o + q.size] / hv[base - w_lo]
    live = np.flatnonzero(mass)
    return dict(zip(((w_lo + o + live) * span).tolist(), mass[live].tolist()))

"""Spine changes of measure: size-biased reproduction and weighted walks.

Everything here rides one identity: reweighting the tree by the additive
tilt at a mass-1 root rho turns it into a single tilted random walk (the
spine) dressed with ordinary trees hanging off size-biased litters.  The
estimators trade the exponentially rare forward event for an exponentially
large but bounded weight, which is what makes levels far beyond forward
reach measurable.  The spine's own conditioned step is the walks module's
h-transform draw with the renewal function as h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import trees
from .estimates import EstimateWithCI, from_samples
from .models import (LatticeFrame, PatternModel, _inverse_cdf, _take_runs,
                     in_spans, size_biased_pmf)
from .walks import (RenewalEstimate, TiltedWalk, closed_form_renewal,
                    h_transform_accept, h_transform_pick, make_tilted_walk,
                    passage_ensemble)

MAX_SPINE_STEPS = 10 ** 6   # a spine still below t after this many is an error


# ---------------------------------------------------------------------------
# one generation of the spine


@dataclass
class SpineReproduction:
    """Law of one spine generation: the spine's own step plus its litter.

    Picking the spine child with weight e^{rho z} inside the size-biased
    tree leaves, for independent-litter models, a litter size biased by k
    and a spine displacement tilted by rho, independent of each other; the
    siblings keep the raw step law.  For pattern litters the displacement
    multiset is correlated, so the generation is drawn from the exact joint
    table over (pattern, spine slot).
    """

    model: object
    walk: TiltedWalk         # the spine's walk at the regime's tilt
    # one row per spine choice: displacement and probability; for iid
    # models the tilted step's support, None when that is continuous
    choice_z: np.ndarray | None
    choice_probs: np.ndarray | None
    # iid litters: the size-biased litter size law
    nu_values: np.ndarray | None = None
    nu_probs: np.ndarray | None = None
    # pattern litters: the siblings of every choice row, end to end
    sib_flat: np.ndarray | None = None
    sib_offsets: np.ndarray | None = None
    sib_counts: np.ndarray | None = None

    def mapped(self, f) -> "SpineReproduction":
        return replace(self, model=self.model.mapped(f), choice_z=f(self.choice_z),
                       sib_flat=None if self.sib_flat is None else f(self.sib_flat))

    def signature_table(self) -> dict:
        """Exact law of (spine displacement, litter size); finite models only."""
        if self.choice_z is None:
            raise ValueError("needs finite displacement support")
        out: dict[tuple[float, int], float] = {}
        if self.sib_counts is None:
            for k, pk in zip(self.nu_values, self.nu_probs):
                for zv, pz in zip(self.choice_z, self.choice_probs):
                    key = (float(zv), int(k))
                    out[key] = out.get(key, 0.0) + float(pk) * float(pz)
            return out
        for z, q, c in zip(self.choice_z, self.choice_probs, self.sib_counts):
            key = (float(z), int(c) + 1)
            out[key] = out.get(key, 0.0) + float(q)
        return out


def tilted_reproduction(model) -> SpineReproduction:
    """The spine generation law at the regime's tilt."""
    tw = make_tilted_walk(model)
    rho = tw.rho
    if isinstance(model, PatternModel):
        zs, qs, flat, offs, cnts = [], [], [], [], []
        for q, pat in zip(model.atom_probs, model.patterns):
            arr = np.asarray(pat, float)
            for i, z in enumerate(arr):
                zs.append(float(z))
                qs.append(float(q) * math.exp(rho * float(z)))
                offs.append(len(flat))
                rest = np.delete(arr, i)
                flat.extend(rest.tolist())
                cnts.append(rest.size)
        qs = np.asarray(qs)
        qs /= qs.sum()
        return SpineReproduction(model=model, walk=tw,
                                 choice_z=np.asarray(zs), choice_probs=qs,
                                 sib_flat=np.asarray(flat, float),
                                 sib_offsets=np.asarray(offs, np.int64),
                                 sib_counts=np.asarray(cnts, np.int64))
    step = tw.step
    sup = step.support()
    nv, npr = size_biased_pmf(model.nu)
    return SpineReproduction(
        model=model, walk=tw,
        choice_z=None if sup is None else np.asarray(sup, float),
        choice_probs=None if sup is None else np.asarray(step.probs(), float),
        nu_values=np.asarray(nv), nu_probs=np.asarray(npr))


def spine_marginal_check(model, oracle_table: dict | None = None) -> float:
    """Total variation between the sampler's generation table and an exact one.

    With no table supplied the comparison is against the enumeration oracle,
    so the result should be at numerical zero for any correct model.
    """
    from . import oracle
    rep = tilted_reproduction(model)
    mine = rep.signature_table()
    ref = oracle_table if oracle_table is not None \
        else oracle.spine_signature_measure(model, rep.walk.rho)
    keys = set(mine) | set(ref)
    return 0.5 * sum(abs(mine.get(k, 0.0) - ref.get(k, 0.0)) for k in keys)


# ---------------------------------------------------------------------------
# many-to-one reductions


def many_to_one_estimate(model, x: float, n: int, F, n_replicas: int,
                         rng) -> EstimateWithCI:
    """E[sum over generation-n particles of F(path)] via one tilted walk.

    F must map a (replicas, n+1) array of positions (column 0 is x) to one
    value per row.  The spine walks at the regime's mass-1 tilt rho, and the
    weight e^{-rho (S_n - x)} on each path is the whole change of measure.
    """
    tw = make_tilted_walk(model)
    rho = tw.rho
    inc = tw.step.sample(rng, n_replicas * n).reshape(n_replicas, n)
    paths = np.empty((n_replicas, n + 1))
    paths[:, 0] = x
    np.cumsum(inc, axis=1, out=inc)
    paths[:, 1:] = x + inc
    vals = np.asarray(F(paths), float)
    if vals.shape != (n_replicas,):
        raise ValueError("F must return one value per path")
    samples = vals * np.exp(-rho * (paths[:, n] - x))
    est = from_samples(samples)
    est.extra.update(rho=rho, n=n)
    return est


def estimate_EH(model, x: float, t: float, n_replicas: int, rng) -> EstimateWithCI:
    """E[number of first crossers of t] in the killed tree, by one walk.

    The crossing line reduces to the tilted spine stopped at leaving [0, t]:
    paths killed below zero contribute nothing, crossings contribute
    e^{rho (x - S_tau)}.  A start above t is its own crossing line.
    """
    tw = make_tilted_walk(model)
    rho = tw.rho
    if x < 0:
        raise ValueError("start below the barrier")
    if x > t:
        return EstimateWithCI(value=1.0, stderr=0.0, n_effective=float("inf"),
                              extra={"rho": rho, "exact": True})
    ens = passage_ensemble(tw, x, n_replicas, rng, lower=0.0, upper=t,
                           max_steps=10 ** 6)
    samples = np.zeros(n_replicas)
    hit = ens.hit_above
    samples[hit] = np.exp(rho * (x - ens.finals[hit]))
    est = from_samples(samples, truncated_fraction=ens.truncated_fraction)
    est.extra.update(rho=rho, p_cross=float(hit.mean()))
    return est


# ---------------------------------------------------------------------------
# survival at a level, spine importance sampling


def estimate_survival_spine(model, x: float, t: float, n_replicas: int, rng, *,
                            renewal: RenewalEstimate | None = None,
                            band_eps: float = 1e-3) -> EstimateWithCI:
    """P(some particle of the killed tree crosses t), any depth of t.

    Change the measure by the crossing-line weight sum
    M* = e^{-rho x}/R(x) * sum over the line of R(V) e^{rho V}, where R is
    the renewal function of the tilted walk (harmonic under killing).  Under
    the new measure the spine is the tilted walk conditioned to stay
    nonnegative, which crosses t with probability one, and
    P(H(t) > 0) = E*[1/M*].  Since every line particle sits above t, the
    weight 1/M* is bounded by R(x) e^{-rho (t - x)} / R(t): the estimator's
    relative error stays O(1) however deep t is.

    Litters along the spine drop independent plain killed trees whose own
    crossers join the line.  Simulating those trees over the whole strip
    [0, t] costs e^{rho t}, so descendants are abandoned once they fall a
    band of width ln(1/band_eps)/rho below t.  Optional stopping makes the
    crosser mass a dropped particle would have contributed exactly
    R(y) e^{rho y} in expectation, so the abandonment is certified:
    extra["bias_bound"] bounds the (upward) bias of the estimate, and
    band_eps=0 disables the band entirely.  Replicas whose off-spine forest
    hit a hard cap are invalid: their share is the estimate's
    truncated_fraction, and extra["invalid_fraction"] repeats it.
    """
    rep = tilted_reproduction(model)
    tw = rep.walk
    rho = tw.rho
    if not 0.0 <= x:
        raise ValueError("start below the barrier")
    if x > t:
        return EstimateWithCI(value=1.0, stderr=0.0, n_effective=float("inf"),
                              extra={"rho": rho, "exact": True})
    # the spine and its siblings live on the start's coset, in whole spans
    frame, s0 = LatticeFrame.through(x, tw.span)
    S = np.full(n_replicas, float(s0))
    pos = frame.positions
    lo, top = frame.units(0.0, "ceil"), frame.units(t, "floor", "level")
    if renewal is None:
        if tw.span is None:
            raise ValueError("continuous models need an explicit renewal table")
        # on the coset too: R is a step function, which interpolation
        # between cosets would misread
        renewal = closed_form_renewal(tw, pos(np.arange(lo, top + 4)))
    R = renewal.evaluate
    L = 0.0 if band_eps <= 0.0 else max(0.0, t - math.log(1.0 / band_eps) / rho)
    band = frame.units(L, "ceil")
    rep = in_spans(rep, tw.span)
    h = lambda k: R(pos(k))

    def book(acc, ids, v):
        """Add the line mass R(v) e^{rho v} of particles at v to their replicas."""
        acc += np.bincount(ids, weights=R(v) * np.exp(rho * v), minlength=n_replicas)

    active = np.ones(n_replicas, bool)
    Mstar = np.zeros(n_replicas)
    dropped = np.zeros(n_replicas)     # expected crosser mass given away
    sib_rep: list[np.ndarray] = []
    sib_pos: list[np.ndarray] = []
    steps = 0
    while active.any():
        steps += 1
        if steps > MAX_SPINE_STEPS:
            raise RuntimeError(f"spine still below {t} after {MAX_SPINE_STEPS} steps")
        idx = np.flatnonzero(active)
        y = S[idx]
        if rep.sib_counts is not None or tw.span is not None:
            # pattern tables always; iid steps only when they live on a lattice
            pick = h_transform_pick(h, y, rep.choice_z, rep.choice_probs, rng)
            znew = y + rep.choice_z[pick]
        else:
            znew = h_transform_accept(R, y, tw.step, renewal, rng)
        if rep.sib_counts is None:
            srep, spos = _iid_litter(rep, y, idx, rng)
        else:
            srep, spos = _pattern_litter(rep, y, pick, idx)
        if srep.size:
            alive = spos >= lo
            crossed_sib = alive & (spos > top)
            if crossed_sib.any():
                book(Mstar, srep[crossed_sib], pos(spos[crossed_sib]))
            low = alive & ~crossed_sib & (spos < band)
            if low.any():
                book(dropped, srep[low], pos(spos[low]))
            queue = alive & ~crossed_sib & (spos >= band)
            if queue.any():
                sib_rep.append(srep[queue])
                sib_pos.append(pos(spos[queue]))
        S[idx] = znew
        done = znew > top
        if done.any():
            book(Mstar, idx[done], pos(znew[done]))
            active[idx[done]] = False

    invalid = np.zeros(n_replicas, bool)
    if sib_rep:
        roots_rep = np.concatenate(sib_rep)
        roots_pos = np.concatenate(sib_pos)
        # shift the band floor to the killing barrier so the forest engine
        # abandons strip escapees for us; leaf counts certify what it cost
        forest = trees.simulate_killed_forest(model, roots_pos - L, [t - L],
                                              roots_pos.size, rng)
        ids, vals = forest.overshoots
        if ids.size:
            book(Mstar, roots_rep[ids], t + vals)
        if L > 0.0:
            # each leaf fell below L, where the line mass is at most R(L) e^{rho L}
            dropped += np.bincount(roots_rep, weights=forest.leaves
                                   * float(R(np.asarray(L))) * math.exp(rho * L),
                                   minlength=n_replicas)
        if forest.truncated.any():
            invalid[roots_rep[forest.truncated]] = True

    norm = math.exp(-rho * x) / float(R(np.asarray(x)))
    Mstar *= norm
    w = 1.0 / Mstar
    est = from_samples(w, truncated_fraction=float(invalid.mean()))
    est.extra.update(rho=rho, t=float(t),
                     ess=float(w.sum() ** 2 / (w ** 2).sum()),
                     invalid_fraction=est.truncated_fraction,
                     bias_bound=float(np.mean(dropped * norm * w * w)),
                     band_floor=L,
                     weight_bound=float(R(np.asarray(x)) * math.exp(-rho * (t - x))
                                        / R(np.asarray(t))))
    return est


def _pattern_litter(rep, y, pick, idx):
    """Siblings of every active spine at ``y`` that drew table row ``pick``,
    as (replica ids, positions).  They leave in position-group order, which
    is the order the off-spine forest takes its roots in."""
    order = np.argsort(y, kind="stable")
    counts = rep.sib_counts[pick[order]]
    return (np.repeat(idx[order], counts),
            np.repeat(y[order], counts)
            + _take_runs(rep.sib_flat, rep.sib_offsets[pick[order]], counts))


def _iid_litter(rep, y, idx, rng):
    """Siblings of every active spine, as (replica ids, positions).

    The size-biased litter less the spine child; siblings take raw steps.
    """
    ks = rep.nu_values[_inverse_cdf(np.cumsum(rep.nu_probs), rng.random(y.size))]
    counts = ks.astype(np.int64) - 1
    srep = np.repeat(idx, counts)
    spos = np.repeat(y, counts) + rep.model.step.sample(rng, int(counts.sum()))
    return srep, spos

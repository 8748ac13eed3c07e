"""Model specifications and log-Laplace analytics for killed branching walks.

A model describes the offspring point pattern of a single particle: a particle
at x spawns children at x + z, one per point z of the pattern.  Two families
are supported:

* ``IidModel``: the number of children nu and their displacements are
  independent, displacements iid.
* ``PatternModel``: a finite list of (probability, displacement tuple) atoms,
  allowing count/displacement dependence.

All regime analysis runs through the log-Laplace transform

    psi(t) = log E[ sum_u exp(t z_u) ]

of the pattern, computed in closed form for the built-in displacement laws.
The barrier convention used throughout the package: a particle is killed when
its position is strictly below 0 (a child at exactly 0 survives), and a level
t > 0 is crossed when the position is strictly above t.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

RHO_TOL = 1e-10        # |psi(rho) - rho psi'(rho)| at rho_star, |psi| at rho_pm
REGIME_TOL = 1e-9      # drift threshold separating critical from subcritical
STRATEGY_AGREE_TOL = 1e-8   # two independent rho_star searches must agree to this
RHO_STAR_T_MAX = 512.0      # rho_star search gives up (escape upward) beyond this


def _inverse_cdf(cdf: np.ndarray, u) -> np.ndarray:
    """Category index of uniforms u under a cumulative table.

    Clamped to the last category: a cumulative sum can end a few ulps short
    of 1, and u up to 1 - 2^-53 must still land in the table.
    """
    return np.minimum(np.searchsorted(cdf, u, side="right"), cdf.size - 1)


def _take_runs(flat: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """flat[starts[i] : starts[i] + counts[i]] for every i, end to end."""
    shift = starts - (np.cumsum(counts) - counts)
    return flat[np.repeat(shift, counts) + np.arange(int(counts.sum()))]


# ---------------------------------------------------------------------------
# displacement laws


class TwoPointStep:
    """Displacement equal to ``up`` with probability ``p_up``, else ``down``."""

    def __init__(self, up: float, down: float, p_up: float):
        if not (0.0 < p_up < 1.0):
            raise ValueError("p_up must be in (0,1)")
        if not up > down:
            raise ValueError("need up > down")
        self.up = float(up)
        self.down = float(down)
        self.p_up = float(p_up)

    def mgf_parts(self, t: float) -> tuple[float, float, float]:
        eu = math.exp(t * self.up)
        ed = math.exp(t * self.down)
        m0 = self.p_up * eu + (1.0 - self.p_up) * ed
        m1 = self.p_up * self.up * eu + (1.0 - self.p_up) * self.down * ed
        m2 = self.p_up * self.up ** 2 * eu + (1.0 - self.p_up) * self.down ** 2 * ed
        return m0, m1, m2

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.where(rng.random(n) < self.p_up, self.up, self.down)

    def support(self) -> np.ndarray:
        return np.array([self.down, self.up])

    def probs(self) -> np.ndarray:
        return np.array([1.0 - self.p_up, self.p_up])

    def tilted(self, rho: float) -> "TwoPointStep":
        wu = self.p_up * math.exp(rho * self.up)
        wd = (1.0 - self.p_up) * math.exp(rho * self.down)
        return TwoPointStep(self.up, self.down, wu / (wu + wd))

    def to_json(self) -> dict:
        return {"type": "two_point", "up": self.up, "p_up": self.p_up, "down": self.down}


class GaussianStep:
    """Normal(mu, sigma^2) displacement."""

    def __init__(self, mu: float, sigma: float = 1.0):
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        self.mu = float(mu)
        self.sigma = float(sigma)

    def mgf_parts(self, t: float) -> tuple[float, float, float]:
        s2 = self.sigma ** 2
        m0 = math.exp(self.mu * t + 0.5 * s2 * t * t)
        mean_t = self.mu + s2 * t          # mean of the exponentially tilted law
        m1 = m0 * mean_t
        m2 = m0 * (mean_t ** 2 + s2)
        return m0, m1, m2

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.mu + self.sigma * rng.standard_normal(n)

    def support(self):
        return None  # continuous

    def tilted(self, rho: float) -> "GaussianStep":
        return GaussianStep(self.mu + self.sigma ** 2 * rho, self.sigma)

    def to_json(self) -> dict:
        return {"type": "gaussian", "mu": self.mu, "sigma": self.sigma}


class FiniteStep:
    """Displacement from an explicit finite table of values and probabilities."""

    def __init__(self, values, probs):
        v = np.asarray(values, dtype=float)
        p = np.asarray(probs, dtype=float)
        if v.ndim != 1 or v.size == 0 or v.shape != p.shape:
            raise ValueError("values and probs must be matching 1-d sequences")
        if np.any(p <= 0) or abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("probs must be positive and sum to 1")
        if np.unique(v).size != v.size:
            raise ValueError("values must be distinct")
        order = np.argsort(v)
        self.values = v[order]
        self._probs = p[order]
        self._cdf = np.cumsum(self._probs)

    def mgf_parts(self, t: float) -> tuple[float, float, float]:
        w = self._probs * np.exp(t * self.values)
        return float(w.sum()), float((w * self.values).sum()), float((w * self.values ** 2).sum())

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.values[_inverse_cdf(self._cdf, rng.random(n))]

    def support(self) -> np.ndarray:
        return self.values.copy()

    def probs(self) -> np.ndarray:
        return self._probs.copy()

    def tilted(self, rho: float) -> "FiniteStep":
        w = self._probs * np.exp(rho * self.values)
        return FiniteStep(self.values, w / w.sum())

    def to_json(self) -> dict:
        return {"type": "finite", "values": self.values.tolist(), "probs": self._probs.tolist()}


def step_from_json(d: dict):
    kind = d["type"]
    if kind == "two_point":
        return TwoPointStep(d["up"], d["down"], d["p_up"])
    if kind == "gaussian":
        return GaussianStep(d["mu"], d.get("sigma", 1.0))
    if kind == "finite":
        return FiniteStep(d["values"], d["probs"])
    raise ValueError(f"unknown displacement law type {kind!r}")


# ---------------------------------------------------------------------------
# offspring count laws


class FixedOffspring:
    def __init__(self, value: int):
        if int(value) != value or value < 0:
            raise ValueError("offspring count must be a nonnegative integer")
        self.value = int(value)

    def mean(self) -> float:
        return float(self.value)

    def max(self) -> int:
        return self.value

    def pmf(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array([self.value]), np.array([1.0])

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, self.value, dtype=np.int64)

    def to_json(self) -> dict:
        return {"type": "deterministic", "value": self.value}


class PmfOffspring:
    def __init__(self, values, probs):
        v = np.asarray(values, dtype=np.int64)
        p = np.asarray(probs, dtype=float)
        if v.ndim != 1 or v.size == 0 or v.shape != p.shape:
            raise ValueError("values and probs must be matching 1-d sequences")
        if np.any(v < 0) or np.unique(v).size != v.size:
            raise ValueError("offspring values must be distinct nonnegative integers")
        if np.any(p <= 0) or abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("probs must be positive and sum to 1")
        order = np.argsort(v)
        self.values = v[order]
        self._probs = p[order]
        self._cdf = np.cumsum(self._probs)

    def mean(self) -> float:
        return float((self.values * self._probs).sum())

    def max(self) -> int:
        return int(self.values[-1])

    def pmf(self) -> tuple[np.ndarray, np.ndarray]:
        return self.values.copy(), self._probs.copy()

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.values[_inverse_cdf(self._cdf, rng.random(n))]

    def to_json(self) -> dict:
        return {"type": "pmf", "values": self.values.tolist(), "probs": self._probs.tolist()}


def offspring_from_json(d: dict):
    kind = d["type"]
    if kind == "deterministic":
        return FixedOffspring(d["value"])
    if kind == "pmf":
        return PmfOffspring(d["values"], d["probs"])
    raise ValueError(f"unknown offspring law type {kind!r}")


def size_biased_pmf(nu) -> tuple[np.ndarray, np.ndarray]:
    """P(nu~ = k) = k P(nu = k) / E[nu]; the spine's offspring count law."""
    values, probs = nu.pmf()
    w = values * probs
    if w.sum() <= 0:
        raise ValueError("offspring law has zero mean; size-biasing undefined")
    return values, w / w.sum()


# ---------------------------------------------------------------------------
# models


class Regime(Enum):
    CRITICAL = "critical"
    SUBCRITICAL = "subcritical"
    OUT_OF_SCOPE = "out_of_scope"


@dataclass(frozen=True)
class ModelAnalytics:
    """Everything classify_regime learns about a model's log-Laplace transform."""

    regime: Regime
    mean_offspring: float
    rho_star: float | None = None
    psi_rho_star: float | None = None
    dpsi_rho_star: float | None = None
    d2psi_rho_star: float | None = None
    rho_minus: float | None = None
    rho_plus: float | None = None
    lattice_span: float | None = None
    note: str = ""

    def regime_tilt(self) -> float:
        """The exponent used for additive martingales and spine estimators."""
        if self.regime is Regime.CRITICAL:
            return self.rho_star
        if self.regime is Regime.SUBCRITICAL:
            return self.rho_plus
        raise ValueError(f"no default tilt in the {self.regime.value} regime")


class _ModelBase:
    def psi(self, t: float) -> float:
        return self.pattern_mgf_parts(t)[3]

    def dpsi(self, t: float) -> float:
        m0, m1, _, _ = self.pattern_mgf_parts(t)
        return m1 / m0

    def d2psi(self, t: float) -> float:
        m0, m1, m2, _ = self.pattern_mgf_parts(t)
        r = m1 / m0
        return m2 / m0 - r * r

    def analytics(self) -> ModelAnalytics:
        return classify_regime(self)


class IidModel(_ModelBase):
    """Offspring count independent of iid displacements."""

    def __init__(self, nu, step):
        if nu.mean() <= 1.0:
            raise ValueError("mean offspring must exceed 1")
        self.nu = nu
        self.step = step

    def pattern_mgf_parts(self, t: float) -> tuple[float, float, float, float]:
        """(E[sum e^{tz}], E[sum z e^{tz}], E[sum z^2 e^{tz}], psi(t))."""
        m = self.nu.mean()
        m0, m1, m2 = self.step.mgf_parts(t)
        return m * m0, m * m1, m * m2, math.log(m) + math.log(m0)

    @property
    def mean_offspring(self) -> float:
        return self.nu.mean()

    def displacement_support(self):
        return self.step.support()

    def spawn(self, rng: np.random.Generator, n: int):
        """Children of n particles: (litter sizes, flat parent index, displacements)."""
        nu = self.nu.sample(rng, n).astype(np.int64)
        parent = np.repeat(np.arange(n), nu)
        return nu, parent, self.step.sample(rng, int(nu.sum()))

    def tilted_step(self, rho: float):
        """Step law of the spine walk: the displacement law tilted by e^{rho z}."""
        return self.step.tilted(rho)

    def to_json(self) -> dict:
        return {"kind": "iid", "nu": self.nu.to_json(), "x": self.step.to_json()}


class PatternModel(_ModelBase):
    """Explicit finite-support offspring pattern: atoms of (prob, displacements)."""

    def __init__(self, atoms):
        pats = []
        probs = []
        for q, pat in atoms:
            if q <= 0:
                raise ValueError("atom probabilities must be positive")
            probs.append(float(q))
            pats.append(np.asarray(pat, dtype=float))
        if abs(sum(probs) - 1.0) > 1e-12:
            raise ValueError("atom probabilities must sum to 1")
        self.patterns = pats
        self.atom_probs = np.asarray(probs)
        # all patterns end to end: litter size and start offset per atom
        self._sizes = np.array([p.size for p in pats], np.int64)
        self._offsets = np.cumsum(self._sizes) - self._sizes
        self._flat = np.concatenate(pats)
        self._cdf = np.cumsum(self.atom_probs)
        if self.mean_offspring <= 1.0:
            raise ValueError("mean offspring must exceed 1")

    def pattern_mgf_parts(self, t: float) -> tuple[float, float, float, float]:
        m0 = m1 = m2 = 0.0
        for q, pat in zip(self.atom_probs, self.patterns):
            w = np.exp(t * pat)
            m0 += q * w.sum()
            m1 += q * (w * pat).sum()
            m2 += q * (w * pat * pat).sum()
        return m0, m1, m2, math.log(m0)

    @property
    def mean_offspring(self) -> float:
        return float(sum(q * len(p) for q, p in zip(self.atom_probs, self.patterns)))

    def displacement_support(self):
        vals = np.concatenate([p for p in self.patterns if p.size] or [np.array([])])
        return np.unique(vals)

    def sample_atom(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return _inverse_cdf(self._cdf, rng.random(n))

    def spawn(self, rng: np.random.Generator, n: int):
        """Children of n particles: (litter sizes, flat parent index, displacements).

        Each parent draws one atom and its children take that pattern's
        displacements in order.
        """
        atom = self.sample_atom(rng, n)
        nu = self._sizes[atom]
        parent = np.repeat(np.arange(n), nu)
        return nu, parent, _take_runs(self._flat, self._offsets[atom], nu)

    def tilted_step(self, rho: float) -> FiniteStep:
        """Step law of the spine walk: the pattern intensity tilted by e^{rho z}.

        Weights add up atom by atom and slot by slot.
        """
        sup = self.displacement_support()
        weights = np.zeros(sup.size)
        for q, pat in zip(self.atom_probs, self.patterns):
            for z in pat:
                weights[np.searchsorted(sup, z)] += q * math.exp(rho * z)
        return FiniteStep(sup, weights / weights.sum())

    def to_json(self) -> dict:
        return {
            "kind": "pattern",
            "atoms": [
                {"prob": float(q), "steps": p.tolist()}
                for q, p in zip(self.atom_probs, self.patterns)
            ],
        }


def model_to_json(model) -> str:
    return json.dumps(model.to_json(), sort_keys=True)


def model_from_json(source) -> "_ModelBase":
    d = json.loads(source) if isinstance(source, str) else source
    kind = d.get("kind")
    if kind == "iid":
        return IidModel(offspring_from_json(d["nu"]), step_from_json(d["x"]))
    if kind == "pattern":
        return PatternModel([(a["prob"], a["steps"]) for a in d["atoms"]])
    raise ValueError(f"unknown model kind {kind!r}")


# ---------------------------------------------------------------------------
# log-Laplace analytics


def log_laplace(model, t):
    """psi, psi', psi'' at t (scalar or array)."""
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty((3, ts.size))
    for i, ti in enumerate(ts):
        m0, m1, m2, ps = model.pattern_mgf_parts(ti)
        r = m1 / m0
        out[0, i] = ps
        out[1, i] = r
        out[2, i] = m2 / m0 - r * r
    if np.isscalar(t) or np.asarray(t).ndim == 0:
        return float(out[0, 0]), float(out[1, 0]), float(out[2, 0])
    return out[0], out[1], out[2]


def _bisect(f, lo, hi, tol=1e-14, max_iter=200):
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise ValueError("root not bracketed")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0 or hi - lo < tol:
            return mid
        if flo * fm < 0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def _golden_min(f, lo, hi, tol=1e-10, max_iter=300):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if b - a < tol * max(1.0, abs(a)):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    # golden section alone localizes a quadratic minimum only to sqrt(eps);
    # polish with parabola-vertex steps through exact function values
    x = 0.5 * (a + b)
    for h in (1e-4 * max(1.0, abs(x)), 1e-5 * max(1.0, abs(x))):
        f0, fp, fm = f(x), f(x + h), f(x - h)
        denom = fp - 2.0 * f0 + fm
        if denom > 0:
            step = 0.5 * h * (fm - fp) / denom
            if abs(step) < 2.0 * h:
                x = x + step
    return x


def _top_displacement_intensity(model):
    """(z_max, E[# children displaced by exactly z_max]), or None if unbounded."""
    sup = model.displacement_support()
    if sup is None:
        return None
    z_max = float(np.max(sup))
    if isinstance(model, IidModel):
        probs = model.step.probs()
        lam = model.nu.mean() * float(probs[int(np.argmax(model.step.support()))])
    else:
        lam = sum(float(q) * int(np.sum(np.asarray(p) == z_max))
                  for q, p in zip(model.atom_probs, model.patterns))
    return z_max, lam


def find_rho_star(model) -> float:
    """The root of psi(t) = t psi'(t), i.e. the minimizer of psi(t)/t on t > 0.

    Solved by bisection on the increasing function g(t) = t psi'(t) - psi(t),
    cross-checked by a golden-section search on psi(t)/t; the two must agree to
    STRATEGY_AGREE_TOL.  Raises if psi(t)/t has no interior minimum (the model
    escapes upward: out of scope).  For bounded-above support that happens
    exactly when the expected number of children at the top displacement is
    >= 1, in which case g(t) -> 0- and bisection would chase float noise.
    """
    top = _top_displacement_intensity(model)
    if top is not None and top[1] >= 1.0 - 1e-12:
        raise ValueError(
            "expected children at the top displacement >= 1: psi(t)/t decreases "
            "to its infimum at infinity and the model escapes upward")
    g = lambda t: t * model.dpsi(t) - model.psi(t)
    lo = 1e-9
    if g(lo) >= 0:
        raise ValueError("psi(t)/t is nondecreasing from 0; no interior minimizer")
    hi = 1.0
    while g(hi) <= 0:
        hi *= 2.0
        if hi > RHO_STAR_T_MAX:
            raise ValueError(
                "no root of t psi'(t) = psi(t) below t_max; minimum of psi(t)/t "
                "sits at infinity (model escapes upward)")
    root = _bisect(g, hi / 2.0 if hi > 1.0 else lo, hi)
    check = _golden_min(lambda t: model.psi(t) / t, max(lo, root / 8.0),
                        min(RHO_STAR_T_MAX, root * 8.0))
    if abs(check - root) > STRATEGY_AGREE_TOL * max(1.0, abs(root)):
        raise ArithmeticError(
            f"rho_star strategies disagree: bisection {root!r} vs golden {check!r}")
    if abs(model.psi(root) - root * model.dpsi(root)) > RHO_TOL:
        raise ArithmeticError("rho_star residual exceeds tolerance")
    return root


def find_rho_pm(model, rho_star: float | None = None) -> tuple[float, float]:
    """The two roots 0 < rho_minus < rho_star < rho_plus of psi(rho) = 0.

    Only defined in the subcritical regime (psi(rho_star) < 0); psi(0) = log m > 0
    and convexity give exactly one root on each side of rho_star.
    """
    if rho_star is None:
        rho_star = find_rho_star(model)
    if model.psi(rho_star) >= 0:
        raise ValueError("psi(rho_star) >= 0: model is not subcritical, rho_pm undefined")
    rho_minus = _bisect(model.psi, 1e-12, rho_star)
    hi = rho_star * 2.0
    while model.psi(hi) <= 0:
        hi *= 2.0
        if hi > 1e6:
            raise ValueError("psi never returns above 0; rho_plus not found")
    rho_plus = _bisect(model.psi, rho_star, hi)
    for r in (rho_minus, rho_plus):
        if abs(model.psi(r)) > RHO_TOL:
            raise ArithmeticError("rho_pm residual exceeds tolerance")
    return rho_minus, rho_plus


def lattice_span(values, tol: float = 1e-9) -> float | None:
    """Greatest s > 0 with all values in s*Z, or None if no rational fit."""
    vals = [float(v) for v in np.atleast_1d(values) if abs(v) > tol]
    if not vals:
        return None
    fracs = []
    for v in vals:
        f = Fraction(v).limit_denominator(10 ** 6)
        if f == 0 or abs(float(f) - v) > tol * max(1.0, abs(v)):
            return None
        fracs.append(f)
    span = fracs[0]
    for f in fracs[1:]:
        # gcd of rationals
        span = Fraction(math.gcd(span.numerator * f.denominator,
                                 f.numerator * span.denominator),
                        span.denominator * f.denominator)
    s = abs(float(span))
    for v in vals:
        if abs(v / s - round(v / s)) > tol:
            return None
    return s


def drift_sign(d: float) -> int:
    """-1, 0 or 1: the sign of a drift, with |d| <= REGIME_TOL read as zero."""
    return 0 if abs(d) <= REGIME_TOL else (1 if d > 0 else -1)


def classify_regime(model) -> ModelAnalytics:
    """Regime classification with the full analytics bundle.

    Critical:    psi'(rho_star) ~ 0 (drift_sign 0).
    Subcritical: psi'(rho_star) < 0; rho_minus/rho_plus are solved.
    Everything else (escape upward) is out of scope for the killed-walk
    asymptotics and is labeled, not silently accepted.
    """
    m = model.mean_offspring
    supp = model.displacement_support()
    span = lattice_span(supp) if supp is not None else None
    try:
        rho_star = find_rho_star(model)
    except ValueError as e:
        return ModelAnalytics(regime=Regime.OUT_OF_SCOPE, mean_offspring=m,
                              lattice_span=span, note=str(e))
    psi_s, dpsi_s, d2psi_s = log_laplace(model, rho_star)
    at_star = dict(mean_offspring=m, rho_star=rho_star, psi_rho_star=psi_s,
                   dpsi_rho_star=dpsi_s, d2psi_rho_star=d2psi_s,
                   lattice_span=span)
    sign = drift_sign(dpsi_s)
    if sign > 0:
        return ModelAnalytics(
            regime=Regime.OUT_OF_SCOPE, **at_star,
            note="psi'(rho_star) > 0: survives the barrier with positive probability")
    if sign == 0:
        return ModelAnalytics(regime=Regime.CRITICAL, **at_star)
    rho_minus, rho_plus = find_rho_pm(model, rho_star)
    return ModelAnalytics(regime=Regime.SUBCRITICAL, rho_minus=rho_minus,
                          rho_plus=rho_plus, **at_star)


# ---------------------------------------------------------------------------
# built-in models used across the test-bed


def critical_binary_gaussian() -> IidModel:
    """Two children, N(mu,1) displacements with mu = -sqrt(2 log 2): critical,
    rho_star = sqrt(2 log 2), tilted walk = standard normal."""
    return IidModel(FixedOffspring(2), GaussianStep(mu=-math.sqrt(2.0 * math.log(2.0))))


def subcritical_binary_gaussian(mu: float = -1.5) -> IidModel:
    """Two children, N(mu,1) displacements; rho_star = sqrt(2 log 2) for any mu,
    and mu = -1.5 gives rho_pm = 1.5 -+ sqrt(2.25 - 2 log 2)."""
    if mu >= -math.sqrt(2.0 * math.log(2.0)):
        raise ValueError("mu too large: not subcritical")
    return IidModel(FixedOffspring(2), GaussianStep(mu=mu))


def two_point_subcritical() -> IidModel:
    """Two children, +1 w.p. 0.05 / -1 w.p. 0.95: subcritical lattice model with
    e^{rho_pm} the roots of y^2 - 10 y + 19 = 0."""
    return IidModel(FixedOffspring(2), TwoPointStep(up=1.0, down=-1.0, p_up=0.05))


def critical_lattice_binary() -> IidModel:
    """Two children, +1/-1 displacements with p_up = (2 - sqrt(3))/4: the critical
    lattice model whose rho_star tilt is the symmetric simple random walk and
    rho_star = log(2 + sqrt(3))."""
    return IidModel(FixedOffspring(2), TwoPointStep(up=1.0, down=-1.0,
                                                    p_up=(2.0 - math.sqrt(3.0)) / 4.0))


BUILTIN_MODELS = {
    "critical-gaussian": critical_binary_gaussian,
    "subcritical-gaussian": subcritical_binary_gaussian,
    "two-point": two_point_subcritical,
    "critical-lattice": critical_lattice_binary,
}


def resolve_model(spec: str):
    """A builtin name, a JSON string, or a path to a JSON file."""
    if spec in BUILTIN_MODELS:
        return BUILTIN_MODELS[spec]()
    s = spec.strip()
    if s.startswith("{"):
        return model_from_json(s)
    with open(spec, "r") as fh:
        return model_from_json(fh.read())

"""Growth functions on [0, oo) in overflow-safe log space.

A :class:`WeightFunction` stores ``log u(r)`` rather than ``u(r)`` so the
built-in catalog (power-exponential family, iterated-exponential Bell
family, tabulated functions) can be evaluated far beyond double-precision
overflow.  Iterated exponentials are evaluated in floats while the value
stays <= 700; an :class:`ExtendedExp` tower is built only above that.
Class-membership checks (divergence of ``log u(r)/log r``,
``log u(r)/sqrt(r)``, boundedness of ``log u(r)/r`` and convexity of
``log u(x^2)``) are finite-range spot checks: every verdict carries the
range of evidence and means "consistent up to r_max", never a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

CONSISTENT = "consistent"
VIOLATED = "violated"

MAX_TOWER_LEVEL = 8
_LEVEL_DOWN_CAP = 700.0  # exp(700) is representable; above this keep the tower

DEFAULT_GRID_POINTS = 64
DEFAULT_R_MIN = 1e-2
DEFAULT_R_MAX = 1e6
CONVEXITY_TOL = 1e-9
DIVERGENCE_THRESHOLD = 10.0
RATIO_TOL = 1e-9
LATTICE_POW = 10  # func_equivalent tries the scale factors 2^-10 .. 2^10


class DomainError(ValueError):
    """Argument outside the configured domain of a weight function."""


class PrecisionError(ArithmeticError):
    """The requested value needs extended precision beyond the configured limit."""


class TowerOverflowError(OverflowError):
    """An iterated exponential exceeded the configured tower depth."""


# ---------------------------------------------------------------------------
# iterated exponentials


def _descend(level: int, x: float) -> tuple[int, float]:
    """Apply exp to x, one level at a time, while x stays <= _LEVEL_DOWN_CAP."""
    while level > 0 and x <= _LEVEL_DOWN_CAP:
        x = math.exp(x)
        level -= 1
    return level, x


@dataclass(frozen=True)
class ExtendedExp:
    """A magnitude represented as ``exp`` applied `level` times to `mantissa`.

    ``log`` is exact in this representation: it just decrements the level.
    """

    level: int
    mantissa: float

    def normalized(self) -> "ExtendedExp":
        level, x = _descend(self.level, self.mantissa)
        if level > MAX_TOWER_LEVEL:
            raise TowerOverflowError(f"tower depth {level} exceeds {MAX_TOWER_LEVEL}")
        return ExtendedExp(level, x)

    def log(self) -> "ExtendedExp":
        if self.level > 0:
            return ExtendedExp(self.level - 1, self.mantissa).normalized()
        if self.mantissa <= 0:
            raise DomainError("log of a nonpositive value")
        return ExtendedExp(0, math.log(self.mantissa))

    def to_float(self) -> float:
        n = self.normalized()
        if n.level > 0:
            raise PrecisionError(
                f"value exp^{n.level}({n.mantissa!r}) does not fit in a double"
            )
        return n.mantissa


def exp_k(k: int, r: float) -> ExtendedExp:
    """k-fold iterated exponential of r, as an :class:`ExtendedExp` tower."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return ExtendedExp(k, float(r)).normalized()


def log_k(k: int, r: float) -> float:
    """k-fold iterated logarithm with the max{e, .} clamp; always >= 1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    x = float(r)
    for _ in range(k):
        x = math.log(max(math.e, x))
    return x


def log_k_extended(k: int, value: ExtendedExp) -> float:
    """log_k applied to an extended-precision magnitude."""
    v = value.normalized()
    used = min(k, v.level)
    for _ in range(used):
        v = v.log()
    return log_k(k - used, v.to_float()) if k > used else max(1.0, v.to_float())


# ---------------------------------------------------------------------------
# weight functions


@dataclass(frozen=True)
class WeightFunction:
    """A positive continuous function on [0, r_max], held as its log evaluator."""

    name: str
    _log_eval: Callable[[float], float]
    r_max: float
    params: dict = field(default_factory=dict)
    u_at_zero: float = 1.0
    increasing: bool = True
    # values derived from this weight (its u*, its ell sequences), owned by
    # the object so they die with it; the leading underscore keeps them out
    # of reports
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def log_eval(self, r: float) -> float:
        if r < 0:
            raise DomainError(f"{self.name}: r={r} is negative")
        if r > self.r_max:
            # tolerate exp(log r_max) round-trip noise at the boundary
            if r > self.r_max * (1.0 + 1e-9):
                raise DomainError(f"{self.name}: r={r} exceeds r_max={self.r_max}")
            r = self.r_max
        if r == 0:
            return math.log(self.u_at_zero)
        return self._log_eval(r)

    def __repr__(self):  # params carry the identity; the callable does not
        return f"WeightFunction({self.name!r}, params={self.params}, r_max={self.r_max})"


def power_exp(beta: float, r_max: float = 1e30) -> WeightFunction:
    """The family u(r) = exp((1+beta) r^(1/(1+beta))), 0 <= beta < 1."""
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must be in [0, 1)")
    expo = 1.0 / (1.0 + beta)

    def f(r: float) -> float:
        return (1.0 + beta) * r**expo

    return WeightFunction(
        name=f"power_exp(beta={beta})", _log_eval=f, r_max=r_max,
        params={"beta": beta},
    )


def bell_weight(k: int, r_max: float | None = None) -> WeightFunction:
    """The Bell family u_k(r) = exp_k(r)/exp_k(0).

    ``log u_k(r) = exp_{k-1}(r) - exp_{k-1}(0)``, in floats up to 700 and as an
    ExtendedExp above.  For k >= 3 a value past a double raises PrecisionError.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if r_max is None:
        r_max = {1: 1e30, 2: 700.0}.get(k, 6.0)
    base = exp_k(k - 1, 0.0).to_float() if k > 1 else None

    def f(r: float) -> float:
        if k == 1:
            return r
        level, x = _descend(k - 1, float(r))
        return x - base if level == 0 else ExtendedExp(level, x).to_float() - base

    return WeightFunction(
        name=f"bell(k={k})", _log_eval=f, r_max=r_max, params={"k": k},
    )


def sqrt_log_weight(k: int = 2, r_max: float = 1e30) -> WeightFunction:
    """u(r) = exp(2 sqrt(r log_{k-1}(sqrt(r)))), the Bell-family dual profile."""
    if k < 2:
        raise ValueError("k must be >= 2")

    def f(r: float) -> float:
        return 2.0 * math.sqrt(r * log_k(k - 1, math.sqrt(r)))

    return WeightFunction(
        name=f"sqrt_log(k={k})", _log_eval=f, r_max=r_max, params={"k": k},
    )


def from_callable(
    name: str,
    log_eval: Callable[[float], float],
    r_max: float = DEFAULT_R_MAX,
    params: dict | None = None,
) -> WeightFunction:
    """An increasing weight with u(0) = 1 from its log evaluator."""
    return WeightFunction(name=name, _log_eval=log_eval, r_max=r_max, params=params or {})


def custom_table(points: Sequence[tuple[float, float]], name: str = "custom_table") -> WeightFunction:
    """Weight from (r, log u(r)) pairs, linear interpolation in log r.

    A leading pair at r=0 fixes u(0); interpolation below the first
    positive abscissa is linear in r down to zero.
    """
    pts = sorted((float(r), float(v)) for r, v in points)
    if len(pts) < 2:
        raise ValueError("need at least two table points")
    u0 = 0.0
    if pts[0][0] == 0.0:
        u0 = pts[0][1]
        pts = pts[1:]
    if not pts or pts[0][0] <= 0.0:
        raise ValueError("table needs positive abscissae")
    for (r, _), (r_next, _) in zip(pts, pts[1:]):
        if r == r_next:
            raise ValueError(f"table abscissa r={r} appears twice")
    logr = np.log([p[0] for p in pts])
    vals = np.array([p[1] for p in pts])
    r_lo, r_hi = pts[0][0], pts[-1][0]

    def f(r: float) -> float:
        if r < r_lo:
            return u0 + (vals[0] - u0) * (r / r_lo)
        return float(np.interp(math.log(r), logr, vals))

    return WeightFunction(
        name=name, _log_eval=f, r_max=r_hi,
        params={"table_points": len(pts)}, u_at_zero=math.exp(u0),
    )


def from_config(cfg: dict) -> WeightFunction:
    """Build a catalog weight from {family, params, r_max} config data."""
    family = cfg.get("family")
    params = dict(cfg.get("params", {}))
    r_max = cfg.get("r_max")
    if family == "power_exp":
        return power_exp(float(params["beta"]), r_max=float(r_max) if r_max else 1e30)
    if family == "bell":
        return bell_weight(int(params["k"]), r_max=float(r_max) if r_max else None)
    if family == "sqrt_log":
        return sqrt_log_weight(int(params.get("k", 2)), r_max=float(r_max) if r_max else 1e30)
    if family == "custom_table":
        return custom_table(params["points"], name=params.get("name", "custom_table"))
    raise ValueError(f"unknown weight family {family!r}")


def default_grid(r_max: float) -> np.ndarray:
    return np.geomspace(min(DEFAULT_R_MIN, r_max / 10.0), r_max, DEFAULT_GRID_POINTS)


# ---------------------------------------------------------------------------
# class membership


@dataclass(frozen=True)
class ConvexityReport:
    verdict: str
    worst_defect: float
    witness: tuple[float, float, float] | None
    tol: float


def check_log_x2_convex(u: WeightFunction, grid: Sequence[float] | None = None) -> ConvexityReport:
    """Chord test of x -> log u(x^2) on consecutive grid triples."""
    if grid is None:
        grid = np.sqrt(default_grid(u.r_max))
    xs = np.asarray(grid, dtype=float)
    if len(xs) < 3:
        raise ValueError("grid needs at least 3 points")
    if np.any(np.diff(xs) <= 0):
        raise ValueError("grid must be strictly increasing")
    fs = np.array([u.log_eval(x * x) for x in xs])
    with np.errstate(invalid="ignore"):
        defects = (fs[:-2] + (fs[2:] - fs[:-2]) * (xs[1:-1] - xs[:-2]) / (xs[2:] - xs[:-2])
                   - fs[1:-1])
    # the first non-finite defect (an infinite log u) fails the test, else the least one
    bad = np.flatnonzero(~np.isfinite(defects))
    i = bad[0] if bad.size else int(np.argmin(defects))
    worst = float(defects[i])
    verdict = VIOLATED if bad.size or worst < -CONVEXITY_TOL else CONSISTENT
    return ConvexityReport(verdict=verdict, worst_defect=worst,
                           witness=tuple(xs[i:i + 3].tolist()) if verdict == VIOLATED else None,
                           tol=CONVEXITY_TOL)


@dataclass(frozen=True)
class ClassMembership:
    in_C_plus_log: str
    in_C_plus_half: str
    in_C_plus_half_one: str
    log_x2_convex: str
    r_max: float
    ratios: dict = field(default_factory=dict, compare=False)


def _diverging(ratio: np.ndarray) -> bool:
    tail = ratio[-max(3, len(ratio) // 3):]
    return bool(np.all(np.diff(tail) > -RATIO_TOL) and np.any(np.diff(tail) > RATIO_TOL)
                and ratio[-1] > DIVERGENCE_THRESHOLD)


def _bounded(ratio: np.ndarray) -> bool:
    tail = ratio[-max(3, len(ratio) // 3):]
    return bool(np.all(np.diff(tail) <= RATIO_TOL * (1.0 + np.abs(tail[:-1]))))


def classify(u: WeightFunction, r_max: float | None = None) -> ClassMembership:
    """Finite-range membership check for the growth classes.

    Divergence conditions pass when the indicator ratio is increasing on
    the grid tail and exceeds ``DIVERGENCE_THRESHOLD`` at r_max; the boundedness
    condition passes when the ratio is non-increasing on the tail.
    """
    r_max = min(r_max or u.r_max, u.r_max)
    grid = np.geomspace(3.0, r_max, DEFAULT_GRID_POINTS)
    logu = np.array([u.log_eval(r) for r in grid])
    r_log = logu / np.log(grid)
    r_half = logu / np.sqrt(grid)
    r_lin = logu / grid

    with np.errstate(invalid="ignore"):  # inf - inf in a ratio tail reads as violated
        c_log = CONSISTENT if _diverging(r_log) else VIOLATED
        c_half = CONSISTENT if _diverging(r_half) else VIOLATED
        bounded = _bounded(r_lin)
    c_half_one = CONSISTENT if (c_half == CONSISTENT and bounded) else VIOLATED
    convex = check_log_x2_convex(u, np.sqrt(default_grid(r_max)))
    return ClassMembership(
        in_C_plus_log=c_log,
        in_C_plus_half=c_half,
        in_C_plus_half_one=c_half_one,
        log_x2_convex=convex.verdict,
        r_max=float(r_max),
        ratios={
            "log": r_log.tolist(),
            "sqrt": r_half.tolist(),
            "linear": r_lin.tolist(),
            "grid": grid.tolist(),
        },
    )


# ---------------------------------------------------------------------------
# function equivalence (Definition: c1 u(a1 r) <= v(r) <= c2 u(a2 r))


@dataclass(frozen=True)
class FunctionEquivalenceReport:
    verdict: str
    a1: float | None
    c1: float | None
    a2: float | None
    c2: float | None
    max_residual: float
    r_range: tuple[float, float]


_TAIL_SLACK = 0.1


def _tail_head(values: np.ndarray):
    k = max(3, len(values) // 3)
    return values[-k:], values[:-k]


def func_equivalent(
    u: WeightFunction,
    v: WeightFunction,
    grid: Sequence[float] | None = None,
) -> FunctionEquivalenceReport:
    """Search dyadic scale factors witnessing u ~ v on the grid.

    A side is accepted when its residual extreme saturates: the last third
    of the grid (in log r) does not push the extreme further out.  Failure
    to find such a scale on either side yields the verdict `violated`.
    """
    if grid is None:
        hi = min(v.r_max, u.r_max, DEFAULT_R_MAX)
        grid = default_grid(hi)
    rs = np.asarray(grid, dtype=float)
    logv = np.array([v.log_eval(r) for r in rs])

    lattice = [2.0**e for e in range(-LATTICE_POW, LATTICE_POW + 1)]
    best_upper = None  # (sup_residual, a)
    best_lower = None  # (inf_residual, a)
    for a in lattice:
        if a * rs[-1] > u.r_max:
            continue
        try:
            rho = logv - np.array([u.log_eval(a * r) for r in rs])
        except (DomainError, PrecisionError):
            continue
        tail, head = _tail_head(rho)
        if np.max(tail) <= np.max(head) + _TAIL_SLACK:
            sup = float(np.max(rho))
            if best_upper is None or sup < best_upper[0]:
                best_upper = (sup, a)
        if np.min(tail) >= np.min(head) - _TAIL_SLACK:
            inf = float(np.min(rho))
            if best_lower is None or inf > best_lower[0]:
                best_lower = (inf, a)

    if best_upper is None or best_lower is None:
        return FunctionEquivalenceReport(
            verdict=VIOLATED, a1=None, c1=None, a2=None, c2=None,
            max_residual=math.inf, r_range=(float(rs[0]), float(rs[-1])),
        )
    sup, a2 = best_upper
    inf, a1 = best_lower
    return FunctionEquivalenceReport(
        verdict=CONSISTENT,
        a1=a1, c1=math.exp(inf), a2=a2, c2=math.exp(sup),
        max_residual=float(max(abs(sup), abs(inf))),
        r_range=(float(rs[0]), float(rs[-1])),
    )

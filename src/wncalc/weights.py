"""Growth functions on [0, oo) in overflow-safe log space.

A :class:`WeightFunction` stores ``log u(r)`` rather than ``u(r)`` so the
built-in catalog (power-exponential family, iterated-exponential Bell
family, tabulated functions) can be evaluated far beyond double-precision
overflow.  Iterated exponentials are evaluated in floats; a value past a
double raises :class:`PrecisionError`.

Each weight holds one kernel: a function from a float64 1-D array of radii
in (0, r_max] to the array of their ``log u``.  ``log_eval`` takes a number
or a 1-D array, settles r = 0, the round-off band past r_max and the domain
rule with array masks, and calls the kernel once.  The catalog kernels are
numpy expressions, so no Python frame runs per radius; :func:`from_callable`
lifts a scalar log evaluator into such a kernel.

Class-membership checks (divergence of ``log u(r)/log r``,
``log u(r)/sqrt(r)``, boundedness of ``log u(r)/r`` and convexity of
``log u(x^2)``) are finite-range spot checks: every verdict carries the
range of evidence and means "consistent up to r_max", never a proof.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, Sequence

import numpy as np

CONSISTENT = "consistent"
VIOLATED = "violated"

_LEVEL_DOWN_CAP = 700.0  # exp(700) is representable; one more level is not

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
    """The requested value does not fit in a double."""


def libm_map(fn: Callable[..., float], x: np.ndarray, *consts: float) -> np.ndarray:
    """fn(element, *consts) at each element of the 1-D array x as a Python float,
    through a C-level map: the array form of a function written for Python scalars."""
    return np.fromiter(map(fn, x.tolist(), *map(repeat, consts)), float, len(x))


# ---------------------------------------------------------------------------
# iterated exponentials


def _descend(level: int, x: float) -> float:
    """exp applied `level` times to x, in floats; PrecisionError past a double."""
    while level > 0 and x <= _LEVEL_DOWN_CAP:
        x = math.exp(x)
        level -= 1
    if level:
        raise PrecisionError(f"value exp^{level}({x!r}) does not fit in a double")
    return x


def log_k(k: int, r: float) -> float:
    """k-fold iterated logarithm with the max{e, .} clamp; always >= 1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    x = float(r)
    for _ in range(k):
        x = math.log(max(math.e, x))
    return x


# ---------------------------------------------------------------------------
# weight functions


@dataclass(frozen=True)
class WeightFunction:
    """A positive continuous function on [0, r_max], held as its log evaluator."""

    name: str
    # kernel: in-range float64 radii -> log u; params, not the callable, name it in the repr
    _log_eval: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    r_max: float
    params: dict = field(default_factory=dict)
    u_at_zero: float = 1.0
    increasing: bool = True
    # values derived from this weight (its u*, its ell sequences), owned by
    # the object so they die with it; the leading underscore keeps them out
    # of reports
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def log_eval(self, r: float | np.ndarray) -> float | np.ndarray:
        """log u(r) at a number, as a Python float, or at each element of a 1-D array.

        r = 0 gives log u(0), and r up to 1e-9 relative past r_max (the round-off of
        exp(log r_max)) reads as r_max.  The other radii go to the kernel in one call.
        A negative r, a NaN, or an r past that band raises DomainError after the radii
        before it have gone to the kernel, so the first bad element raises.
        """
        scalar = not isinstance(r, np.ndarray)
        if not scalar and r.ndim != 1:
            raise ValueError(f"{self.name}: log_eval takes a 1-D array, got {r.ndim}-D")
        x = np.array([float(r)]) if scalar else r.astype(float, copy=False)
        if ((0.0 < x) & (x <= self.r_max)).all():  # the in-range case takes one test
            out = self._log_eval(x)
        else:
            bad = ~(x >= 0) | (x > self.r_max * (1.0 + 1e-9))  # NaN fails x >= 0
            k = int(np.argmax(bad)) if bad.any() else len(x)
            y = np.minimum(x[:k], self.r_max)
            out = np.full(k, math.log(self.u_at_zero))
            out[y != 0] = self._log_eval(y[y != 0])
            if k < len(x):
                v = r if scalar else r[k].item()
                why = ("is not a number" if math.isnan(x[k]) else "is negative" if x[k] < 0
                       else f"exceeds r_max={self.r_max}")
                raise DomainError(f"{self.name}: r={v} {why}")
        return out.item() if scalar else out


def power_exp(beta: float, r_max: float = 1e30) -> WeightFunction:
    """The family u(r) = exp((1+beta) r^(1/(1+beta))), 0 <= beta < 1."""
    if not 0.0 <= beta < 1.0:
        raise ValueError("beta must be in [0, 1)")
    expo = 1.0 / (1.0 + beta)

    def f(r: np.ndarray) -> np.ndarray:
        return (1.0 + beta) * np.power(r, expo)

    return WeightFunction(
        name=f"power_exp(beta={beta})", _log_eval=f, r_max=r_max,
        params={"beta": beta},
    )


def bell_weight(k: int, r_max: float | None = None) -> WeightFunction:
    """The Bell family u_k(r) = exp^k(r)/exp^k(0).

    ``log u_k(r) = exp_{k-1}(r) - exp_{k-1}(0)`` in floats; a value past a
    double raises PrecisionError (for k = 4 from r ~ 1.88 on, for k >= 5
    already at exp_{k-1}(0)).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if r_max is None:
        r_max = {1: 1e30, 2: 700.0}.get(k, 6.0)
    base = _descend(k - 1, 0.0)

    def f(r: np.ndarray) -> np.ndarray:
        x = r
        for _ in range(k - 1):
            if not (x <= _LEVEL_DOWN_CAP).all():  # _descend raises at the first such r
                return libm_map(functools.partial(_descend, k - 1), r) - base
            x = np.exp(x)
        return x - base

    return WeightFunction(
        name=f"bell(k={k})", _log_eval=f, r_max=r_max, params={"k": k},
    )


def sqrt_log_weight(k: int = 2, r_max: float = 1e30) -> WeightFunction:
    """u(r) = exp(2 sqrt(r log_{k-1}(sqrt(r)))), the Bell-family dual profile."""
    if k < 2:
        raise ValueError("k must be >= 2")

    def f(r: np.ndarray) -> np.ndarray:
        x = np.sqrt(r)
        for _ in range(k - 1):  # log_k(k - 1, .); fmax, like max, reads NaN as the smaller
            x = np.log(np.fmax(math.e, x))
        return 2.0 * np.sqrt(r * x)

    return WeightFunction(
        name=f"sqrt_log(k={k})", _log_eval=f, r_max=r_max, params={"k": k},
    )


def from_callable(
    name: str,
    log_eval: Callable[[float], float],
    r_max: float = DEFAULT_R_MAX,
    params: dict | None = None,
) -> WeightFunction:
    """An increasing weight with u(0) = 1 from a scalar log evaluator, which its
    kernel maps over the elements of an array as Python floats."""
    return WeightFunction(name=name, _log_eval=functools.partial(libm_map, log_eval),
                          r_max=r_max, params=params or {})


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
    if not math.isfinite(u0):
        raise ValueError(f"table log u(0)={u0!r} is not finite")
    try:
        u_at_zero = math.exp(u0)
    except OverflowError:
        raise ValueError(f"table log u(0)={u0!r} puts u(0) past a double") from None

    def f(r: np.ndarray) -> np.ndarray:
        out = np.interp(np.log(r), logr, vals)
        below = r < r_lo
        out[below] = u0 + (vals[0] - u0) * (r[below] / r_lo)
        return out

    return WeightFunction(
        name=name, _log_eval=f, r_max=r_hi,
        params={"table_points": len(pts)}, u_at_zero=u_at_zero,
    )


def _read(convert, value, key: str):
    """convert(value) for config data, where a value it cannot convert is a ValueError."""
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise ValueError(f"weight config {key}={value!r} has the wrong type") from None


def _order(value) -> int:
    """An integer order k from config data: 2 and 2.0 read as 2, 2.7 is a ValueError."""
    k = _read(int, value, "k")
    if isinstance(value, float) and value != k:
        raise ValueError(f"weight config k={value!r} is not an integer")
    return k


def from_config(cfg: dict) -> WeightFunction:
    """Build a catalog weight from {family, params, r_max} config data."""
    if not isinstance(cfg, dict):
        raise ValueError(f"weight config {cfg!r} is not an object")
    family = cfg.get("family")
    params = _read(dict, cfg.get("params", {}), "params")
    r_max = cfg.get("r_max")

    def kw():  # read only by the families that take r_max, after their own params
        if r_max is not None and not 0.0 < _read(float, r_max, "r_max") < math.inf:
            raise ValueError(f"weight config r_max={r_max!r} is not a finite number > 0")
        return {} if r_max is None else {"r_max": float(r_max)}

    if family == "power_exp":
        return power_exp(_read(float, params["beta"], "beta"), **kw())
    if family == "bell":
        return bell_weight(_order(params["k"]), **kw())
    if family == "sqrt_log":
        return sqrt_log_weight(_order(params.get("k", 2)), **kw())
    if family == "custom_table":
        if "r_max" in cfg:  # a table's r_max is its last abscissa
            raise ValueError(f"weight config r_max={r_max!r} does not apply to custom_table")
        points = _read(lambda ps: [(float(r), float(v)) for r, v in ps], params["points"], "points")
        return custom_table(points, name=params.get("name", "custom_table"))
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
    fs = u.log_eval(xs * xs)
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


def tail_size(n: int) -> int:
    """Length of the finite-range tail window of n values: the last third, at least 3."""
    return max(3, n // 3)


def _diverging(ratio: np.ndarray) -> bool:
    tail = ratio[-tail_size(len(ratio)):]
    return bool(np.all(np.diff(tail) > -RATIO_TOL) and np.any(np.diff(tail) > RATIO_TOL)
                and ratio[-1] > DIVERGENCE_THRESHOLD)


def _bounded(ratio: np.ndarray) -> bool:
    tail = ratio[-tail_size(len(ratio)):]
    return bool(np.all(np.diff(tail) <= RATIO_TOL * (1.0 + np.abs(tail[:-1]))))


def classify(u: WeightFunction, r_max: float | None = None) -> ClassMembership:
    """Finite-range membership check for the growth classes.

    Divergence conditions pass when the indicator ratio is increasing on
    the grid tail and exceeds ``DIVERGENCE_THRESHOLD`` at r_max; the boundedness
    condition passes when the ratio is non-increasing on the tail.
    """
    r_max = u.r_max if r_max is None else min(r_max, u.r_max)
    if not 3.0 < r_max < math.inf:  # the grid starts at 3
        raise ValueError(f"classify grid r_max={r_max!r} is not a finite number > 3")
    grid = np.geomspace(3.0, r_max, DEFAULT_GRID_POINTS)
    logu = u.log_eval(grid)
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
    logv = v.log_eval(rs)

    lattice = [2.0**e for e in range(-LATTICE_POW, LATTICE_POW + 1)]
    best_upper = None  # (sup_residual, a)
    best_lower = None  # (inf_residual, a)
    for a in lattice:
        if a * rs[-1] > u.r_max:
            continue
        try:
            rho = logv - u.log_eval(a * rs)
        except (DomainError, PrecisionError):
            continue
        k = tail_size(len(rho))
        tail, head = rho[-k:], rho[:-k]
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

"""Frozen Mittag-Leffler oracle: ``wncalc.measures.mittag_leffler`` as it was
before it took an array of t, kept verbatim with its helpers.

One t per call, and each mpmath series computes its own Gamma values and
powers.  The array path must match it bit for bit, and the scalar Gram
reference of ``scalar_kernels`` uses it, so that reference shares no code
with ``wncalc``.
"""

from __future__ import annotations

import math

import mpmath as mp

ML_T_MAX = 50.0  # largest t mittag_leffler accepts
_ML_SERIES_DIGIT_CAP = 120  # beyond this the alternating series is hopeless


def _ml_series_peak_log(lam: float, t: float) -> float:
    """Natural log of the largest term t^n/Gamma(1+lam n), found by scan."""
    logt = math.log(t)
    best = 0.0
    n = 1
    while n <= 2_000_000:
        v = n * logt - math.lgamma(1.0 + lam * n)
        if v > best:
            best = v
        elif v < best - 60.0:
            break
        n += 1
    return best


def _ml_float_series(lam: float, t: float) -> float:
    # safe in doubles only while the peak term is small (checked by caller)
    logt = math.log(t)
    terms = []
    n = 0
    while True:
        lg = math.lgamma(1.0 + lam * n)
        v = n * logt - lg
        if n > 4 and v < -45.0:
            break
        terms.append((-1.0) ** n * math.exp(v))
        n += 1
    return math.fsum(terms)


def _ml_integral(lam: float, t: float) -> float:
    # completely monotone representation for 0 < lam < 1, with x = t^(1/lam):
    # E_lam(-t) = (sin(pi lam)/pi) int_0^inf r^(lam-1) e^(-r x)
    #             / (r^(2 lam) + 2 r^lam cos(pi lam) + 1) dr
    with mp.workdps(40):
        a = mp.mpf(lam)
        x = mp.mpf(t) ** (1 / a)
        s, c = mp.sinpi(a), mp.cospi(a)

        def f(r):
            return s / mp.pi * r ** (a - 1) * mp.e ** (-r * x) / (
                r ** (2 * a) + 2 * r**a * c + 1
            )

        val = mp.quad(f, [0, 1 / x, 1, mp.inf])
        return float(val)


def mittag_leffler(lam: float, t: float) -> float:
    """L_lam(t) = sum (-t)^n / Gamma(1 + lam n), for 0 < lam <= 1, t >= 0.

    Alternating summation in extended precision sized to the largest term;
    when cancellation would need more than ~120 digits the completely
    monotone integral representation takes over.
    """
    if not 0.0 < lam <= 1.0:
        raise ValueError("lambda must be in (0, 1]")
    if not t >= 0:  # NaN too: the series would never stop
        raise ValueError("t must be >= 0")
    if t > ML_T_MAX:
        raise ValueError(f"t={t} beyond configured range {ML_T_MAX}")
    if t == 0.0:
        return 1.0
    if lam == 1.0:
        return math.exp(-t)
    peak_digits = _ml_series_peak_log(lam, t) / math.log(10.0)
    if peak_digits <= 3.0:
        return _ml_float_series(lam, t)
    if peak_digits > _ML_SERIES_DIGIT_CAP - 30:
        return _ml_integral(lam, t)
    dps = 30 + int(peak_digits) + 1
    with mp.workdps(dps):
        total = mp.mpf(0)
        term_floor = mp.mpf(10) ** (-dps + 10)
        lam_mp = mp.mpf(lam)
        n = 0
        while True:
            term = (-mp.mpf(t)) ** n / mp.gamma(1 + lam_mp * n)
            total += term
            n += 1
            if n > 8 and abs(term) < term_floor:
                break
            if n > 200000:
                raise ArithmeticError("Mittag-Leffler series failed to settle")
        out = float(total)
    return out

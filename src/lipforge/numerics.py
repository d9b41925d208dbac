"""Scalar plumbing shared by the construction and probing code.

Two numeric regimes coexist in this package:

* plain float64 (numpy) for bulk sampling and default evaluation;
* mpmath arbitrary-precision floats for the ball-game parameter cascade,
  whose radii shrink roughly quadratically per round and leave the float64
  exponent range after a handful of rounds.

Every mpf produced here is an exact binary rational (mantissa * 2**exponent),
so values round-trip bit-exactly through the (mantissa, exponent) encoding
used by the file formats, and re-running a construction with the same
precision setting reproduces identical artifacts byte for byte.

The exact evaluator works below the mpf objects, on their raw libmp values:
the ``(sign, mantissa, exponent, bitcount)`` tuple an mpf keeps in
``_mpf_``. It calls the ``mpmath.libmp`` functions (``mpf_add``,
``mpf_mul``, ``mpf_sqrt``, ...) that the mpf operators call, with the
context's working precision and rounding, so every result has the same bits
as the mpf expression it replaces, without an mpf object per operation.
``exact_raw``, ``raw_vector`` and ``mpf_vector`` convert at the boundary.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Union

import mpmath
import numpy as np
from mpmath import mp
from mpmath.libmp import from_float
from mpmath.libmp import to_float as _libmp_to_float

Scalar = Union[float, mpmath.mpf]

# Default significant digits for construction-time scalar arithmetic.
CONSTRUCTION_DPS = 60

# Slack added to lip_cert comparisons against 1: the g2 rescaling makes the
# certified constant exactly 1 in exact arithmetic, up to one rounding.
LIP_ONE_TOL = 1e-12


class LipForgeError(Exception):
    """Base class for all contract violations raised by this package."""


def is_mpf(x) -> bool:
    return isinstance(x, mpmath.mpf)


def to_float(x) -> float:
    """Cast a scalar to a builtin float. Values below the float64 range
    underflow to 0.0; numpy scalars are coerced so repr stays plain."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def exact_mpf(x) -> mpmath.mpf:
    """Convert a float/int to mpf without rounding (both are binary rationals)."""
    if is_mpf(x):
        return x
    return mpmath.mpf(x)


# Tree constants, grid coordinates and matrix entries repeat across nodes, so
# one bounded cache serves every float conversion and shares the tuples.
@lru_cache(maxsize=4096)
def _float_raw(x: float) -> tuple:
    return from_float(x)


def exact_raw(x) -> tuple:
    """Raw libmp value of a float/mpf without rounding: the ``_mpf_`` of
    ``exact_mpf(x)`` at any working precision of at least 53 bits."""
    if is_mpf(x):
        return x._mpf_
    return _float_raw(float(x))


def raw_vector(v) -> tuple:
    """Raw libmp values of a float or mpf vector, converted exactly."""
    return tuple(exact_raw(x) for x in v)


def mpf_vector(raw) -> np.ndarray:
    """Object array of mpf holding the given raw libmp values."""
    out = np.empty(len(raw), dtype=object)
    for i, x in enumerate(raw):
        out[i] = mp.make_mpf(x)
    return out


def raw_to_float(x: tuple) -> float:
    """float(mpf) of a raw libmp value, in the context's rounding mode."""
    return _libmp_to_float(x, rnd=mp._prec_rounding[1])


def dec_magnitude(x) -> int:
    """Approximate floor(log10 |x|), robust far outside the float64 range.

    Off-by-one is acceptable for the callers (working-precision selection).
    """
    if x == 0:
        raise ValueError("magnitude of zero")
    if is_mpf(x):
        # mpmath.mag gives the binary exponent e with 2**(e-1) <= |x| < 2**e.
        return int(math.floor((int(mpmath.mag(x)) - 1) * math.log10(2)))
    return int(math.floor(math.log10(abs(x))))


def working_dps_for_scale(scale: Scalar, base_dps: int = CONSTRUCTION_DPS) -> int:
    """Significant digits needed so that x + u stays resolvable for |u| ~ scale.

    Construction numerals carry ~base_dps digits of mantissa; resolving a
    displacement of the given magnitude around coordinates of order one needs
    the displacement's leading digit position plus that mantissa width.
    """
    if scale == 0:
        return base_dps
    m = dec_magnitude(scale)
    if m >= -2:
        return base_dps
    return max(base_dps, -m + base_dps + 25)


def encode_scalar(x: Scalar):
    """JSON-encodable form: floats as repr strings, mpf as exact man/exp pair."""
    if is_mpf(x):
        # _mpf_ is the exact (sign, mantissa, exponent, bitcount) tuple;
        # reconstructing through mpf(x) would round to the ambient precision.
        sign, man, exp, _ = x._mpf_
        m = -int(man) if sign else int(man)
        return {"m": str(m), "e": str(int(exp))}
    return repr(float(x))


def decode_scalar(obj) -> Scalar:
    """Inverse of encode_scalar; raises LipForgeError on malformed input."""
    if isinstance(obj, dict):
        try:
            man = int(obj["m"])
            exp = int(obj["e"])
        except (KeyError, ValueError, TypeError) as e:
            raise LipForgeError(f"malformed artifact: bad scalar {obj!r}") from e
        if man == 0:
            return mpmath.mpf(0)
        with mp.workprec(max(8, abs(man).bit_length() + 8)):
            return mpmath.ldexp(mpmath.mpf(man), exp)
    if isinstance(obj, str):
        try:
            return float(obj)
        except ValueError as e:
            raise LipForgeError(f"malformed artifact: bad numeral {obj!r}") from e
    if isinstance(obj, (int, float)):
        return float(obj)
    raise LipForgeError(f"malformed artifact: bad numeral {obj!r}")


def encode_vector(v) -> list:
    return [encode_scalar(x) for x in v]


def decode_vector(obj) -> np.ndarray:
    if not isinstance(obj, list):
        raise LipForgeError("malformed artifact: vector expected")
    vals = [decode_scalar(x) for x in obj]
    return as_vector(vals)


def as_vector(values) -> np.ndarray:
    """Pack scalars into a float64 array, or an object array if any is mpf."""
    if any(is_mpf(x) for x in values):
        out = np.empty(len(values), dtype=object)
        for i, x in enumerate(values):
            out[i] = exact_mpf(x)
        return out
    return np.asarray([float(x) for x in values], dtype=float)


def as_matrix(rows) -> np.ndarray:
    flat = [x for row in rows for x in row]
    if any(is_mpf(x) for x in flat):
        out = np.empty((len(rows), len(rows[0])), dtype=object)
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                out[i, j] = exact_mpf(x)
        return out
    return np.asarray(rows, dtype=float)


def float_vector(v) -> np.ndarray:
    """float64 copy of a possibly-object vector (tiny mpfs underflow to 0)."""
    if v.dtype == object:
        return np.asarray([to_float(x) for x in v], dtype=float)
    return np.asarray(v, dtype=float)


def float_matrix(m) -> np.ndarray:
    if m.dtype == object:
        return np.asarray([[to_float(x) for x in row] for row in m], dtype=float)
    return np.asarray(m, dtype=float)


def is_exact_vector(v) -> bool:
    return isinstance(v, np.ndarray) and v.dtype == object


def scalar_min(*xs: Scalar) -> Scalar:
    out = xs[0]
    for x in xs[1:]:
        if x < out:
            out = x
    return out

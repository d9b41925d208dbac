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
import re
from functools import lru_cache
from typing import Callable, NamedTuple, Union

import mpmath
import numpy as np
from mpmath import mp
from mpmath.libmp import finf, fnan, fninf, from_float, from_int, from_man_exp
from mpmath.libmp import to_float as _libmp_to_float

Scalar = Union[float, mpmath.mpf]

# Default significant digits for construction-time scalar arithmetic.
CONSTRUCTION_DPS = 60

# Slack added to lip_cert comparisons against 1: the g2 rescaling makes the
# certified constant exactly 1 in exact arithmetic, up to one rounding.
LIP_ONE_TOL = 1e-12


class LipForgeError(Exception):
    """Base class for all contract violations raised by this package."""


class cached:
    """A property computed on its first read per instance and then stored on
    the instance under its own name, which later reads find before this
    (non-data) descriptor. The value is stored by object.__setattr__, so it
    works on frozen dataclasses, and CPython keeps it among the instance's
    inline attribute values; functools.cached_property writes through
    instance.__dict__, which builds a dict on every instance it caches on."""

    def __init__(self, func):
        self.func = func

    def __set_name__(self, owner, name: str):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.func(obj)
        object.__setattr__(obj, self.name, value)
        return value


def quote(obj) -> str:
    """repr(obj) as a diagnostic quotes it: on one line, cut to 200
    characters and '...'. It is written piece by piece (_repr_pieces) up to
    the cut, so a large value costs no more than the characters kept."""
    text = ""
    for piece in _repr_pieces(obj):
        text += piece
        if len(text) > 200:
            return text[:200] + "..."
    return text


def _repr_pieces(obj):
    """repr(obj) in pieces, each on one line: the items of a list, tuple or
    dict as they come, a string from its first 201 characters, anything
    else by its repr with each line break and the space around it as one
    space."""
    if type(obj) is list or type(obj) is tuple:
        yield "[" if type(obj) is list else "("
        for i, x in enumerate(obj):
            yield ", " if i else ""
            yield from _repr_pieces(x)
        yield "]" if type(obj) is list else ",)" if len(obj) == 1 else ")"
    elif type(obj) is dict:
        yield "{"
        for i, (k, v) in enumerate(obj.items()):
            yield ", " if i else ""
            yield from _repr_pieces(k)
            yield ": "
            yield from _repr_pieces(v)
        yield "}"
    else:
        yield re.sub(r"\s*\n\s*", " ", repr(obj[:201] if type(obj) is str else obj))


def is_mpf(x) -> bool:
    return isinstance(x, mpmath.mpf)


def to_float(x) -> float:
    """Cast a scalar to a builtin float. Values below the float64 range
    underflow to 0.0; numpy scalars are coerced so repr stays plain."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def is_finite(x: Scalar) -> bool:
    """Neither NaN nor infinite; an mpf from an {m, e} pair always is."""
    return x._mpf_ not in (fnan, finf, fninf) if is_mpf(x) else math.isfinite(x)


def exact_mpf(x) -> mpmath.mpf:
    """Convert a float/int to mpf without rounding (both are binary
    rationals), whatever the working precision: mpmath.mpf(x) would round
    to it."""
    if is_mpf(x):
        return x
    if isinstance(x, int):
        return mp.make_mpf(from_int(x))
    return mp.make_mpf(_float_raw(float(x)))


# Tree constants, grid coordinates and matrix entries repeat across nodes, so
# one bounded cache serves every float conversion and shares the tuples.
@lru_cache(maxsize=4096)
def _float_raw(x: float) -> tuple:
    return from_float(x)


def exact_raw(x) -> tuple:
    """Raw libmp value of a float/mpf without rounding: the ``_mpf_`` of
    ``exact_mpf(x)``."""
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


def working_dps_for_scale(scale: Scalar) -> int:
    """Significant digits needed so that x + u stays resolvable for |u| ~ scale.

    Construction numerals carry ~CONSTRUCTION_DPS digits of mantissa;
    resolving a displacement of the given magnitude around coordinates of
    order one needs the displacement's leading digit position plus that
    mantissa width.
    """
    if scale == 0 or (m := dec_magnitude(scale)) >= -2:
        return CONSTRUCTION_DPS
    return CONSTRUCTION_DPS + 25 - m


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
            man, exp = obj["m"], obj["e"]
            # the strings encode_scalar writes: int() would take a bool or truncate a float
            if type(man) is not str or type(exp) is not str:
                raise TypeError(f"strings expected, got {quote(man)} and {quote(exp)}")
            man, exp = int(man), int(exp)
        except (KeyError, ValueError, TypeError) as e:
            raise LipForgeError(f"malformed artifact: bad scalar {quote(obj)}") from e
        # from_man_exp without a precision normalizes exactly, zero included
        return mp.make_mpf(from_man_exp(man, exp))
    # a numeral string or a JSON number; True and False are ints to Python but not numerals
    if type(obj) in (str, int, float):
        try:
            return float(obj)
        except ValueError:
            pass
    raise LipForgeError(f"malformed artifact: bad numeral {quote(obj)}")


def decode_int(obj) -> int:
    """A JSON integer as stored; TypeError on a bool, float or string, which int() would coerce."""
    if type(obj) is not int:
        raise TypeError(f"integer expected, got {quote(obj)}")
    return obj


def encode_vector(v) -> list:
    """encode_scalar of each entry; a float64 array as the repr of each float."""
    if isinstance(v, np.ndarray) and v.dtype == np.float64:
        return list(map(repr, v.tolist()))
    return [encode_scalar(x) for x in v]


def decode_vector(obj) -> np.ndarray:
    """Inverse of encode_vector; its float numerals parse in one numpy call, as float() parses."""
    if not isinstance(obj, list):
        raise LipForgeError("malformed artifact: vector expected")
    if all(type(x) is str for x in obj):
        try:
            return np.array(obj, dtype=float)
        except ValueError:
            pass  # decode_scalar names the bad numeral
    return as_vector([decode_scalar(x) for x in obj])


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


# ---------------------------------------------------------------------------
# Field codecs. A record is declared as fields in file order, each a (JSON
# key, attribute, codec), as lipfun._RECORDS and game._HEADER_FIELDS do.


class Codec(NamedTuple):
    """How a field's value is written and read. encode(value, depth, memo)
    gets the depth of the record's child nodes, encode and decode(obj, memo)
    the memo of one encoding or decoding call, and children(value) lists the
    child nodes the value holds. encode is None for a field that
    lipfun's record writer writes itself: a child node or a patch list."""

    encode: Callable
    decode: Callable
    children: Callable = lambda value: ()


def finite(decode, message: str = "non-finite numeral in {obj}"):
    """decode, then refuse a NaN or infinite value."""

    def decode_finite(obj, memo: dict):
        value = decode(obj)
        if not all(map(is_finite, value.tolist() if isinstance(value, np.ndarray) else (value,))):
            raise LipForgeError("malformed artifact: " + message.format(obj=quote(obj)))
        return value

    return decode_finite


def encode_fields(obj, fields: tuple, depth: int, memo: dict, record: dict) -> dict:
    """Add obj's fields to record."""
    for key, attr, codec in fields:
        record[key] = codec.encode(getattr(obj, attr), depth, memo)
    return record


def decode_fields(obj, fields: tuple, memo: dict) -> dict:
    """The attributes of a record (a loop, as a comprehension's own frame
    slows decoding)."""
    attrs = {}
    for key, attr, codec in fields:
        attrs[attr] = codec.decode(obj[key], memo)
    return attrs


def sequence(codec: Codec) -> Codec:
    """A JSON list of values of one codec, decoded to a tuple."""

    def decode(obj, memo: dict) -> tuple:
        if not isinstance(obj, list):
            raise TypeError(f"list expected, got {quote(obj)}")
        return tuple(codec.decode(x, memo) for x in obj)

    return Codec(lambda values, depth, memo: [codec.encode(v, depth, memo) for v in values], decode)


SCALAR = Codec(lambda x, depth, memo: encode_scalar(x), finite(decode_scalar))
VECTOR = Codec(lambda v, depth, memo: encode_vector(v), finite(decode_vector))
INT = Codec(lambda n, depth, memo: n, lambda obj, memo: decode_int(obj))
# Values kept as floats: a net point, a domain's bounds, a ball's radius.
FLOAT = Codec(SCALAR.encode, finite(lambda obj: to_float(decode_scalar(obj))))
FLOAT_VECTOR = Codec(VECTOR.encode, finite(lambda obj: float_vector(decode_vector(obj))))

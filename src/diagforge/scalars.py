"""Scalar backends shared by every matrix operation in the package.

Two families of scalars are supported:

* exact: ``int``, ``fractions.Fraction``, and :class:`ComplexRational`
  for nonreal values with rational real and imaginary parts;
* float: ``float`` and ``complex`` (numpy scalars are normalized to these).

The two families never mix silently.  Combining an exact value with a
float raises ``TypeError``; callers convert explicitly with
:func:`to_float`.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

_EXACT_REAL = (int, Fraction)


def exact_complex(re, im) -> "Fraction | ComplexRational":
    """Build an exact complex scalar, collapsing to Fraction on the real axis."""
    re = Fraction(re)
    im = Fraction(im)
    if im == 0:
        return re
    return ComplexRational(re, im)


class ComplexRational:
    """Complex number with exact rational components and nonzero imaginary part.

    Arithmetic that lands back on the real axis returns a plain Fraction,
    so exact real values are always ``int``/``Fraction`` and nonreal exact
    values are always ``ComplexRational``.  Mixing with floats is refused.
    """

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        re = Fraction(re)
        im = Fraction(im)
        if im == 0:
            raise ValueError("imaginary part must be nonzero; use exact_complex")
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def __setattr__(self, name, value):
        raise AttributeError("ComplexRational is immutable")

    def conjugate(self) -> "ComplexRational":
        return ComplexRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def __add__(self, other):
        if isinstance(other, ComplexRational):
            return exact_complex(self.re + other.re, self.im + other.im)
        if isinstance(other, _EXACT_REAL):
            return ComplexRational(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, ComplexRational):
            return exact_complex(self.re - other.re, self.im - other.im)
        if isinstance(other, _EXACT_REAL):
            return ComplexRational(self.re - other, self.im)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _EXACT_REAL):
            return ComplexRational(other - self.re, -self.im)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, ComplexRational):
            return exact_complex(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        if isinstance(other, _EXACT_REAL):
            if other == 0:
                return Fraction(0)
            return ComplexRational(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, ComplexRational):
            d = other.abs2()
            return exact_complex(
                (self.re * other.re + self.im * other.im) / d,
                (self.im * other.re - self.re * other.im) / d,
            )
        if isinstance(other, _EXACT_REAL):
            return ComplexRational(self.re / Fraction(other), self.im / Fraction(other))
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _EXACT_REAL):
            d = self.abs2()
            return exact_complex(other * self.re / d, -other * self.im / d)
        return NotImplemented

    def __neg__(self):
        return ComplexRational(-self.re, -self.im)

    def __pos__(self):
        return self

    def __eq__(self, other):
        if isinstance(other, ComplexRational):
            return self.re == other.re and self.im == other.im
        # im != 0 by construction, so equality with any real is False.
        if isinstance(other, _EXACT_REAL):
            return False
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __bool__(self):
        return True

    def __repr__(self):
        sign = "+" if self.im >= 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}i)"


def is_exact(x) -> bool:
    return isinstance(x, (int, Fraction, ComplexRational)) and not isinstance(x, bool)


def is_real(x) -> bool:
    if isinstance(x, ComplexRational):
        return False
    if isinstance(x, complex):
        return x.imag == 0.0
    return True


def re_part(x):
    if isinstance(x, ComplexRational):
        return x.re
    if isinstance(x, complex):
        return x.real
    return x


def im_part(x):
    if isinstance(x, ComplexRational):
        return x.im
    if isinstance(x, complex):
        return x.imag
    return Fraction(0) if is_exact(x) else 0.0


def conj(x):
    if isinstance(x, (ComplexRational, complex)):
        return x.conjugate()
    return x


def abs2(x):
    """Squared modulus, exact for exact inputs."""
    if isinstance(x, ComplexRational):
        return x.abs2()
    if isinstance(x, complex):
        return x.real * x.real + x.imag * x.imag
    return x * x


def scalar_abs(x) -> float:
    """Modulus as a float (lossy for exact inputs, fine for comparisons)."""
    if isinstance(x, ComplexRational):
        return math.hypot(float(x.re), float(x.im))
    if isinstance(x, complex):
        return abs(x)
    return abs(float(x))


def to_float(x):
    """Explicit exact-to-float conversion; floats pass through."""
    if isinstance(x, ComplexRational):
        return complex(x)
    if isinstance(x, complex):
        return x
    return float(x)


def _normalize_one(x):
    """Map numpy scalars and bools onto plain Python scalars."""
    if isinstance(x, bool) or isinstance(x, np.bool_):
        raise TypeError("boolean is not a matrix scalar")
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.floating):
        return float(x)
    if isinstance(x, np.complexfloating):
        return complex(x)
    if isinstance(x, (int, Fraction, float, complex, ComplexRational)):
        return x
    raise TypeError(f"unsupported scalar type: {type(x).__name__}")


def scalar_family(values) -> str:
    """Classify an iterable of scalars as 'int', 'exact', or 'float'.

    'int' means every value is a plain integer and can join either
    backend.  Mixing Fraction/ComplexRational with float/complex raises.
    """
    has_exact = False
    has_float = False
    for v in values:
        v = _normalize_one(v)
        if isinstance(v, (float, complex)):
            has_float = True
        elif isinstance(v, (Fraction, ComplexRational)):
            has_exact = True
    if has_exact and has_float:
        raise TypeError(
            "exact and float scalars mixed; convert explicitly with to_float"
        )
    if has_float:
        return "float"
    if has_exact:
        return "exact"
    return "int"


def coerce_scalars(values, family: str) -> list:
    """Normalize scalars onto one backend ('exact' or 'float')."""
    out = []
    for v in values:
        v = _normalize_one(v)
        if family == "float":
            if isinstance(v, (float, complex)):
                out.append(v)
            elif isinstance(v, int):
                out.append(float(v))
            else:
                raise TypeError(
                    "exact scalar in float context; convert explicitly with to_float"
                )
        else:
            if isinstance(v, int):
                out.append(Fraction(v))
            elif isinstance(v, (Fraction, ComplexRational)):
                out.append(v)
            else:
                raise TypeError("float scalar in exact context")
    return out

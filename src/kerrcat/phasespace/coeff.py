"""Exact coefficients for the phase-space polynomial algebra.

A coefficient is an element of Q(i)[s] / (s^2 - 2*lambda) with rational
lambda > 0, i.e. c = u + v*s where u, v are Gaussian rationals and
s = sqrt(2*lambda).  This ring is closed under the star product, the McCoy
prefactor and the linear substitution between the (a, a*) and (x, p) bases,
so every identity in the module tests exactly.

A :class:`Coeff` holds four integer numerators (re, im, s_re, s_im) over one
shared positive denominator, reduced by a single ``math.gcd`` whenever one is
built, so equal values have equal parts and hash equal.  Products skip the
sqrt(2*lambda) terms when neither factor has any, and real scales skip the
imaginary cross terms.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

__all__ = ["Coeff"]


def _fr(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        return Fraction(x).limit_denominator(10**12)
    return Fraction(x)


class Coeff:
    """c = ((re + i*im) + (s_re + i*s_im) * sqrt(2*lambda)) / den with integer
    parts, den > 0 and gcd(re, im, s_re, s_im, den) = 1; treat as immutable."""

    __slots__ = ("re", "im", "s_re", "s_im", "den")

    def __init__(self, re: int = 0, im: int = 0, s_re: int = 0, s_im: int = 0,
                 den: int = 1):
        g = gcd(re, im, s_re, s_im, den)
        if g != 1:
            re, im, s_re, s_im, den = re // g, im // g, s_re // g, s_im // g, den // g
        self.re, self.im, self.s_re, self.s_im, self.den = re, im, s_re, s_im, den

    @classmethod
    def of(cls, re=0, im=0, s_re=0, s_im=0) -> "Coeff":
        """From rational (or float, to 1e-12) parts re + i*im + (s_re + i*s_im) s."""
        parts = [_fr(re), _fr(im), _fr(s_re), _fr(s_im)]
        den = lcm(*(x.denominator for x in parts))
        return cls(*(x.numerator * (den // x.denominator) for x in parts), den)

    def is_zero(self) -> bool:
        return not (self.re or self.im or self.s_re or self.s_im)

    def __eq__(self, o):
        if not isinstance(o, Coeff):
            return NotImplemented
        return (self.re == o.re and self.im == o.im and self.s_re == o.s_re
                and self.s_im == o.s_im and self.den == o.den)

    def __hash__(self):
        return hash((self.re, self.im, self.s_re, self.s_im, self.den))

    def __repr__(self):
        return (f"Coeff(re={self.re}, im={self.im}, s_re={self.s_re}, "
                f"s_im={self.s_im}, den={self.den})")

    def __add__(self, o: "Coeff") -> "Coeff":
        d, e = self.den, o.den
        if d == e:
            return Coeff(self.re + o.re, self.im + o.im, self.s_re + o.s_re,
                         self.s_im + o.s_im, d)
        return Coeff(self.re * e + o.re * d, self.im * e + o.im * d,
                     self.s_re * e + o.s_re * d, self.s_im * e + o.s_im * d, d * e)

    def __sub__(self, o: "Coeff") -> "Coeff":
        d, e = self.den, o.den
        if d == e:
            return Coeff(self.re - o.re, self.im - o.im, self.s_re - o.s_re,
                         self.s_im - o.s_im, d)
        return Coeff(self.re * e - o.re * d, self.im * e - o.im * d,
                     self.s_re * e - o.s_re * d, self.s_im * e - o.s_im * d, d * e)

    def __neg__(self) -> "Coeff":
        return Coeff(-self.re, -self.im, -self.s_re, -self.s_im, self.den)

    def mul(self, o: "Coeff", two_lam: Fraction) -> "Coeff":
        """Product with s^2 = two_lam (a rational) folded back into the
        rational part."""
        a, b, c, d = self.re, self.im, self.s_re, self.s_im
        e, f, g, h = o.re, o.im, o.s_re, o.s_im
        if not (c or d or g or h):
            return Coeff(a * e - b * f, a * f + b * e, 0, 0, self.den * o.den)
        p, q = two_lam.numerator, two_lam.denominator
        return Coeff(q * (a * e - b * f) + p * (c * g - d * h),
                     q * (a * f + b * e) + p * (c * h + d * g),
                     q * (a * g - b * h + c * e - d * f),
                     q * (a * h + b * g + c * f + d * e), q * self.den * o.den)

    def scale(self, re, im=0) -> "Coeff":
        """Multiply by the Gaussian rational re + i*im."""
        if not im and type(re) is int:
            return Coeff(self.re * re, self.im * re, self.s_re * re, self.s_im * re,
                         self.den)
        re, im = _fr(re), _fr(im)
        x, y, d = re.numerator, im.numerator, re.denominator
        if not y:
            return Coeff(self.re * x, self.im * x, self.s_re * x, self.s_im * x,
                         self.den * d)
        e = im.denominator
        x, y = x * e, y * d
        return Coeff(self.re * x - self.im * y, self.re * y + self.im * x,
                     self.s_re * x - self.s_im * y, self.s_re * y + self.s_im * x,
                     self.den * d * e)

    def conj(self) -> "Coeff":
        return Coeff(self.re, -self.im, self.s_re, -self.s_im, self.den)

    def to_complex(self, lam: float) -> complex:
        s, d = (2.0 * lam) ** 0.5, self.den
        return complex(self.re / d + s * (self.s_re / d), self.im / d + s * (self.s_im / d))

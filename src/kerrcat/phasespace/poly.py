"""Exact polynomial calculus on phase space: star product, Moyal bracket,
McCoy quantization and the invertible Wigner transform of operators.

Polynomials carry a basis tag: ``"a"`` for the complex coordinates (a, a*)
and ``"xp"`` for the quadratures, with [x, p] = i*lambda.  All structure
constants are exact (see :mod:`.coeff`), so the identities tested downstream
hold with zero tolerance.

The star product and the McCoy maps work one monomial pair at a time.  All
order-n terms of a^j1 a*^k1 star a^j2 a*^k2 land on a^(j1+j2-n) a*^(k1+k2-n)
with one integer weight (a signed sum of binomial and falling-factorial
products) times u^n, where u = 1/2 in (a, a*) and i*lambda/2 in (x, p).  The
McCoy maps are exp(c d_0 d_1) with c = 1/2 (quantize), -1/2 (Wigner
transform) or -i*lambda/2 (x-ordered), whose order-r weights are integers
times c^r too.  Both take one coefficient product per monomial pair (or one
coefficient per monomial) and add every weighted term to its output monomial
as integer numerators over one shared denominator; each output coefficient
is reduced once, at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .coeff import Coeff

__all__ = [
    "PhaseSpacePolynomial", "NormalOrderedOperatorPoly",
    "LindbladPhaseSpaceReport",
    "a_var", "astar_var", "x_var", "p_var",
    "star_product", "star_term", "star_commutator", "moyal_bracket",
    "poisson_bracket", "mccoy_quantize", "mccoy_x_ordered_symbol",
    "wigner_transform_operator", "convert_basis",
    "effective_hamiltonian_surface", "kerr_lamb_shift_check",
    "lindblad_phase_space_identity",
]

_ONE_HALF = Fraction(1, 2)


class _Terms:
    """Exact coefficients keyed by the exponent pair (j, k) of the monomial
    ``_names[0]^j * _names[1]^k``, zero terms dropped, at one lambda > 0."""

    __slots__ = ("lam", "terms")

    def __init__(self, terms: dict | None = None, lam=1):
        self.lam = Fraction(lam)
        if self.lam <= 0:
            raise ValueError("lambda must be positive")
        self.terms = {key: c for key, c in (terms or {}).items() if not c.is_zero()}

    def coefficient(self, j: int, k: int) -> Coeff:
        return self.terms.get((j, k), Coeff())

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self._names == other._names and self.lam == other.lam
                and self.terms == other.terms)

    def __repr__(self):
        (x, y), lamf = self._names, float(self.lam)
        bits = [f"({c.to_complex(lamf):.6g})*{x}^{j}*{y}^{k}"
                for (j, k), c in sorted(self.terms.items())]
        return " + ".join(bits) if bits else "0"


class PhaseSpacePolynomial(_Terms):
    """Finite polynomial in two conjugate variables with exact coefficients.

    ``terms`` maps the exponent pair (j, k) to a :class:`Coeff`, where the
    monomial is a^j (a*)^k in the ``"a"`` basis and x^j p^k in ``"xp"``.
    """

    __slots__ = ("basis",)

    def __init__(self, basis: str, terms: dict | None = None, lam=1):
        if basis not in ("a", "xp"):
            raise ValueError(f"unknown basis tag {basis!r}")
        self.basis = basis
        super().__init__(terms, lam)

    @property
    def _names(self):
        return ("a", "a*") if self.basis == "a" else ("x", "p")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def monomial(cls, basis: str, j: int, k: int, coeff=1, lam=1) -> "PhaseSpacePolynomial":
        c = coeff if isinstance(coeff, Coeff) else Coeff.of(coeff)
        return cls(basis, {(j, k): c}, lam)

    @classmethod
    def zero(cls, basis: str, lam=1) -> "PhaseSpacePolynomial":
        return cls(basis, {}, lam)

    # -- ring operations ------------------------------------------------------

    def _check(self, other: "PhaseSpacePolynomial"):
        if self.basis != other.basis or self.lam != other.lam:
            raise ValueError("basis/lambda mismatch between polynomials")

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            terms[key] = terms.get(key, Coeff()) + c
        return PhaseSpacePolynomial(self.basis, terms, self.lam)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __mul__(self, other):
        """Commutative pointwise product: the order-0 star term."""
        return _star_orders(self, other, 0, 0)

    def scale(self, re, im=0):
        return PhaseSpacePolynomial(
            self.basis, {k: c.scale(re, im) for k, c in self.terms.items()}, self.lam)

    def deriv(self, var: int, order: int = 1):
        """Partial derivative: var = 0 for a (or x), 1 for a* (or p)."""
        poly = self
        for _ in range(order):
            terms = {}
            for (j, k), c in poly.terms.items():
                if var == 0 and j > 0:
                    terms[(j - 1, k)] = terms.get((j - 1, k), Coeff()) + c.scale(j)
                elif var == 1 and k > 0:
                    terms[(j, k - 1)] = terms.get((j, k - 1), Coeff()) + c.scale(k)
            poly = PhaseSpacePolynomial(self.basis, terms, self.lam)
        return poly

    def degree(self) -> int:
        return max((j + k for (j, k) in self.terms), default=-1)


def a_var(lam=1):
    return PhaseSpacePolynomial.monomial("a", 1, 0, 1, lam)


def astar_var(lam=1):
    return PhaseSpacePolynomial.monomial("a", 0, 1, 1, lam)


def x_var(lam=1):
    return PhaseSpacePolynomial.monomial("xp", 1, 0, 1, lam)


def p_var(lam=1):
    return PhaseSpacePolynomial.monomial("xp", 0, 1, 1, lam)


# -- star product -------------------------------------------------------------

def _weighted_sum(basis: str, lam: Fraction, mag: Fraction, turns: int,
                  items: list) -> PhaseSpacePolynomial:
    """Sum of c * w_n * (mag * i^turns)^n * monomial (j - n, k - n) over
    ``items`` (c, j, k, n0, ws), where ws lists the integer weights w_n of the
    orders n = n0, n0 + 1, ....

    Every term is added as integer numerators over the one denominator
    lcm(c.den) * mag.denominator^top, so the sums take no gcd; each output
    monomial is reduced once, when its Coeff is built.
    """
    top = max((n0 + len(ws) - 1 for _, _, _, n0, ws in items), default=0)
    p, q = mag.numerator, mag.denominator
    units = []                     # (mag i^turns)^n = u * i^swap / q^top
    for n in range(top + 1):
        u, t = p**n * q**(top - n), turns * n % 4
        units.append((-u if t >= 2 else u, t % 2))
    den = math.lcm(*{c.den for c, *_ in items})
    acc = {}
    for c, j, k, n0, ws in items:
        m = den // c.den
        re, im, s_re, s_im = c.re * m, c.im * m, c.s_re * m, c.s_im * m
        has_s = s_re or s_im
        for n, w in enumerate(ws, n0):
            if not w:
                continue
            u, swap = units[n]
            w *= u
            key = (j - n, k - n)
            a = acc.get(key)
            if a is None:
                a = acc[key] = [0, 0, 0, 0]
            if swap:               # times i: (re, im) -> (-im, re)
                a[0] -= w * im
                a[1] += w * re
                if has_s:
                    a[2] -= w * s_im
                    a[3] += w * s_re
            else:
                a[0] += w * re
                a[1] += w * im
                if has_s:
                    a[2] += w * s_re
                    a[3] += w * s_im
    den *= q**top
    return PhaseSpacePolynomial(basis, {key: Coeff(*a, den) for key, a in acc.items()}, lam)


def _factor_row(x: int, y: int, sign: int) -> list:
    """sign^m C(x, m) P(y, m) for m = 0..min(x, y), P(y, m) = y!/(y - m)!."""
    return [sign**m * math.comb(x, m) * math.perm(y, m) for m in range(min(x, y) + 1)]


def _star_orders(f: PhaseSpacePolynomial, g: PhaseSpacePolynomial,
                 lo: int, hi: int) -> PhaseSpacePolynomial:
    """Star-product terms of orders lo..hi, summed one monomial pair at a time.

    With m derivatives d_0 on f and d_1 on g and k the other way round, the
    order-n weight of a^j1 a*^k1 star a^j2 a*^k2 is u^n times the integer
    sum over m + k = n of C(j1, m) P(k2, m) (-1)^k C(k1, k) P(j2, k).
    """
    f._check(g)
    mag, turns = (_ONE_HALF, 0) if f.basis == "a" else (f.lam * _ONE_HALF, 1)
    two_lam = 2 * f.lam
    lo = max(lo, 0)
    rows_m = {(j1, k2): _factor_row(j1, k2, 1)
              for j1, _ in f.terms for _, k2 in g.terms}
    rows_k = {(k1, j2): _factor_row(k1, j2, -1)
              for _, k1 in f.terms for j2, _ in g.terms}
    items = []
    for (j1, k1), c1 in f.terms.items():
        for (j2, k2), c2 in g.terms.items():
            a, b = rows_m[(j1, k2)], rows_k[(k1, j2)]
            left, right = len(a) - 1, len(b) - 1
            top = min(hi, left + right)
            if top < lo:
                continue
            ws = [sum(a[m] * b[n - m] for m in range(max(0, n - right), min(n, left) + 1))
                  for n in range(lo, top + 1)]
            items.append((c1.mul(c2, two_lam), j1 + j2, k1 + k2, lo, ws))
    return _weighted_sum(f.basis, f.lam, mag, turns, items)


def star_term(f: PhaseSpacePolynomial, g: PhaseSpacePolynomial, n: int) -> PhaseSpacePolynomial:
    """Order-n term u^n/n! sum_k C(n,k) (-1)^k (d_0^(n-k) d_1^k f) (d_1^(n-k) d_0^k g)
    of the Groenewold star product; u = 1/2 in (a, a*) and i*lambda/2 in (x, p).
    Even orders are symmetric under swapping the factors, which is why the
    Moyal bracket keeps only odd derivatives.
    """
    return _star_orders(f, g, n, n)


def star_product(f: PhaseSpacePolynomial, g: PhaseSpacePolynomial) -> PhaseSpacePolynomial:
    """Associative Groenewold star product; exact finite series."""
    return _star_orders(f, g, 0, max(min(f.degree(), g.degree()), 0))


def star_commutator(f, g):
    """f * g - g * f (star commutator); {{a, a*}} = 1 in this normalisation."""
    return star_product(f, g) - star_product(g, f)


def moyal_bracket(f, g):
    """(f*g - g*f) / (i lambda): the bracket that generates Wigner dynamics
    and reduces exactly to the Poisson bracket when either argument is at
    most quadratic."""
    return star_commutator(f, g).scale(0, -1 / f.lam)   # 1/(i lam) = -i/lam


def poisson_bracket(f, g):
    """Classical bracket {f, g} = f_x g_p - f_p g_x: the order-1 star term
    times 2/(i lambda) in either basis."""
    return star_term(f, g, 1).scale(0, -2 / f.lam)


# -- basis conversion ---------------------------------------------------------

def convert_basis(poly: PhaseSpacePolynomial, to: str) -> PhaseSpacePolynomial:
    """Exact linear substitution a = (x + i p)/sqrt(2 lam) and its inverse.

    sqrt(2 lam) lives in the coefficient ring, so odd-degree monomials stay
    exact too.
    """
    if to == poly.basis:
        return poly
    lam = poly.lam
    if to == "a":
        # x = (s/2)(a + a*), p = -i (s/2)(a - a*), s = sqrt(2 lam)
        h = _ONE_HALF
        subs = ({(1, 0): Coeff.of(0, 0, h), (0, 1): Coeff.of(0, 0, h)},
                {(1, 0): Coeff.of(0, 0, 0, -h), (0, 1): Coeff.of(0, 0, 0, h)})
    else:
        # a = (x + i p) s / (2 lam), a* = (x - i p) s / (2 lam)
        h = 1 / (2 * lam)
        subs = ({(1, 0): Coeff.of(0, 0, h), (0, 1): Coeff.of(0, 0, 0, h)},
                {(1, 0): Coeff.of(0, 0, h), (0, 1): Coeff.of(0, 0, 0, -h)})
    first, second = (PhaseSpacePolynomial(to, t, lam) for t in subs)
    out = PhaseSpacePolynomial.zero(to, lam)
    for (j, k), c in poly.terms.items():
        mono = PhaseSpacePolynomial(to, {(0, 0): c}, lam)
        for _ in range(j):
            mono = mono * first
        for _ in range(k):
            mono = mono * second
        out = out + mono
    return out


# -- operator polynomials and McCoy / Wigner maps -----------------------------

class NormalOrderedOperatorPoly(_Terms):
    """Operator polynomial Sum c_{jk} (a^dag)^j a^k (normal order)."""

    __slots__ = ()
    _names = ("ad", "a")

    def is_hermitian(self) -> bool:
        return all(self.coefficient(k, j) == c.conj() for (j, k), c in self.terms.items())

    def to_matrix(self, dim: int):
        """Dense Fock-basis matrix (for cross checks against kerrcat.fock)."""
        import numpy as np
        from ..fock import annihilation
        a = annihilation(dim).astype(complex)
        ad = a.T.conj()
        lamf = float(self.lam)
        out = np.zeros((dim, dim), dtype=complex)
        for (j, k), c in self.terms.items():
            out += c.to_complex(lamf) * (
                np.linalg.matrix_power(ad, j) @ np.linalg.matrix_power(a, k))
        return out


def _swapped(terms: dict) -> dict:
    """Exponents (j, k) -> (k, j): reads a^j (a*)^k as (a^dag)^k a^j and back."""
    return {(k, j): c for (j, k), c in terms.items()}


def _exp_mixed_deriv(poly: PhaseSpacePolynomial, mag: Fraction, turns: int):
    """exp(c d_0 d_1) with c = mag * i^turns on ``poly``; finite sum whose
    order-r weight on a^j a*^k is the integer C(j, r) P(k, r)."""
    items = [(c, j, k, 0, [math.comb(j, r) * math.perm(k, r) for r in range(min(j, k) + 1)])
             for (j, k), c in poly.terms.items()]
    return _weighted_sum(poly.basis, poly.lam, mag, turns, items)


def mccoy_quantize(f: PhaseSpacePolynomial) -> NormalOrderedOperatorPoly:
    """Normal-ordered operator of a Wigner-symbol polynomial.

    Applies exp(+(1/2) d_a d_a*) and reads the result with a* to the left,
    i.e. the coefficient of a^j (a*)^k becomes that of (a^dag)^k a^j.
    """
    g = _exp_mixed_deriv(f if f.basis == "a" else convert_basis(f, "a"), _ONE_HALF, 0)
    return NormalOrderedOperatorPoly(_swapped(g.terms), g.lam)


def mccoy_x_ordered_symbol(f: PhaseSpacePolynomial) -> PhaseSpacePolynomial:
    """Quadrature McCoy prefactor exp(-(i lam / 2) d_x d_p); the result read
    with x to the left gives the x-ordered operator."""
    if f.basis != "xp":
        raise ValueError("x-ordered McCoy acts on the (x, p) basis")
    return _exp_mixed_deriv(f, f.lam * _ONE_HALF, 3)


def wigner_transform_operator(op: NormalOrderedOperatorPoly) -> PhaseSpacePolynomial:
    """Wigner symbol of a normal-ordered operator; exact inverse of
    :func:`mccoy_quantize` (e.g. a^dag a -> a* a - 1/2)."""
    sym = PhaseSpacePolynomial("a", _swapped(op.terms), op.lam)
    return _exp_mixed_deriv(sym, _ONE_HALF, 2)


# -- model-specific constructions ---------------------------------------------

def hamiltonian_operator_poly(delta, kerr, eps2, eps4=0, lam=1) -> NormalOrderedOperatorPoly:
    """Normal-ordered model Hamiltonian as an operator polynomial."""
    terms = {(1, 1): Coeff.of(delta), (2, 2): -Coeff.of(kerr),
             (2, 0): Coeff.of(eps2), (0, 2): Coeff.of(eps2)}
    if eps4:
        terms[(4, 0)] = Coeff.of(eps4)
        terms[(0, 4)] = Coeff.of(eps4)
    return NormalOrderedOperatorPoly(terms, lam)


def effective_hamiltonian_surface(delta, kerr, eps2, eps4=0, lam=1,
                                  classical: bool = False) -> PhaseSpacePolynomial:
    """Quantum metapotential: Wigner symbol of the model Hamiltonian in (x, p).

    With classical=True the star-product (Lamb shift) corrections are dropped,
    leaving the naive symbol delta (x^2+p^2)/(2 lam) - kerr ((x^2+p^2)/(2 lam))^2
    + eps2 (x^2 - p^2)/lam.
    """
    op = hamiltonian_operator_poly(delta, kerr, eps2, eps4, lam)
    if classical:
        sym = PhaseSpacePolynomial("a", _swapped(op.terms), op.lam)
    else:
        sym = wigner_transform_operator(op)
    return convert_basis(sym, "xp")


def kerr_lamb_shift_check(delta, kerr, lam=1) -> NormalOrderedOperatorPoly:
    """Quantize H = delta a*a - kerr a*^2 a^2 (symbol); the oscillator
    frequency comes back renormalised by -2 kerr plus a scalar."""
    sym = (PhaseSpacePolynomial.monomial("a", 1, 1, Coeff.of(delta), lam)
           + PhaseSpacePolynomial.monomial("a", 2, 2, -Coeff.of(kerr), lam))
    return mccoy_quantize(sym)


# -- dissipator identities ----------------------------------------------------

@dataclass
class LindbladPhaseSpaceReport:
    """Symbolic verification that the Wigner transform of the thermal
    dissipator is drift + diffusion with the quoted coefficients."""

    n_th: Fraction
    verified: bool
    drift_coefficient: Fraction            # units of kappa, multiplies (d_x x + d_p p)
    diffusion_coefficient_a: Fraction      # units of kappa, multiplies d^2_{a a*}
    diffusion_coefficient_xp: Fraction     # units of kappa, multiplies (d_x^2 + d_p^2)
    moyal_even_orders_vanish: bool
    residual_terms: int

    def summary(self) -> str:
        ok = "verified" if self.verified else "FAILED"
        return (f"dissipator identity {ok}: drift kappa*{self.drift_coefficient}, "
                f"diffusion kappa*{self.diffusion_coefficient_a} d2/da da* "
                f"= kappa*{self.diffusion_coefficient_xp} (dx^2+dp^2), "
                f"n_th = {self.n_th}; Moyal even orders vanish: "
                f"{self.moyal_even_orders_vanish}")


def _random_poly(basis, lam, degree, rng) -> PhaseSpacePolynomial:
    terms = {}
    for j in range(degree + 1):
        for k in range(degree + 1 - j):
            num = rng.randrange(-6, 7)
            den = rng.randrange(1, 5)
            if num:
                terms[(j, k)] = Coeff.of(Fraction(num, den))
    return PhaseSpacePolynomial(basis, terms, lam)


def lindblad_phase_space_identity(n_th=Fraction(0), w: PhaseSpacePolynomial | None = None,
                                  seed: int = 7, lam=1) -> LindbladPhaseSpaceReport:
    """Check the phase-space form of the thermal photon dissipators.

    Expands a*W*a^*, (a^* a - 1/2)*W, W*(a^* a - 1/2) (and the gain
    counterparts) on a generic polynomial W and verifies, with exact
    coefficients, that the result equals

        (1/2)(d_a(a W) + d_a*(a* W)) + (1/2 + n_th) d^2_{a a*} W

    per unit kappa.  Also certifies that only odd star orders contribute to
    the Moyal bracket with the quartic model Hamiltonian.
    """
    import random
    n_th = Fraction(n_th)
    lam = Fraction(lam)
    if w is None:
        rng = random.Random(seed)
        w = _random_poly("a", lam, 5, rng)
    a = a_var(lam)
    ast = astar_var(lam)
    n_sym_loss = star_product(ast, a)          # a*a - 1/2
    n_sym_gain = star_product(a, ast)          # a*a + 1/2

    def dissipator(jump_left, jump_right, n_sym):
        return star_product(star_product(jump_left, w), jump_right) \
            - (star_product(n_sym, w) + star_product(w, n_sym)).scale(_ONE_HALF)

    lhs = dissipator(a, ast, n_sym_loss).scale(1 + n_th) \
        + dissipator(ast, a, n_sym_gain).scale(n_th)

    drift = (a * w).deriv(0) + (ast * w).deriv(1)
    rhs = drift.scale(_ONE_HALF) + w.deriv(0).deriv(1).scale(_ONE_HALF + n_th)
    diff = lhs - rhs

    h = convert_basis(
        effective_hamiltonian_surface(3, 1, Fraction(1, 2), lam=lam), "a")
    even_ok = all(
        (star_term(h, w, n) - star_term(w, h, n)).is_zero() for n in (0, 2, 4))

    return LindbladPhaseSpaceReport(
        n_th=n_th,
        verified=diff.is_zero(),
        drift_coefficient=_ONE_HALF,
        diffusion_coefficient_a=_ONE_HALF + n_th,
        diffusion_coefficient_xp=_ONE_HALF * (_ONE_HALF + n_th),
        moyal_even_orders_vanish=even_ok,
        residual_terms=len(diff.terms),
    )

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerrcat.phasespace.coeff import Coeff
from kerrcat.phasespace.poly import (NormalOrderedOperatorPoly,
                                     PhaseSpacePolynomial, a_var, astar_var,
                                     convert_basis,
                                     effective_hamiltonian_surface,
                                     hamiltonian_operator_poly,
                                     kerr_lamb_shift_check,
                                     lindblad_phase_space_identity,
                                     mccoy_quantize, mccoy_x_ordered_symbol,
                                     moyal_bracket, p_var, poisson_bracket,
                                     star_commutator, star_product, star_term,
                                     wigner_transform_operator, x_var)
from oracles import (FractionCoeff, exp_mixed_deriv_series,
                     poisson_bracket_reference, star_product_series,
                     star_term_series)

HALF = Fraction(1, 2)


def poly_a(terms, lam=1):
    return PhaseSpacePolynomial("a", {k: Coeff.of(v) for k, v in terms.items()}, lam)


def poly_xp(terms, lam=1):
    return PhaseSpacePolynomial("xp", {k: Coeff.of(v) for k, v in terms.items()}, lam)


def random_poly(basis, rng, degree=4, lam=1):
    terms = {}
    for j in range(degree + 1):
        for k in range(degree + 1 - j):
            num = rng.randrange(-5, 6)
            if num:
                terms[(j, k)] = Coeff.of(Fraction(num, rng.randrange(1, 4)))
    return PhaseSpacePolynomial(basis, terms, lam)


_MONOMIALS = [(j, k) for j in range(5) for k in range(5 - j)]
_FRACTIONS = st.fractions(-3, 3, max_denominator=3)
_GAUSSIAN = st.builds(Coeff.of, _FRACTIONS, _FRACTIONS)
_LAMBDAS = st.sampled_from((1, Fraction(1, 3)))


@st.composite
def exact_polys(draw, basis, lam):
    """Degree <= 4 with Gaussian-rational coefficients plus terms written in
    the other basis, whose odd monomials bring sqrt(2 lam) parts along."""
    def terms():
        return draw(st.dictionaries(st.sampled_from(_MONOMIALS), _GAUSSIAN, max_size=4))
    other = "xp" if basis == "a" else "a"
    return (PhaseSpacePolynomial(basis, terms(), lam)
            + convert_basis(PhaseSpacePolynomial(other, terms(), lam), basis))


# -- the shared term container ------------------------------------------------

def test_polynomial_reprs():
    f = PhaseSpacePolynomial("a", {(1, 1): Coeff.of(HALF), (0, 2): Coeff.of(0, -2),
                                   (1, 0): Coeff.of(0, 0, 1)}, HALF)
    assert repr(f) == "(0-2j)*a^0*a*^2 + (1+0j)*a^1*a*^0 + (0.5+0j)*a^1*a*^1"
    g = PhaseSpacePolynomial("xp", {(2, 0): Coeff.of(1),
                                    (0, 1): Coeff.of(-Fraction(3, 4), 1)}, 2)
    assert repr(g) == "(-0.75+1j)*x^0*p^1 + (1+0j)*x^2*p^0"
    op = NormalOrderedOperatorPoly({(1, 1): Coeff.of(3), (0, 2): Coeff.of(0, Fraction(1, 3))})
    assert repr(op) == "(0+0.333333j)*ad^0*a^2 + (3+0j)*ad^1*a^1"
    assert repr(PhaseSpacePolynomial("xp")) == repr(NormalOrderedOperatorPoly()) == "0"


@pytest.mark.parametrize("make, match", [
    (lambda: PhaseSpacePolynomial("q"), "unknown basis tag"),
    (lambda: PhaseSpacePolynomial("a", lam=0), "lambda must be positive"),
    (lambda: PhaseSpacePolynomial("xp", {(1, 0): Coeff.of(1)}, -1), "lambda must be positive"),
    (lambda: NormalOrderedOperatorPoly(lam=0), "lambda must be positive"),
    (lambda: NormalOrderedOperatorPoly({(1, 1): Coeff.of(1)}, -HALF), "lambda must be positive"),
    (lambda: a_var() + x_var(), "mismatch"),
    (lambda: a_var() + a_var(2), "mismatch"),
    (lambda: mccoy_x_ordered_symbol(a_var()), "x-ordered McCoy"),
], ids=["basis", "psp-lam-0", "psp-lam-neg", "op-lam-0", "op-lam-neg",
        "add-basis", "add-lam", "x-ordered-on-a"])
def test_bad_polynomial_inputs_raise(make, match):
    with pytest.raises(ValueError, match=match):
        make()


def test_term_container_equality():
    terms = {(1, 1): Coeff.of(1), (2, 0): Coeff()}
    assert PhaseSpacePolynomial("a", terms).terms == {(1, 1): Coeff.of(1)}
    assert NormalOrderedOperatorPoly(terms) == NormalOrderedOperatorPoly({(1, 1): Coeff.of(1)})
    assert NormalOrderedOperatorPoly(terms).coefficient(2, 0) == Coeff()
    assert NormalOrderedOperatorPoly(terms) != PhaseSpacePolynomial("a", terms)
    assert PhaseSpacePolynomial("a", terms) != PhaseSpacePolynomial("xp", terms)
    assert PhaseSpacePolynomial("a", terms) != PhaseSpacePolynomial("a", terms, 2)
    assert NormalOrderedOperatorPoly(terms) != NormalOrderedOperatorPoly(terms, HALF)
    assert (Coeff() == 0) is False


def test_hamiltonian_operator_poly_quartic_drive():
    op = hamiltonian_operator_poly(Fraction(3, 2), 1, Fraction(3, 4), eps4=Fraction(1, 5))
    assert op == NormalOrderedOperatorPoly(
        {(1, 1): Coeff.of(Fraction(3, 2)), (2, 2): Coeff.of(-1),
         (2, 0): Coeff.of(Fraction(3, 4)), (0, 2): Coeff.of(Fraction(3, 4)),
         (4, 0): Coeff.of(Fraction(1, 5)), (0, 4): Coeff.of(Fraction(1, 5))})
    assert op.is_hermitian()


# -- Wigner transform table ----------------------------------------------------

def test_astar_star_a():
    assert star_product(astar_var(), a_var()) == poly_a({(1, 1): 1, (0, 0): -HALF})


def test_astar2_star_a2():
    astar2 = poly_a({(0, 2): 1})
    a2 = poly_a({(2, 0): 1})
    expected = poly_a({(2, 2): 1, (1, 1): -2, (0, 0): HALF})
    assert star_product(astar2, a2) == expected


def test_conjugate_star_commutator_is_one():
    assert star_commutator(a_var(), astar_var()) == poly_a({(0, 0): 1})


def test_wigner_transform_table():
    num = NormalOrderedOperatorPoly({(1, 1): Coeff.of(1)})
    assert wigner_transform_operator(num) == poly_a({(1, 1): 1, (0, 0): -HALF})
    kerr = NormalOrderedOperatorPoly({(2, 2): Coeff.of(1)})
    assert wigner_transform_operator(kerr) == poly_a(
        {(2, 2): 1, (1, 1): -2, (0, 0): HALF})
    drive = NormalOrderedOperatorPoly({(2, 0): Coeff.of(1), (0, 2): Coeff.of(1)})
    assert wigner_transform_operator(drive) == poly_a({(0, 2): 1, (2, 0): 1})


# -- Moyal bracket ---------------------------------------------------------------

def test_moyal_self_bracket_vanishes():
    rng = random.Random(1)
    f = random_poly("a", rng)
    assert moyal_bracket(f, f).is_zero()


@pytest.mark.parametrize("lam", [1, Fraction(1, 2), 3])
def test_xp_bracket_normalisation(lam):
    x, p = x_var(lam), p_var(lam)
    # raw star commutator x*p - p*x = i lam
    raw = star_commutator(x, p)
    assert raw == PhaseSpacePolynomial("xp", {(0, 0): Coeff.of(0, lam)}, lam)
    # normalised bracket equals the Poisson bracket {x, p} = 1
    assert moyal_bracket(x, p) == PhaseSpacePolynomial(
        "xp", {(0, 0): Coeff.of(1)}, lam)


def test_quadratic_generators_are_classical():
    rng = random.Random(7)
    quartic = random_poly("xp", rng, degree=4)
    quad = poly_xp({(2, 0): Fraction(2, 3), (1, 1): -1, (0, 2): HALF, (1, 0): 2})
    assert moyal_bracket(quartic, quad) == poisson_bracket(quartic, quad)


def test_moyal_minus_poisson_scales_as_lambda_squared():
    f_terms = {(4, 0): 1, (1, 2): -2}
    g_terms = {(0, 4): 1, (3, 1): 1}
    diffs = {}
    for lam in (1, Fraction(1, 2)):
        f = poly_xp(f_terms, lam)
        g = poly_xp(g_terms, lam)
        diffs[lam] = (moyal_bracket(f, g) - poisson_bracket(f, g)).terms
    # no O(lambda) piece: halving lambda quarters every correction coefficient
    quartered = {k: c.scale(Fraction(1, 4)) for k, c in diffs[1].items()}
    assert quartered == diffs[Fraction(1, 2)]
    assert diffs[1]   # Groenewold: corrections exist at all for quartic pairs


@settings(deadline=None, max_examples=25)
@given(st.data(), st.sampled_from(("a", "xp")), _LAMBDAS)
def test_poisson_bracket_matches_derivative_form(data, basis, lam):
    f = data.draw(exact_polys(basis, lam))
    g = data.draw(exact_polys(basis, lam))
    assert poisson_bracket(f, g) == poisson_bracket_reference(f, g)


def test_groenewold_obstruction_witness():
    f = poly_xp({(3, 0): 1})
    g = poly_xp({(0, 3): 1})
    assert moyal_bracket(f, g) != poisson_bracket(f, g)


def test_star_associativity_exact():
    rng = random.Random(42)
    for basis in ("a", "xp"):
        for lam in (1, Fraction(1, 3)):
            for _ in range(12):
                f = random_poly(basis, rng, 4, lam)
                g = random_poly(basis, rng, 4, lam)
                h = random_poly(basis, rng, 4, lam)
                left = star_product(star_product(f, g), h)
                right = star_product(f, star_product(g, h))
                assert left == right


def test_even_star_orders_are_symmetric():
    rng = random.Random(9)
    f = random_poly("a", rng)
    g = random_poly("a", rng)
    for n in (0, 2, 4):
        assert (star_term(f, g, n) - star_term(g, f, n)).is_zero()


# -- McCoy quantization ----------------------------------------------------------

def test_mccoy_number_example():
    f = poly_a({(1, 1): 1})
    assert mccoy_quantize(f) == NormalOrderedOperatorPoly(
        {(1, 1): Coeff.of(1), (0, 0): Coeff.of(HALF)})


def test_mccoy_kerr_example():
    f = poly_a({(2, 2): 1})
    assert mccoy_quantize(f) == NormalOrderedOperatorPoly(
        {(2, 2): Coeff.of(1), (1, 1): Coeff.of(2), (0, 0): Coeff.of(HALF)})


@pytest.mark.parametrize("lam", [1, Fraction(2, 5)])
def test_mccoy_quadrature_example(lam):
    f = PhaseSpacePolynomial("xp", {(1, 1): Coeff.of(1)}, lam)
    expected = PhaseSpacePolynomial(
        "xp", {(1, 1): Coeff.of(1), (0, 0): Coeff.of(0, -Fraction(lam) / 2)}, lam)
    assert mccoy_x_ordered_symbol(f) == expected


def test_mccoy_wigner_round_trip():
    rng = random.Random(1234)
    for _ in range(50):
        terms = {}
        for j in range(4):
            for k in range(4):
                num = rng.randrange(-4, 5)
                if num:
                    terms[(j, k)] = Coeff.of(Fraction(num, rng.randrange(1, 3)),
                                             Fraction(rng.randrange(-2, 3)))
        op = NormalOrderedOperatorPoly(terms)
        assert mccoy_quantize(wigner_transform_operator(op)) == op
    sym = random_poly("a", rng)
    assert wigner_transform_operator(mccoy_quantize(sym)) == sym


def test_hermiticity_check():
    herm = NormalOrderedOperatorPoly({(2, 0): Coeff.of(0, 1), (0, 2): Coeff.of(0, -1)})
    assert herm.is_hermitian()
    not_herm = NormalOrderedOperatorPoly({(2, 0): Coeff.of(1)})
    assert not not_herm.is_hermitian()


def test_operator_poly_matrix_agrees_with_fock():
    from kerrcat.fock import HamiltonianParams, build_hamiltonian
    op = hamiltonian_operator_poly(Fraction(3, 2), 1, Fraction(3, 4))
    h = op.to_matrix(20)
    ref = build_hamiltonian(HamiltonianParams(delta=1.5, eps2=0.75, dim=20))
    assert np.abs(h - ref).max() < 1e-12


# -- Kerr Lamb shift and metapotential -------------------------------------------

def test_kerr_lamb_shift():
    op = kerr_lamb_shift_check(0, 1)
    assert op.coefficient(1, 1) == Coeff.of(-2)
    op2 = kerr_lamb_shift_check(2, 1)
    assert op2.coefficient(1, 1) == Coeff.of(0)
    assert op2.coefficient(2, 2) == Coeff.of(-1)
    # scalar term present: (delta - kerr)/2
    assert op.coefficient(0, 0) == Coeff.of(-HALF)


def test_effective_surface_coefficients():
    delta, kerr, eps2 = Fraction(3), Fraction(1), Fraction(2)
    lam = Fraction(1)
    h = effective_hamiltonian_surface(delta, kerr, eps2, lam=lam)
    # (delta + 2 kerr)(x^2+p^2)/(2 lam) - kerr ((x^2+p^2)/(2 lam))^2
    #   + eps2 (x^2 - p^2)/lam + const
    assert h.coefficient(4, 0) == Coeff.of(-Fraction(1, 4))
    assert h.coefficient(2, 2) == Coeff.of(-Fraction(1, 2))
    assert h.coefficient(0, 4) == Coeff.of(-Fraction(1, 4))
    assert h.coefficient(2, 0) == Coeff.of(Fraction(delta + 2, 2) + eps2)
    assert h.coefficient(0, 2) == Coeff.of(Fraction(delta + 2, 2) - eps2)
    classical = effective_hamiltonian_surface(delta, kerr, eps2, lam=lam,
                                              classical=True)
    assert classical.coefficient(2, 0) == Coeff.of(Fraction(delta, 2) + eps2)
    assert classical.coefficient(0, 0) == Coeff.of(0)


def test_effective_surface_classical_scale_coefficients():
    # lam = kerr / (2 eps2); after rescaling by -lam^2/kerr the x^2/2
    # coefficient is -(1 + delta/(2 eps2) + 2 lam)
    delta, kerr, eps2 = Fraction(5), Fraction(1), Fraction(2)
    lam = kerr / (2 * eps2)
    h = effective_hamiltonian_surface(delta, kerr, eps2, lam=lam)
    scaled = h.scale(-lam * lam / kerr)
    mu = delta / (2 * eps2)
    assert scaled.coefficient(2, 0) == Coeff.of(-(1 + mu + 2 * lam) * HALF)
    assert scaled.coefficient(0, 2) == Coeff.of((1 - mu - 2 * lam) * HALF)
    assert scaled.coefficient(4, 0) == Coeff.of(Fraction(1, 4))
    # dropping the 2 lam (Lamb) pieces reproduces the classical-limit surface
    classical = effective_hamiltonian_surface(delta, kerr, eps2, lam=lam,
                                              classical=True).scale(-lam * lam / kerr)
    assert classical.coefficient(2, 0) == Coeff.of(-(1 + mu) * HALF)
    assert classical.coefficient(0, 2) == Coeff.of((1 - mu) * HALF)


def test_surface_matches_wigner_transformed_operator():
    op = hamiltonian_operator_poly(Fraction(3), 1, Fraction(2))
    via_op = convert_basis(wigner_transform_operator(op), "xp")
    direct = effective_hamiltonian_surface(Fraction(3), 1, Fraction(2))
    assert via_op == direct


# -- basis conversion -------------------------------------------------------------

@pytest.mark.parametrize("lam", [1, Fraction(3, 7)])
def test_basis_conversion_round_trip(lam):
    rng = random.Random(77)
    for basis in ("a", "xp"):
        f = random_poly(basis, rng, 4, lam)
        other = "xp" if basis == "a" else "a"
        assert convert_basis(convert_basis(f, other), basis) == f


def test_conversion_x_squared_plus_p_squared():
    lam = Fraction(1, 2)
    f = PhaseSpacePolynomial(
        "xp", {(2, 0): Coeff.of(1), (0, 2): Coeff.of(1)}, lam)
    g = convert_basis(f, "a")
    assert g == PhaseSpacePolynomial("a", {(1, 1): Coeff.of(2 * lam)}, lam)


def test_conversion_handles_odd_monomials_exactly():
    # x -> sqrt(lam/2)(a + a*): the surd lives in the coefficient ring
    f = x_var(lam=Fraction(1, 2))
    g = convert_basis(f, "a")
    expected = Coeff.of(0, 0, HALF, 0)    # (1/2) sqrt(2 lam) = sqrt(lam/2)
    assert g.coefficient(1, 0) == expected
    assert g.coefficient(0, 1) == expected
    assert convert_basis(g, "xp") == f


# -- dissipator identity -----------------------------------------------------------

@pytest.mark.parametrize("nth", [Fraction(0), Fraction(1, 20), Fraction(3, 10)])
def test_lindblad_dissipator_identity(nth):
    rep = lindblad_phase_space_identity(nth)
    assert rep.verified
    assert rep.residual_terms == 0
    assert rep.drift_coefficient == HALF
    assert rep.diffusion_coefficient_a == HALF + nth
    assert rep.diffusion_coefficient_xp == HALF * (HALF + nth)
    assert rep.moyal_even_orders_vanish


def test_lindblad_identity_zero_temperature_diffusion():
    rep = lindblad_phase_space_identity(0)
    # kappa/4 quantum diffusion per (dx^2 + dp^2) at zero temperature
    assert rep.diffusion_coefficient_xp == Fraction(1, 4)
    assert "verified" in rep.summary()


# -- integral of the star product ---------------------------------------------------

def _gauss_moment(j):
    # Int x^j exp(-x^2/2) dx
    if j % 2:
        return 0.0
    val = np.sqrt(2 * np.pi)
    for k in range(1, j, 2):
        val *= k
    return val


def _weighted_integral(poly):
    """Int poly(x, p) exp(-(x^2+p^2)/2) dx dp with exact Gaussian moments."""
    lamf = float(poly.lam)
    return sum(c.to_complex(lamf) * _gauss_moment(j) * _gauss_moment(k)
               for (j, k), c in poly.terms.items())


def _weighted_deriv(poly, var):
    """d/dvar of (poly * gaussian weight), expressed as poly * same weight."""
    mono = x_var(poly.lam) if var == 0 else p_var(poly.lam)
    if poly.basis != "xp":
        raise ValueError
    return poly.deriv(var) - mono * poly


def test_integral_of_star_equals_integral_of_product():
    # Int (F * G_w) = Int (F G_w) where G_w carries a Gaussian weight; the
    # star series terminates at deg F and the weighted derivatives of G_w
    # stay polynomial-times-weight
    rng = random.Random(2024)
    f = random_poly("xp", rng, 3)
    g = random_poly("xp", rng, 3)

    import math
    total = 0.0 + 0j
    for n in range(f.degree() + 1):
        for k in range(n + 1):
            df = f.deriv(0, n - k).deriv(1, k)
            dg = g
            for _ in range(n - k):
                dg = _weighted_deriv(dg, 1)
            for _ in range(k):
                dg = _weighted_deriv(dg, 0)
            sign = (-1) ** k
            pref = (1j * float(f.lam) / 2) ** n / math.factorial(n) \
                * math.comb(n, k) * sign
            total += pref * _weighted_integral(df * dg)
    plain = _weighted_integral(f * g)
    assert abs(total - plain) < 1e-6 * max(1.0, abs(plain))


# -- independent series oracles ----------------------------------------------------

@settings(deadline=None, max_examples=25)
@given(st.data(), st.sampled_from(("a", "xp")), _LAMBDAS)
def test_star_matches_bidifferential_series(data, basis, lam):
    f = data.draw(exact_polys(basis, lam))
    g = data.draw(exact_polys(basis, lam))
    for n in range(5):
        assert star_term(f, g, n) == star_term_series(f, g, n)
    assert star_product(f, g) == star_product_series(f, g)


@settings(deadline=None, max_examples=25)
@given(st.data(), _LAMBDAS)
def test_mccoy_maps_match_exp_series(data, lam):
    f = data.draw(exact_polys("xp", lam))
    fa = convert_basis(f, "a")

    def read_normal_ordered(sym):     # a^j (a*)^k -> (a^dag)^k a^j
        return NormalOrderedOperatorPoly({(k, j): c for (j, k), c in sym.terms.items()}, lam)
    expected = read_normal_ordered(exp_mixed_deriv_series(fa, HALF))
    assert mccoy_quantize(f) == mccoy_quantize(fa) == expected
    assert wigner_transform_operator(read_normal_ordered(fa)) == exp_mixed_deriv_series(fa, -HALF)
    assert mccoy_x_ordered_symbol(f) == exp_mixed_deriv_series(f, 0, -Fraction(lam) / 2)


# -- integer-numerator coefficients against the Fraction oracle ----------------------

_PART = st.one_of(st.just(0), st.fractions(-7, 7, max_denominator=6))
_PARTS = st.tuples(_PART, _PART, _PART, _PART)


def _same(c: Coeff, o: FractionCoeff) -> bool:
    """Equal part for part, and in lowest terms over a positive denominator."""
    return (c.den > 0 and math.gcd(c.re, c.im, c.s_re, c.s_im, c.den) == 1
            and (Fraction(c.re, c.den), Fraction(c.im, c.den), Fraction(c.s_re, c.den),
                 Fraction(c.s_im, c.den)) == (o.ur, o.ui, o.vr, o.vi))


@settings(deadline=None, max_examples=200)
@given(_PARTS, _PARTS, st.sampled_from((1, Fraction(1, 3), Fraction(2, 5))),
       st.integers(-6, 6), st.fractions(-3, 3, max_denominator=5),
       st.fractions(-3, 3, max_denominator=5),
       st.floats(-4, 4, allow_nan=False, allow_infinity=False))
def test_coeff_matches_fraction_oracle(p1, p2, lam, k, re, im, x):
    c, d = Coeff.of(*p1), Coeff.of(*p2)
    oc, od = FractionCoeff.of(*p1), FractionCoeff.of(*p2)
    assert _same(c, oc) and _same(d, od)
    assert _same(c + d, oc + od) and _same(c - d, oc - od) and _same(-c, -oc)
    assert _same(c.mul(d, 2 * lam), oc.mul(od, 2 * lam))
    assert _same(c.scale(k), oc.scale(k))
    assert _same(c.scale(re, im), oc.scale(re, im))
    assert _same(c.scale(x), oc.scale(x))
    assert _same(Coeff.of(x, -x, x / 3), FractionCoeff.of(x, -x, x / 3))
    assert _same(c.conj(), oc.conj())
    assert c.is_zero() == oc.is_zero()
    assert (c - c).is_zero() and (c - c) == Coeff()
    assert c.to_complex(float(lam)) == oc.to_complex(float(lam))
    # equal values built two ways compare and hash equal
    for one, other in ((c.mul(d, 2 * lam), d.mul(c, 2 * lam)), ((c + d) - d, c),
                       (c.scale(re).scale(2), c.scale(2 * re))):
        assert one == other and hash(one) == hash(other)


def test_coeff_equal_values_hash_equal():
    half = Coeff.of(Fraction(2, 4))
    assert half == Coeff.of(Fraction(1, 2)) == Coeff(1, 0, 0, 0, 2) == Coeff(3, 0, 0, 0, 6)
    assert hash(half) == hash(Coeff.of(Fraction(1, 2)))
    assert {half: 1}[Coeff.of(1).scale(Fraction(1, 2))] == 1
    assert Coeff.of(0, 0, Fraction(-4, 6)) == Coeff(0, 0, -2, 0, 3)
    assert Coeff(0, 0, 0, 0, 7) == Coeff() and Coeff().den == 1

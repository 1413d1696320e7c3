"""Independent numerical oracles used to cross-check package results.

These deliberately avoid the code paths they verify: eigenvalues via cyclic
Jacobi rotations or characteristic-polynomial companion roots instead of
LAPACK, Wigner values via the position-basis quadrature integral instead of
displaced parity, or via the literal displaced parity operator with a matrix
exponential instead of the Laguerre recurrence, separatrix areas via adaptive quadrature instead of the
closed forms, and the exact phase-space algebra as the literal
bidifferential series built from polynomial derivatives and pointwise
products instead of the per-monomial-pair kernel (the Poisson bracket, the
order-1 star term, against its first-derivative form).  The Liouvillian is
written with dense ``np.kron`` instead of the sparse builder, in the
same order of operations, so the two agree bit for bit; at sizes where a
dense one is too big, as the whole ``scipy.sparse.kron`` operator with the
parity sector cut from it, the builder's earlier form.
Opposite-parity pairs come from a greedy search over the parity sequence
instead of indexing the even and odd states.  The Wigner grid kernel is
checked byte for byte against its earlier form, which runs the Laguerre
recurrence over every grid point with a complex accumulator.  The exact
coefficient ring is checked part for part against its earlier form with four
``Fraction`` parts.  The closed-ramp Magnus stepper, which diagonalises the
exponents of many steps at once by parity block, is checked against its
earlier form: one dense ``eigh`` of the whole H per exponential.  The T_X
solve, one LU with a minimum-degree ordering and a relaxed pivot threshold
under an 8-vector Krylov space, is checked against its earlier form:
``eigs`` factorises the odd sector itself (COLAMD, partial pivoting) and
runs ARPACK's default 20 vectors, on the sector cut from the sparse
``kron`` operator.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln

from kerrcat.dynamics import _jumps
from kerrcat.fock import (annihilation, build_hamiltonian,
                          displacement_operator, parity_operator)


def jacobi_eigenvalues(mat, tol=1e-14, max_sweeps=60):
    """Cyclic Jacobi rotation eigensolver for real symmetric matrices."""
    a = np.array(mat, dtype=float)
    n = a.shape[0]
    assert np.allclose(a, a.T)
    for _ in range(max_sweeps):
        off = np.sqrt((np.tril(a, -1) ** 2).sum())
        if off < tol * max(1.0, np.abs(a).max()):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) < 1e-300:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                if theta >= 0:
                    t = 1.0 / (theta + np.sqrt(theta * theta + 1.0))
                else:
                    t = -1.0 / (-theta + np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot_p = a[:, p].copy()
                rot_q = a[:, q].copy()
                a[:, p] = c * rot_p - s * rot_q
                a[:, q] = s * rot_p + c * rot_q
                rot_p = a[p, :].copy()
                rot_q = a[q, :].copy()
                a[p, :] = c * rot_p - s * rot_q
                a[q, :] = s * rot_p + c * rot_q
    return np.sort(np.diag(a))


def charpoly_roots(mat):
    """Eigenvalues via Faddeev-LeVerrier coefficients + companion-matrix roots."""
    a = np.array(mat, dtype=complex)
    n = a.shape[0]
    coeffs = [1.0 + 0j]
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(a @ m) / k)
    return np.sort(np.roots(np.array(coeffs)).real)


def hermite_functions(dim, xs):
    """Harmonic-oscillator eigenfunctions for x = (a + a^dag)/sqrt(2)."""
    xs = np.asarray(xs, dtype=float)
    out = np.zeros((dim, len(xs)))
    out[0] = np.pi ** -0.25 * np.exp(-xs**2 / 2)
    if dim > 1:
        out[1] = np.sqrt(2.0) * xs * out[0]
    for n in range(2, dim):
        out[n] = np.sqrt(2.0 / n) * xs * out[n - 1] - np.sqrt((n - 1) / n) * out[n - 2]
    return out


def wigner_q_integral(state, x, p, qmax=25.0, nq=6001):
    """W(x,p) = (1/2pi) Int dq e^{-iqp} psi(x+q/2) psi*(x-q/2)."""
    state = np.asarray(state)
    dim = len(state)
    q = np.linspace(-qmax, qmax, nq)
    psi_plus = state @ hermite_functions(dim, x + q / 2)
    psi_minus = state @ hermite_functions(dim, x - q / 2)
    integrand = psi_plus * np.conj(psi_minus) * np.exp(-1j * q * p)
    return float(np.real(np.trapezoid(integrand, q))) / (2 * np.pi)


def separatrix_area_quadrature(delta, eps2, kerr=1.0):
    """Lobe area by adaptive quadrature of the polar separatrix integrands."""
    if delta < -2 * eps2 or eps2 == 0:
        return 0.0
    if delta < 2 * eps2:
        theta_c = 0.5 * np.arccos(-delta / (2 * eps2))
        val, err = quad(
            lambda th: 2 * delta / kerr + 4 * eps2 / kerr * np.cos(2 * th),
            0.0, theta_c, epsabs=1e-12, epsrel=1e-12)
        return val
    val, err = quad(
        lambda th: (4 * eps2 / kerr) * np.cos(th)
        * np.sqrt(max(delta / (2 * eps2) - np.sin(th) ** 2, 0.0)),
        -np.pi / 2, np.pi / 2, epsabs=1e-12, epsrel=1e-12)
    return val


def newton_critical_point(delta, eps2, kerr, x0, p0, metapotential, steps=60):
    """2D Newton iteration on the gradient of the metapotential surface."""
    z = np.array([x0, p0], dtype=float)
    h = 1e-6
    for _ in range(steps):
        def grad(pt):
            gx = (metapotential(pt[0] + h, pt[1], delta, eps2, kerr)
                  - metapotential(pt[0] - h, pt[1], delta, eps2, kerr)) / (2 * h)
            gp = (metapotential(pt[0], pt[1] + h, delta, eps2, kerr)
                  - metapotential(pt[0], pt[1] - h, delta, eps2, kerr)) / (2 * h)
            return np.array([gx, gp])
        g = grad(z)
        hess = np.zeros((2, 2))
        for j, dz in enumerate(np.eye(2) * h):
            hess[:, j] = (grad(z + dz) - grad(z - dz)) / (2 * h)
        step = np.linalg.solve(hess, g)
        z = z - step
        if np.linalg.norm(step) < 1e-12:
            break
    return z


def star_term_series(f, g, n):
    """u^n/n! sum_k C(n,k) (-1)^k (d_0^(n-k) d_1^k f)(d_1^(n-k) d_0^k g), with
    u = 1/2 in (a, a*) and i lambda/2 in (x, p), from derivative polynomials."""
    out = f.scale(0)
    for k in range(n + 1):
        term = f.deriv(0, n - k).deriv(1, k) * g.deriv(1, n - k).deriv(0, k)
        out = out + term.scale(Fraction((-1) ** k * math.comb(n, k), math.factorial(n)))
    for _ in range(n):
        out = out.scale(Fraction(1, 2)) if f.basis == "a" else out.scale(0, f.lam / 2)
    return out


def poisson_bracket_reference(f, g):
    """{f, g} = f_x g_p - f_p g_x from derivative polynomials; in (a, a*)
    it reads (f_a g_a* - f_a* g_a) / (i lambda)."""
    raw = f.deriv(0) * g.deriv(1) - f.deriv(1) * g.deriv(0)
    return raw if f.basis == "xp" else raw.scale(0, -1 / f.lam)


def star_product_series(f, g):
    """Every order up to deg f + deg g, past which all derivatives vanish."""
    out = f.scale(0)
    for n in range(f.degree() + g.degree() + 1):
        out = out + star_term_series(f, g, n)
    return out


def exp_mixed_deriv_series(f, re, im=0):
    """exp(c d_0 d_1) f = sum_r c^r / r! (d_0 d_1)^r f with c = re + i im."""
    out, term, r = f.scale(0), f, 0
    while not term.is_zero():
        out = out + term
        r += 1
        term = term.deriv(0).deriv(1).scale(re, im).scale(Fraction(1, r))
    return out


def kron_liouvillian(h, a_r, kappa, n_th):
    """Thermal Liouvillian in the basis where H is the matrix ``h`` and the
    annihilator is ``a_r``, acting on row-major flattened rho, written with
    ``np.kron``."""
    eye = np.eye(len(h))
    liou = (-1j * (np.kron(h, eye) - np.kron(eye, h.T))).astype(complex)
    for rate, op in ((kappa * (1 + n_th), a_r), (kappa * n_th, a_r.conj().T)):
        if rate > 0:
            od_o = op.conj().T @ op
            liou += rate * (np.kron(op, op.conj())
                            - 0.5 * np.kron(od_o, eye)
                            - 0.5 * np.kron(eye, od_o.T))
    return liou


def sector_reference(h, a, cfg, par=None, odd=True):
    """The CSR Liouvillian in the basis where H is ``h`` and the loss jump is
    ``a``, as eight ``scipy.sparse.kron`` products over all index pairs,
    then cut to the pairs (i, j) with parities ``par`` opposite (``odd``) or
    equal; the whole operator when ``par`` is None."""
    import scipy.sparse as sp

    eye = sp.identity(len(h), format="csr")

    def kron(x, y):
        return sp.kron(x, y, format="csr")

    liou = -1j * (kron(h, eye) - kron(eye, h.T))
    for rate, op in _jumps(cfg, a):
        od_o = op.conj().T @ op
        liou = liou + rate * (kron(op, op.conj())
                              - 0.5 * kron(od_o, eye)
                              - 0.5 * kron(eye, od_o.T))
    if par is None:
        return liou
    index = np.flatnonzero((par[:, None] != par[None, :]) == odd)
    return liou[index][:, index]


def odd_sector_tx_reference(cfg, dim):
    """T_X = -1 / Re lambda_1 of the Fock-basis sector m + n odd at ``dim``,
    from ``eigs(k=1, sigma=0)`` with its own factor and default ``ncv``."""
    from scipy.sparse.linalg import eigs

    h = build_hamiltonian(cfg.params.with_(dim=dim))
    block = sector_reference(h, annihilation(dim), cfg,
                             np.arange(dim) % 2).tocsc()
    lam = eigs(block, k=1, sigma=0, v0=np.ones(block.shape[0]),
               return_eigenvectors=False)[0]
    return -1.0 / lam.real


def greedy_pairing(parities, n_pairs):
    """Descending greedy pairing of opposite-parity states: each unused index
    i is paired with the next unused index j > i of the other parity."""
    dim = len(parities)
    used = set()
    pairs = []
    i = 0
    while len(pairs) < n_pairs and i < dim - 1:
        if i in used:
            i += 1
            continue
        j = i + 1
        while j in used or (j < dim and parities[j] == parities[i]):
            j += 1
            if j >= dim:
                return pairs
        pairs.append((i, j))
        used.update((i, j))
        i += 1
    return pairs


def displaced_parity_point(state, x, p):
    """Literal (1/pi) <psi| D(alpha) Pi D(alpha)^dag |psi> at one point,
    alpha = (x + i p)/sqrt(2), with D(alpha) from a matrix exponential."""
    state = np.asarray(state, dtype=complex)
    dim = len(state)
    alpha = (x + 1j * p) / np.sqrt(2.0)
    d_op = displacement_operator(alpha, dim)
    pi_op = parity_operator(dim)
    val = state.conj() @ (d_op @ (pi_op @ (d_op.conj().T @ state)))
    return float(np.real(val)) / np.pi


def dense_cf4_step(h_at):
    """The fourth-order commutator-free Magnus step of a closed ramp with one
    dense ``eigh`` of the whole dim x dim exponent per exponential, as a
    sample-interval kernel of ``dynamics._run``: steps k ... k + per - 1,
    step k + j starting at (k + j) dt."""
    s3 = np.sqrt(3.0)
    nodes = (0.5 - s3 / 6.0, 0.5 + s3 / 6.0)
    a, b = (3.0 - 2.0 * s3) / 12.0, (3.0 + 2.0 * s3) / 12.0

    def step(state, k, dt, per):
        for j in range(per):
            t = (k + j) * dt
            h1, h2 = (h_at(t + c * dt) for c in nodes)
            for h in (b * h1 + a * h2, a * h1 + b * h2):
                w, v = np.linalg.eigh(h)
                u = (v * np.exp(-1j * dt * w)) @ v.conj().T
                state = u @ state if state.ndim == 1 else u @ state @ u.conj().T
        return state
    return step


def wigner_laguerre_reference(state, xg, pg):
    """(1/pi) <psi| D(2 alpha) Pi |psi> on the grid xg x pg, with the
    Laguerre recurrence of every Fock-index offset d run over the whole grid
    arrays and a complex accumulator."""
    dim = len(state)
    psi = state.astype(complex)
    Xm, Pm = np.meshgrid(xg, pg, indexing="ij")
    u = 2.0 * (Xm**2 + Pm**2)
    phi = np.arctan2(Pm, Xm)
    sgn = (-1.0) ** np.arange(dim)
    out = np.zeros_like(u)
    logu = np.log(u, out=np.full_like(u, -np.inf), where=u > 0)
    for d in range(dim):
        cvec = np.conj(psi[d:]) * psi[:dim - d] * sgn[:dim - d]
        if np.max(np.abs(cvec)) < 1e-18:
            continue
        g_prev = 0.0
        g = np.exp(-u / 2 + (0.5 * d * logu if d else 0.0) - 0.5 * gammaln(d + 1))
        acc = cvec[0] * g
        for m in range(1, dim - d):
            g_prev, g = g, ((2 * m - 1 + d - u) * g
                            - np.sqrt((m - 1) * (m + d - 1)) * g_prev) \
                / np.sqrt(m * (m + d))
            acc = acc + cvec[m] * g
        out += (2.0 if d else 1.0) * np.real(acc * np.exp(1j * d * phi))
    return out / np.pi


def _fr(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        return Fraction(x).limit_denominator(10**12)
    return Fraction(x)


@dataclass(frozen=True)
class FractionCoeff:
    """c = (ur + i*ui) + (vr + i*vi) * sqrt(2*lambda), four ``Fraction`` parts,
    with the full Q(i)[sqrt(2 lambda)] arithmetic in every operation."""

    ur: Fraction = Fraction(0)
    ui: Fraction = Fraction(0)
    vr: Fraction = Fraction(0)
    vi: Fraction = Fraction(0)

    @classmethod
    def of(cls, re=0, im=0, s_re=0, s_im=0) -> "FractionCoeff":
        return cls(_fr(re), _fr(im), _fr(s_re), _fr(s_im))

    def is_zero(self) -> bool:
        return not (self.ur or self.ui or self.vr or self.vi)

    def __add__(self, o):
        return FractionCoeff(self.ur + o.ur, self.ui + o.ui, self.vr + o.vr, self.vi + o.vi)

    def __sub__(self, o):
        return FractionCoeff(self.ur - o.ur, self.ui - o.ui, self.vr - o.vr, self.vi - o.vi)

    def __neg__(self):
        return FractionCoeff(-self.ur, -self.ui, -self.vr, -self.vi)

    def mul(self, o, two_lam: Fraction):
        ur = self.ur * o.ur - self.ui * o.ui + two_lam * (self.vr * o.vr - self.vi * o.vi)
        ui = self.ur * o.ui + self.ui * o.ur + two_lam * (self.vr * o.vi + self.vi * o.vr)
        vr = self.ur * o.vr - self.ui * o.vi + self.vr * o.ur - self.vi * o.ui
        vi = self.ur * o.vi + self.ui * o.vr + self.vr * o.ui + self.vi * o.ur
        return FractionCoeff(ur, ui, vr, vi)

    def scale(self, re, im=0):
        re, im = _fr(re), _fr(im)
        return FractionCoeff(self.ur * re - self.ui * im, self.ur * im + self.ui * re,
                             self.vr * re - self.vi * im, self.vr * im + self.vi * re)

    def conj(self):
        return FractionCoeff(self.ur, -self.ui, self.vr, -self.vi)

    def to_complex(self, lam: float) -> complex:
        s = (2.0 * lam) ** 0.5
        return complex(self.ur + s * self.vr, self.ui + s * self.vi)

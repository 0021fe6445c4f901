"""Momentum-space engine: coin spectra, basis sums, and asymptotic moments.

All integrals are over k in [-pi, pi] with measure dk/2pi.

A coin is a name or any unitary 2x2 matrix, read by `core.unitary_coin` and
sampled as given; only the closed forms need a named coin (`coin_tag`).

Every initial profile enters only through its lattice weights w_j
(`lattice.profile_weights`): the k-space amplitudes are g(k) * spin with the
envelope g(k) = sum_j w_j e^{-ikj}, the exact discrete-time Fourier transform
of the state the lattice walk starts from.

The walk is linear in the initial spin, so the moments A, B of every spin are
one quadratic form (`core.spin_moments`) in its amplitudes, with seven
coefficients: the basis sums auu, aud, add, buu, bud, bdu, bdd of the walks
from spin up and spin down.  With the eigenpairs (lambda_pm, Phi_pm) of the
k-space step operator U_k, each sum is the integral of |g|^2 times K_i(k), a
product of two entries of U_k^t = sum_pm lambda_pm^t |Phi_pm><Phi_pm| that
does not depend on the profile.

Since |g|^2 = sum_n r(n) e^{-ikn}, with r(n) = sum_j w_{j+n} w_j the
autocorrelation of the weights, each sum is the finite dot product
sum_n r(n) C_i(n) with the Fourier coefficients C_i(n) of K_i
(`lattice.table_sums`), tabulated once per (coin, t) by one FFT
(`_coefficients`).  At time t, K_i is a trigonometric polynomial of degree
<= 2t, so a table on more than 4t nodes is exact: the lattice's table from
the Local walk (`lattice._local_table`).  The time averages
(`_asymptotic_kernels`) drop the oscillating cross terms between the two
branches, and their coefficients are a closed form with one pole per coin
(`_averaged_rows`): past lag +-2, each row is one geometric series.

The closed form is the time-averaged map in Bloch form (`core.delta_form`):
delta = n^T G(f) n with G(f) = (1/2)(1 - 4f)^2 u u^T + (4f)^2 v v^T, one pair
of axes (u, v) per named coin (`_CLOSED_AXES`) and one scalar f
(`extract_f`).  Its ten coefficients (`_closed_form`) are read by the same
`core.delta_at` as every sweep's.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .core import (
    BASIS_SUMS,
    CLAMP_TOL,
    COINS,
    UNIT_TOL,
    BlochAngles,
    CoinMoments,
    CoinOperator,
    Spinor,
    _gram_form,
    as_positive,
    as_time,
    check_angles,
    delta_at,
    delta_from_moments,
    require_normalized,
    spin_moments,
    unitary_coin,
)
from .errors import CapacityError, DomainError, NumericalError
from .lattice import _AMPLITUDE_FLOOR, InitialProfile, _autocorrelation, profile_weights, table_sums

SQRT2 = math.sqrt(2.0)


def coin_tag(coin) -> str:
    """The name in `core.COINS` of the coin (read by `core.unitary_coin`) whose
    every entry lies within UNIT_TOL of its own, for the named coins' formulas."""
    m = unitary_coin(coin)
    for name, named in COINS.items():
        if m is named or np.max(np.abs(m - named)) <= UNIT_TOL:  # a name is its matrix
            return name
    raise DomainError(f"this formula exists only for the coins {', '.join(COINS)} to {UNIT_TOL}")


def _nodes(n: int) -> NDArray[np.float64]:
    return -math.pi + (2.0 * math.pi / n) * np.arange(n)


def _spectrum_at(c: CoinOperator, k: NDArray[np.float64]):
    """Eigenvalues (n, 2) and orthonormal eigenvector columns (n, 2, 2) of the
    unitary U_k = S_k (C x 1).  The first column is eig's; the second is its
    orthogonal complement (-conj Phi_+[1], conj Phi_+[0]) at every node, so
    <Phi_+|Phi_-> is exactly 0.  U_k is normal, so the complement is the
    eigenvector of lambda_-, even where the eigenvalues nearly coincide (a
    small |c01|) and eig's own second column may be far from orthogonal."""
    u = np.empty(k.shape + (2, 2), dtype=np.complex128)
    u[:, 0] = np.exp(-1j * k)[:, None] * c[0]
    u[:, 1] = np.exp(1j * k)[:, None] * c[1]
    evals, evecs = np.linalg.eig(u)
    first = evecs[:, :, 0]
    evecs[:, :, 1] = np.stack((-np.conj(first[:, 1]), np.conj(first[:, 0])), axis=-1)
    # eig returns unit-norm columns; verify the eigen-residual contract, which
    # also checks that lambda_- belongs to the complement
    resid = np.abs(u @ evecs - evals[..., None, :] * evecs).max()
    if resid > 1e-10:
        raise NumericalError(f"eigen-residual {resid:.3e} exceeds 1e-10")
    return evals, evecs


# ---------------------------------------------------------------------------
# Time-dependent and asymptotic moments
# ---------------------------------------------------------------------------


#: Fewest nodes of a table at an integer time.
_MIN_NODES = 64

#: Most nodes a table may sample: integer times up to 2**18 - 1.
_MAX_NODES = 2**20


@functools.lru_cache(maxsize=8)
def _coefficients(coin: bytes, t: int) -> NDArray[np.complex128]:
    """Fourier coefficients C(n) of the seven spin-independent integrands at t.

    Row i, column 2t + n holds C_i(n) = int dk/2pi K_i(k) e^{-ikn}, |n| <= 2t,
    so that basis sum i of a profile is sum_n r(n) C_i(n).  K_i is a
    trigonometric polynomial of degree <= 2t, whose coefficients one FFT on
    more than 4t nodes gives exactly.  Shared by every caller of one (coin,
    t), the table is read-only; eight entries hold four times of each named
    coin (448 KB a table at t = 1000).  `coin` is the matrix as bytes.
    """
    n = max(_MIN_NODES, 1 << (4 * t).bit_length())
    if n > _MAX_NODES:
        raise CapacityError(f"a table at t = {t} needs {n} nodes, above {_MAX_NODES}")
    table = _table(np.frombuffer(coin, dtype=np.complex128).reshape(2, 2), t, n)
    table.flags.writeable = False
    return table


def _table(matrix: CoinOperator, t: int, n: int) -> NDArray[np.complex128]:
    """The coefficients C_i(n), |n| <= 2t, of `_coefficients` from n nodes: at
    each node the branch parts P_pm[x, s] = <x|Phi_pm><Phi_pm|s> give
    U^t = sum_pm lambda_pm^t P_pm, and K_i is a product of two entries of U^t."""
    evals, evecs = _spectrum_at(matrix, _nodes(n))
    vec = np.ascontiguousarray(evecs.transpose(2, 1, 0))  # [branch, x, node]
    parts = vec[:, :, None] * np.conj(vec[:, None])  # [branch, x, s, node]
    u_t = parts[0] * evals[:, 0] ** t + parts[1] * evals[:, 1] ** t
    # K_i of sum i = (y, s, r) of BASIS_SUMS is U^t[0, s] conj(U^t[y, r])
    y, s, r = np.array(BASIS_SUMS).T
    integrand = u_t[0, s] * np.conj(u_t[y, r])
    # nodes k_j = -pi + 2 pi j / n, so e^{-i k_j l} = (-1)^l e^{-2 pi i j l / n}
    lags = np.arange(-2 * t, 2 * t + 1)
    spectrum = np.fft.fft(integrand, axis=-1)
    return spectrum[:, lags % n] * (np.where(lags % 2 == 0, 1.0, -1.0) / n)


def _basis_sums(coin: bytes, profile: InitialProfile, t: int):
    """The seven basis sums of `core.spin_moments` at time t: the integrals of
    |g|^2 K_i, that is `lattice.table_sums` of the profile against the
    (coin, t) table."""
    _, w = profile_weights(profile)
    return table_sums(_coefficients(coin, t), w)


def evolve_k_moments(
    profile: InitialProfile,
    spin: Spinor,
    coin,
    t: int,
) -> CoinMoments:
    """Moments A(t), B(t) = spin_moments of the basis sums at time t.

    t is an integer >= 0; from t = 2**18 on the (coin, t) table would need
    more than 2**20 nodes, and CapacityError is raised before it is sampled.
    """
    t = as_time(t, "t")
    require_normalized(spin)
    a, b = spin_moments(_basis_sums(unitary_coin(coin).tobytes(), profile, t), spin.up, spin.down)
    return CoinMoments(A=float(a), B=complex(b))


@functools.lru_cache(maxsize=8)
def _averaged_rows(coin: bytes):
    """The time-averaged coefficients of the seven integrands, in closed form.

    Returns (rows, q): row i holds C_i(0), C_i(2), C_i(-2), and C_i(2m) =
    C_i(2) q^(m-1), C_i(-2m) = C_i(-2) conj(q)^(m-1) for m >= 1; odd lags are
    0.  Averaged over time, K_i is a polynomial in e^{ik} over
    4 - |tr U_k|^2 = 2(1 + s^2) - 2 c^2 cos(2k - chi), s = |c01|, whose one
    pole inside the unit circle gives the rows (README, physics).  They are
    written from the coin's entries, as Python complex numbers, so none loses
    digits as s falls or overflows at a subnormal s; the one branch is s = 0,
    where the coin never mixes its spins and every row but auu is 0.
    """
    c00, c01, c10, c11 = map(complex, np.frombuffer(coin, dtype=np.complex128))
    s = abs(c01)
    h, q = s / 2.0, c00.conjugate() * c11 / (1.0 + s) ** 2
    a0 = c00 * c01.conjugate() / (2.0 * (1.0 + s))  # aud(0)
    a2 = -c11 * c01.conjugate() / (2.0 * (1.0 + s))  # aud(2)
    b = c01 / (2.0 * s) * c10.conjugate() if s > 0.0 else 0j  # bdu(-2)
    mixed, u0, u2 = h * np.array([1.0, q, q.conjugate()]), a0.conjugate(), a2.conjugate()
    # rows in BASIS_SUMS order; buu(n) = conj(aud(-n)) and bdd = -buu
    rows = np.array([[1.0, 0.0, 0.0] - mixed, [a0, a2, a0 * q.conjugate()], mixed,
                     [u0, u0 * q, u2], mixed, [b * q, b * q * q, b], [-u0, -u0 * q, -u2]])
    rows.flags.writeable = False
    return rows, q


def _asymptotic_kernels(coin: bytes, profile: InitialProfile):
    """The time-averaged basis sums of one (coin bytes, profile): with the rows
    and q of `_averaged_rows`, C_i(0) r(0) + C_i(2) Psi + C_i(-2) conj(Psi) for
    real weights, Psi = sum_{m>=1} r(2m) q^(m-1).  Psi is one dot product over
    the even lags, stopped where |q|^(m-1) falls below the walk's floor
    2**-511, so its cost depends on the profile and not on |c01|."""
    rows, q = _averaged_rows(coin)
    _, w = profile_weights(profile)
    terms = (w.shape[0] - 1) // 2  # the even lags 2, 4, ..., 2 terms
    if 0.0 < abs(q) < 1.0:
        terms = min(terms, 1 + int(math.log(_AMPLITUDE_FLOOR) / math.log(abs(q))))
    r = _autocorrelation(w, 2 * terms)[2 * terms :]  # lags 0, 1, ..., 2 terms
    psi = np.sum(r[2::2] * np.power(q, np.arange(terms)))
    return tuple(rows[:, 0] * r[0] + rows[:, 1] * psi + rows[:, 2] * np.conj(psi))


def asymptotic_moments(profile: InitialProfile, spin: Spinor, coin) -> CoinMoments:
    """Time-average (A_bar, B_bar) of A(t), B(t): oscillatory cross terms dropped.

    `core.spin_moments` of the time-averaged basis sums (`_asymptotic_kernels`).
    """
    require_normalized(spin)
    kernels = _asymptotic_kernels(unitary_coin(coin).tobytes(), profile)
    a, b = spin_moments(kernels, spin.up, spin.down)
    return CoinMoments(A=float(a), B=complex(b))


# ---------------------------------------------------------------------------
# Closed form
# ---------------------------------------------------------------------------


#: The local-state delocalization factor (sqrt(2) - 1)/4.
LOCAL_F = (SQRT2 - 1.0) / 4.0


#: Per named coin, the axes u, v of the closed form's G(f) and the limit of f at
#: large dispersion.  Fourier's axes are Hadamard's turned by -pi/2 about z,
#: written out: a computed rotation would leave ~6e-17 where G(f) has its zeros.
_CLOSED_AXES = {
    "hadamard": (np.array([1.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0]), 0.0),
    "fourier": (np.array([0.0, -1.0, 1.0]), np.array([1.0, 0.0, 0.0]), 0.25),
}


def _closed_form(tag: str, f: float | None = None):
    """The ten coefficients, in `core.delta_form`'s layout, of the closed form
    delta = n^T G(f) n, G(f) = (1/2)(1 - 4f)^2 u u^T + (4f)^2 v v^T, with the
    axes of the coin named `tag`; f = None is the coin's large-dispersion limit."""
    u, v, f_limit = _CLOSED_AXES[tag]
    f = f_limit if f is None else f
    gram = np.zeros((4, 4))  # the form has no linear or constant part: q = 0
    gram[:3, :3] = 0.5 * (1.0 - 4.0 * f) ** 2 * np.outer(u, u) + (4.0 * f) ** 2 * np.outer(v, v)
    return _gram_form(gram)


def closed_delta(coin, f: float, alpha, beta):
    """Closed-form characteristic function delta(f; alpha, beta) = n^T G(f) n.

    n = (sin a cos b, sin a sin b, cos a) is the spin's Bloch vector and
    G(f) = (1/2)(1-4f)^2 u u^T + (4f)^2 v v^T, with the coin's axes
    u = (1, 0, 1), v = (0, 1, 0) (Hadamard) or u = (0, -1, 1), v = (1, 0, 0)
    (Fourier: Hadamard's turned by -pi/2 about z, the beta shift).  Hadamard:
    (1/2)(1-4f)^2 (cos a + sin a cos b)^2 + (4f)^2 (sin a sin b)^2.  At the
    f that `extract_f` gives, G(f) is the time-averaged Bloch form of the
    k-space engine (`core.delta_form` of its sums) to 1.8e-15 per coefficient.
    delta vanishes at the spins +-u x v for 0 < f < 1/4, on the great circle
    u . n = 0 at f = 0 (Hadamard's large-dispersion limit) and on v . n = 0
    at f = 1/4 (Fourier's).  The local state is f = LOCAL_F, where
    (1/2)(1-4f)^2 = (4f)^2 = 3 - 2 sqrt2.  The shift maps formula to formula,
    not walk to walk: each coin's extracted f goes its own way with dispersion
    (Hadamard f -> 0 with sigma0^2 f -> 1/32, Fourier f -> 1/4 as
    1/4 - f ~ 1/(8 sigma0^2)), so the two walks are related by the shift only
    for the local state.

    alpha and beta broadcast: scalars give a float, arrays an array.  An f
    that is no real number in [0, 1/4] (a bool, a string or an array is
    none), or angles that `core.check_angles` refuses, raise DomainError.
    """
    tag = coin_tag(coin)
    if isinstance(f, bool) or not isinstance(f, numbers.Real) or not 0.0 <= f <= 0.25:  # NaN fails
        raise DomainError(f"f must be a real number in [0, 1/4], got {f!r}")
    check_angles(alpha, beta)
    return delta_at(_closed_form(tag, f), alpha, beta)


@dataclass(frozen=True)
class DelocalizationFactor:
    """Extracted delocalization factor f for one (coin, profile) pair."""

    f: float
    coin: str


def extract_f(coin, profile: InitialProfile) -> DelocalizationFactor:
    """Delocalization factor from delta at alpha = 0: f = (1 - sqrt(2 delta))/4.

    This inverts both delocalized closed forms at alpha = 0.  For the local
    state it gives the constant LOCAL_F = (sqrt2 - 1)/4 to rounding:
    0.10355339059327376 against 0.10355339059327379.
    """
    tag = coin_tag(coin)
    delta0 = delta_from_moments(asymptotic_moments(profile, Spinor(1.0, 0.0), coin))
    if 2.0 * delta0 > 1.0 + CLAMP_TOL:
        raise DomainError(f"2 delta(alpha=0) = {2 * delta0} exceeds 1")
    f = (1.0 - math.sqrt(min(2.0 * delta0, 1.0))) / 4.0
    return DelocalizationFactor(f=f, coin=tag)


def f_interpolation(sigma0: float) -> float:
    """Arctan fit connecting local and Gaussian delocalization factors:
    f(sigma0) = 0.0365 (pi/2 - arctan(3.937 (sigma0 - 0.8))), for a finite sigma0 > 0."""
    as_positive(sigma0, "sigma0")
    return 0.0365 * (math.pi / 2.0 - math.atan(3.937 * (sigma0 - 0.8)))


def max_entanglement_beta(alpha: float) -> float:
    """beta = arccos(-cot alpha), the high-delocalization maximal-entanglement
    condition for the Hadamard walk (the mirror solution -beta is also valid).

    As f -> 0 the Hadamard delta tends to (1/2)(cos a + sin a cos b)^2, which
    vanishes on this band.  The Fourier walk has no such alpha-dependent band:
    its f tends to 1/4 and its delta to (sin a cos b)^2, so its band at high
    delocalization is cos beta = 0 (beta = +-pi/2) for every alpha.  alpha is
    one spin's angle, read by `core.BlochAngles`: an array of them raises
    DomainError."""
    BlochAngles(alpha, 0.0)
    cot = math.cos(alpha) / math.sin(alpha) if math.sin(alpha) != 0.0 else math.inf
    if abs(cot) > 1.0 + 1e-12:
        raise DomainError(f"|cot(alpha)| = {abs(cot)} > 1: no solution")
    return math.acos(min(max(-cot, -1.0), 1.0))

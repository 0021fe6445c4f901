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
(`_asymptotic_kernels`, t = None) drop the oscillating cross terms between
the two branches; that K_i is analytic, its coefficients decay exponentially
(Trefethen & Weideman, SIAM Rev. 56 (2014)), and a table whose edge
coefficients are checked to lie below 1e-15 holds them: 256 nodes for the
named coins, doubled as the gap of U_k's eigenphases closes with |c01|.

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
from .lattice import InitialProfile, profile_weights, table_sums

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

#: Nodes the time-averaged table starts at; it doubles until its edge decays.
_AVERAGE_NODES = 256

#: Coefficients at the edge of the time-averaged table must lie below this.
_EDGE_TOL = 1e-15

#: Most nodes a table may sample: integer times up to 2**18 - 1.
_MAX_NODES = 2**20


@functools.lru_cache(maxsize=8)
def _coefficients(coin: bytes, t: int | None) -> NDArray[np.complex128]:
    """Fourier coefficients C(n) of the seven spin-independent integrands.

    Row i, column M + n holds C_i(n) = int dk/2pi K_i(k) e^{-ikn}, |n| <= M,
    so that basis sum i of a profile is sum_n r(n) C_i(n).  At time t, K_i is
    a trigonometric polynomial of degree <= 2t, whose coefficients one FFT on
    more than 4t nodes gives exactly (M = 2t).  With t = None the products
    are taken within a branch, since the cross terms of the two branches
    average to zero in time; that integrand is analytic, so its coefficients
    decay exponentially.  Its table starts at _AVERAGE_NODES nodes, keeping
    |n| < nodes / 2, and doubles until its edge has decayed below _EDGE_TOL;
    past _MAX_NODES it raises NumericalError.  The decay slows as the gap of
    U_k's eigenphases closes, that is as |c01| falls: the named coins hold at
    256 nodes, |c01| = 0.1 needs 1,024 and 0.001 65,536.  The table is shared
    by every caller of one (coin, t), so it is read-only; eight entries hold
    both coins' averaged tables and three times each (448 KB at t = 1000).
    `coin` is the matrix as bytes, the key of `lattice._local_table`.
    """
    matrix = np.frombuffer(coin, dtype=np.complex128).reshape(2, 2)
    if t is not None:
        n = max(_MIN_NODES, 1 << (4 * t).bit_length())
        if n > _MAX_NODES:
            raise CapacityError(f"a table at t = {t} needs {n} nodes, above {_MAX_NODES}")
        table = _table(matrix, t, n, 2 * t)
    else:
        n = _AVERAGE_NODES
        while True:
            table = _table(matrix, None, n, n // 2 - 1)
            # the last two lags on each side: every K_i has period pi (the sites a
            # walk from one site reaches at one time share a parity), so its odd
            # coefficients vanish and the edge is read at an even lag too
            edge = np.abs(table[:, [0, 1, -2, -1]]).max()
            if edge < _EDGE_TOL:
                break
            if 2 * n > _MAX_NODES:
                raise NumericalError(
                    f"time-averaged coefficients at |n| >= {n // 2 - 2} reach {edge:.3e}"
                    f" at {n} nodes, not below {_EDGE_TOL}"
                )
            n *= 2
    table.flags.writeable = False
    return table


def _table(matrix: CoinOperator, t: int | None, n: int, m: int) -> NDArray[np.complex128]:
    """The coefficients C_i(n) for |n| <= m of `_coefficients` from n nodes.

    At each node the branch parts P_pm[x, s] = <x|Phi_pm><Phi_pm|s> give
    U^t = sum_pm lambda_pm^t P_pm, and K_i is a product of two entries of U^t,
    or of each branch's P_pm for t = None.
    """
    evals, evecs = _spectrum_at(matrix, _nodes(n))
    vec = np.ascontiguousarray(evecs.transpose(2, 1, 0))  # [branch, x, node]
    parts = vec[:, :, None] * np.conj(vec[:, None])  # [branch, x, s, node]
    # K_i of sum i = (y, s, r) of BASIS_SUMS is U^t[0, s] conj(U^t[y, r])
    y, s, r = np.array(BASIS_SUMS).T
    if t is None:  # the products within each branch, summed
        integrand = np.sum(parts[:, 0, s] * np.conj(parts[:, y, r]), axis=0)
    else:
        u_t = parts[0] * evals[:, 0] ** t + parts[1] * evals[:, 1] ** t
        integrand = u_t[0, s] * np.conj(u_t[y, r])
    # nodes k_j = -pi + 2 pi j / n, so e^{-i k_j l} = (-1)^l e^{-2 pi i j l / n}
    lags = np.arange(-m, m + 1)
    spectrum = np.fft.fft(integrand, axis=-1)
    return spectrum[:, lags % n] * (np.where(lags % 2 == 0, 1.0, -1.0) / n)


def _basis_sums(coin: bytes, profile: InitialProfile, t: int | None):
    """The seven basis sums of `core.spin_moments`: the integrals of |g|^2 K_i,
    that is `lattice.table_sums` of the profile against the (coin, t) table."""
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


def _asymptotic_kernels(coin: bytes, profile: InitialProfile):
    """The time-averaged basis sums of one (coin bytes, profile)."""
    return _basis_sums(coin, profile, None)


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
    k-space engine (`core.delta_form` of its sums) to ~2e-15 per coefficient.
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

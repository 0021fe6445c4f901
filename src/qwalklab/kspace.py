"""Momentum-space engine: coin spectra, basis sums, and asymptotic moments.

All integrals are over k in [-pi, pi] with measure dk/2pi.

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
(Trefethen & Weideman, SIAM Rev. 56 (2014)), and a 256-node table whose edge
coefficients are checked to lie below 1e-15 holds them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .core import (
    CLAMP_TOL,
    CoinMoments,
    CoinOperator,
    Spinor,
    as_time,
    delta_from_moments,
    fourier_coin,
    hadamard_coin,
    spin_moments,
)
from .errors import CapacityError, DomainError, NumericalError
from .lattice import InitialProfile, profile_weights, table_sums

SQRT2 = math.sqrt(2.0)

_HADAMARD = hadamard_coin()
_FOURIER = fourier_coin()


def coin_tag(coin) -> str:
    """Normalize a coin argument (matrix or name) to "hadamard" | "fourier"."""
    if isinstance(coin, str):
        if coin in ("hadamard", "fourier"):
            return coin
        raise DomainError(f"unknown coin {coin!r}")
    m = np.asarray(coin)
    if m.shape == (2, 2):
        if np.allclose(m, _HADAMARD, atol=1e-12):
            return "hadamard"
        if np.allclose(m, _FOURIER, atol=1e-12):
            return "fourier"
    raise DomainError("coin must be the Hadamard or Fourier coin")


def _coin_matrix(tag: str) -> CoinOperator:
    return _HADAMARD if tag == "hadamard" else _FOURIER


# ---------------------------------------------------------------------------
# Initial amplitudes in k-space
# ---------------------------------------------------------------------------


def profile_envelope(profile: InitialProfile, k) -> NDArray[np.complex128]:
    """Envelope g(k) = sum_j w_j e^{-ikj}, with (a_k, b_k) = g(k) * (spin up, spin down).

    w_j are the lattice weights of `lattice.profile_weights`, so g is the exact
    discrete-time Fourier transform of the state the lattice walk starts from:
    a trigonometric polynomial, for every profile alike.  Evaluated here as the
    direct sum at any k; the basis sums read it only through its square
    |g|^2 = sum_n r(n) e^{-ikn} (`lattice._autocorrelation`).
    """
    j_min, w = profile_weights(profile)
    j = np.arange(j_min, j_min + w.shape[0])
    return np.exp(-1j * np.multiply.outer(np.asarray(k, dtype=float), j)) @ w


# ---------------------------------------------------------------------------
# Coin spectrum
# ---------------------------------------------------------------------------


def dispersion(coin, k: float) -> float:
    """Eigenphase frequency omega_k of the k-space step operator.

    Hadamard: sin(omega) = sin(k)/sqrt2, omega in [-pi/2, pi/2].
    Fourier:  cos(omega) = cos(k)/sqrt2, omega in [pi/4, 3pi/4].
    """
    tag = coin_tag(coin)
    if tag == "hadamard":
        return float(np.arcsin(np.sin(k) / SQRT2))
    return float(np.arccos(np.cos(k) / SQRT2))


def _nodes(n: int) -> NDArray[np.float64]:
    return -math.pi + (2.0 * math.pi / n) * np.arange(n)


def _step_operators(tag: str, k: NDArray[np.float64]) -> NDArray[np.complex128]:
    """Batched 2x2 k-space step operators U_k = S_k (C x 1)."""
    c = _coin_matrix(tag)
    u = np.empty(k.shape + (2, 2), dtype=np.complex128)
    u[..., 0, :] = np.exp(-1j * k)[..., None] * c[0, :]
    u[..., 1, :] = np.exp(1j * k)[..., None] * c[1, :]
    return u


def _spectrum_at(tag: str, k: NDArray[np.float64]):
    """Eigenvalues (..., 2) and eigenvector columns (..., 2, 2) of U_k."""
    u = _step_operators(tag, k)
    evals, evecs = np.linalg.eig(u)
    # eig returns unit-norm columns; verify the eigen-residual contract
    resid = np.abs(u @ evecs - evals[..., None, :] * evecs).max()
    if resid > 1e-10:
        raise NumericalError(f"eigen-residual {resid:.3e} exceeds 1e-10")
    return evals, evecs


@dataclass(frozen=True)
class CoinSpectrum:
    """Eigenpairs of the 2x2 k-space step operator at one wavenumber.

    Branch order is (+, -): for the Hadamard coin the + branch is +e^{-i
    omega_k} (positive real part), for the Fourier coin e^{-i omega_k}
    (negative imaginary part).
    """

    k: float
    eigenvalues: NDArray[np.complex128]
    eigenvectors: NDArray[np.complex128]  # columns


def coin_spectrum(coin, k: float) -> CoinSpectrum:
    """Eigen-decomposition of U_k with the branch ordering described above."""
    tag = coin_tag(coin)
    evals, evecs = _spectrum_at(tag, np.asarray([float(k)]))
    evals, evecs = evals[0], evecs[0]
    if tag == "hadamard":
        plus_first = evals[0].real > evals[1].real
    else:
        plus_first = evals[0].imag < evals[1].imag
    order = [0, 1] if plus_first else [1, 0]
    return CoinSpectrum(
        k=float(k), eigenvalues=evals[order], eigenvectors=evecs[:, order]
    )


# ---------------------------------------------------------------------------
# Time-dependent and asymptotic moments
# ---------------------------------------------------------------------------


def _cross(m):
    """Products m[..., 0, s] * conj(m[..., y, r]), indexed [..., y, s, r, node].

    For m = U^t, y = 0 gives the A sums and y = 1 the B sums; (0, 1, 0) is conj(aud).
    """
    return m[..., None, 0, :, None, :] * np.conj(m[..., :, None, :, :])


#: Fewest nodes of a table at an integer time.
_MIN_NODES = 64

#: Nodes of the time-averaged table, which keeps |n| < _AVERAGE_NODES / 2.
_AVERAGE_NODES = 256

#: Coefficients at the edge of the time-averaged table must lie below this.
_EDGE_TOL = 1e-15

#: Most nodes a table may sample: integer times up to 2**18 - 1.
_MAX_NODES = 2**20


@functools.lru_cache(maxsize=8)
def _coefficients(tag: str, t: int | None) -> NDArray[np.complex128]:
    """Fourier coefficients C(n) of the seven spin-independent integrands.

    Row i, column M + n holds C_i(n) = int dk/2pi K_i(k) e^{-ikn}, |n| <= M,
    so that basis sum i of a profile is sum_n r(n) C_i(n).  At each node the
    branch parts P_pm[x, s] = <x|Phi_pm><Phi_pm|s> give U^t = sum_pm
    lambda_pm^t P_pm, and K_i is a product of two entries of U^t: a
    trigonometric polynomial of degree <= 2t, whose coefficients one FFT on
    more than 4t nodes gives exactly (M = 2t).  With t = None the products
    are taken within a branch, since the cross terms of the two branches
    average to zero in time; that integrand is analytic, so its coefficients
    decay exponentially, and the table keeps |n| < _AVERAGE_NODES / 2 after
    checking that its edge has decayed below _EDGE_TOL.  The table is shared
    by every caller of one (coin, t), so it is read-only; eight entries hold
    both coins' averaged tables and three times each (448 KB at t = 1000).
    """
    if t is None:
        n, m = _AVERAGE_NODES, _AVERAGE_NODES // 2 - 1
    else:
        n, m = max(_MIN_NODES, 1 << (4 * t).bit_length()), 2 * t
    if n > _MAX_NODES:
        raise CapacityError(f"a table at t = {t} needs {n} nodes, above {_MAX_NODES}")
    evals, evecs = _spectrum_at(tag, _nodes(n))
    vec = np.ascontiguousarray(evecs.transpose(2, 1, 0))  # [branch, x, node]
    parts = vec[:, :, None] * np.conj(vec[:, None])  # [branch, x, s, node]
    if t is None:
        r = _cross(parts)
        integrand = r[0] + r[1]
    else:
        lam_t = evals**t
        integrand = _cross(parts[0] * lam_t[:, 0] + parts[1] * lam_t[:, 1])
    # nodes k_j = -pi + 2 pi j / n, so e^{-i k_j l} = (-1)^l e^{-2 pi i j l / n}
    lags = np.arange(-m, m + 1)
    spectrum = np.fft.fft(integrand.reshape(8, n)[[0, 1, 3, 4, 5, 6, 7]], axis=-1)
    table = spectrum[:, lags % n] * (np.where(lags % 2 == 0, 1.0, -1.0) / n)
    if t is None:
        # the last two lags on each side: every K_i has period pi (the sites a
        # walk from one site reaches at one time share a parity), so its odd
        # coefficients vanish and the edge is read at an even lag too
        edge = np.abs(table[:, [0, 1, -2, -1]]).max()
        if edge >= _EDGE_TOL:
            raise NumericalError(
                f"time-averaged coefficients at |n| >= {m - 1} reach {edge:.3e},"
                f" not below {_EDGE_TOL}"
            )
    table.flags.writeable = False
    return table


def _basis_sums(tag: str, profile: InitialProfile, t: int | None):
    """The seven basis sums of `core.spin_moments`: the integrals of |g|^2 K_i,
    that is `lattice.table_sums` of the profile against the (coin, t) table."""
    _, w = profile_weights(profile)
    return table_sums(_coefficients(tag, t), w)


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
    if not spin.is_normalized():
        raise DomainError(f"spin must be normalized, |spin|^2 = {spin.norm_sq()}")
    a, b = spin_moments(_basis_sums(coin_tag(coin), profile, t), spin.up, spin.down)
    return CoinMoments(A=float(a), B=complex(b))


def _asymptotic_kernels(tag: str, profile: InitialProfile):
    """The time-averaged basis sums of one (coin, profile)."""
    return _basis_sums(tag, profile, None)


def asymptotic_moments(profile: InitialProfile, spin: Spinor, coin) -> CoinMoments:
    """Time-average (A_bar, B_bar) of A(t), B(t): oscillatory cross terms dropped.

    `core.spin_moments` of the time-averaged basis sums (`_asymptotic_kernels`).
    """
    if not spin.is_normalized():
        raise DomainError(f"spin must be normalized, |spin|^2 = {spin.norm_sq()}")
    kernels = _asymptotic_kernels(coin_tag(coin), profile)
    a, b = spin_moments(kernels, spin.up, spin.down)
    return CoinMoments(A=float(a), B=complex(b))


# ---------------------------------------------------------------------------
# Closed form
# ---------------------------------------------------------------------------


#: The local-state delocalization factor (sqrt(2) - 1)/4.
LOCAL_F = (SQRT2 - 1.0) / 4.0


def closed_delta(coin, f: float, alpha, beta):
    """Closed-form characteristic function delta(f; alpha, beta).

    Hadamard: (1/2)(1-4f)^2 (cos a + sin a cos b)^2 + (4f)^2 (sin a sin b)^2.
    The Fourier formula is the Hadamard one with beta shifted by -pi/2 at the
    same f.  The local state is f = LOCAL_F, where (1/2)(1-4f)^2 = (4f)^2 =
    3 - 2 sqrt2 and delta = (3 - 2 sqrt2)(1 + sin 2a cos b) (Hadamard) or
    (3 - 2 sqrt2)(1 - sin 2a sin b) (Fourier); the large-dispersion limits
    are f -> 0 (Hadamard) and f -> 1/4 (Fourier).  The shift maps formula to
    formula, not walk to walk: each coin's extracted f goes its own way with
    dispersion (Hadamard f -> 0 with sigma0^2 f -> 1/32, Fourier f -> 1/4 as
    1/4 - f ~ 1/(8 sigma0^2)), so the two walks are related by the shift
    only for the local state.

    alpha and beta broadcast against each other: scalars give a float, arrays
    an array.  f outside [0, 1/4] or any alpha outside [0, pi] raises
    DomainError; beta may be any real.
    """
    tag = coin_tag(coin)
    if not 0.0 <= f <= 0.25:  # NaN fails it
        raise DomainError(f"f must be in [0, 1/4], got {f}")
    a, b = np.asarray(alpha, dtype=float), np.asarray(beta, dtype=float)
    if not np.all((a >= 0.0) & (a <= math.pi)):
        raise DomainError(f"alpha must be in [0, pi], got values in [{np.min(a)}, {np.max(a)}]")
    if tag == "hadamard":
        even = np.cos(a) + np.sin(a) * np.cos(b)
        odd = np.sin(a) * np.sin(b)
    else:
        even = np.cos(a) - np.sin(a) * np.sin(b)
        odd = np.sin(a) * np.cos(b)
    # np.square, not ** 2: on a numpy scalar ** 2 calls pow(), which can miss
    # the correctly rounded square by one ulp, so scalars would differ from arrays
    delta = 0.5 * (1.0 - 4.0 * f) ** 2 * np.square(even) + (4.0 * f) ** 2 * np.square(odd)
    return float(delta) if delta.ndim == 0 else delta


@dataclass(frozen=True)
class DelocalizationFactor:
    """Extracted delocalization factor f for one (coin, profile) pair."""

    f: float
    coin: str
    profile: InitialProfile


def extract_f(coin, profile: InitialProfile) -> DelocalizationFactor:
    """Delocalization factor from delta at alpha = 0: f = (1 - sqrt(2 delta))/4.

    This inverts both delocalized closed forms at alpha = 0 and reproduces the
    local constant (sqrt2 - 1)/4 exactly.
    """
    tag = coin_tag(coin)
    delta0 = delta_from_moments(asymptotic_moments(profile, Spinor(1.0, 0.0), tag))
    if 2.0 * delta0 > 1.0 + CLAMP_TOL:
        raise DomainError(f"2 delta(alpha=0) = {2 * delta0} exceeds 1")
    f = (1.0 - math.sqrt(min(2.0 * delta0, 1.0))) / 4.0
    return DelocalizationFactor(f=f, coin=tag, profile=profile)


def f_interpolation(sigma0: float) -> float:
    """Arctan fit connecting local and Gaussian delocalization factors:
    f(sigma0) = 0.0365 (pi/2 - arctan(3.937 (sigma0 - 0.8)))."""
    return 0.0365 * (math.pi / 2.0 - math.atan(3.937 * (sigma0 - 0.8)))


def max_entanglement_beta(alpha: float) -> float:
    """beta = arccos(-cot alpha), the high-delocalization maximal-entanglement
    condition for the Hadamard walk (the mirror solution -beta is also valid).

    As f -> 0 the Hadamard delta tends to (1/2)(cos a + sin a cos b)^2, which
    vanishes on this band.  The Fourier walk has no such alpha-dependent band:
    its f tends to 1/4 and its delta to (sin a cos b)^2, so its band at high
    delocalization is cos beta = 0 (beta = +-pi/2) for every alpha."""
    cot = math.cos(alpha) / math.sin(alpha) if math.sin(alpha) != 0.0 else math.inf
    if abs(cot) > 1.0 + 1e-12:
        raise DomainError(f"|cot(alpha)| = {abs(cot)} > 1: no solution")
    return math.acos(min(max(-cot, -1.0), 1.0))

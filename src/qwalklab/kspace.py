"""Momentum-space engine: k-amplitudes, coin spectra, and asymptotic moments.

All integrals are over k in [-pi, pi] with measure dk/2pi, evaluated by a
uniform trapezoidal rule on the periodic interval (spectrally accurate for the
smooth periodic integrands here) with node doubling until convergence.

The time-averaged asymptotic moments are obtained by spectral projection: with
c_pm = <Phi_pm_k | Phi_k(0)>, the oscillatory cross terms average to zero and

    A_bar = int dk/2pi sum_pm |c_pm|^2 |Phi_pm_up|^2,
    B_bar = int dk/2pi sum_pm |c_pm|^2 Phi_pm_up conj(Phi_pm_down).

Both integrands are quadratic forms in the initial spin amplitudes, so the
spin-independent kernel integrals are computed once per (coin, profile) and
reused across Bloch-sphere sweeps.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .core import (
    BlochAngles,
    CoinMoments,
    CoinOperator,
    Spinor,
    entropy_from_delta,
    fourier_coin,
    hadamard_coin,
)
from .errors import ConvergenceError, DomainError, NumericalError
from .lattice import Gaussian, InitialProfile, Local, Rectangular

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
# Quadrature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureSpec:
    """Adaptive periodic-trapezoid parameters."""

    initial_points: int = 1024
    rel_tolerance: float = 1e-10
    max_points: int = 2**20

    def __post_init__(self) -> None:
        if self.initial_points < 64:
            raise DomainError("initial_points must be >= 64")
        if self.initial_points & (self.initial_points - 1):
            raise DomainError("initial_points must be a power of two")
        if self.max_points > 2**20:
            raise DomainError("max_points must be <= 2**20")


DEFAULT_QUAD = QuadratureSpec()


def _nodes(n: int) -> NDArray[np.float64]:
    return -math.pi + (2.0 * math.pi / n) * np.arange(n)


def _adaptive_means(evaluate, spec: QuadratureSpec, n_start: int | None = None):
    """Drive node doubling until every component mean is converged.

    `evaluate(k)` returns an array whose last axis runs over the nodes; the
    mean over that axis is the integral with measure dk/2pi.  Returns the
    converged component means.
    """
    n = n_start or spec.initial_points
    n = min(n, spec.max_points)
    prev = np.mean(evaluate(_nodes(n)), axis=-1)
    while True:
        if 2 * n > spec.max_points:
            raise ConvergenceError(
                f"quadrature did not converge within {spec.max_points} points"
            )
        n *= 2
        cur = np.mean(evaluate(_nodes(n)), axis=-1)
        err = np.abs(cur - prev)
        bound = np.maximum(spec.rel_tolerance * np.abs(cur), 1e-14)
        if np.all(err <= bound):
            return cur
        prev = cur


def quadrature(integrand, spec: QuadratureSpec = DEFAULT_QUAD) -> complex:
    """Integral of `integrand(k)` over [-pi, pi] with measure dk/2pi.

    `integrand` must accept an ndarray of nodes and return the values at them.
    """

    def evaluate(k):
        return np.asarray(integrand(k), dtype=np.complex128)[None, :]

    return complex(_adaptive_means(evaluate, spec)[0])


# ---------------------------------------------------------------------------
# Initial amplitudes in k-space
# ---------------------------------------------------------------------------


def _profile_key(profile: InitialProfile):
    if isinstance(profile, Local):
        return ("local",)
    if isinstance(profile, Gaussian):
        return ("gauss", float(profile.sigma0))
    if isinstance(profile, Rectangular):
        return ("rect", profile.a)
    raise DomainError(f"unknown profile {profile!r}")


def dirichlet_envelope(k, a) -> NDArray[np.float64]:
    """Normalized Dirichlet kernel sin((2a+1)k/2) / sin(k/2) / sqrt(2a+1).

    The removable singularity at k = 0 is replaced by its limit sqrt(2a+1).
    Accepts a non-integer half-width a for formula evaluation.
    """
    k = np.asarray(k, dtype=float)
    m = 2.0 * a + 1.0
    den = np.sin(k / 2.0)
    small = np.abs(k) < 1e-8
    num = np.sin(m * k / 2.0)
    out = np.where(small, m, num / np.where(small, 1.0, den))
    return out / math.sqrt(m)


def profile_envelope(profile: InitialProfile, k) -> NDArray[np.float64]:
    """Real scalar envelope g(k) with (a_k, b_k) = g(k) * (spin up, spin down).

    Gaussian profiles use the continuum-integral closed form with the Erf
    renormalization applied for all sigma0 (the factor is 1 to within 1e-9 for
    sigma0 >= 1, so a single code path serves the whole range).
    """
    k = np.asarray(k, dtype=float)
    if isinstance(profile, Local):
        return np.ones_like(k)
    if isinstance(profile, Gaussian):
        s = profile.sigma0
        norm = (8.0 * math.pi * s**2) ** 0.25 / math.sqrt(math.erf(SQRT2 * math.pi * s))
        return norm * np.exp(-(k**2) * s**2)
    if isinstance(profile, Rectangular):
        return dirichlet_envelope(k, profile.a)
    raise DomainError(f"unknown profile {profile!r}")


@dataclass(frozen=True)
class KAmplitudes:
    """Initial k-space spinor amplitudes of a (profile, spin) product state."""

    profile: InitialProfile
    spin: Spinor

    def envelope(self, k) -> NDArray[np.float64]:
        return profile_envelope(self.profile, k)

    def __call__(self, k):
        g = self.envelope(k)
        return g * self.spin.up, g * self.spin.down


def k_amplitudes(profile: InitialProfile, spin: Spinor) -> KAmplitudes:
    """k-space amplitudes (a_k, b_k) of the product state profile x spin."""
    if not spin.is_normalized():
        raise DomainError(f"spin must be normalized, |spin|^2 = {spin.norm_sq()}")
    return KAmplitudes(profile=profile, spin=spin)


def _profile_initial_points(profile: InitialProfile, spec: QuadratureSpec) -> int:
    """Starting node count; rectangular integrands oscillate with period
    ~2pi/(2a+1), so resolve them from the first pass."""
    n = spec.initial_points
    if isinstance(profile, Rectangular):
        need = 128 * (2 * profile.a + 1)
        while n < need and n < spec.max_points:
            n *= 2
    return n


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


def _step_operators(tag: str, k: NDArray[np.float64]) -> NDArray[np.complex128]:
    """Batched 2x2 k-space step operators U_k = S_k (C x 1)."""
    c = _coin_matrix(tag)
    u = np.empty(k.shape + (2, 2), dtype=np.complex128)
    u[..., 0, :] = np.exp(-1j * k)[..., None] * c[0, :]
    u[..., 1, :] = np.exp(1j * k)[..., None] * c[1, :]
    return u


@functools.lru_cache(maxsize=16)
def _spectrum_cached(tag: str, n: int):
    return _spectrum_at(tag, _nodes(n))


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


@dataclass(frozen=True)
class AsymptoticMoments:
    """Time-averaged moments (A_bar, B_bar) of the reduced coin state.

    Scalars for one spin state; arrays over a spin grid when
    moments_from_kernels is given arrays of amplitudes.
    """

    A_bar: float | NDArray[np.float64]
    B_bar: complex | NDArray[np.complex128]


@dataclass(frozen=True)
class CharacteristicResult:
    """Characteristic function delta and the asymptotic entropy it implies."""

    delta: float
    entropy: float


def evolve_k_moments(
    profile: InitialProfile,
    spin: Spinor,
    coin,
    t: int,
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> CoinMoments:
    """Moments A(t), B(t) from the spectral decomposition of U_k.

    Phi_k(t) = sum_pm lambda_pm^t <Phi_pm|Phi_k(0)> Phi_pm is evaluated per
    quadrature node; A(t) = int dk/2pi |a_k(t)|^2, B(t) = int a_k(t) b_k*(t).
    """
    if t < 0:
        raise DomainError(f"t must be >= 0, got {t}")
    tag = coin_tag(coin)
    amps = k_amplitudes(profile, spin)

    def evaluate(k):
        evals, evecs = _spectrum_cached(tag, k.shape[0])
        g = amps.envelope(k)
        up = evecs[:, 0, :]
        dn = evecs[:, 1, :]
        c = g[:, None] * (np.conj(up) * spin.up + np.conj(dn) * spin.down)
        lam_t = evals**t
        a_t = np.sum(lam_t * c * up, axis=-1)
        b_t = np.sum(lam_t * c * dn, axis=-1)
        return np.stack([np.abs(a_t) ** 2 + 0j, a_t * np.conj(b_t)])

    # resolve the e^{+-i omega t} oscillations from the first pass
    n0 = _profile_initial_points(profile, quad)
    while n0 < min(8 * (t + 1), quad.max_points):
        n0 *= 2
    a_val, b_val = _adaptive_means(evaluate, quad, n_start=n0)
    return CoinMoments(A=float(a_val.real), B=complex(b_val))


_KERNEL_CACHE: dict = {}


def _asymptotic_kernels(tag: str, profile: InitialProfile, quad: QuadratureSpec):
    """Spin-independent kernel integrals of the asymptotic quadratic forms.

    Returns (ka1, ka2, ka4, kb1, kb2, kb3, kb4) such that for spin (cu, cd):
        A_bar = ka1 |cu|^2 + ka4 |cd|^2 + 2 Re(ka2 cu cd*)
        B_bar = kb1 |cu|^2 + kb4 |cd|^2 + kb2 cu cd* + kb3 cu* cd
    """
    key = (tag, _profile_key(profile), quad)
    hit = _KERNEL_CACHE.get(key)
    if hit is not None:
        return hit

    def evaluate(k):
        evals, evecs = _spectrum_cached(tag, k.shape[0])
        w = profile_envelope(profile, k) ** 2
        up = evecs[:, 0, :]
        dn = evecs[:, 1, :]
        pu = np.abs(up) ** 2
        pd = np.abs(dn) ** 2
        x = np.conj(up) * dn  # couples cu cd* in |c_pm|^2
        nb = up * np.conj(dn)  # B integrand factor per branch
        rows = [
            np.sum(pu * pu, axis=-1) + 0j,
            np.sum(x * pu, axis=-1),
            np.sum(pd * pu, axis=-1) + 0j,
            np.sum(pu * nb, axis=-1),
            np.sum(x * nb, axis=-1),
            np.sum(nb * nb, axis=-1),
            np.sum(pd * nb, axis=-1),
        ]
        return w * np.stack(rows)

    vals = tuple(_adaptive_means(evaluate, quad, _profile_initial_points(profile, quad)))
    _KERNEL_CACHE[key] = vals
    return vals


def moments_from_kernels(kernels, up, down) -> AsymptoticMoments:
    """Combine the kernel integrals with spin amplitudes `up`, `down`.

    Scalar amplitudes give a float A_bar and a complex B_bar; arrays give
    arrays of their broadcast shape.
    """
    ka1, ka2, ka4, kb1, kb2, kb3, kb4 = kernels
    # builtin abs: on a Python complex np.abs can differ in the last bit
    pu = abs(up) ** 2
    pd = abs(down) ** 2
    cross = up * np.conj(down)
    a_bar = (ka1 * pu + ka4 * pd).real + 2.0 * (ka2 * cross).real
    b_bar = kb1 * pu + kb4 * pd + kb2 * cross + kb3 * np.conj(cross)
    if np.ndim(a_bar) == 0:
        return AsymptoticMoments(A_bar=float(a_bar), B_bar=complex(b_bar))
    return AsymptoticMoments(A_bar=a_bar, B_bar=b_bar)


def asymptotic_moments(
    profile: InitialProfile,
    spin: Spinor,
    coin,
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> AsymptoticMoments:
    """Time-average of A(t), B(t): oscillatory cross terms dropped, quadrature."""
    if not spin.is_normalized():
        raise DomainError(f"spin must be normalized, |spin|^2 = {spin.norm_sq()}")
    tag = coin_tag(coin)
    kernels = _asymptotic_kernels(tag, profile, quad)
    return moments_from_kernels(kernels, spin.up, spin.down)


def characteristic(moments: AsymptoticMoments) -> CharacteristicResult:
    """delta = (lambda_plus - lambda_minus)^2 and the asymptotic entropy.

    delta is clamped to [0, 1]; a pre-clamp excursion beyond 1e-9 raises
    DomainError (the moments were unphysical).
    """
    delta = 4.0 * ((moments.A_bar - 0.5) ** 2 + abs(moments.B_bar) ** 2)
    if delta < -1e-9 or delta > 1.0 + 1e-9:
        raise DomainError(f"characteristic delta {delta} outside [0, 1]")
    delta = min(max(delta, 0.0), 1.0)
    return CharacteristicResult(delta=delta, entropy=entropy_from_delta(delta))


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalForm:
    """Closed-form family for the local (single-site) initial state."""


@dataclass(frozen=True)
class DelocalizedForm:
    """Closed-form family for delocalized states with factor f in [0, 1/4]."""

    f: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.f <= 0.25:
            raise DomainError(f"f must be in [0, 1/4], got {self.f}")


#: The local-state delocalization factor (sqrt(2) - 1)/4.
LOCAL_F = (SQRT2 - 1.0) / 4.0


def closed_delta(coin, form, angles: BlochAngles) -> float:
    """Closed-form characteristic function delta(alpha, beta).

    Hadamard local: (3 - 2 sqrt2)(1 + sin 2a cos b); delocalized:
    (1/2)(1-4f)^2 (cos a + sin a cos b)^2 + (4f)^2 (sin a sin b)^2.  The
    Fourier formulas are the Hadamard ones with beta shifted by -pi/2 at the
    same f.  The shift maps formula to formula, not walk to walk: each coin's
    extracted f goes its own way with dispersion (Hadamard f -> 0 with
    sigma0^2 f -> 1/32, Fourier f -> 1/4 as 1/4 - f ~ 1/(8 sigma0^2)), so the
    two walks are related by the shift only for the local state, where both
    have f = (sqrt2 - 1)/4.
    """
    tag = coin_tag(coin)
    a, b = angles.alpha, angles.beta
    if isinstance(form, LocalForm):
        base = 3.0 - 2.0 * SQRT2
        if tag == "hadamard":
            return base * (1.0 + math.sin(2.0 * a) * math.cos(b))
        return base * (1.0 - math.sin(2.0 * a) * math.sin(b))
    if isinstance(form, DelocalizedForm):
        f = form.f
        if tag == "hadamard":
            even = math.cos(a) + math.sin(a) * math.cos(b)
            odd = math.sin(a) * math.sin(b)
        else:
            even = math.cos(a) - math.sin(a) * math.sin(b)
            odd = math.sin(a) * math.cos(b)
        return 0.5 * (1.0 - 4.0 * f) ** 2 * even**2 + (4.0 * f) ** 2 * odd**2
    raise DomainError(f"unknown closed form {form!r}")


@dataclass(frozen=True)
class DelocalizationFactor:
    """Extracted delocalization factor f for one (coin, profile) pair."""

    f: float
    coin: str
    profile: InitialProfile


def extract_f(
    coin, profile: InitialProfile, quad: QuadratureSpec = DEFAULT_QUAD
) -> DelocalizationFactor:
    """Delocalization factor from delta at alpha = 0: f = (1 - sqrt(2 delta))/4.

    This inverts both delocalized closed forms at alpha = 0 and reproduces the
    local constant (sqrt2 - 1)/4 exactly.
    """
    tag = coin_tag(coin)
    m = asymptotic_moments(profile, Spinor(1.0, 0.0), tag, quad)
    delta0 = characteristic(m).delta
    if 2.0 * delta0 > 1.0 + 1e-9:
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

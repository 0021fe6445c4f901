"""Experiment layer: Bloch-sphere sweeps, averages, comparisons, decay fits.

Averages are unweighted arithmetic means over the (alpha, beta) angle grid,
NOT Haar-measure averages over the Bloch sphere; the reference figures are
defined on the 0.1-step angle grid.  All reductions run in fixed index order,
so sweep statistics are bitwise reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .core import binary_entropy
from .errors import DomainError, FitError
from .kspace import (
    DEFAULT_QUAD,
    QuadratureSpec,
    _asymptotic_kernels,
    _coin_matrix,
    coin_tag,
    moments_from_kernels,
)
from .lattice import Gaussian, InitialProfile, Rectangular, evolve_basis, sigma_to_a

GRID_STEP = 0.1


@dataclass(frozen=True)
class SweepGrid:
    """Strictly increasing alpha and beta sample angles (radians)."""

    alphas: NDArray[np.float64]
    betas: NDArray[np.float64]

    def __post_init__(self) -> None:
        for name, arr in (("alphas", self.alphas), ("betas", self.betas)):
            arr = np.asarray(arr, dtype=float)
            if arr.size == 0 or np.any(np.diff(arr) <= 0):
                raise DomainError(f"{name} must be non-empty and strictly increasing")
            object.__setattr__(self, name, arr)

    @property
    def n_points(self) -> int:
        return self.alphas.size * self.betas.size


def paper_grid() -> SweepGrid:
    """The 32 x 63 = 2016-state grid: 0.1-steps from (0, 0) up to (3.1, 6.2).

    "Up to (pi, 2pi)" cannot land on pi or 2pi with 0.1 increments; the
    largest 0.1-multiples below the bounds are the only reading that yields
    the reference count of 2016 states.
    """
    return SweepGrid(alphas=0.1 * np.arange(32), betas=0.1 * np.arange(63))


def grid_from_step(step: float) -> SweepGrid:
    """Uniform grid with the given step, covering [0, pi] x [0, 2pi]."""
    if not step > 0.0:
        raise DomainError(f"grid step must be > 0, got {step}")
    na = math.floor(math.pi / step + 1e-9) + 1
    nb = math.floor(2.0 * math.pi / step + 1e-9) + 1
    return SweepGrid(alphas=step * np.arange(na), betas=step * np.arange(nb))


@dataclass(frozen=True)
class SweepResult:
    """Entropy matrix over a grid plus its summary statistics."""

    grid: SweepGrid
    values: NDArray[np.float64]  # shape (len(alphas), len(betas))
    mean: float
    min: float
    max: float
    argmin: tuple[float, float]
    argmax: tuple[float, float]


def _finalize_sweep(grid: SweepGrid, values: NDArray[np.float64]) -> SweepResult:
    flat = values.ravel()  # fixed index order: alpha-major
    imin = int(np.argmin(flat))
    imax = int(np.argmax(flat))
    nb = grid.betas.size
    return SweepResult(
        grid=grid,
        values=values,
        mean=float(np.mean(flat)),
        min=float(flat[imin]),
        max=float(flat[imax]),
        argmin=(float(grid.alphas[imin // nb]), float(grid.betas[imin % nb])),
        argmax=(float(grid.alphas[imax // nb]), float(grid.betas[imax % nb])),
    )


def _spin_amplitude_grid(grid: SweepGrid):
    """Spin amplitudes (cu, cd) broadcast over the grid, shape (na, nb)."""
    alphas = grid.alphas[:, None]
    betas = grid.betas[None, :]
    cu = np.cos(alphas / 2.0) * np.ones_like(betas)
    cd = np.exp(1j * betas) * np.sin(alphas / 2.0)
    return cu.astype(np.complex128), cd


def _entropy_from_ab(a_vals, b_vals):
    """Vectorized entropy from moment arrays A (real) and B (complex)."""
    disc = (np.real(a_vals) - 0.5) ** 2 + np.abs(b_vals) ** 2
    lam = 0.5 + np.sqrt(disc)
    if np.max(lam) > 1.0 + 1e-9:
        raise DomainError(f"inconsistent moments: lambda_plus up to {np.max(lam)}")
    return binary_entropy(np.minimum(lam, 1.0))


def sweep_asymptotic(
    coin,
    profile: InitialProfile,
    grid: SweepGrid,
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> SweepResult:
    """Asymptotic entropy at every grid point via the k-space kernels."""
    kernels = _asymptotic_kernels(coin_tag(coin), profile, quad)
    moments = moments_from_kernels(kernels, *_spin_amplitude_grid(grid))
    return _finalize_sweep(grid, _entropy_from_ab(moments.A_bar, moments.B_bar))


def sweep_simulated(
    coin,
    profile: InitialProfile,
    grid: SweepGrid,
    steps: int,
) -> SweepResult:
    """Simulated entropy S_E(steps) at every grid point.

    The walk is linear in the initial spin, so one basis-pair evolution per
    profile serves the whole grid; the result is identical (to roundoff) to
    evolving each grid point independently.
    """
    if steps < 0:
        raise DomainError(f"steps must be >= 0, got {steps}")
    basis = evolve_basis(profile, _coin_matrix(coin_tag(coin)), steps, times=[steps])
    cu, cd = _spin_amplitude_grid(grid)
    a_vals, b_vals = basis.moments_arrays(cu, cd)
    return _finalize_sweep(grid, _entropy_from_ab(a_vals[..., 0], b_vals[..., 0]))


def average_trace(
    coin,
    profile: InitialProfile,
    grid: SweepGrid,
    steps: int,
) -> list[tuple[int, float]]:
    """Grid-mean entropy at every t in [0, steps]."""
    if steps < 0:
        raise DomainError(f"steps must be >= 0, got {steps}")
    basis = evolve_basis(profile, _coin_matrix(coin_tag(coin)), steps)
    cu, cd = _spin_amplitude_grid(grid)
    a_vals, b_vals = basis.moments_arrays(cu, cd)
    entropies = _entropy_from_ab(a_vals, b_vals)  # (na, nb, steps+1)
    means = entropies.reshape(-1, steps + 1).mean(axis=0)
    return [(t, float(means[t])) for t in range(steps + 1)]


@dataclass(frozen=True)
class ComparisonReport:
    """Simulated-vs-asymptotic grid means for one initial dispersion."""

    sigma0: float
    mean_simulated: float
    mean_asymptotic: float
    delta_pct: float


def family_profile(family: str, sigma0: float) -> InitialProfile:
    """Profile of a delocalized family at dispersion sigma0.

    "gaussian" maps directly; "rect" rounds sigma0 to the nearest integer
    half-width via sigma_to_a.
    """
    if family == "gaussian":
        return Gaussian(sigma0)
    if family == "rect":
        return Rectangular(sigma_to_a(sigma0))
    raise DomainError(f"unknown profile family {family!r}")


def compare(
    coin,
    family: str,
    sigma_list,
    grid: SweepGrid,
    steps: int,
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> list[ComparisonReport]:
    """<S_E(steps)> vs <S_bar_E> per dispersion, with percentage difference."""
    if steps < 1:
        raise DomainError(f"steps must be >= 1, got {steps}")
    if not sigma_list:
        raise DomainError("sigma list must be non-empty")
    reports = []
    for s0 in sigma_list:
        profile = family_profile(family, s0)
        sim = sweep_simulated(coin, profile, grid, steps).mean
        asym = sweep_asymptotic(coin, profile, grid, quad).mean
        reports.append(
            ComparisonReport(
                sigma0=float(s0),
                mean_simulated=sim,
                mean_asymptotic=asym,
                delta_pct=100.0 * abs(sim - asym) / asym,
            )
        )
    return reports


@dataclass(frozen=True)
class PowerLawFit:
    """Fit v = amplitude * sigma0^exponent (+ offset)."""

    amplitude: float
    exponent: float
    offset: float
    rms_residual: float


def fit_power_law(points, offset: float | None = None) -> PowerLawFit:
    """Least-squares power-law fit on (ln sigma0, ln(v - offset)).

    `points` is a sequence of (sigma0, value); `offset` is a fixed additive
    offset (None fits v = c sigma0^p with no offset).  The offset is fixed
    externally rather than fitted: the reference offsets are themselves
    asymptotic values, and a 2-parameter log-linear fit is reproducible.
    """
    pts = [(float(s), float(v)) for s, v in points]
    if len(pts) < 3:
        raise DomainError(f"need at least 3 points, got {len(pts)}")
    d = 0.0 if offset is None else float(offset)
    if any(s <= 0.0 for s, _ in pts):
        raise FitError("all sigma0 must be > 0")
    if any(v <= d for _, v in pts):
        raise FitError(f"all values must exceed the offset {d}")
    x = np.log([s for s, _ in pts])
    y = np.log([v - d for _, v in pts])
    if np.ptp(x) < 1e-12:
        raise FitError("degenerate abscissae: all sigma0 equal")
    p, c_log = np.polyfit(x, y, 1)
    resid = y - (p * x + c_log)
    return PowerLawFit(
        amplitude=float(np.exp(c_log)),
        exponent=float(p),
        offset=d,
        rms_residual=float(np.sqrt(np.mean(resid**2))),
    )


def asymptote_offset(
    coin,
    family: str = "gaussian",
    grid: SweepGrid | None = None,
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> float:
    """Large-dispersion limit of the grid-mean asymptotic entropy.

    Evaluates the limiting closed form (Hadamard: delta = (1/2)(cos a +
    sin a cos b)^2; Fourier: delta = (sin a cos b)^2) over the grid.  The
    limit is the same for the Gaussian and rectangular families, so `family`
    only documents intent.
    """
    if family not in ("gaussian", "rect"):
        raise DomainError(f"unknown profile family {family!r}")
    tag = coin_tag(coin)
    if grid is None:
        grid = paper_grid()
    alphas = grid.alphas[:, None]
    betas = grid.betas[None, :]
    if tag == "hadamard":
        delta = 0.5 * (np.cos(alphas) + np.sin(alphas) * np.cos(betas)) ** 2
    else:
        delta = (np.sin(alphas) * np.cos(betas)) ** 2
    lam = (1.0 + np.sqrt(np.clip(delta, 0.0, 1.0))) / 2.0
    return float(np.mean(binary_entropy(lam)))

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

from .core import (
    CoinMoments,
    as_time,
    entropy_from_delta,
    entropy_from_moments,
    spin_amplitudes,
    spin_moments,
    unitary_coin,
)
from .errors import CapacityError, DomainError, FitError
from .kspace import _asymptotic_kernels, closed_delta, coin_tag
from .lattice import (
    DEFAULT_MAX_SITES,
    Gaussian,
    InitialProfile,
    Rectangular,
    basis_sums,
    evolve_basis,
    sigma_to_a,
)


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
    """Uniform grid with the given step, covering [0, pi] x [0, 2pi], of at
    most DEFAULT_MAX_SITES points: a larger one raises CapacityError unbuilt."""
    if not step > 0.0:
        raise DomainError(f"grid step must be > 0, got {step}")
    # a ratio above the cap is clamped to it: that grid is refused either way
    na = math.floor(min(math.pi / step, DEFAULT_MAX_SITES) + 1e-9) + 1
    nb = math.floor(min(2.0 * math.pi / step, DEFAULT_MAX_SITES) + 1e-9) + 1
    if na * nb > DEFAULT_MAX_SITES:
        raise CapacityError(f"a grid of {na} x {nb} points exceeds {DEFAULT_MAX_SITES}")
    # the last alpha may round above pi; alpha's domain ends there
    alphas = np.minimum(step * np.arange(na), math.pi)
    return SweepGrid(alphas=alphas, betas=step * np.arange(nb))


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


def _sweep(grid: SweepGrid, sums) -> SweepResult:
    """Entropy at every grid point from one set of seven basis sums, and its statistics."""
    spins = spin_amplitudes(grid.alphas[:, None], grid.betas[None, :])
    a_vals, b_vals = spin_moments(sums, *spins)
    values = entropy_from_moments(CoinMoments(a_vals, b_vals))
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


def sweep_asymptotic(
    coin,
    profile: InitialProfile,
    grid: SweepGrid,
) -> SweepResult:
    """Asymptotic entropy at every grid point from the time-averaged k-space sums."""
    return _sweep(grid, _asymptotic_kernels(unitary_coin(coin).tobytes(), profile))


def sweep_simulated(
    coin,
    profile: InitialProfile,
    grid: SweepGrid,
    steps: int,
) -> SweepResult:
    """Simulated entropy S_E(steps) at every grid point.

    The walk is linear in the initial spin, so the seven basis sums at
    t = steps serve the whole grid; `lattice.basis_sums` takes them from the
    cached lag table of one Local walk per (coin, steps).  The result equals
    (to roundoff) evolving each grid point from the profile independently.
    """
    return _sweep(grid, basis_sums(profile, coin, steps))


def average_trace(
    coin,
    profile: InitialProfile,
    grid: SweepGrid,
    steps: int,
) -> list[tuple[int, float]]:
    """Grid-mean entropy at every t in [0, steps].

    One basis-pair walk serves the whole grid.  The grid is then reduced one
    alpha row at a time: the row's moments and entropies, nb x (steps + 1)
    values, are added state by state into one (steps + 1) accumulator in grid
    index order, so no (na, nb, steps + 1) array is built and a row's
    temporaries stay cache-sized.  The sum is sequential and its order fixed:
    for steps >= 1 it is the order of numpy's `mean(axis=0)` over the
    (n_points, steps + 1) entropy table, and the means equal that bit for bit.
    """
    steps = as_time(steps, "steps")
    basis = evolve_basis(profile, coin, steps)
    cu, cd = spin_amplitudes(grid.alphas[:, None], grid.betas[None, :])
    total = np.zeros(steps + 1)
    for up, down in zip(cu, cd):
        a_vals, b_vals = basis.moments_arrays(up, down)
        for row in entropy_from_moments(CoinMoments(a_vals, b_vals)):  # (nb, steps+1)
            np.add(total, row, out=total)
    means = total / grid.n_points
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
        asym = sweep_asymptotic(coin, profile, grid).mean
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
    grid: SweepGrid | None = None,
) -> float:
    """Large-dispersion limit of the grid-mean asymptotic entropy.

    The grid mean of `entropy_from_delta(closed_delta(coin, f, alpha, beta))`
    at the limiting factor: f -> 0 for Hadamard, where delta = (1/2)(cos a +
    sin a cos b)^2, and f -> 1/4 for Fourier, where delta = (sin a cos b)^2.
    The limit is the same for the Gaussian and rectangular families.
    """
    f_limit = 0.0 if coin_tag(coin) == "hadamard" else 0.25
    if grid is None:
        grid = paper_grid()
    delta = closed_delta(coin, f_limit, grid.alphas[:, None], grid.betas[None, :])
    return float(np.mean(entropy_from_delta(delta)))

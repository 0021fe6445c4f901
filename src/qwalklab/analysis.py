"""Experiment layer: Bloch-sphere sweeps, averages, comparisons, decay fits.

Averages are unweighted arithmetic means over the (alpha, beta) angle grid,
NOT Haar-measure averages over the Bloch sphere; the reference figures are
defined on the 0.1-step angle grid.  All reductions run in fixed index order,
so sweep statistics are bitwise reproducible.

Every grid reads delta one way.  The walk and the position trace map an
initial spin's Bloch vector n to the coin's r = P n + q (`core.bloch_map`), so
delta = |r|^2 is a quadratic form with ten coefficients (`core.delta_form`),
and the closed form is one too (`kspace._closed_form`).  A grid's delta is
those coefficients read at its spins by `core.delta_at`.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .core import (
    _entropy_into,
    as_list,
    as_positive,
    as_time,
    bloch_monomials,
    check_angles,
    delta_at,
    delta_form,
    entropy_from_delta,
    unitary_coin,
)
from .errors import CapacityError, DomainError, FitError
from .kspace import _asymptotic_kernels, _closed_form, coin_tag
from .lattice import (
    DEFAULT_MAX_SITES,
    FAMILIES,
    InitialProfile,
    basis_sums,
    evolve_basis,
)


@dataclass(frozen=True)
class SweepGrid:
    """Strictly increasing 1-D alpha and beta axes (radians), read by `core.check_angles`."""

    alphas: NDArray[np.float64]
    betas: NDArray[np.float64]

    def __post_init__(self) -> None:
        check_angles(self.alphas, self.betas)
        for name, arr in (("alphas", self.alphas), ("betas", self.betas)):
            arr = np.asarray(arr, dtype=float)
            if arr.ndim != 1 or arr.size == 0 or np.any(np.diff(arr) <= 0):
                raise DomainError(f"{name} must be one non-empty, strictly increasing axis")
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
    return grid_from_step(0.1)


def grid_from_step(step: float) -> SweepGrid:
    """Uniform grid with the given step, covering [0, pi] x [0, 2pi], of at
    most DEFAULT_MAX_SITES points: a larger one raises CapacityError unbuilt."""
    as_positive(step, "grid step")
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


def _sweep(grid: SweepGrid, form) -> SweepResult:
    """Entropy at every grid point from the ten coefficients of delta
    (`core.delta_form`'s layout), read by `core.delta_at`, and its statistics."""
    values = entropy_from_delta(delta_at(form, grid.alphas[:, None], grid.betas[None, :]))
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
    return _sweep(grid, delta_form(_asymptotic_kernels(unitary_coin(coin).tobytes(), profile)))


def sweep_simulated(
    coin,
    profile: InitialProfile,
    grid: SweepGrid,
    steps: int,
) -> SweepResult:
    """Simulated entropy S_E(steps) at every grid point.

    The walk is linear in the initial spin, so the seven basis sums at
    t = steps serve the whole grid; `lattice.basis_sums` takes them from the
    cached lag table of the Local walk per (coin, steps), composed from the
    walk of a quarter of the steps.  The result equals
    (to roundoff) evolving each grid point from the profile independently.
    """
    return _sweep(grid, delta_form(basis_sums(profile, coin, steps)))


def average_trace(
    coin,
    profile: InitialProfile,
    grid: SweepGrid,
    steps: int,
) -> list[tuple[int, float]]:
    """Grid-mean entropy at every t in [0, steps].

    One basis-pair walk serves the whole grid: its seven sums give delta as a
    quadratic form in each spin's Bloch vector n, with ten coefficients per t
    (`core.delta_form`).  The grid is then reduced one alpha row at a time:
    the row's delta at every t is one (nb x 10) @ (10 x (steps + 1)) product,
    and its entropies come from the entropy kernel, both written into buffers
    allocated once per call, so no (na, nb, steps + 1) array is built.  The
    entropies are added state by state into one (steps + 1) accumulator in
    grid index order: the order of numpy's `mean(axis=0)` over the
    (n_points, steps + 1) table of the same row products, and the means equal
    that bit for bit.
    """
    steps = as_time(steps, "steps")
    form = delta_form(evolve_basis(profile, coin, steps).sums)  # (10, steps + 1)
    delta, entropy, work = np.empty((3, grid.betas.size, steps + 1))
    total = np.zeros(steps + 1)
    for monomials in bloch_monomials(grid.alphas[:, None], grid.betas[None, :]):  # (nb, 10)
        np.matmul(monomials, form, out=delta)
        _entropy_into(delta, entropy, work)
        for row in entropy:
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
    """Profile of the delocalized `family` at dispersion sigma0 (`lattice.FAMILIES`)."""
    if not isinstance(family, str) or family not in FAMILIES:
        raise DomainError(f"unknown profile family {family!r}")
    return FAMILIES[family](sigma0)


def compare(
    coin,
    family: str,
    sigma_list,
    grid: SweepGrid,
    steps: int,
) -> list[ComparisonReport]:
    """<S_E(steps)> vs <S_bar_E> per dispersion, with percentage difference."""
    if as_time(steps, "steps") < 1:
        raise DomainError(f"steps must be >= 1, got {steps}")
    sigmas = as_list(sigma_list, "sigma list")
    if not sigmas:
        raise DomainError("sigma list must be non-empty")
    reports = []
    for s0 in sigmas:
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


def _finite(value, name: str) -> float:
    """`value` as a float if it is a finite real number and no bool, else
    DomainError naming `name`; an int no double holds is not finite."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not abs(value) <= sys.float_info.max):  # NaN fails
        raise DomainError(f"{name} must be finite and real, got {value!r}")
    return float(value)


def _fit_point(point) -> tuple[float, float]:
    """One (sigma0, value) pair of `fit_power_law` as floats, or DomainError."""
    try:
        s, v = point
    except (TypeError, ValueError):  # no pair
        raise DomainError(f"each point must be a (sigma0, value) pair, got {point!r}") from None
    return float(as_positive(s, "sigma0")), _finite(v, "value")


def fit_power_law(points, offset: float | None = None) -> PowerLawFit:
    """Least-squares power-law fit on (ln sigma0, ln(v - offset)).

    `points` is a sequence of (sigma0, value) pairs, each sigma0 read by
    `core.as_positive`; `offset` is a fixed additive offset (None fits
    v = c sigma0^p with no offset).  A point that is no pair, or a value or
    offset that is no finite real number (a bool is none), raises DomainError
    before the fit.  The offset is fixed externally rather than fitted: the
    reference offsets are themselves asymptotic values, and a 2-parameter
    log-linear fit is reproducible.
    """
    pts = [_fit_point(point) for point in as_list(points, "points")]
    if len(pts) < 3:
        raise DomainError(f"need at least 3 points, got {len(pts)}")
    d = 0.0 if offset is None else _finite(offset, "offset")
    values = [v for _, v in pts]
    if any(v <= d for v in values):
        raise FitError(f"all values must exceed the offset {d}")
    x = np.log([s for s, _ in pts])
    y = np.log([v - d for v in values])
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

    The grid mean of the closed form at the coin's limiting factor: f -> 0 for
    Hadamard, where delta = (1/2)(cos a + sin a cos b)^2, and f -> 1/4 for
    Fourier, where delta = (sin a cos b)^2.  The limit is the same for the
    Gaussian and rectangular families.
    """
    return _sweep(grid or paper_grid(), _closed_form(coin_tag(coin))).mean

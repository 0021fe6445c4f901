"""Position-space evolution of the discrete-time quantum walk on a 1D lattice.

Each step applies the coin to every site spinor and then shifts up-amplitudes
one site right and down-amplitudes one site left.  All walks run through one
loop, `walk`: the amplitudes of every initial spin state of one profile are
stacked in a (spin states, 2, sites) buffer that is allocated once at its final
width, n0 + 2 * steps sites, and evolved in place.  At time t the walk occupies
the window of n0 + 2t sites centred in the buffer, a one-site zero guard band
included; each step reads that window and writes the one a site wider on each
side.  Moments are recorded only at the times the caller asks for.

The walk is also linear and translation invariant in position, so each of
the seven basis sums of a profile w at time T is sum_n r(n) C(n): r is the
autocorrelation of w, C a cross-correlation of two final amplitudes of the
Local basis-pair walk.  One cached (7, 4T + 1) table per (coin, T) holds every
C (`_local_table`, one walk of O(T^2) site updates), and `table_sums` reads
any profile of L sites from it in O((L + T) log(L + T)).  k-space makes the
same table from the coin's spectrum (`kspace._coefficients`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from .core import (
    CoinMoments,
    CoinOperator,
    Spinor,
    as_time,
    entropy_from_moments,
    spin_moments,
)
from .errors import CapacityError, DomainError

#: Default ceiling on the number of lattice sites in a walker window.
DEFAULT_MAX_SITES = 2_000_000

#: exp(-x) is 0.0 in double precision for every x above about 745.13.
_EXP_UNDERFLOW = 746.0

#: Gaussian weights are normalised on at least |j| <= 1000.  The normalising
#: sum is pairwise, so its rounding depends on how far the zero tail reaches;
#: this grid keeps every kept weight bit-identical to the weights earlier
#: versions computed on it.
_GAUSS_NORM_HALF_WIDTH = 1000


@dataclass(frozen=True)
class Local:
    """A single-site initial profile at j = 0."""


@dataclass(frozen=True)
class Gaussian:
    """A discrete Gaussian profile with finite initial dispersion sigma0 > 0."""

    sigma0: float

    def __post_init__(self) -> None:
        if not 0.0 < self.sigma0 < math.inf:
            raise DomainError(f"Gaussian sigma0 must be finite and > 0, got {self.sigma0}")


@dataclass(frozen=True)
class Rectangular:
    """A flat profile 1/sqrt(2a+1) on sites [-a, a]; a is a non-negative integer."""

    a: int

    def __post_init__(self) -> None:
        if int(self.a) != self.a or self.a < 0:
            raise DomainError(f"Rectangular a must be an integer >= 0, got {self.a}")
        object.__setattr__(self, "a", int(self.a))


InitialProfile = Local | Gaussian | Rectangular


@dataclass
class WalkerState:
    """Walker amplitudes a[j], b[j] on the window [j_min, j_min + len - 1]."""

    j_min: int
    a: NDArray[np.complex128]
    b: NDArray[np.complex128]
    t: int = 0

    @property
    def n_sites(self) -> int:
        return self.a.shape[0]

    def positions(self) -> NDArray[np.int64]:
        return self.j_min + np.arange(self.n_sites)

    def norm(self) -> float:
        return float(np.sum(np.abs(self.a) ** 2 + np.abs(self.b) ** 2))

    def spinor_at(self, j: int) -> Spinor:
        i = j - self.j_min
        if not 0 <= i < self.n_sites:
            return Spinor(0.0, 0.0)
        return Spinor(complex(self.a[i]), complex(self.b[i]))


@dataclass(frozen=True)
class EntanglementRecord:
    """Per-step coin moments and the entropy they imply."""

    t: int
    moments: CoinMoments
    entropy: float


def sigma_to_a(sigma0: float) -> int:
    """Half-width of the rectangular profile with dispersion sigma0.

    Rounds (sqrt(12 sigma0^2 + 1) - 1)/2 to the nearest integer (the lattice
    sum needs an integer half-width; the real-valued map only serves to compare
    profiles at equal dispersion).
    """
    if not 0.0 < sigma0 < math.inf:
        raise DomainError(f"sigma0 must be finite and > 0, got {sigma0}")
    return max(0, round((math.sqrt(12.0 * sigma0**2 + 1.0) - 1.0) / 2.0))


def profile_weights(profile: InitialProfile) -> tuple[int, NDArray[np.float64]]:
    """Real position weights (j_min, w) of a profile, normalized to sum(w^2) = 1.

    A Gaussian keeps exactly the sites whose normalised weight is nonzero in
    double precision: its first and last weights are nonzero, and the weight of
    the next site out on either side underflows to 0.  CapacityError is raised
    before an array above DEFAULT_MAX_SITES sites (2a + 1, or a Gaussian's
    normalisation grid) is built.
    """
    if isinstance(profile, Local):
        return 0, np.array([1.0])
    if isinstance(profile, Gaussian):
        # clamped so its square cannot overflow: a sigma0 above the cap is refused
        s2 = 4.0 * min(profile.sigma0, DEFAULT_MAX_SITES) ** 2
        half = max(_GAUSS_NORM_HALF_WIDTH, math.ceil(math.sqrt(s2 * _EXP_UNDERFLOW)))
        _check_capacity(2 * half + 1, None)
        j = np.arange(-half, half + 1, dtype=float)
        w = np.exp(-(j**2) / s2)
        w = w / math.sqrt(float(np.sum(w**2)))
        nonzero = np.flatnonzero(w)
        first, last = int(nonzero[0]), int(nonzero[-1])
        return first - half, w[first : last + 1]
    if isinstance(profile, Rectangular):
        n = 2 * profile.a + 1
        _check_capacity(n, None)
        return -profile.a, np.full(n, 1.0 / math.sqrt(n))
    raise DomainError(f"unknown profile {profile!r}")


def _autocorrelation(w: NDArray[np.float64], lags: int) -> NDArray[np.float64]:
    """r(n) = sum_j w_{j+n} w_j for n = -lags, ..., lags, by one rfft/irfft.

    r(-n) = r(n) for real weights, and the FFT size is at least len(w) + lags,
    so no circular wrap reaches the lags kept.
    """
    size = 1 << (w.shape[0] + lags - 1).bit_length()
    spectrum = np.fft.rfft(w, size)
    r = np.fft.irfft(spectrum.real**2 + spectrum.imag**2, size)[: lags + 1]
    return np.concatenate((r[:0:-1], r))


def table_sums(table: NDArray[np.complex128], w: NDArray[np.float64]) -> tuple:
    """The seven basis sums of the profile with weights w: sum_n r(n) C_i(n).

    Column M + n of `table` holds the Local state's lag-n coefficients C_i(n)
    (`_local_table` or `kspace._coefficients`); r is the autocorrelation of w,
    summed over |n| <= min(M, L - 1) for L weights.
    """
    mid = table.shape[1] // 2
    lags = min(mid, w.shape[0] - 1)
    # an elementwise product and sum, not a BLAS call: no thread start-up, and
    # the summation order does not depend on the BLAS build or thread count
    sums = np.sum(table[:, mid - lags : mid + lags + 1] * _autocorrelation(w, lags), axis=-1)
    return tuple(sums)


def build_initial(profile: InitialProfile, spin: Spinor) -> WalkerState:
    """Product state (position profile) x (spin), with a one-site guard band."""
    if not spin.is_normalized():
        raise DomainError(f"spin must be normalized, |spin|^2 = {spin.norm_sq()}")
    j_min, w = profile_weights(profile)
    n = w.shape[0] + 2
    a = np.zeros(n, dtype=np.complex128)
    b = np.zeros(n, dtype=np.complex128)
    a[1:-1] = w * spin.up
    b[1:-1] = w * spin.down
    return WalkerState(j_min=j_min - 1, a=a, b=b, t=0)


def _check_capacity(sites: int, max_sites: int | None) -> None:
    """The capacity rule: no window may hold more than max_sites sites
    (DEFAULT_MAX_SITES when None)."""
    limit = DEFAULT_MAX_SITES if max_sites is None else max_sites
    if sites > limit:
        raise CapacityError(f"window of {sites} sites exceeds max_sites={limit}")


def _coin_shift(
    psi: NDArray[np.complex128],
    lo: int,
    hi: int,
    coin: CoinOperator,
    scratch: NDArray[np.complex128],
) -> None:
    """One walk step, in place, on the window [lo, hi) of psi (states x 2 x sites).

    The window becomes [lo - 1, hi + 1); psi must be zero on those two new
    sites.  scratch is a (2, states, 2, >= hi - lo) work buffer.
    """
    n = hi - lo
    a = psi[:, 0, lo:hi]
    b = psi[:, 1, lo:hi]
    up = scratch[0, :, :, :n]
    down = scratch[1, :, :, :n]
    np.multiply(coin[0, 0], a, out=up[:, 0])
    np.multiply(coin[0, 1], b, out=up[:, 1])
    np.multiply(coin[1, 0], a, out=down[:, 0])
    np.multiply(coin[1, 1], b, out=down[:, 1])
    np.add(up[:, 0], up[:, 1], out=psi[:, 0, lo + 1 : hi + 1])  # up-amplitude: j -> j+1
    np.add(down[:, 0], down[:, 1], out=psi[:, 1, lo - 1 : hi - 1])  # down: j -> j-1
    psi[:, 0, lo] = 0.0
    psi[:, 1, hi - 1] = 0.0


def step(
    state: WalkerState, coin: CoinOperator, max_sites: int | None = None
) -> WalkerState:
    """One walk step: coin on every site spinor, then the conditional shift.

    The window grows by one site on each side.  Raises CapacityError if it
    would exceed max_sites.
    """
    n = state.n_sites
    _check_capacity(n + 2, max_sites)
    psi = np.zeros((1, 2, n + 2), dtype=np.complex128)
    psi[0, 0, 1:-1] = state.a
    psi[0, 1, 1:-1] = state.b
    _coin_shift(psi, 1, n + 1, coin, np.empty((2, 1, 2, n), dtype=np.complex128))
    return WalkerState(j_min=state.j_min - 1, a=psi[0, 0], b=psi[0, 1], t=state.t + 1)


def coin_moments(state: WalkerState) -> CoinMoments:
    """Moments A = sum |a_j|^2 and B = sum a_j b_j* of the current state."""
    return CoinMoments(
        A=float(np.sum(np.abs(state.a) ** 2)),
        B=complex(np.vdot(state.b, state.a)),
    )


class Walk(NamedTuple):
    """Cross sums of the walks of several initial spins of one profile.

    For spin states i, k and the recorded time times[n]:
        cross_a[i, k, n] = sum_j a_i(j) conj(a_k(j)),
        cross_b[i, k, n] = sum_j a_i(j) conj(b_k(j)),
    so cross_a[i, i] holds the moment A and cross_b[i, i] the moment B of
    spin state i.  `final` holds every walker after the last step.
    """

    times: tuple[int, ...]
    cross_a: NDArray[np.complex128]
    cross_b: NDArray[np.complex128]
    final: tuple[WalkerState, ...]

    def records(self) -> list[EntanglementRecord]:
        """Moments and entropy of the first spin state at every recorded time."""
        a, b = self.cross_a[0, 0].real, self.cross_b[0, 0]
        entropies = entropy_from_moments(CoinMoments(A=a, B=b))
        return [EntanglementRecord(t=t, moments=CoinMoments(A=float(at), B=complex(bt)),
                                   entropy=float(s))
                for t, at, bt, s in zip(self.times, a, b, entropies)]


def _recorded_times(steps: int, times) -> tuple[int, ...]:
    if times is None:
        return tuple(range(steps + 1))
    if len(times) == 0 or any(int(t) != t or not 0 <= t <= steps for t in times):
        raise DomainError(f"times must be integers in [0, {steps}], got {times!r}")
    return tuple(sorted({int(t) for t in times}))


def _record(psi, lo, hi, cross_a, cross_b, squares) -> None:
    """Store the cross sums of the window [lo, hi) in cross_a, cross_b (states x states)."""
    a = psi[:, 0, lo:hi]
    b = psi[:, 1, lo:hi]
    sq = squares[:, : hi - lo]
    np.square(np.abs(a, out=sq), out=sq)
    sums = np.add.reduce(sq, axis=-1)
    for i, a_i in enumerate(a):
        cross_a[i, i] = sums[i]
        for k, b_k in enumerate(b):
            cross_b[i, k] = np.vdot(b_k, a_i)
        for k in range(i + 1, len(a)):
            cross_a[i, k] = np.vdot(a[k], a_i)
            cross_a[k, i] = np.conj(cross_a[i, k])


def walk(
    profile: InitialProfile,
    spins,
    coin: CoinOperator,
    steps: int,
    times=None,
    max_sites: int | None = None,
) -> Walk:
    """Walk every spin state in `spins` from `profile` for `steps` steps.

    The one walk loop of the package.  Cross sums are recorded at `times`
    (every t in [0, steps] when None).  The final window, n0 + 2 * steps
    sites, is checked against max_sites before the walk buffer is allocated.
    """
    steps = as_time(steps, "steps")
    times = _recorded_times(steps, times)
    initial = [build_initial(profile, spin) for spin in spins]
    n0 = initial[0].n_sites
    width = n0 + 2 * steps
    _check_capacity(width, max_sites)

    n_states = len(initial)
    psi = np.zeros((n_states, 2, width), dtype=np.complex128)
    for s, state in enumerate(initial):
        psi[s, 0, steps : steps + n0] = state.a
        psi[s, 1, steps : steps + n0] = state.b
    scratch = np.empty((2, n_states, 2, width), dtype=np.complex128)
    squares = np.empty((n_states, width))
    cross_a = np.zeros((n_states, n_states, len(times)), dtype=np.complex128)
    cross_b = np.zeros((n_states, n_states, len(times)), dtype=np.complex128)

    k = 0
    for t in range(steps + 1):
        lo, hi = steps - t, steps + n0 + t
        if k < len(times) and times[k] == t:
            _record(psi, lo, hi, cross_a[..., k], cross_b[..., k], squares)
            k += 1
        if t < steps:
            _coin_shift(psi, lo, hi, coin, scratch)

    j_min = initial[0].j_min - steps
    final = tuple(WalkerState(j_min=j_min, a=psi[s, 0], b=psi[s, 1], t=steps)
                  for s in range(n_states))
    return Walk(times=times, cross_a=cross_a, cross_b=cross_b, final=final)


def evolve(
    profile: InitialProfile,
    spin: Spinor,
    coin: CoinOperator,
    steps: int,
    max_sites: int | None = None,
) -> list[EntanglementRecord]:
    """Walk for `steps` steps, recording moments and entropy at every t."""
    return walk(profile, (spin,), coin, steps, max_sites=max_sites).records()


def position_distribution(state: WalkerState) -> list[tuple[int, float]]:
    """Site probabilities P(j) = |a_j|^2 + |b_j|^2, omitting exact zeros."""
    p = np.abs(state.a) ** 2 + np.abs(state.b) ** 2
    j = state.positions()
    keep = p > 0.0
    return [(int(jj), float(pp)) for jj, pp in zip(j[keep], p[keep])]


@dataclass(frozen=True)
class BasisEvolution:
    """Cross moments of the two spin-basis evolutions of one profile.

    The walk is linear in the initial spin, so the state from spin (cu, cd) is
    cu * (state from spin up) + cd * (state from spin down).  The seven
    quadratic cross sums at each recorded time in `times` give the moments of
    every initial spin state without re-simulating.
    """

    steps: int
    times: tuple[int, ...]
    auu: NDArray[np.float64] = field(repr=False)
    add: NDArray[np.float64] = field(repr=False)
    aud: NDArray[np.complex128] = field(repr=False)
    buu: NDArray[np.complex128] = field(repr=False)
    bud: NDArray[np.complex128] = field(repr=False)
    bdu: NDArray[np.complex128] = field(repr=False)
    bdd: NDArray[np.complex128] = field(repr=False)

    def moments_arrays(self, up, down):
        """Moments (A, B) for spin amplitudes `up`, `down` (scalars or arrays).

        Broadcast shape is spin_shape + (len(times),); A is real, B complex.
        The result grows with both, so callers over a large spin grid at many
        times pass a slice of the grid per call: `analysis.average_trace`
        passes one alpha row, shape (nb,).
        """
        sums = (self.auu, self.aud, self.add, self.buu, self.bud, self.bdu, self.bdd)
        cu = np.asarray(up, dtype=np.complex128)[..., None]
        cd = np.asarray(down, dtype=np.complex128)[..., None]
        return spin_moments(sums, cu, cd)


#: The Local walk's up and down basis spins.
_BASIS = (Spinor(1.0, 0.0), Spinor(0.0, 1.0))


def evolve_basis(
    profile: InitialProfile,
    coin: CoinOperator,
    steps: int,
    max_sites: int | None = None,
    times=None,
) -> BasisEvolution:
    """Evolve the spin-up and spin-down basis states of a profile together.

    Records the quadratic cross sums needed by BasisEvolution.moments_arrays
    at `times` (every t in [0, steps] when None).
    """
    run = walk(profile, _BASIS, coin, steps, times=times, max_sites=max_sites)
    a, b = run.cross_a, run.cross_b
    return BasisEvolution(
        steps=steps, times=run.times,
        auu=a[0, 0].real.copy(), add=a[1, 1].real.copy(), aud=a[0, 1],
        buu=b[0, 0], bud=b[0, 1], bdu=b[1, 0], bdd=b[1, 1],
    )


@functools.lru_cache(maxsize=4)
def _local_table(coin: bytes, steps: int) -> NDArray[np.complex128]:
    """The (coin, steps) lag table of the seven basis sums, from the Local walk.

    Row i, column 2 * steps + n holds C_i(n) = sum_j x(j) conj(y(j + n)) for
    the final amplitudes (x, y) that sum i pairs, as in `core.spin_moments`
    and `kspace._coefficients`, all from one zero-padded FFT.  `coin` is the
    coin matrix as bytes, for the cache key; the shared table is read-only
    (448 KB at steps = 1000).
    """
    matrix = np.frombuffer(coin, dtype=np.complex128).reshape(2, 2)
    run = walk(Local(), _BASIS, matrix, steps, times=(steps,))
    (au, bu), (ad, bd) = ((s.a, s.b) for s in run.final)
    size = 1 << (2 * au.shape[0] - 2).bit_length()  # no circular wrap reaches a kept lag
    f = np.fft.fft(np.array([au, ad, bu, bd]), size)
    # ifft(X conj(Y)) at lag m is sum_j x(j + m) conj(y(j)), C_i at n = -m;
    # row by row, so no (7, size) temporaries outlive one row
    lags = -np.arange(-2 * steps, 2 * steps + 1) % size
    pairs = ((0, 0), (0, 1), (1, 1), (0, 2), (0, 3), (1, 2), (1, 3))
    table = np.array([np.fft.ifft(f[x] * np.conj(f[y]))[lags] for x, y in pairs])
    table.flags.writeable = False
    return table


def basis_sums(profile: InitialProfile, coin: CoinOperator, steps: int):
    """The seven basis sums of `core.spin_moments` at t = steps, from the Local walk.

    `table_sums` of the profile against the Local walk's `_local_table`; they
    agree with `evolve_basis(profile, coin, steps, times=[steps])` to
    rounding.  The profile's final window, L + 2 * steps + 2 sites, must fit
    DEFAULT_MAX_SITES, as it must for `walk`; it is checked first.
    """
    steps = as_time(steps, "steps")
    _, w = profile_weights(profile)
    _check_capacity(w.shape[0] + 2 * steps + 2, None)
    return table_sums(_local_table(np.asarray(coin, dtype=np.complex128).tobytes(), steps), w)

"""Position-space evolution of the discrete-time quantum walk on a 1D lattice.

Each step applies the coin to every site spinor and then shifts up-amplitudes
one site right and down-amplitudes one site left.  All walks run through one
loop, `walk`: the amplitudes of every initial spin state of one profile are
stacked in one (spin states, 2, slots) buffer, evolved in place in the frame
that moves with the down-component.  Slot f at time t holds site
j_min - t + f * (2 / c); c = min(2, L) is the number of parity classes a
profile of L contiguous sites occupies.  A one-site profile reaches only the
sites with j + t even, so c = 1 and no slot holds a site it cannot occupy.  Each
step leaves b on its slot and moves a up c slots: the window [0, L + c t) grows
by c slots.  Moments are recorded only at the times the caller asks for.
Every profile enters as its real weights (`profile_weights`); a Gaussian's
are built and normalised only on the span where they can be nonzero.

The walk steps and records only a live range [lo, hi) of that window.  Every
_SCAN_EVERY steps, and once more before the final state is built, each end of
the range moves inward past the slots where every real and imaginary part of
every state is below _AMPLITUDE_FLOOR = 2**-511, and those slots are zeroed.
Past the ballistic peak at |j| ~ t / sqrt(2) the amplitude decays
exponentially, so a long walk's window ends in amplitudes no moment can see,
and a Gaussian starts with them (about 31 % of its sites).  Below the floor
their squares are subnormal, and so, at long times, are the parts themselves;
each product on a subnormal takes a microcode assist.  On a 2-core Xeon
(numpy 2.4.6, one BLAS thread), an n = 4,000 complex scalar product with 8 %
subnormal entries takes 15.7 us instead of 2.7 us, and a vdot with 8 % of its
entries near 2**-520 takes 18.4 us instead of 2.2 us; adds are unaffected.
The moments move by at most 2.2e-16 (a BLAS vdot sums from a new first
slot), and the final state only where its parts are tiny: see `walk`.

The walk is also linear and translation invariant in position, so each of
the seven basis sums of a profile w at time T is sum_n r(n) C(n): r is the
autocorrelation of w, C a cross-correlation of two final amplitudes of the
Local basis-pair walk.  One cached (7, 4T + 1) table per (coin, T) holds every
C (`_local_table`), and `table_sums` reads any profile of L sites from it in
O((L + T) log(L + T)).  The same two properties make the Local walk's final
amplitudes a propagator, M_T(j) = <j|U^T|0>, with M_(a+b) = M_a * M_b, a
convolution in position: the table walks T // 4 steps and composes that
propagator with itself twice (and with the last T mod 4 steps), by direct
convolution, so it is built from walked amplitudes only and stays
independent of k-space, which makes the same table from powers of the step
(`kspace._coefficients`) through the same FFT reader (`_lag_table`).  At
T = 1000 the table is 1.2e-15 off a long-double walk's (5.3e-16 when walked
for all T steps), and is built in about a third of the time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from .core import (
    BASIS_SUMS,
    CoinMoments,
    CoinOperator,
    Spinor,
    as_list,
    as_positive,
    as_time,
    entropy_from_moments,
    require_normalized,
    spin_moments,
    unitary_coin,
)
from .errors import CapacityError, DomainError

#: Default ceiling on the number of lattice sites in a walker window.
DEFAULT_MAX_SITES = 2_000_000

#: exp(-x) is 0.0 in double precision for every x above about 745.13.
_EXP_UNDERFLOW = 746.0

#: Gaussian dispersions below this one are read as it; it and every sigma0
#: below it keep only the site j = 0.
_GAUSS_MIN_SIGMA = 0.01

#: The walk drops an end slot once every part of it is below this floor:
#: every part below it squares to a subnormal double (below 2**-1022).
_AMPLITUDE_FLOOR = 2.0**-511

#: Steps between two scans of the live range's ends.  A scan that finds both
#: end slots live costs a few microseconds; at 32 steps the Local basis-pair
#: walk of 1,000 steps, which never drops a slot, stays within 2 % of the
#: walk without a live range, and long and Gaussian walks run as fast as at
#: 8 or 16.
_SCAN_EVERY = 32

#: Slots an end scan reads at once.
_SCAN_BLOCK = 64


@dataclass(frozen=True)
class Local:
    """A single-site initial profile at j = 0."""


@dataclass(frozen=True)
class Gaussian:
    """A discrete Gaussian profile with finite initial dispersion sigma0 > 0."""

    sigma0: float

    def __post_init__(self) -> None:
        as_positive(self.sigma0, "Gaussian sigma0")


@dataclass(frozen=True)
class Rectangular:
    """A flat profile 1/sqrt(2a+1) on sites [-a, a]; a is an integer >= 0 (`as_time`)."""

    a: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", as_time(self.a, "Rectangular a"))


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
    if isinstance(as_positive(sigma0, "sigma0"), np.floating):
        sigma0 = float(sigma0)  # a float32 would be squared, and meet 1e150, in float32
    if sigma0 > 1e150:
        # 12 sigma0^2 overflows a double from about 1.3e154 on; this sigma0 is
        # an integer, and with x = sqrt(12 sigma0^2 + 1), round((x - 1)/2) =
        # floor(x/2) = isqrt(x^2) // 2 exactly (x^2 is odd: x/2 is no tie)
        return math.isqrt(12 * int(sigma0) ** 2 + 1) // 2
    return max(0, round((math.sqrt(12.0 * sigma0**2 + 1.0) - 1.0) / 2.0))


#: Each delocalized profile family by name: the map from a dispersion sigma0 to its profile.
FAMILIES = {"gaussian": Gaussian, "rect": lambda sigma0: Rectangular(sigma_to_a(sigma0))}


def profile_weights(profile: InitialProfile) -> tuple[int, NDArray[np.float64]]:
    """Real position weights (j_min, w) of a profile, normalized to sum(w^2) = 1.

    A Gaussian is built and normalised on |j| <= ceil(sqrt(4 sigma0^2 *
    _EXP_UNDERFLOW)), outside which exp(-j^2 / (4 sigma0^2)) is 0, and keeps
    exactly the sites whose normalised weight is nonzero in double precision:
    its first and last weights are nonzero, and the weight of the next site
    out on either side underflows to 0.  CapacityError is raised before an
    array above DEFAULT_MAX_SITES sites (2a + 1, or that Gaussian span) is
    built.
    """
    if isinstance(profile, Local):
        return 0, np.array([1.0])
    if isinstance(profile, Gaussian):
        # clamped so its square can neither overflow nor underflow: a sigma0
        # above the cap is refused, and every sigma0 below 0.0183 has the
        # Local weights (0, [1.0])
        s2 = 4.0 * min(max(profile.sigma0, _GAUSS_MIN_SIGMA), DEFAULT_MAX_SITES) ** 2
        half = math.ceil(math.sqrt(s2 * _EXP_UNDERFLOW))
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


def _check_capacity(sites: int, max_sites: int | None) -> None:
    """The capacity rule: no window may hold more than max_sites sites
    (DEFAULT_MAX_SITES when None)."""
    limit = DEFAULT_MAX_SITES if max_sites is None else max_sites
    if sites > limit:
        raise CapacityError(f"window of {sites} sites exceeds max_sites={limit}")


def _coin_shift(psi: NDArray[np.complex128], lo: int, hi: int, c: int, coin: CoinOperator,
                scratch: NDArray[np.complex128]) -> None:
    """One walk step, in place, on the live slots [lo, hi) of psi (states x 2 x slots).

    In the frame that moves with the down-component, b stays on its slot and a
    moves up c slots; the live range becomes [lo, hi + c).  psi's b must be
    zero on [hi, hi + c).  scratch is a (2, states, 2, >= hi - lo) work buffer.
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
    np.add(up[:, 0], up[:, 1], out=psi[:, 0, lo + c : hi + c])  # up-amplitude: j -> j+1
    np.add(down[:, 0], down[:, 1], out=b)  # down: j -> j-1, the frame's own motion
    psi[:, 0, lo : lo + c] = 0.0


def _dead(psi: NDArray[np.complex128], start: int, stop: int) -> NDArray[np.bool_]:
    """Per slot of [start, stop): whether every real and imaginary part of
    every state is below _AMPLITUDE_FLOOR."""
    parts = np.abs(psi[:, :, start:stop].view(np.float64))
    return (parts.reshape(-1, stop - start, 2) < _AMPLITUDE_FLOOR).all(axis=(0, 2))


def _dead_slot(psi: NDArray[np.complex128], slot: int) -> bool:
    """`_dead` of one slot, read as Python complex numbers: one numpy call."""
    return not any(abs(z.real) >= _AMPLITUDE_FLOOR or abs(z.imag) >= _AMPLITUDE_FLOOR
                   for state in psi[:, :, slot].tolist() for z in state)


def _dead_run(psi: NDArray[np.complex128], lo: int, hi: int, top: bool) -> int:
    """How many slots at the bottom (or `top`) end of [lo, hi) are dead
    (`_dead`), read _SCAN_BLOCK slots at a time."""
    run = 0
    while run < hi - lo:
        size = min(_SCAN_BLOCK, hi - lo - run)
        start = hi - run - size if top else lo + run
        dead = _dead(psi, start, start + size)
        if top:
            dead = dead[::-1]
        if not dead.all():
            return run + int(dead.argmin())
        run += size
    return run


def _live_range(psi: NDArray[np.complex128], lo: int, hi: int) -> tuple[int, int]:
    """[lo, hi) with each end moved inward past its dead slots, which are
    zeroed.  Only the ends are read, and nothing more while both end slots
    are live."""
    if lo >= hi or not (_dead_slot(psi, lo) or _dead_slot(psi, hi - 1)):
        return lo, hi
    new_lo = lo + _dead_run(psi, lo, hi, top=False)
    new_hi = hi - _dead_run(psi, new_lo, hi, top=True)
    psi[:, :, lo:new_lo] = 0.0
    psi[:, :, new_hi:hi] = 0.0
    return new_lo, new_hi


class Walk(NamedTuple):
    """Cross sums of the walks of several initial spins of one profile.

    For spin states s, r and the recorded time times[n]:
        cross[0, s, r, n] = sum_j a_s(j) conj(a_r(j)),
        cross[1, s, r, n] = sum_j a_s(j) conj(b_r(j)),
    so cross[0, s, s] holds the moment A and cross[1, s, s] the moment B of
    spin state s.  `final` holds every walker after the last step.
    """

    times: tuple[int, ...]
    cross: NDArray[np.complex128]
    final: tuple[WalkerState, ...]

    def records(self) -> list[EntanglementRecord]:
        """Moments and entropy of the first spin state at every recorded time."""
        a, b = self.cross[0, 0, 0].real, self.cross[1, 0, 0]
        entropies = entropy_from_moments(CoinMoments(A=a, B=b))
        return [EntanglementRecord(t=t, moments=CoinMoments(A=float(at), B=complex(bt)),
                                   entropy=float(s))
                for t, at, bt, s in zip(self.times, a, b, entropies)]


def _recorded_times(steps: int, times) -> tuple[int, ...]:
    if times is None:
        return tuple(range(steps + 1))
    times = as_list(times, "times")
    if len(times) == 0 or any(as_time(t, "times") > steps for t in times):
        raise DomainError(f"times must be integers in [0, {steps}], got {times!r}")
    return tuple(sorted({int(t) for t in times}))


def _cross_pairs(n_states: int) -> list[tuple[int, int, int]]:
    """The (y, s, r) of every cross sum `walk` computes: cross[1, s, r] for all
    s, r and cross[0, s, r] for r >= s; the rest of cross[0] is their conjugate."""
    return ([(1, s, r) for s in range(n_states) for r in range(n_states)]
            + [(0, s, r) for s in range(n_states) for r in range(s, n_states)])


def walk(
    profile: InitialProfile,
    spins,
    coin,
    steps: int,
    times=None,
    max_sites: int | None = None,
) -> Walk:
    """Walk every spin state in `spins` from `profile` for `steps` steps.

    The one walk loop of the package.  Each walker starts in the product state
    (profile weights) x (spin) on the profile's L sites; every spin must be
    normalized and the coin a name or unitary 2x2 matrix (`core.unitary_coin`).
    Cross sums are recorded at `times`, read once (every t in [0, steps] when None).
    `final` holds each walker on the L + 2 * steps sites it can reach, from
    j_min - steps on; that window is checked against max_sites first.
    max_sites is a count (`core.as_time`): a bool, a fraction, NaN, an
    infinity or a value below 1, which no walk fits in, raises DomainError.

    Only the live range of slots is stepped and recorded: the ends of the
    window, where every part of every state is below _AMPLITUDE_FLOOR
    (2**-511), are dropped every _SCAN_EVERY steps and before `final` is
    built, and `final` holds zeros there.  Those parts square to subnormal
    doubles, or are subnormal themselves, and a product on a subnormal is
    6 to 8 times slower (see the module docstring).  Against the same walk
    keeping every part, the cross sums moved by at most 2.2e-16 over 72
    walks (six profiles, three coins, T up to 2,500).  In exact arithmetic
    the state moves by what was dropped, each part below 2**-511; in
    floating point a one-ulp rounding difference can then travel inward.
    With the named coins, up to 4,000 steps, every `qwalk evolve` `.dist`
    line with p >= 1e-240 is byte-identical; smaller ones may change or drop
    out, and every p listed is still > 0.
    """
    if max_sites is not None:
        max_sites = as_time(max_sites, "max_sites")
        if max_sites < 1:
            raise DomainError(f"max_sites must be >= 1, got {max_sites}")
    steps = as_time(steps, "steps")
    times = _recorded_times(steps, times)
    spins = as_list(spins, "spins")
    for spin in spins:
        require_normalized(spin)
    coin = unitary_coin(coin)
    j_min, w = profile_weights(profile)
    n0 = w.shape[0]
    width = n0 + 2 * steps
    _check_capacity(width, max_sites)

    # slot f of the moving frame holds site j_min - t + f * (2 // c): one
    # parity class (c = 1) for a one-site profile, both (c = 2) otherwise
    c = min(2, n0)
    n_states = len(spins)
    psi = np.zeros((n_states, 2, n0 + c * steps), dtype=np.complex128)
    for s, spin in enumerate(spins):
        psi[s, 0, :n0] = w * spin.up
        psi[s, 1, :n0] = w * spin.down
    scratch = np.empty((2, *psi.shape), dtype=np.complex128)
    pairs = _cross_pairs(n_states)
    sums = np.empty((len(times), len(pairs)), dtype=np.complex128)

    lo, hi = 0, n0  # the live range: every slot outside it is zero
    k = next_scan = 0
    for t in range(steps + 1):
        if t == next_scan:  # every _SCAN_EVERY steps, and at t = steps
            lo, hi = _live_range(psi, lo, hi)
            next_scan = min(t + _SCAN_EVERY, steps)
        if k < len(times) and times[k] == t:
            x = psi[:, :, lo:hi]
            sums[k] = [np.vdot(x[r, y], x[s, 0]) for y, s, r in pairs]
            k += 1
        if t < steps:
            _coin_shift(psi, lo, hi, c, coin, scratch)
            hi += c

    cross = np.empty((2, n_states, n_states, len(times)), dtype=np.complex128)
    y, s, r = np.array(pairs, dtype=int).reshape(-1, 3).T
    cross[y, s, r] = sums.T
    upper = (y == 0) & (r > s)
    cross[0, r[upper], s[upper]] = np.conj(cross[0, s[upper], r[upper]])
    diagonal = np.arange(n_states)
    cross[0, diagonal, diagonal] = cross[0, diagonal, diagonal].real

    sites = np.zeros((n_states, 2, width), dtype=np.complex128)
    sites[..., :: 2 // c] = psi
    final = tuple(WalkerState(j_min - steps, a, b, t=steps) for a, b in sites)
    return Walk(times=times, cross=cross, final=final)


def evolve(
    profile: InitialProfile,
    spin: Spinor,
    coin,
    steps: int,
) -> list[EntanglementRecord]:
    """Walk for `steps` steps, recording moments and entropy at every t."""
    return walk(profile, (spin,), coin, steps).records()


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
    quadratic cross `sums` (`core.BASIS_SUMS`) at each recorded time in
    `times` give the moments of every initial spin state without re-simulating.
    """

    times: tuple[int, ...]
    sums: tuple[NDArray, ...] = field(repr=False)

    def moments_arrays(self, up, down):
        """Moments (A, B) for spin amplitudes `up`, `down` (scalars or arrays).

        Broadcast shape is spin_shape + (len(times),); A is real, B complex.
        The result grows with both; a spin grid reads `sums` through
        `core.delta_form` instead, as `analysis.average_trace` does.
        """
        cu = np.asarray(up, dtype=np.complex128)[..., None]
        cd = np.asarray(down, dtype=np.complex128)[..., None]
        return spin_moments(self.sums, cu, cd)


#: The Local walk's up and down basis spins.
_BASIS = (Spinor(1.0, 0.0), Spinor(0.0, 1.0))


def evolve_basis(
    profile: InitialProfile,
    coin,
    steps: int,
) -> BasisEvolution:
    """Evolve the spin-up and spin-down basis states of a profile together.

    Records the seven basis sums (`core.BASIS_SUMS`) at every t in
    [0, steps], for `core.delta_form` or BasisEvolution.moments_arrays.
    """
    run = walk(profile, _BASIS, coin, steps)
    # the A sums auu and add (y = 0, s = r) are real
    sums = tuple(run.cross[y, s, r].real.copy() if y == 0 and s == r else run.cross[y, s, r]
                 for y, s, r in BASIS_SUMS)
    return BasisEvolution(times=run.times, sums=sums)


def _propagator(coin: CoinOperator, steps: int) -> NDArray[np.complex128]:
    """The taps M[x, s, f] = <j|U^steps|0> of the Local basis-pair walk: component
    x (0 for a, 1 for b) at site j = -steps + 2f of the walk from basis spin s,
    from one `walk`; (2, 2, steps + 1)."""
    final = walk(Local(), _BASIS, coin, steps, times=(steps,)).final
    return np.array([[s.a[::2] for s in final], [s.b[::2] for s in final]])


def _floored(taps: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """taps with every real and imaginary part below _AMPLITUDE_FLOOR set to 0:
    what `walk` drops, so no product of two parts is subnormal."""
    parts = taps.view(np.float64)
    return np.where(np.abs(parts) < _AMPLITUDE_FLOOR, 0.0, parts).view(np.complex128)


def _compose(m: NDArray[np.complex128], n: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """The taps of U^(a + b) from those of U^a (m) and U^b (n): M_(a+b)(j) =
    sum_k M_a(j - k) M_b(k), each 2x2 product of taps by direct convolution.
    Both are `_floored` first."""
    m, n = _floored(m), _floored(n)
    out = np.empty((2, 2, m.shape[-1] + n.shape[-1] - 1), dtype=np.complex128)
    for x in range(2):
        for s in range(2):
            out[x, s] = np.convolve(m[x, 0], n[0, s]) + np.convolve(m[x, 1], n[1, s])
    return out


@functools.lru_cache(maxsize=4)
def _local_table(coin: bytes, steps: int) -> NDArray[np.complex128]:
    """The (coin, steps) lag table of the seven basis sums, from the Local walk.

    Row i, column 2 * steps + n holds C_i(n) = sum_j a_s(j) conj(x_r(j + n))
    for the final amplitudes of sum i = (y, s, r) of `core.BASIS_SUMS`, as in
    `kspace._coefficients`, all from one zero-padded FFT (`_lag_table`).
    `coin` is the coin matrix as bytes, for the cache key; 448 KB at T = 1000.

    The final amplitudes are the walk's propagator M_T(j) = <j|U^T|0>, and
    U^(a + b) = U^a U^b with U translation invariant gives M_(a+b) = M_a * M_b,
    a convolution in position (`_compose`).  So `walk` runs q = T // 4 steps,
    a sixteenth of the T-step walk's site updates; M_q is composed with
    itself twice, to M_2q and M_4q, and then with the walk of the last
    T - 4q <= 3 steps.  Each composition is a product of walked propagators,
    with no sampled k in it, so the table stays independent of k-space's,
    16 times further off for the named coins.  At T = 1000 the table is
    built in 5 ms instead of the T-step walk's 15 ms, and is 1.2e-15 off a
    long-double walk's table, against 5.3e-16 for the T-step walk: the four
    copies of M_q carry four times its rounding, which grows as the root
    of the steps, so about twice the T-step walk's.  One composition builds
    it in 8.5 ms at 1.5 times the error, three in 3.5 ms at 3.6 times; two
    keep it within 2.5 times.
    """
    matrix = np.frombuffer(coin, dtype=np.complex128).reshape(2, 2)
    taps = _propagator(matrix, steps // 4)
    for _ in range(2):  # M_2q, then M_4q
        taps = _compose(taps, taps)
    if steps % 4:
        taps = _compose(_propagator(matrix, steps % 4), taps)
    sites = np.zeros((2, 2, 2 * steps + 1), dtype=np.complex128)  # [y, s, j + steps]
    sites[..., ::2] = taps  # sites with j + steps odd stay empty
    size = 1 << (4 * steps).bit_length()  # 2 steps + 1 sites: no wrap reaches a kept lag
    return _lag_table(np.fft.fft(sites, size), steps)


def _lag_table(u: NDArray[np.complex128], t: int) -> NDArray[np.complex128]:
    """Both engines' read-only (7, 4t + 1) lag table of U^t on n > 4t nodes
    k_m = 2 pi m / n: u[x, s, m] = sum_j <j, x|U^t|0, s> e^{-i k_m (j + j0)},
    where the phase of any offset j0 (a window's first site) cancels."""
    # ifft(X conj(Y)) at lag m is sum_j x(j + m) conj(y(j)), C_i at n = -m;
    # row by row, so no (7, n) temporaries outlive one row
    lags = -np.arange(-2 * t, 2 * t + 1) % u.shape[-1]
    table = np.array([np.fft.ifft(u[0, s] * np.conj(u[y, r]))[lags] for y, s, r in BASIS_SUMS])
    table.flags.writeable = False
    return table


def basis_sums(profile: InitialProfile, coin, steps: int):
    """The seven basis sums of `core.spin_moments` at t = steps, from the Local walk.

    `table_sums` of the profile against the Local walk's `_local_table`, which
    composes the propagator of a quarter walk with itself (M_(a+b) = M_a * M_b
    in position, with no k-space in it).  They agree to rounding with the
    cross sums of the profile's own basis-pair
    `walk(profile, _BASIS, coin, steps, times=(steps,))`: to 4.6e-15 over
    nine profiles, both named coins and T up to 1,003 (a table walked for
    all T steps gives 4.0e-15).  The coin and the profile's final window,
    L + 2 * steps sites, are checked first, as by `walk`.
    """
    steps = as_time(steps, "steps")
    coin = unitary_coin(coin)
    _, w = profile_weights(profile)
    _check_capacity(w.shape[0] + 2 * steps, None)
    return table_sums(_local_table(coin.tobytes(), steps), w)

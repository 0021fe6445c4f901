import cmath
import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from qwalklab import (
    BlochAngles,
    CapacityError,
    DomainError,
    Gaussian,
    Local,
    Rectangular,
    Spinor,
    basis_sums,
    evolve,
    evolve_basis,
    fourier_coin,
    hadamard_coin,
    position_distribution,
    profile_weights,
    sigma_to_a,
    spin_from_angles,
)
from qwalklab import lattice

SQRT2 = math.sqrt(2.0)
UP = Spinor(1.0, 0.0)


class TestProfiles:
    def test_gaussian_requires_positive_dispersion(self):
        with pytest.raises(DomainError):
            Gaussian(0.0)
        with pytest.raises(DomainError):
            Gaussian(-1.0)
        with pytest.raises(DomainError):
            Gaussian(math.inf)

    def test_rectangular_requires_nonnegative_integer(self):
        with pytest.raises(DomainError):
            Rectangular(-1)
        with pytest.raises(DomainError):
            Rectangular(1.5)
        assert Rectangular(0).a == 0


class TestGaussianSupport:
    @settings(max_examples=60, deadline=None)
    @given(strategies.floats(min_value=0.1, max_value=50.0))
    def test_weights_span_exactly_the_nonzero_support(self, sigma0):
        j_min, w = profile_weights(Gaussian(sigma0))
        assert w[0] > 0.0 and w[-1] > 0.0
        # the next site out on each side: its unnormalised weight, scaled by
        # the peak weight 1/norm, underflows to 0
        j_out = np.array([j_min - 1, j_min + w.size], dtype=float)
        assert np.all(np.exp(-(j_out**2) / (4.0 * sigma0**2)) * w.max() == 0.0)
        assert abs(math.fsum(w**2) - 1.0) <= 1e-15

    @settings(max_examples=100, deadline=None)
    @given(strategies.floats(min_value=5e-324, max_value=0.0183))
    def test_tiny_dispersion_is_the_local_profile(self, sigma0):
        # (j/2 sigma0)^2 would overflow, and 4 sigma0^2 underflow to 0 below 1.1e-162
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            j_min, w = profile_weights(Gaussian(sigma0))
        assert (j_min, w.tolist()) == (0, [1.0])


class TestProfileCapacity:
    """profile_weights refuses an array above DEFAULT_MAX_SITES before building it."""

    @pytest.mark.parametrize("profile", [Rectangular(10**9), Rectangular(10**400),
                                         Gaussian(2e4), Gaussian(1e300)], ids=repr)
    def test_refused_before_allocation(self, profile):
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                profile_weights(profile)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_rectangle_at_the_cap(self, monkeypatch):
        monkeypatch.setattr(lattice, "DEFAULT_MAX_SITES", 11)
        assert profile_weights(Rectangular(5))[1].size == 11
        with pytest.raises(CapacityError):
            profile_weights(Rectangular(6))

    def test_gaussian_span_at_the_cap(self, monkeypatch):
        # Gaussian(0.3) is built on |j| <= ceil(0.6 sqrt(746)) = 17, 35 sites
        monkeypatch.setattr(lattice, "DEFAULT_MAX_SITES", 35)
        assert profile_weights(Gaussian(0.3))[1].size == 33
        monkeypatch.setattr(lattice, "DEFAULT_MAX_SITES", 34)
        with pytest.raises(CapacityError):
            profile_weights(Gaussian(0.3))


class TestSigmaToA:
    def test_reference_points(self):
        assert sigma_to_a(1.0) == 1
        assert sigma_to_a(10.0) == 17

    def test_degenerates_to_local(self):
        assert sigma_to_a(0.01) == 0

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            sigma_to_a(0.0)
        with pytest.raises(DomainError):
            sigma_to_a(math.inf)

    @settings(max_examples=100, deadline=None)
    @given(strategies.floats(min_value=1e150, max_value=np.finfo(float).max, exclude_min=True))
    def test_any_finite_dispersion_gives_the_rounded_half_width(self, sigma0):
        # 12 sigma0^2 overflows a double from about 1.3e154 on; sigma0 is an
        # integer here, and a = round((x - 1)/2) = floor(x/2) for
        # x = sqrt(12 sigma0^2 + 1), so (2a)^2 <= x^2 < (2a + 2)^2
        a, n = sigma_to_a(sigma0), int(sigma0)
        assert type(a) is int
        assert (2 * a) ** 2 <= 12 * n * n + 1 < (2 * a + 2) ** 2


def _walked(profile, spin, coin, steps):
    """The walk of one spin state, recorded at t = steps only."""
    return lattice.walk(profile, (spin,), coin, steps, times=(steps,))


def _final(profile, spin, coin, steps):
    """The walker after `steps` steps."""
    return _walked(profile, spin, coin, steps).final[0]


def _norm(state):
    return float(np.sum(np.abs(state.a) ** 2 + np.abs(state.b) ** 2))


def _at(state, j):
    """The amplitudes (a_j, b_j) of site j, which must lie in the window."""
    return state.a[j - state.j_min], state.b[j - state.j_min]


class TestBuildInitial:
    """The product state a walk starts from: its final walker at steps = 0."""

    def test_local_single_site(self):
        st = _final(Local(), UP, hadamard_coin(), 0)
        assert position_distribution(st) == [(0, pytest.approx(1.0))]
        assert _at(st, 0)[0] == pytest.approx(1.0)

    def test_rectangular_flat_amplitudes(self):
        st = _final(Rectangular(1), UP, hadamard_coin(), 0)
        for j in (-1, 0, 1):
            assert _at(st, j)[0] == pytest.approx(1 / math.sqrt(3))

    @pytest.mark.parametrize("sigma0", [1.0, 10.0])
    def test_gaussian_normalized_with_reference_ratio(self, sigma0):
        # Gaussian(10)'s weights below the amplitude floor are dropped at t = 0
        st = _final(Gaussian(sigma0), UP, hadamard_coin(), 0)
        assert _norm(st) == pytest.approx(1.0, abs=1e-14)
        p = dict(position_distribution(st))
        assert p[0] / p[1] == pytest.approx(math.exp(0.5 / sigma0**2), rel=1e-12)

    def test_rejects_unnormalized_spin(self):
        with pytest.raises(DomainError):
            lattice.walk(Local(), (Spinor(1.0, 1.0),), hadamard_coin(), 0)
        with pytest.raises(DomainError):
            lattice.walk(Local(), (UP, Spinor(0.0, 0.5)), hadamard_coin(), 3)


class TestCoinValidation:
    """The lattice engine takes only a finite unitary 2x2 coin."""

    BAD_COINS = [np.eye(3), np.full((2, 2), np.nan), np.zeros((2, 2))]

    @pytest.mark.parametrize("coin", BAD_COINS, ids=["3x3", "nan", "zero"])
    def test_walks_reject(self, coin):
        for call in (lambda: lattice.walk(Local(), (UP,), coin, 3),
                     lambda: evolve(Local(), UP, coin, 3),
                     lambda: evolve_basis(Rectangular(2), coin, 3)):
            with pytest.raises(DomainError, match="unitary"):
                call()

    @pytest.mark.parametrize("coin", BAD_COINS, ids=["3x3", "nan", "zero"])
    def test_basis_sums_rejects_before_walking(self, coin):
        lattice._local_table.cache_clear()
        with pytest.raises(DomainError, match="unitary"):
            basis_sums(Local(), coin, 3)
        assert lattice._local_table.cache_info().misses == 0

    def test_unitary_coins_accepted(self):
        # the identity coin, and a coin given as nested lists
        for coin in (np.eye(2), [[0.0, 1.0], [1.0, 0.0]]):
            assert len(evolve(Local(), UP, coin, 2)) == 3
            assert len(basis_sums(Local(), coin, 2)) == 7


class TestStep:
    """The first few steps of `walk`, by hand."""

    def test_single_hadamard_step(self):
        run = _walked(Local(), UP, hadamard_coin(), 1)
        st = run.final[0]
        assert st.t == 1
        assert _at(st, 1)[0] == pytest.approx(1 / SQRT2)
        assert _at(st, -1)[1] == pytest.approx(1 / SQRT2)
        m = run.records()[0].moments
        assert m.A == pytest.approx(0.5) and abs(m.B) < 1e-15

    def test_two_hadamard_steps(self):
        run = _walked(Local(), UP, hadamard_coin(), 2)
        p = dict(position_distribution(run.final[0]))
        assert p[2] == pytest.approx(0.25)
        assert p[0] == pytest.approx(0.5)
        assert p[-2] == pytest.approx(0.25)
        m = run.records()[0].moments
        assert m.A == pytest.approx(0.5) and m.B == pytest.approx(0.25)

    def test_identity_coin_translates(self):
        run = _walked(Local(), UP, np.eye(2, dtype=complex), 5)
        assert position_distribution(run.final[0]) == [(5, pytest.approx(1.0))]
        assert run.records()[0].moments.A == pytest.approx(1.0)

    def test_norm_preserved_per_step(self):
        spin = spin_from_angles(BlochAngles(0.7, 0.3))
        for steps in range(1, 21):
            st = _final(Gaussian(1.0), spin, fourier_coin(), steps)
            assert _norm(st) == pytest.approx(1.0, abs=1e-14)

    def test_capacity_limit(self):
        # Local: 1 site, 3 after one step
        with pytest.raises(CapacityError):
            lattice.walk(Local(), (UP,), hadamard_coin(), 1, max_sites=2)

    @pytest.mark.parametrize("max_sites", [-1, 0, math.nan, math.inf, -math.inf, True, 2.5, "x"],
                             ids=repr)
    def test_no_walk_fits_below_one_site(self, max_sites):
        # max_sites is a count: NaN or inf would switch the ceiling off, since
        # every comparison with NaN is False, and True would be read as 1
        with pytest.raises(DomainError, match="max_sites must be"):
            lattice.walk(Local(), (UP,), hadamard_coin(), 3, max_sites=max_sites)


class TestEvolve:
    def test_zero_steps_product_state(self):
        recs = evolve(Local(), UP, hadamard_coin(), 0)
        assert len(recs) == 1
        assert recs[0].t == 0
        assert recs[0].entropy == 0.0

    def test_first_step_maximal(self):
        recs = evolve(Local(), UP, hadamard_coin(), 1)
        assert recs[1].entropy == pytest.approx(1.0)

    def test_long_run_approaches_asymptote(self):
        # instantaneous S_E(t) oscillates around the asymptote with amplitude
        # ~0.013 at t=1000, so the point value gets a wide band and the
        # trailing time-average a tight one
        spin = spin_from_angles(BlochAngles(math.pi / 4, 0.0))
        recs = evolve(Local(), spin, hadamard_coin(), 1000)
        assert recs[-1].entropy == pytest.approx(0.736, abs=0.02)
        tail = sum(r.entropy for r in recs[-100:]) / 100.0
        assert tail == pytest.approx(0.736, abs=0.002)

    def test_rejects_negative_steps(self):
        with pytest.raises(DomainError):
            evolve(Local(), UP, hadamard_coin(), -1)


_SPINS = strategies.builds(
    lambda alpha, beta: spin_from_angles(BlochAngles(alpha, beta)),
    strategies.floats(min_value=0.0, max_value=math.pi),
    strategies.floats(min_value=-math.pi, max_value=math.pi, exclude_max=True),
)

_PROFILES = strategies.one_of(
    strategies.just(Local()),
    strategies.floats(min_value=0.2, max_value=10.0).map(Gaussian),
    strategies.integers(min_value=0, max_value=20).map(Rectangular),
)


class TestUnitarity:
    @settings(max_examples=60, deadline=None)
    @given(_SPINS, _SPINS, strategies.booleans(), _PROFILES,
           strategies.integers(min_value=0, max_value=200))
    def test_walk_keeps_inner_products(self, s1, s2, hadamard, profile, steps):
        # <psi1|psi2> = <s1|s2> <w|w> = <s1|s2>, and both norms stay 1
        coin = hadamard_coin() if hadamard else fourier_coin()
        psi1, psi2 = lattice.walk(profile, (s1, s2), coin, steps, times=(steps,)).final
        inner = np.vdot(psi1.a, psi2.a) + np.vdot(psi1.b, psi2.b)
        want = np.conj(s1.up) * s2.up + np.conj(s1.down) * s2.down
        assert abs(inner - want) <= 1e-12
        assert abs(_norm(psi1) - 1.0) <= 1e-12 and abs(_norm(psi2) - 1.0) <= 1e-12


def _site_layout_walk(profile, spins, coin, steps):
    """The walk on its full site window: the reference for `lattice.walk`.

    Every site of the window of n0 + 2t sites (the profile's sites plus a zero
    guard site on each side) is stepped, whichever parity class it is in.  The
    four coin products and two adds per site are the ones `walk` makes, so
    the final amplitudes inside the guard sites must agree bit for bit; the
    cross sums are plain sums of products, so they agree only to rounding.
    """
    j_min, w = profile_weights(profile)
    n0 = w.shape[0] + 2
    width = n0 + 2 * steps
    psi = np.zeros((len(spins), 2, width), dtype=np.complex128)
    for s, spin in enumerate(spins):
        psi[s, 0, steps + 1 : steps + n0 - 1] = w * spin.up
        psi[s, 1, steps + 1 : steps + n0 - 1] = w * spin.down
    cross_a = np.zeros((len(spins), len(spins), steps + 1), dtype=np.complex128)
    cross_b = np.zeros_like(cross_a)
    for t in range(steps + 1):
        lo, hi = steps - t, steps + n0 + t
        a, b = psi[:, 0, lo:hi], psi[:, 1, lo:hi]
        for i in range(len(spins)):
            for k in range(len(spins)):
                cross_a[i, k, t] = np.sum(a[i] * np.conj(a[k]))
                cross_b[i, k, t] = np.sum(a[i] * np.conj(b[k]))
        if t < steps:
            up = coin[0, 0] * a, coin[0, 1] * b
            down = coin[1, 0] * a, coin[1, 1] * b
            psi[:, 0, lo + 1 : hi + 1] = up[0] + up[1]  # j -> j + 1
            psi[:, 1, lo - 1 : hi - 1] = down[0] + down[1]  # j -> j - 1
            psi[:, 0, lo] = 0.0
            psi[:, 1, hi - 1] = 0.0
    return j_min - 1 - steps, psi, cross_a, cross_b


def _general_coin(theta, phi_a, phi_b, phase):
    """A U(2) coin with four nonzero complex entries."""
    c, s = math.cos(theta), math.sin(theta)
    return cmath.exp(1j * phase) * np.array(
        [[c * cmath.exp(1j * phi_a), s * cmath.exp(1j * phi_b)],
         [-s * cmath.exp(-1j * phi_b), c * cmath.exp(-1j * phi_a)]])


_ANGLE = strategies.floats(min_value=-math.pi, max_value=math.pi)

#: The one-site profiles, and the Gaussians either side of the one-site edge
#: (sigma0 ~ 0.0183), drawn as often as the wide profiles.
_ORACLE_PROFILES = strategies.one_of(
    strategies.sampled_from([Local(), Rectangular(0), Gaussian(0.01), Gaussian(0.02)]),
    strategies.integers(min_value=0, max_value=20).map(Rectangular),
    strategies.floats(min_value=0.01, max_value=10.0).map(Gaussian),
)


#: Below this magnitude a part of a floored walk may differ from the
#: site-layout walk's (`_assert_floor_contract`).
_CONTRACT = 2.0**-400


def _assert_floor_contract(state, psi):
    """`state` equals the site-layout walk's `psi` (states' a and b) bit for
    bit at every real or imaginary part of magnitude >= 2**-400, and lies
    within 2**-400 of it at every other part.

    `walk` drops only parts below 2**-511.  A scan drops at most the
    12 (L + 2T) parts of three states' window (a and b, real and imaginary),
    and a walk of T steps scans at most T/32 + 2 times: for T <= 200 and
    L <= 1,091 (Gaussian(10)) fewer than 2**18 parts in all.  The walk is
    unitary, so what it drops is never amplified: in exact arithmetic
    |delta psi| < 2**18 * 2**-511 = 2**-493 < 2**-490, far below the ulp of
    a part of magnitude 2**-400 (2**-452).  In floating point a drop can
    still flip a rounding, and the one-ulp difference travels inward, to
    larger parts, one site per step at most: over 11,400 walked states of
    the worst case drawn here (Gaussian sigma0 in [5, 10], T = 200, general
    coins) the largest part that differed was 2**-407.5, and 2**-425.7 for
    the Local walk of 2,500 steps with the general coin below.  Adding +0.0
    turns -0.0 into 0.0: the sign of a zero outside the walk's support
    depends on the coin's signs.
    """
    got = np.stack([state.a, state.b]).view(np.float64) + 0.0
    want = psi.view(np.float64) + 0.0
    big = np.abs(want) >= _CONTRACT
    assert got[big].tobytes() == want[big].tobytes()
    assert np.max(np.abs(got - want)) <= _CONTRACT


class TestSiteLayoutOracle:
    """`walk` steps only the live slots its profile can occupy (one parity
    class for a one-site profile) in the frame of the down-component; the full
    site-window walk, which keeps every part however small, must give the same
    walk to the floor contract (`_assert_floor_contract`)."""

    #: Cross sums: a BLAS dot over the live slots against a plain sum over
    #: the whole site window; the largest difference seen in 400 random
    #: draws of these inputs is 6.7e-16.
    CROSS_TOL = 1e-15

    @settings(max_examples=80, deadline=None)
    @given(_ORACLE_PROFILES,
           strategies.one_of(strategies.sampled_from([hadamard_coin(), fourier_coin()]),
                             strategies.builds(_general_coin, _ANGLE, _ANGLE, _ANGLE, _ANGLE)),
           strategies.lists(_SPINS, min_size=1, max_size=3),
           strategies.integers(min_value=0, max_value=200))
    def test_matches_the_site_layout_walk(self, profile, coin, spins, steps):
        j_min, psi, cross_a, cross_b = _site_layout_walk(profile, spins, coin, steps)
        run = lattice.walk(profile, spins, coin, steps)
        for s, state in enumerate(run.final):
            # `final` holds the window without its guard sites
            assert state.j_min == j_min + 1 and state.t == steps
            _assert_floor_contract(state, psi[s, :, 1:-1])
        assert np.max(np.abs(run.cross[0] - cross_a)) <= self.CROSS_TOL
        assert np.max(np.abs(run.cross[1] - cross_b)) <= self.CROSS_TOL

    @pytest.mark.parametrize("coin", [hadamard_coin(), fourier_coin()])
    @pytest.mark.parametrize("profile", [Local(), Gaussian(0.02), Rectangular(3), Gaussian(2.0)])
    def test_named_coins_keep_every_byte(self, profile, coin):
        # with the package's coins even the signs of the zeros agree, and a
        # profile with no weight below the floor keeps every byte
        spins = (UP, Spinor(0.0, 1.0), spin_from_angles(BlochAngles(0.7, 1.1)))
        _, psi, _, _ = _site_layout_walk(profile, spins, coin, 57)
        floored = np.min(profile_weights(profile)[1]) < lattice._AMPLITUDE_FLOOR
        for s, state in enumerate(lattice.walk(profile, spins, coin, 57).final):
            if floored:
                _assert_floor_contract(state, psi[s, :, 1:-1])
            else:
                assert state.a.tobytes() == psi[s, 0, 1:-1].tobytes()
                assert state.b.tobytes() == psi[s, 1, 1:-1].tobytes()

    @pytest.mark.parametrize("coin", [hadamard_coin(), fourier_coin(),
                                      _general_coin(0.7, 0.4, -1.3, 0.2)])
    def test_long_walk_drops_only_its_tails(self, coin):
        # past t ~ 1,022 the Local walk's light-cone edges are below the floor
        spins = (UP, spin_from_angles(BlochAngles(0.7, 1.1)))
        _, psi, cross_a, cross_b = _site_layout_walk(Local(), spins, coin, 2500)
        run = lattice.walk(Local(), spins, coin, 2500)
        for s, state in enumerate(run.final):
            _assert_floor_contract(state, psi[s, :, 1:-1])
        assert np.max(np.abs(run.cross[0] - cross_a)) <= self.CROSS_TOL
        assert np.max(np.abs(run.cross[1] - cross_b)) <= self.CROSS_TOL

    @pytest.mark.parametrize("profile, steps", [(Gaussian(10.0), 200), (Local(), 2200)])
    def test_window_ends_carry_no_tail_below_the_floor(self, profile, steps):
        state = _final(profile, spin_from_angles(BlochAngles(0.7, 1.1)), hadamard_coin(), steps)
        parts = np.abs(np.stack([state.a, state.b]).view(np.float64)).reshape(2, -1, 2)
        peak = parts.max(axis=(0, 2))  # per site
        nonzero = np.flatnonzero(peak)
        assert peak[nonzero[0]] >= lattice._AMPLITUDE_FLOOR
        assert peak[nonzero[-1]] >= lattice._AMPLITUDE_FLOOR
        assert nonzero[0] > 0 and nonzero[-1] < peak.size - 1  # a tail was dropped


class TestInvariantsAndSymmetries:
    def test_light_cone_support(self):
        recs_t = 40
        st = _final(Rectangular(2), UP, hadamard_coin(), recs_t)
        for j, p in position_distribution(st):
            assert abs(j) <= recs_t + 2

    def test_parity_from_local_state(self):
        for t in range(1, 30):
            st = _final(Local(), UP, hadamard_coin(), t)
            for j, p in position_distribution(st):
                assert (j + t) % 2 == 0

    def test_fourier_reflection_symmetry(self):
        spin = spin_from_angles(BlochAngles(math.pi / 2, 0.0))
        st = _final(Local(), spin, fourier_coin(), 40)
        p = dict(position_distribution(st))
        for j, prob in p.items():
            assert prob == pytest.approx(p[-j], abs=1e-14)


class TestPositionDistribution:
    def test_sums_to_one(self):
        st = _final(Gaussian(2.0), UP, hadamard_coin(), 15)
        assert sum(p for _, p in position_distribution(st)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_rectangular_initial(self):
        st = _final(Rectangular(1), UP, hadamard_coin(), 0)
        dist = position_distribution(st)
        assert len(dist) == 3
        for _, p in dist:
            assert p == pytest.approx(1 / 3)


class TestBasisEvolution:
    #: The largest gap seen in 300 random draws of these inputs is 1.3e-15.
    MOMENT_TOL = 1e-14

    @settings(max_examples=40, deadline=None)
    @given(strategies.one_of(
               strategies.just(Local()),
               strategies.integers(min_value=0, max_value=20).map(Rectangular),
               strategies.floats(min_value=0.01, max_value=10.0).map(Gaussian)),
           strategies.one_of(strategies.sampled_from([hadamard_coin(), fourier_coin()]),
                             strategies.builds(_general_coin, _ANGLE, _ANGLE, _ANGLE, _ANGLE)),
           _SPINS,
           strategies.integers(min_value=0, max_value=100))
    def test_matches_direct_evolution(self, profile, coin, spin, steps):
        a_vals, b_vals = evolve_basis(profile, coin, steps).moments_arrays(spin.up, spin.down)
        run = lattice.walk(profile, (spin,), coin, steps)
        assert np.max(np.abs(a_vals - run.cross[0, 0, 0].real)) <= self.MOMENT_TOL
        assert np.max(np.abs(b_vals - run.cross[1, 0, 0])) <= self.MOMENT_TOL

    @pytest.mark.parametrize("coin", [hadamard_coin(), fourier_coin()])
    @pytest.mark.parametrize("profile", [Local(), Rectangular(3), Gaussian(1.5)])
    def test_recorded_times_match_the_all_times_run(self, profile, coin):
        steps = 40
        full = lattice.walk(profile, lattice._BASIS, coin, steps)
        for times in ([steps], [0, 7, steps]):
            part = lattice.walk(profile, lattice._BASIS, coin, steps, times=times)
            assert part.times == tuple(times)
            assert part.cross.tobytes() == full.cross[..., times].tobytes()

    def test_rejects_times_outside_the_walk(self):
        for times in ([], [-1], [11], [2.5]):
            with pytest.raises(DomainError):
                lattice.walk(Local(), (UP,), hadamard_coin(), 10, times=times)

    @pytest.mark.parametrize("times", [5, 2.5, np.int64(3), np.array(3)], ids=repr)
    def test_times_that_are_not_iterable_rejected(self, times):
        # once the bare TypeError of len()
        with pytest.raises(DomainError, match="times must be a sequence"):
            lattice.walk(Local(), (UP,), hadamard_coin(), 10, times=times)

    def test_times_and_spins_read_once(self):
        # a generator of times once failed on len()
        want = lattice.walk(Gaussian(1.5), lattice._BASIS, hadamard_coin(), 10, times=[3, 10])
        got = lattice.walk(Gaussian(1.5), iter(lattice._BASIS), hadamard_coin(), 10,
                           times=(t for t in (3, 10)))
        assert got.times == want.times and got.cross.tobytes() == want.cross.tobytes()

    @pytest.mark.parametrize("spins", [UP, 1.0, None], ids=repr)
    def test_spins_that_are_not_iterable_rejected(self, spins):
        # a Spinor where the sequence of spins belongs was once a bare TypeError
        with pytest.raises(DomainError, match="spins must be a sequence"):
            lattice.walk(Local(), spins, hadamard_coin(), 10)

    def test_capacity_checked_before_walking(self, monkeypatch):
        # Local: 1 site, 21 after 10 steps
        for spins in ((UP,), lattice._BASIS):
            with pytest.raises(CapacityError):
                lattice.walk(Local(), spins, hadamard_coin(), 10, max_sites=20)
        assert len(lattice.walk(Local(), (UP,), hadamard_coin(), 10, max_sites=21).times) == 11
        # evolve and evolve_basis walk under the default ceiling
        monkeypatch.setattr(lattice, "DEFAULT_MAX_SITES", 20)
        with pytest.raises(CapacityError):
            evolve_basis(Local(), hadamard_coin(), 10)
        with pytest.raises(CapacityError):
            evolve(Local(), UP, hadamard_coin(), 10)
        monkeypatch.setattr(lattice, "DEFAULT_MAX_SITES", 21)
        assert len(evolve(Local(), UP, hadamard_coin(), 10)) == 11

    def test_is_frozen(self):
        basis = evolve_basis(Local(), hadamard_coin(), 3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            basis.sums = None

    def test_broadcasts_over_spin_grids(self):
        basis = evolve_basis(Local(), fourier_coin(), 5)
        up = np.full((3, 4), 1 / SQRT2)
        down = np.full((3, 4), 1 / SQRT2)
        a_vals, b_vals = basis.moments_arrays(up, down)
        assert a_vals.shape == (3, 4, 6)
        assert b_vals.shape == (3, 4, 6)


def _walked_sums(profile, coin, steps):
    """The seven sums, in spin_moments order, of the profile's own basis-pair
    walk: written out here, not read through core.BASIS_SUMS."""
    run = lattice.walk(profile, lattice._BASIS, coin, steps, times=(steps,))
    a, b = run.cross[0, ..., 0], run.cross[1, ..., 0]
    return a[0, 0].real, a[0, 1], a[1, 1].real, b[0, 0], b[0, 1], b[1, 0], b[1, 1]


def _max_diff(got, want):
    return max(abs(complex(g) - complex(w)) for g, w in zip(got, want))


class TestBasisSums:
    """basis_sums: the Local walk's lag table against the profile's weights."""

    PROFILES = [Local()] + [Gaussian(s) for s in (0.3, 0.5, 2.0, 10.0, 30.0)] \
        + [Rectangular(a) for a in (0, 5, 17)]

    @pytest.mark.parametrize("steps", [0, 1, 2, 64, 1000])
    @pytest.mark.parametrize("coin", [hadamard_coin(), fourier_coin()])
    def test_matches_the_profiles_own_walk(self, coin, steps):
        # Gaussian(30) and Rectangular(17) are wider than the walk at small T
        for profile in self.PROFILES:
            got = basis_sums(profile, coin, steps)
            assert _max_diff(got, _walked_sums(profile, coin, steps)) <= 1e-14, profile

    @settings(max_examples=25, deadline=None)
    @given(strategies.floats(min_value=0.2, max_value=30.0),
           strategies.integers(min_value=0, max_value=300),
           strategies.booleans())
    def test_gaussian_matches_its_own_walk(self, sigma0, steps, hadamard):
        coin = hadamard_coin() if hadamard else fourier_coin()
        got = basis_sums(Gaussian(sigma0), coin, steps)
        assert _max_diff(got, _walked_sums(Gaussian(sigma0), coin, steps)) <= 1e-14

    def test_local_walk_cache_is_bounded_and_read_only(self):
        info = lattice._local_table.cache_info()
        assert info.maxsize is not None
        for steps in range(info.maxsize + 2):
            basis_sums(Local(), hadamard_coin(), steps)
        assert lattice._local_table.cache_info().currsize == info.maxsize
        table = lattice._local_table(hadamard_coin().tobytes(), 3)
        assert table.shape == (7, 13) and not table.flags.writeable

    def test_one_walk_serves_every_profile_of_a_coin_and_time(self):
        lattice._local_table.cache_clear()
        for profile in self.PROFILES:
            basis_sums(profile, fourier_coin(), 20)
        info = lattice._local_table.cache_info()
        assert (info.misses, info.hits) == (1, len(self.PROFILES) - 1)

    @pytest.mark.parametrize("profile", [Local(), Rectangular(3), Gaussian(0.3)])
    def test_capacity_error_for_the_same_inputs_as_the_walk(self, monkeypatch, profile):
        # the final window, L + 2 steps sites, against the default ceiling
        monkeypatch.setattr(lattice, "DEFAULT_MAX_SITES", 60)
        for steps in range(0, 35):
            try:
                lattice.walk(profile, lattice._BASIS, hadamard_coin(), steps, times=(steps,))
            except CapacityError:
                with pytest.raises(CapacityError):
                    basis_sums(profile, hadamard_coin(), steps)
            else:
                basis_sums(profile, hadamard_coin(), steps)

    def test_capacity_checked_before_walking(self):
        lattice._local_table.cache_clear()
        # 2a + 1 + 2 * 1000 = DEFAULT_MAX_SITES + 1
        a = (lattice.DEFAULT_MAX_SITES - 2000) // 2
        with pytest.raises(CapacityError):
            basis_sums(Rectangular(a), hadamard_coin(), 1000)
        assert lattice._local_table.cache_info().misses == 0

    def test_rejects_negative_steps(self):
        with pytest.raises(DomainError):
            basis_sums(Local(), hadamard_coin(), -1)


def _lag_table(sites, steps):
    """The (7, 4 steps + 1) lag table of final amplitudes sites[y, s] on the
    2 steps + 1 sites, by the zero-padded FFT of `lattice._local_table`, in
    the sites' own precision (np.fft keeps a long double a long double)."""
    size = 1 << (4 * steps).bit_length()
    f = np.fft.fft(sites, size)
    lags = -np.arange(-2 * steps, 2 * steps + 1) % size
    return np.array([np.fft.ifft(f[0, s] * np.conj(f[y, r]))[lags]
                     for y, s, r in lattice.BASIS_SUMS])


def _walked_table(coin, steps):
    """The lag table from one walk of all `steps` steps: the reference the
    composed `lattice._local_table` is held to."""
    final = lattice.walk(Local(), lattice._BASIS, coin, steps, times=(steps,)).final
    return _lag_table(np.array([[s.a for s in final], [s.b for s in final]]), steps)


def _longdouble_table(coin, steps):
    """The lag table of the Local basis-pair walk stepped in np.clongdouble."""
    c = np.asarray(coin).astype(np.clongdouble)
    sites = np.zeros((2, 2, 2 * steps + 1), dtype=np.clongdouble)
    for s in range(2):
        # slot f holds site -t + 2f: an up-amplitude moves one slot up per step
        a, b = np.zeros((2, steps + 1), dtype=np.clongdouble)
        (a, b)[s][0] = 1.0
        for _ in range(steps):
            a, b = np.roll(c[0, 0] * a + c[0, 1] * b, 1), c[1, 0] * a + c[1, 1] * b
        sites[0, s, ::2], sites[1, s, ::2] = a, b
    return _lag_table(sites, steps)


_EPS = np.finfo(float).eps


def _composition_bound(steps, walked=True):
    """Rounding allowed between the composed table and the exact one, plus,
    when `walked`, the T-step walk's own.

    A t-step walk rounds each step; in a table entry, an inner product of two
    unit states, those errors add to about eps * sqrt(t) (as a random walk
    of t roundings).  The composed table carries four copies of the quarter
    walk's, 4 eps sqrt(q), the walk of the last r = T - 4q steps, eps sqrt(r),
    and one rounding of each of its (up to) three compositions, 3 eps.
    """
    q, r = divmod(steps, 4)
    bound = 4.0 * math.sqrt(q) + math.sqrt(r) + 3.0
    return _EPS * (bound + math.sqrt(steps) if walked else bound)


_COMPOSED_COINS = {"hadamard": hadamard_coin(), "fourier": fourier_coin(),
                   "general": _general_coin(0.7, 0.3, -1.1, 0.4)}


class TestComposedTable:
    """`_local_table`: a quarter walk's propagator composed with itself twice."""

    # 4,100: the quarter walk (1,025 steps) drops its ends at the floor
    @pytest.mark.parametrize("steps", [0, 1, 2, 3, 4, 5, 7, 64, 257, 1000, 1003, 4100])
    @pytest.mark.parametrize("name", _COMPOSED_COINS)
    def test_matches_the_table_of_one_full_walk(self, name, steps):
        # measured worst case: 6.5 eps (general coin, T = 257), 8.0x inside the
        # bound; the least headroom is 7.6x (1.5 eps at T = 7, Hadamard and
        # Fourier).  T <= 3 composes with the identity and is exact
        coin = _COMPOSED_COINS[name]
        got = lattice._local_table(coin.tobytes(), steps)
        diff = np.max(np.abs(got - _walked_table(coin, steps)))
        assert diff <= _composition_bound(steps)
        if steps < 4:
            assert diff == 0.0

    def test_quarter_walk_of_the_longest_case_drops_its_ends(self):
        taps = lattice._propagator(hadamard_coin(), 4100 // 4)
        assert not taps[..., 0].any() and not taps[..., -1].any()

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= _EPS,
                        reason="long double is no wider than double here")
    @pytest.mark.parametrize("name", _COMPOSED_COINS)
    def test_against_a_long_double_walk(self, name):
        # measured at T = 1000: 1.23e-15 (Hadamard, Fourier) and 7.0e-16
        # (general) off, 12x and 21x inside the bound; the T-step walk's
        # table is 5.3e-16 off, so the composed one is 2.34x and 1.35x of it
        steps, coin = 1000, _COMPOSED_COINS[name]
        exact = _longdouble_table(coin, steps)
        composed = np.max(np.abs(lattice._local_table(coin.tobytes(), steps) - exact))
        walked = np.max(np.abs(_walked_table(coin, steps) - exact))
        assert composed <= _composition_bound(steps, walked=False)
        assert composed <= 2.5 * walked


class TestIntegerTime:
    """walk, evolve_basis and basis_sums read an integral step count as an int."""

    @pytest.mark.parametrize("steps", [3.0, np.int64(3)])
    def test_integral_steps_accepted(self, steps):
        coin, up = hadamard_coin(), Spinor(1.0, 0.0)
        got, want = lattice.walk(Gaussian(1.0), (up,), coin, steps), \
            lattice.walk(Gaussian(1.0), (up,), coin, 3)
        assert got.times == want.times and np.array_equal(got.cross, want.cross)
        assert all(map(np.array_equal, evolve_basis(Local(), coin, steps).sums,
                       evolve_basis(Local(), coin, 3).sums))
        assert basis_sums(Gaussian(1.0), coin, steps) == basis_sums(Gaussian(1.0), coin, 3)

    @pytest.mark.parametrize("steps", [2.5, -1, math.nan, math.inf, True, "3"])
    def test_other_steps_rejected(self, steps):
        coin, up = hadamard_coin(), Spinor(1.0, 0.0)
        for call in (lambda: lattice.walk(Local(), (up,), coin, steps),
                     lambda: evolve(Local(), up, coin, steps),
                     lambda: evolve_basis(Local(), coin, steps),
                     lambda: basis_sums(Local(), coin, steps)):
            with pytest.raises(DomainError):
                call()

import dataclasses
import math
import tracemalloc

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
    build_initial,
    coin_moments,
    evolve,
    evolve_basis,
    fourier_coin,
    hadamard_coin,
    position_distribution,
    profile_weights,
    sigma_to_a,
    spin_from_angles,
    step,
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

    def test_gaussian_normalisation_grid_at_the_cap(self, monkeypatch):
        # Gaussian(0.3) is normalised on |j| <= 1000, 2,001 sites
        monkeypatch.setattr(lattice, "DEFAULT_MAX_SITES", 2001)
        assert profile_weights(Gaussian(0.3))[1].size == 33
        monkeypatch.setattr(lattice, "DEFAULT_MAX_SITES", 2000)
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


class TestBuildInitial:
    def test_local_single_site(self):
        st = build_initial(Local(), UP)
        assert position_distribution(st) == [(0, pytest.approx(1.0))]
        assert st.spinor_at(0).up == pytest.approx(1.0)

    def test_guard_band_zero(self):
        st = build_initial(Local(), UP)
        assert st.a[0] == 0 and st.a[-1] == 0
        assert st.b[0] == 0 and st.b[-1] == 0

    def test_rectangular_flat_amplitudes(self):
        st = build_initial(Rectangular(1), UP)
        for j in (-1, 0, 1):
            assert st.spinor_at(j).up == pytest.approx(1 / math.sqrt(3))

    def test_gaussian_normalized_with_reference_ratio(self):
        st = build_initial(Gaussian(1.0), UP)
        assert st.norm() == pytest.approx(1.0, abs=1e-14)
        p = dict(position_distribution(st))
        assert p[0] / p[1] == pytest.approx(math.exp(0.5), rel=1e-12)

    def test_rejects_unnormalized_spin(self):
        with pytest.raises(DomainError):
            build_initial(Local(), Spinor(1.0, 1.0))


class TestStep:
    def test_single_hadamard_step(self):
        st = step(build_initial(Local(), UP), hadamard_coin())
        assert st.t == 1
        assert st.spinor_at(1).up == pytest.approx(1 / SQRT2)
        assert st.spinor_at(-1).down == pytest.approx(1 / SQRT2)
        m = coin_moments(st)
        assert m.A == pytest.approx(0.5) and abs(m.B) < 1e-15

    def test_two_hadamard_steps(self):
        st = build_initial(Local(), UP)
        for _ in range(2):
            st = step(st, hadamard_coin())
        p = dict(position_distribution(st))
        assert p[2] == pytest.approx(0.25)
        assert p[0] == pytest.approx(0.5)
        assert p[-2] == pytest.approx(0.25)
        m = coin_moments(st)
        assert m.A == pytest.approx(0.5) and m.B == pytest.approx(0.25)

    def test_identity_coin_translates(self):
        st = build_initial(Local(), UP)
        for _ in range(5):
            st = step(st, np.eye(2, dtype=complex))
        assert position_distribution(st) == [(5, pytest.approx(1.0))]
        assert coin_moments(st).A == pytest.approx(1.0)

    def test_norm_preserved_per_step(self):
        st = build_initial(Gaussian(1.0), spin_from_angles(BlochAngles(0.7, 0.3)))
        for _ in range(20):
            st = step(st, fourier_coin())
            assert st.norm() == pytest.approx(1.0, abs=1e-14)

    def test_capacity_limit(self):
        st = build_initial(Local(), UP)
        with pytest.raises(CapacityError):
            step(st, hadamard_coin(), max_sites=4)

    @pytest.mark.parametrize("coin", [hadamard_coin(), fourier_coin()])
    def test_step_chain_matches_walk_bit_for_bit(self, coin):
        spin = spin_from_angles(BlochAngles(1.3, -0.4))
        st = build_initial(Rectangular(2), spin)
        moments = [coin_moments(st)]
        for _ in range(30):
            st = step(st, coin)
            moments.append(coin_moments(st))
        assert [r.moments for r in evolve(Rectangular(2), spin, coin, 30)] == moments


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


class TestInvariantsAndSymmetries:
    def test_light_cone_support(self):
        recs_t = 40
        st = build_initial(Rectangular(2), UP)
        for _ in range(recs_t):
            st = step(st, hadamard_coin())
        for j, p in position_distribution(st):
            assert abs(j) <= recs_t + 2

    def test_parity_from_local_state(self):
        st = build_initial(Local(), UP)
        for t in range(1, 30):
            st = step(st, hadamard_coin())
            for j, p in position_distribution(st):
                assert (j + t) % 2 == 0

    def test_fourier_reflection_symmetry(self):
        spin = spin_from_angles(BlochAngles(math.pi / 2, 0.0))
        st = build_initial(Local(), spin)
        for _ in range(40):
            st = step(st, fourier_coin())
        p = dict(position_distribution(st))
        for j, prob in p.items():
            assert prob == pytest.approx(p[-j], abs=1e-14)


class TestPositionDistribution:
    def test_sums_to_one(self):
        st = build_initial(Gaussian(2.0), UP)
        for _ in range(15):
            st = step(st, hadamard_coin())
        assert sum(p for _, p in position_distribution(st)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_rectangular_initial(self):
        st = build_initial(Rectangular(1), UP)
        dist = position_distribution(st)
        assert len(dist) == 3
        for _, p in dist:
            assert p == pytest.approx(1 / 3)


class TestBasisEvolution:
    def test_matches_direct_evolution(self):
        spin = spin_from_angles(BlochAngles(1.1, -0.7))
        steps = 30
        basis = evolve_basis(Rectangular(2), hadamard_coin(), steps)
        a_vals, b_vals = basis.moments_arrays(spin.up, spin.down)
        recs = evolve(Rectangular(2), spin, hadamard_coin(), steps)
        for t, rec in enumerate(recs):
            assert a_vals[t] == pytest.approx(rec.moments.A, abs=1e-12)
            assert b_vals[t] == pytest.approx(rec.moments.B, abs=1e-12)

    @pytest.mark.parametrize("coin", [hadamard_coin(), fourier_coin()])
    @pytest.mark.parametrize("profile", [Local(), Rectangular(3), Gaussian(1.5)])
    def test_recorded_times_match_the_all_times_run(self, profile, coin):
        steps = 40
        full = evolve_basis(profile, coin, steps)
        for times in ([steps], [0, 7, steps]):
            part = evolve_basis(profile, coin, steps, times=times)
            assert part.times == tuple(times)
            for name in ("auu", "add", "aud", "buu", "bud", "bdu", "bdd"):
                assert getattr(part, name).tobytes() == getattr(full, name)[times].tobytes()

    def test_rejects_times_outside_the_walk(self):
        for times in ([], [-1], [11], [2.5]):
            with pytest.raises(DomainError):
                evolve_basis(Local(), hadamard_coin(), 10, times=times)

    def test_capacity_checked_before_walking(self):
        # Local: 3 sites with the guard band, 23 after 10 steps
        with pytest.raises(CapacityError):
            evolve_basis(Local(), hadamard_coin(), 10, max_sites=22)
        with pytest.raises(CapacityError):
            evolve(Local(), UP, hadamard_coin(), 10, max_sites=22)
        assert len(evolve(Local(), UP, hadamard_coin(), 10, max_sites=23)) == 11

    def test_is_frozen(self):
        basis = evolve_basis(Local(), hadamard_coin(), 3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            basis.auu = None

    def test_broadcasts_over_spin_grids(self):
        basis = evolve_basis(Local(), fourier_coin(), 5)
        up = np.full((3, 4), 1 / SQRT2)
        down = np.full((3, 4), 1 / SQRT2)
        a_vals, b_vals = basis.moments_arrays(up, down)
        assert a_vals.shape == (3, 4, 6)
        assert b_vals.shape == (3, 4, 6)


def _walked_sums(profile, coin, steps):
    """The seven sums, in spin_moments order, of the profile's own basis-pair walk."""
    b = evolve_basis(profile, coin, steps, times=[steps])
    return tuple(x[0] for x in (b.auu, b.aud, b.add, b.buu, b.bud, b.bdu, b.bdd))


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
        # the final window, L + 2 steps + 2 sites, against the default ceiling
        monkeypatch.setattr(lattice, "DEFAULT_MAX_SITES", 60)
        for steps in range(0, 35):
            try:
                evolve_basis(profile, hadamard_coin(), steps, times=[steps])
            except CapacityError:
                with pytest.raises(CapacityError):
                    basis_sums(profile, hadamard_coin(), steps)
            else:
                basis_sums(profile, hadamard_coin(), steps)

    def test_capacity_checked_before_walking(self):
        lattice._local_table.cache_clear()
        # 2a + 1 + 2 * 1000 + 2 = DEFAULT_MAX_SITES + 1
        a = (lattice.DEFAULT_MAX_SITES - 2002) // 2
        with pytest.raises(CapacityError):
            basis_sums(Rectangular(a), hadamard_coin(), 1000)
        assert lattice._local_table.cache_info().misses == 0

    def test_rejects_negative_steps(self):
        with pytest.raises(DomainError):
            basis_sums(Local(), hadamard_coin(), -1)


class TestIntegerTime:
    """walk, evolve_basis and basis_sums read an integral step count as an int."""

    @pytest.mark.parametrize("steps", [3.0, np.int64(3)])
    def test_integral_steps_accepted(self, steps):
        coin, up = hadamard_coin(), Spinor(1.0, 0.0)
        got, want = lattice.walk(Gaussian(1.0), (up,), coin, steps), \
            lattice.walk(Gaussian(1.0), (up,), coin, 3)
        assert got.times == want.times and np.array_equal(got.cross_b, want.cross_b)
        assert np.array_equal(evolve_basis(Local(), coin, steps).bud,
                              evolve_basis(Local(), coin, 3).bud)
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

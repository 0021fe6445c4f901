import dataclasses
import math

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

SQRT2 = math.sqrt(2.0)
UP = Spinor(1.0, 0.0)


class TestProfiles:
    def test_gaussian_requires_positive_dispersion(self):
        with pytest.raises(DomainError):
            Gaussian(0.0)
        with pytest.raises(DomainError):
            Gaussian(-1.0)

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


class TestSigmaToA:
    def test_reference_points(self):
        assert sigma_to_a(1.0) == 1
        assert sigma_to_a(10.0) == 17

    def test_degenerates_to_local(self):
        assert sigma_to_a(0.01) == 0

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            sigma_to_a(0.0)


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

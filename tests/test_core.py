import math

import numpy as np
import pytest

from qwalklab import (
    BlochAngles,
    CoinMoments,
    DomainError,
    Spinor,
    binary_entropy,
    delta_from_moments,
    entropy_from_delta,
    entropy_from_moments,
    fourier_coin,
    hadamard_coin,
    spin_from_angles,
)
from qwalklab.core import COINS, as_time, unitary_coin

SQRT2 = math.sqrt(2.0)


class TestBlochAngles:
    def test_alpha_range_enforced(self):
        with pytest.raises(DomainError):
            BlochAngles(-0.1, 0.0)
        with pytest.raises(DomainError):
            BlochAngles(math.pi + 0.1, 0.0)

    def test_beta_canonicalized_to_signed_range(self):
        assert BlochAngles(1.0, 3 * math.pi / 2).beta == pytest.approx(-math.pi / 2)
        assert BlochAngles(1.0, 2 * math.pi + 0.25).beta == pytest.approx(0.25)
        a = BlochAngles(1.0, -7.0)
        assert -math.pi <= a.beta < math.pi

    def test_endpoints_accepted(self):
        assert BlochAngles(0.0, 0.0).alpha == 0.0
        assert BlochAngles(math.pi, 0.0).alpha == math.pi


class TestSpinFromAngles:
    def test_pure_up(self):
        s = spin_from_angles(BlochAngles(0.0, 1.23))
        assert s.up == pytest.approx(1.0)
        assert s.down == pytest.approx(0.0)

    def test_pure_down(self):
        s = spin_from_angles(BlochAngles(math.pi, 0.0))
        assert abs(s.up) == pytest.approx(0.0, abs=1e-15)
        assert s.down == pytest.approx(1.0)

    def test_equator_phase(self):
        s = spin_from_angles(BlochAngles(math.pi / 2, math.pi / 2))
        assert s.up == pytest.approx(1 / SQRT2)
        assert s.down == pytest.approx(1j / SQRT2)

    def test_always_normalized(self):
        for alpha in np.linspace(0.0, math.pi, 101):
            for beta in np.linspace(-math.pi, math.pi, 101, endpoint=False):
                s = spin_from_angles(BlochAngles(float(alpha), float(beta)))
                assert abs(s.norm_sq() - 1.0) < 1e-15


class TestCoins:
    def test_hadamard_entries(self):
        h = hadamard_coin()
        assert np.allclose(np.abs(h), 1 / SQRT2)
        assert h[1, 1].real < 0

    def test_fourier_entries(self):
        f = fourier_coin()
        assert f[0, 1] == pytest.approx(1j / SQRT2)
        assert f[1, 0] == pytest.approx(1j / SQRT2)

    @pytest.mark.parametrize("coin", [hadamard_coin(), fourier_coin()])
    def test_unitary(self, coin):
        assert np.max(np.abs(coin.conj().T @ coin - np.eye(2))) < 1e-15

    def test_hadamard_involution(self):
        h = hadamard_coin()
        v = h @ (h @ np.array([1.0, 0.0]))
        assert np.allclose(v, [1.0, 0.0], atol=1e-15)

    def test_fourier_on_spin_up(self):
        v = fourier_coin() @ np.array([1.0, 0.0])
        assert v[0] == pytest.approx(1 / SQRT2)
        assert v[1] == pytest.approx(1j / SQRT2)


class TestCoinRule:
    """`unitary_coin`, the one rule by which both engines read a coin."""

    @pytest.mark.parametrize("name, matrix", [("hadamard", hadamard_coin()),
                                              ("fourier", fourier_coin())])
    def test_name_is_its_shared_read_only_matrix(self, name, matrix):
        coin = unitary_coin(name)
        assert coin is COINS[name] and coin.tobytes() == matrix.tobytes()
        with pytest.raises(ValueError):
            coin[0, 0] = 0.0

    def test_matrix_keeps_its_values(self):
        coin = 1j * hadamard_coin()
        assert unitary_coin(coin).tobytes() == coin.tobytes()
        assert unitary_coin([[0, 1], [1, 0]]).dtype == np.complex128

    @pytest.mark.parametrize("coin", ["Hadamard", "grover", "", np.eye(3), [[1.0, 0.0], [0.0]],
                                      [["a", "b"], ["c", "d"]], None, np.zeros((2, 2)),
                                      np.full((2, 2), np.inf)],
                             ids=repr)
    def test_anything_else_is_a_domain_error(self, coin):
        with pytest.raises(DomainError):
            unitary_coin(coin)


class TestEntropyFromMoments:
    def test_maximally_mixed(self):
        assert entropy_from_moments(CoinMoments(0.5, 0.0)) == pytest.approx(1.0)

    def test_pure_coin(self):
        assert entropy_from_moments(CoinMoments(1.0, 0.0)) == pytest.approx(0.0)

    def test_two_step_walk_value(self):
        # eigenvalues {3/4, 1/4}
        s = entropy_from_moments(CoinMoments(0.5, 0.25))
        assert s == pytest.approx(binary_entropy(0.75), abs=1e-15)
        assert s == pytest.approx(0.8113, abs=5e-5)

    def test_inconsistent_moments_rejected(self):
        with pytest.raises(DomainError):
            entropy_from_moments(CoinMoments(1.0, 0.5))
        with pytest.raises(DomainError):
            entropy_from_moments(CoinMoments(1.5, 0.0))
        with pytest.raises(DomainError):
            entropy_from_moments(CoinMoments(np.array([0.5, 1.0]), np.array([0.0, 0.5])))

    def test_marginal_roundoff_clamped(self):
        s = entropy_from_moments(CoinMoments(1.0 + 1e-12, 0.0))
        assert s == 0.0

    def test_one_clamp_rule_in_delta(self):
        # |B|^2 = 5e-10 at A = 1: lambda_plus = 1 + 5e-10 is inside 1 + CLAMP_TOL,
        # but delta = 1 + 2e-9 is not, and the rule of entropy_from_delta holds
        with pytest.raises(DomainError):
            entropy_from_moments(CoinMoments(1.0, complex(math.sqrt(5e-10), 0.0)))
        a = np.linspace(0.0, 1.0, 101)
        b = np.sqrt(a * (1.0 - a)) * np.exp(0.3j)  # pure states, delta = 1 to rounding
        deltas = 4.0 * (np.square(a - 0.5) + np.square(np.abs(b)))
        assert np.array_equal(entropy_from_moments(CoinMoments(a, b)), entropy_from_delta(deltas))

    @pytest.mark.parametrize("a, b", [
        (math.nan, 0j), (0.5, complex(math.nan, 0.0)), (0.5, complex(0.0, math.nan)),
        (math.inf, 0j), (0.5, complex(math.inf, 0.0)),
        (np.array([0.5, math.nan]), np.zeros(2, dtype=complex)),
        (np.full(2, 0.5), np.array([0j, complex(math.nan, 0.0)])),
    ])
    def test_non_finite_moments_rejected(self, a, b):
        with pytest.raises(DomainError):
            entropy_from_moments(CoinMoments(a, b))

    def test_scalar_calls_equal_one_array_call_bit_for_bit(self):
        # squaring by `** 2` gave 5 of these 20,000 states a different
        # entropy as a scalar than inside the array (pow() against x * x)
        rng = np.random.default_rng(2)
        n = 20_000
        a = rng.uniform(0.0, 1.0, n)
        b = (rng.uniform(0.0, 1.0, n) * np.sqrt(a * (1.0 - a))
             * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n)))
        array = entropy_from_moments(CoinMoments(a, b))
        scalars = [entropy_from_moments(CoinMoments(float(x), complex(y))) for x, y in zip(a, b)]
        assert np.array_equal(np.array(scalars), array)
        # delta_from_moments squares by the same rule as the array path
        deltas = [delta_from_moments(CoinMoments(float(x), complex(y))) for x, y in zip(a, b)]
        assert np.array_equal(np.array(deltas), 4.0 * ((a - 0.5) ** 2 + np.abs(b) ** 2))


class TestEntropyFromDelta:
    def test_zero_is_maximal(self):
        assert entropy_from_delta(0.0) == pytest.approx(1.0)

    def test_one_is_separable(self):
        assert entropy_from_delta(1.0) == pytest.approx(0.0)

    def test_local_minimum_value(self):
        assert entropy_from_delta(2 * (3 - 2 * SQRT2)) == pytest.approx(0.736, abs=1e-3)

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            entropy_from_delta(1.1)
        with pytest.raises(DomainError):
            entropy_from_delta(-1e-6)

    def test_marginal_negative_clamped(self):
        assert entropy_from_delta(-1e-12) == pytest.approx(1.0)

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, delta):
        with pytest.raises(DomainError):
            entropy_from_delta(delta)

    def test_broadcasts_like_entropy_from_moments(self):
        deltas = np.array([[0.0, 0.25], [0.5, 1.0 + 1e-12]])
        values = entropy_from_delta(deltas)
        assert values.shape == (2, 2)
        assert isinstance(entropy_from_delta(0.25), float)
        assert values.tolist() == [[entropy_from_delta(d) for d in row] for row in deltas.tolist()]
        with pytest.raises(DomainError):
            entropy_from_delta(np.array([0.5, math.nan]))


class TestDeltaFromMoments:
    def test_marginal_excursion_clamped(self):
        # |B|^2 above A(1 - A) by 1e-12: delta = 1 + 4e-12 before the clamp
        assert delta_from_moments(CoinMoments(0.5, complex(0.5 + 1e-12, 0.0))) == 1.0

    def test_excursion_beyond_tolerance_rejected(self):
        with pytest.raises(DomainError):
            delta_from_moments(CoinMoments(0.5, complex(0.5 + 1e-6, 0.0)))


class TestBinaryEntropy:
    def test_equals_the_masked_products_bit_for_bit(self):
        # reference: each product masked to 0 where its log was skipped
        rng = np.random.default_rng(11)
        lam = np.concatenate([rng.uniform(0.0, 1.0, 20_000), [0.0, -0.0, 1.0, 0.5],
                              [5e-324, 1e-300, 1.0 - 2.0**-53, 0.25, 0.75]])
        q = 1.0 - lam
        log_lam = np.log2(lam, out=np.zeros_like(lam), where=lam > 0.0)
        log_q = np.log2(q, out=np.zeros_like(q), where=q > 0.0)
        ref = -np.where(lam > 0.0, lam * log_lam, 0.0)
        ref -= np.where(q > 0.0, q * log_q, 0.0)
        ref = ref + 0.0
        assert binary_entropy(lam).tobytes() == ref.tobytes()
        assert [binary_entropy(x) for x in (0.0, 1.0)] == [0.0, 0.0]
        assert math.copysign(1.0, binary_entropy(1.0)) == 1.0

    def test_nan_propagates(self):
        assert math.isnan(binary_entropy(math.nan))


def _random_valid_moments(rng):
    a = rng.uniform(0.0, 1.0)
    r = math.sqrt(a * (1 - a)) * math.sqrt(rng.uniform(0.0, 1.0))
    phi = rng.uniform(-math.pi, math.pi)
    return CoinMoments(a, r * complex(math.cos(phi), math.sin(phi)))


class TestConsistencyProperties:
    def test_moments_and_delta_paths_agree(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            m = _random_valid_moments(rng)
            assert entropy_from_moments(m) == pytest.approx(
                entropy_from_delta(delta_from_moments(m)), abs=1e-12
            )

    def test_entropy_depends_only_on_coherence_magnitude(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            m = _random_valid_moments(rng)
            phase = complex(math.cos(1.1), math.sin(1.1))
            rotated = CoinMoments(m.A, m.B * phase)
            assert entropy_from_moments(m) == pytest.approx(
                entropy_from_moments(rotated), abs=1e-13
            )

    def test_entropy_symmetric_under_population_swap(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            m = _random_valid_moments(rng)
            swapped = CoinMoments(1.0 - m.A, m.B)
            assert entropy_from_moments(m) == pytest.approx(
                entropy_from_moments(swapped), abs=1e-13
            )


class TestSpinor:
    def test_norm(self):
        s = Spinor(0.6, 0.8j)
        assert s.norm_sq() == pytest.approx(1.0)
        assert s.is_normalized()

    def test_not_normalized(self):
        assert not Spinor(1.0, 1.0).is_normalized()


class TestAsTime:
    @pytest.mark.parametrize("value", [3, 3.0, np.int64(3), np.float64(3.0)])
    def test_integral_values_become_int(self, value):
        t = as_time(value, "t")
        assert t == 3 and type(t) is int

    @pytest.mark.parametrize(
        "value", [2.5, -1, -1.0, math.nan, math.inf, True, "3", None, 3 + 0j]
    )
    def test_other_values_rejected(self, value):
        with pytest.raises(DomainError, match="steps must be an integer >= 0"):
            as_time(value, "steps")

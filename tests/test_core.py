import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from qwalklab import (
    BlochAngles,
    CoinMoments,
    DomainError,
    Gaussian,
    Local,
    Rectangular,
    Spinor,
    asymptotic_moments,
    binary_entropy,
    delta_from_moments,
    entropy_from_delta,
    entropy_from_moments,
    evolve,
    evolve_basis,
    evolve_k_moments,
    fourier_coin,
    hadamard_coin,
    spin_from_angles,
)
import qwalklab
from qwalklab import core, kspace
from qwalklab.core import (
    COINS,
    _entropy_into,
    as_time,
    bloch_map,
    bloch_monomials,
    delta_at,
    delta_form,
    spin_moments,
    unitary_coin,
)
from qwalklab.lattice import _BASIS, walk
from test_lattice import _general_coin

SQRT2 = math.sqrt(2.0)
EPS = np.finfo(float).eps


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


def _random_moments(n=20_000):
    """n random physical moments (A, B), |B|^2 <= A(1 - A), as arrays."""
    rng = np.random.default_rng(2)
    a = rng.uniform(0.0, 1.0, n)
    b = (rng.uniform(0.0, 1.0, n) * np.sqrt(a * (1.0 - a))
         * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n)))
    return a, b


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
        a, b = _random_moments()
        array = entropy_from_moments(CoinMoments(a, b))
        scalars = [entropy_from_moments(CoinMoments(float(x), complex(y))) for x, y in zip(a, b)]
        assert np.array_equal(np.array(scalars), array)
        # delta_from_moments squares by the same rule as the array path
        deltas = [delta_from_moments(CoinMoments(float(x), complex(y))) for x, y in zip(a, b)]
        assert np.array_equal(np.array(deltas), 4.0 * ((a - 0.5) ** 2 + np.abs(b) ** 2))

    @pytest.mark.parametrize("source", ["random", "walk"])
    def test_delta_checked_once_with_the_entropies_of_entropy_from_delta(self, monkeypatch,
                                                                         source):
        # 20,000 random (A, B), or a Local, T = 4,000 Hadamard walk's at every t
        if source == "random":
            a, b = _random_moments()
        else:
            run = walk(Local(), (Spinor(1.0, 0.0),), "hadamard", 4000)
            a, b = run.cross[0, 0, 0].real, run.cross[1, 0, 0]
        moments = CoinMoments(a, b)
        expected = entropy_from_delta(delta_from_moments(moments))
        checked = []
        check = core._check_delta
        monkeypatch.setattr(core, "_check_delta", lambda d: checked.append(d.shape) or check(d))
        assert entropy_from_moments(moments).tobytes() == expected.tobytes()
        assert checked == [a.shape]


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

    @pytest.mark.parametrize("delta", [True, "0.5", 0.5 + 0j, np.array([0.5, True], dtype=object),
                                       np.array([0.5, 0.25], dtype=complex), np.array([True])],
                             ids=repr)
    def test_values_that_are_no_real_numbers_rejected(self, delta):
        # True once gave 0.0 and "0.5" 0.6009 (binary_entropy("0.5"): 1.0)
        for call in (entropy_from_delta, binary_entropy):
            with pytest.raises(DomainError, match="must be real numbers"):
                call(delta)

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
        with pytest.raises(DomainError):
            delta_from_moments(CoinMoments(np.array([0.5, 0.5]), np.array([0j, 0.5 + 1e-6])))

    @pytest.mark.parametrize("m", [CoinMoments("a", 0), CoinMoments(True, 0.0),
                                   CoinMoments(0.5 + 0j, 0.0), CoinMoments(0.5, "x"),
                                   CoinMoments(0.5, False),
                                   CoinMoments(np.array([0.5], dtype=object), 0.0)], ids=repr)
    def test_moments_that_are_no_numbers_rejected(self, m):
        # CoinMoments("a", 0) once raised numpy's bare UFuncTypeError
        for call in (delta_from_moments, entropy_from_moments):
            with pytest.raises(DomainError, match="moments must be"):
                call(m)

    def test_one_array_call_equals_the_scalar_calls_bit_for_bit(self):
        # moments given as arrays once raised a bare TypeError (float() of an array)
        a, b = _random_moments()
        array = delta_from_moments(CoinMoments(a, b))
        scalars = [delta_from_moments(CoinMoments(float(x), complex(y))) for x, y in zip(a, b)]
        assert type(array) is np.ndarray and array.shape == a.shape
        assert all(type(d) is float for d in scalars)
        assert array.tobytes() == np.array(scalars).tobytes()
        # and the scalar reader's values: 4((A - 1/2)^2 + |B|^2), squared by a
        # product, clamped to [0, 1]
        x, y = a - 0.5, np.abs(b)
        assert array.tobytes() == np.clip(4.0 * (x * x + y * y), 0.0, 1.0).tobytes()


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
        values = binary_entropy(np.array([math.nan, 0.5]))
        assert math.isnan(values[0]) and values[1] == 1.0

    @pytest.mark.parametrize("lam", [2.0, -1.0, 1.000001, math.inf, -math.inf,
                                     np.array([0.5, math.nan, 1.0 + 2e-9])], ids=repr)
    def test_eigenvalues_out_of_range_rejected(self, lam):
        # each of these once gave 0.0, clipped without a word
        with pytest.raises(DomainError, match="must lie in"):
            binary_entropy(lam)

    def test_eigenvalues_within_the_clamp_tolerance_are_clipped(self):
        assert binary_entropy(np.array([-1e-12, 1.0 + 1e-12])).tolist() == [0.0, 0.0]


def _general_path_entropy(delta):
    """entropy_from_delta by the general binary-entropy path: lam clipped to
    [0, 1], and both logs evaluated only where their argument is positive."""
    lam = np.clip((1.0 + np.sqrt(np.clip(delta, 0.0, 1.0))) / 2.0, 0.0, 1.0)
    q = 1.0 - lam
    log_lam = np.zeros_like(lam)
    np.log2(lam, out=log_lam, where=lam > 0.0)
    log_q = np.zeros_like(q)
    np.log2(q, out=log_q, where=q > 0.0)
    return 0.0 - (lam * log_lam + q * log_q)


class TestEntropyKernel:
    """`_entropy_into`, the one entropy kernel, writing into caller buffers."""

    DELTAS = {
        "zero": np.zeros(7),
        "one": np.ones(7),
        "below one": np.full(7, 1.0 - 1e-16),
        "tiny": np.full(7, 1e-300),
        "random": np.random.default_rng(12).uniform(0.0, 1.0, (64, 1001)),
    }

    @pytest.mark.parametrize("name", DELTAS)
    def test_reused_buffers_give_the_bytes_of_entropy_from_delta(self, name):
        delta = self.DELTAS[name]
        # the expression entropy_from_delta evaluated before the kernel took buffers
        expected = binary_entropy((1.0 + np.sqrt(np.clip(delta, 0.0, 1.0))) / 2.0)
        assert entropy_from_delta(delta).tobytes() == expected.tobytes()
        # buffers left dirty by an earlier call do not show through
        out = np.full_like(delta, math.nan)
        work = np.full_like(delta, -7.0)
        for _ in range(2):
            scratch = delta.copy()
            _entropy_into(scratch, out, work)
            assert out.tobytes() == expected.tobytes()

    def test_lambda_of_a_half_or_more_needs_no_clip_or_mask(self):
        # lam = (1 + sqrt(delta))/2 lies in [1/2, 1], so the kernel skips the
        # general path's clip of lam and its mask on log2(lam), byte for byte
        rng = np.random.default_rng(29)
        edges = [0.0, 1.0, 1.0 - 2.0**-52, 2.0**-1074, 1e-300]
        delta = np.concatenate((rng.uniform(0.0, 1.0, 10**6), edges))
        assert entropy_from_delta(delta).tobytes() == _general_path_entropy(delta).tobytes()
        moments = CoinMoments(A=0.5 + np.sqrt(delta) / 2.0, B=np.zeros_like(delta))
        assert entropy_from_moments(moments).tobytes() == \
            _general_path_entropy(delta_from_moments(moments)).tobytes()

    def test_scalars_keep_their_bytes(self):
        for d in (0.0, 1.0, 1.0 - 1e-16, 1e-300, 0.25, -1e-12, 1.0 + 1e-12):
            expected = binary_entropy((1.0 + math.sqrt(min(max(d, 0.0), 1.0))) / 2.0)
            value = entropy_from_delta(d)
            assert type(value) is float and np.float64(value).tobytes() == \
                np.float64(expected).tobytes()

    @pytest.mark.parametrize("bad", [math.nan, 1.0 + 2e-9, -2e-9, math.inf])
    def test_rejects_what_the_clamp_rule_rejects(self, bad):
        delta = np.full((3, 5), 0.5)
        delta[2, 4] = bad
        with pytest.raises(DomainError):
            _entropy_into(delta, np.empty_like(delta), np.empty_like(delta))

    def test_empty_input(self):
        assert entropy_from_delta(np.zeros(0)).shape == (0,)


_ANGLE = strategies.floats(min_value=-math.pi, max_value=math.pi)
_COINS = strategies.one_of(
    strategies.sampled_from(["hadamard", "fourier"]),
    strategies.builds(_general_coin, _ANGLE, _ANGLE, _ANGLE, _ANGLE))
#: Random coins with |c01| >= 0.05, whose time-averaged tables need at most
#: 2,048 nodes.
_AVERAGED_COINS = strategies.one_of(
    strategies.sampled_from(["hadamard", "fourier"]),
    strategies.builds(_general_coin, strategies.floats(math.asin(0.05), math.pi / 2),
                      _ANGLE, _ANGLE, _ANGLE))
_PROFILES = strategies.one_of(
    strategies.just(Local()),
    strategies.integers(min_value=0, max_value=8).map(Rectangular),
    strategies.floats(min_value=0.2, max_value=5.0).map(Gaussian))
#: Spins as (alpha, beta, global phase): the phase changes the amplitudes
#: that the oracle reads, not the Bloch vector.
_SPINS = strategies.lists(
    strategies.tuples(strategies.floats(0.0, math.pi), _ANGLE, _ANGLE), min_size=1, max_size=6)


def _form_and_oracle_delta(sums, spins, time_axis):
    """delta of the spins from `delta_form`, and 4((A - 1/2)^2 + |B|^2) of
    `spin_moments` of their amplitudes, the form's oracle."""
    alpha, beta, phase = np.array(spins).T
    delta = bloch_monomials(alpha, beta) @ delta_form(sums)
    turn = np.exp(1j * phase)
    up, down = turn * np.cos(alpha / 2.0), turn * np.exp(1j * beta) * np.sin(alpha / 2.0)
    if time_axis:
        up, down = up[:, None], down[:, None]
    a, b = spin_moments(sums, up, down)
    return delta, 4.0 * ((np.real(a) - 0.5) ** 2 + np.abs(b) ** 2)


class TestDeltaForm:
    """delta = |P n + q|^2 of the seven basis sums, read as ten coefficients."""

    @settings(max_examples=60, deadline=None)
    @given(_COINS, _PROFILES, strategies.integers(min_value=0, max_value=257), _SPINS)
    def test_walk_sums_give_the_moments_delta(self, coin, profile, steps, spins):
        sums = evolve_basis(profile, coin, steps).sums
        assert delta_form(sums).shape == (10, steps + 1)
        delta, oracle = _form_and_oracle_delta(sums, spins, time_axis=True)
        assert np.max(np.abs(delta - oracle)) <= 1e-14

    @settings(max_examples=40, deadline=None)
    @given(_AVERAGED_COINS, _PROFILES, _SPINS)
    def test_time_averaged_kspace_sums_give_the_moments_delta(self, coin, profile, spins):
        sums = kspace._asymptotic_kernels(unitary_coin(coin).tobytes(), profile)
        delta, oracle = _form_and_oracle_delta(sums, spins, time_axis=False)
        assert np.max(np.abs(delta - oracle)) <= 1e-14

    @settings(max_examples=40, deadline=None)
    @given(_AVERAGED_COINS, _PROFILES, strategies.integers(min_value=0, max_value=257))
    def test_kspace_map_is_unital(self, coin, profile, t):
        # q is the coin state of the maximally mixed spin: the position trace of
        # U^t (1 x |w><w|) U^t+ is 1 for every coin, profile and t
        matrix = unitary_coin(coin).tobytes()
        _, q = bloch_map(kspace._asymptotic_kernels(matrix, profile))
        assert np.linalg.norm(q) <= 1e-13
        # a time-t table rounds like t steps: |q| reached 1.0e-13 at t = 153,
        # and stayed below 2.5 eps (t + 1) over 300 random cases
        _, q = bloch_map(kspace._basis_sums(matrix, profile, t))
        assert np.linalg.norm(q) <= 4.0 * EPS * (t + 1)

    @settings(max_examples=40, deadline=None)
    @given(_COINS, _PROFILES, strategies.integers(min_value=0, max_value=257))
    def test_lattice_map_is_unital_within_the_norm_drift(self, coin, profile, steps):
        # the walk's sums carry its norm drift, and the rounding of t steps;
        # over 400 random cases |q(t)| stayed below 2 eps (t + 1)
        _, q = bloch_map(evolve_basis(profile, coin, steps).sums)
        for t in sorted({0, steps // 2, steps}):
            final = walk(profile, _BASIS, coin, t, times=(t,)).final
            drift = max(abs(np.sum(np.abs(s.a) ** 2 + np.abs(s.b) ** 2) - 1.0) for s in final)
            assert np.linalg.norm(q[:, t]) <= 2.0 * drift + 4.0 * EPS * (t + 1), t

    def test_product_states_at_t0(self):
        # t = 0: P = (sum w^2) 1 and q = (0, 0, sum w^2 - 1), so delta = |n|^2 = 1
        p, q = bloch_map(evolve_basis(Gaussian(2.0), "hadamard", 0).sums)
        assert np.max(np.abs(p[..., 0] - np.eye(3))) <= 1e-15
        assert np.linalg.norm(q[:, 0]) <= 1e-15
        delta = bloch_monomials(np.array([1.0, 0.0, math.pi]), np.array([2.0, 0.0, 1.0])) @ \
            delta_form((1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0))
        assert np.max(np.abs(delta - 1.0)) <= 4e-16

    def test_complex_time_averaged_sums_raise_no_warning(self):
        # k-space's auu and add are complex with ~0 imaginary parts; filterwarnings
        # = error turns an implicit complex-to-real cast into a failure
        sums = kspace._asymptotic_kernels(COINS["hadamard"].tobytes(), Gaussian(2.0))
        assert np.iscomplexobj(sums[0]) and delta_form(sums).dtype == np.float64


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

    @pytest.mark.parametrize("spin", [Spinor("a", 0), Spinor(None, 1), Spinor(True, 0),
                                      Spinor(1.0, False), Spinor(np.array([1.0, 0.0]), 0.0),
                                      "a"], ids=repr)
    def test_amplitudes_that_are_no_numbers_rejected(self, spin):
        # each once raised a bare TypeError, ValueError or AttributeError, or
        # (True) was walked as spin up
        for call in (lambda: walk(Local(), (spin,), "hadamard", 2),
                     lambda: evolve(Local(), spin, "hadamard", 2),
                     lambda: evolve_k_moments(Local(), spin, "hadamard", 2),
                     lambda: asymptotic_moments(Local(), spin, "hadamard")):
            with pytest.raises(DomainError, match="spin must be a Spinor of two numbers"):
                call()
        with pytest.raises(DomainError):
            walk(Local(), "ab", "hadamard", 2)

    def test_numpy_scalar_amplitudes_walk_as_python_numbers(self):
        spins = [Spinor(0.6, 0.8j), Spinor(np.float64(0.6), np.complex128(0.8j)),
                 Spinor(np.array(0.6), np.array(0.8j))]
        walks = [evolve(Gaussian(1.0), spin, "hadamard", 8) for spin in spins]
        assert walks[1] == walks[0] and walks[2] == walks[0]
        assert len({asymptotic_moments(Local(), spin, "fourier") for spin in spins}) == 1


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


def _same(x, y) -> bool:
    """x is y's value and type, byte for byte: arrays by dtype, shape and bytes,
    sequences item by item, anything else by type and repr (a float's repr
    round-trips).  A str y stands for the repr of a record."""
    if isinstance(y, str) and not isinstance(x, str):
        return repr(x) == y
    if isinstance(x, np.ndarray):
        return (isinstance(y, np.ndarray) and (x.dtype, x.shape) == (y.dtype, y.shape)
                and x.tobytes() == y.tobytes())
    if isinstance(x, (tuple, list)):
        return type(x) is type(y) and len(x) == len(y) and all(map(_same, x, y))
    return type(x) is type(y) and repr(x) == repr(y)


def _axes(grid):
    return grid.alphas, grid.betas


_UP = Spinor(1.0, 0.0)
_LOCAL_F = kspace.LOCAL_F
_TINY_GRID = qwalklab.SweepGrid([0.0, 1.0], [0.0, 2.0])
#: beta = 2 pi + 1/2, which `_reduce_beta` reads as 1/2 exactly.
_BETA_WRAP = 2.0 * math.pi + 0.5
_NOT_NUMBERS = [math.nan, math.inf, -math.inf, True, "1"]
_BAD_ALPHA = _NOT_NUMBERS + [math.nextafter(0.0, -1.0), math.nextafter(math.pi, 4.0)]
_BAD_SIGMA = _NOT_NUMBERS + [0.0, -1.0, 10**400]  # 10**400: no double holds it
_BAD_COUNT = _NOT_NUMBERS + [-1, 2.5]
_TINY_SIGMA, _FLOAT32_SIGMA = 5e-324, np.float32(2.0)
#: Two angles where a spin's record holds one.
_TWO_ANGLES = np.array([0.1, 0.2])
#: A ragged sequence, which numpy refuses to read as an array.
_RAGGED = [0.1, [0.2]]
#: Spins no walk may start from: no Spinor, amplitudes that are no numbers
#: (a ragged sequence, an array, a bool, a string) and an unnormalized one.
_BAD_SPINS = [(1.0, 0.0), Spinor([1.0, [0.0]], 0.0), Spinor(_TWO_ANGLES, 0.0),
              Spinor(True, 0.0), Spinor("1", 0.0), Spinor(1.0, 1.0), Spinor(math.nan, 0.0)]


def _closed(alpha, beta):
    return delta_at(kspace._closed_form("hadamard", _LOCAL_F), alpha, beta)


def _spin_edges(call):
    """Edges of the spin rule: a numpy scalar and a 0-d array amplitude give
    the output of the Python float."""
    return [(Spinor(np.float64(1.0), 0.0), lambda: call(_UP)),
            (Spinor(np.array(1.0), 0.0), lambda: call(_UP))]


def _counted(call):
    """Edges of a count reader: np.int64(2) gives the output of the int 2, and 0 is a count."""
    return [(np.int64(2), lambda: call(2)), (0, lambda: call(0))]


#: Every public entry point that reads an input rule (`core.require_normalized`,
#: `core.check_angles`, `core.as_positive`, `core.as_time`, `lattice.FAMILIES`,
#: the clamp rule of delta), one row per input:
#: its name in `qwalklab.__all__`, the input, a call of the reader on a value
#: of it, the values it must refuse with DomainError and in-domain edges, each
#: with a thunk of the output it must give (an exception class: the error it
#: must raise).  `tests/test_tooling.py` checks that no entry point is missing.
INPUT_READERS = [
    ("BlochAngles", "alpha", lambda f, x: f(x, 0.0), _BAD_ALPHA + [_TWO_ANGLES, _RAGGED],
     [(0.0, lambda: "BlochAngles(alpha=0.0, beta=0.0)"),
      (math.pi, lambda: f"BlochAngles(alpha={math.pi!r}, beta=0.0)"),
      (np.array(0.0), lambda: f"BlochAngles(alpha={np.array(0.0)!r}, beta=0.0)")]),
    ("BlochAngles", "beta", lambda f, x: f(1.0, x), _NOT_NUMBERS + [_TWO_ANGLES, _RAGGED],
     [(_BETA_WRAP, lambda: "BlochAngles(alpha=1.0, beta=0.5)"),
      (np.array(_BETA_WRAP), lambda: "BlochAngles(alpha=1.0, beta=0.5)")]),
    ("spin_amplitudes", "alpha", lambda f, x: f(x, 0.0), _BAD_ALPHA,
     [(0.0, lambda: (np.complex128(1.0), np.complex128(0.0))),
      (math.pi, lambda: (np.complex128(np.cos(math.pi / 2.0)), np.complex128(1.0)))]),
    ("spin_amplitudes", "beta", lambda f, x: f(1.0, x), _NOT_NUMBERS,
     [(_BETA_WRAP, lambda: (np.complex128(np.cos(0.5)),
                            (np.cos(0.5) + 1j * np.sin(0.5)) * np.sin(0.5)))]),
    ("closed_delta", "alpha", lambda f, x: f("hadamard", _LOCAL_F, x, 0.0), _BAD_ALPHA,
     [(0.0, lambda: _closed(0.0, 0.0)), (math.pi, lambda: _closed(math.pi, 0.0))]),
    ("closed_delta", "beta", lambda f, x: f("hadamard", _LOCAL_F, 1.0, x), _NOT_NUMBERS,
     [(_BETA_WRAP, lambda: _closed(1.0, _BETA_WRAP))]),
    ("SweepGrid", "alphas", lambda f, x: _axes(f([x], [0.0])), _BAD_ALPHA + [_TWO_ANGLES],
     [(0.0, lambda: (np.array([0.0]), np.array([0.0]))),
      (math.pi, lambda: (np.array([math.pi]), np.array([0.0])))]),
    ("SweepGrid", "betas", lambda f, x: _axes(f([0.0], [x])), _NOT_NUMBERS + [_TWO_ANGLES],
     [(_BETA_WRAP, lambda: (np.array([0.0]), np.array([_BETA_WRAP])))]),
    ("max_entanglement_beta", "alpha", lambda f, x: f(x), _BAD_ALPHA,
     [(0.0, DomainError), (math.pi, DomainError),  # |cot alpha| > 1: no band there
      (math.pi / 2.0, lambda: math.acos(-math.cos(math.pi / 2.0) / math.sin(math.pi / 2.0)))]),
    ("Gaussian", "sigma0", lambda f, x: f(x), _BAD_SIGMA,
     [(_TINY_SIGMA, lambda: "Gaussian(sigma0=5e-324)"),
      (_FLOAT32_SIGMA, lambda: "Gaussian(sigma0=np.float32(2.0))")]),
    ("sigma_to_a", "sigma0", lambda f, x: f(x), _BAD_SIGMA,
     [(_TINY_SIGMA, lambda: 0), (_FLOAT32_SIGMA, lambda: 3)]),
    ("f_interpolation", "sigma0", lambda f, x: f(x), _BAD_SIGMA,
     [(x, lambda x=x: 0.0365 * (math.pi / 2.0 - math.atan(3.937 * (x - 0.8))))
      for x in (_TINY_SIGMA, _FLOAT32_SIGMA)]),
    ("grid_from_step", "step", lambda f, x: _axes(f(x)), _BAD_SIGMA,
     [(_TINY_SIGMA, qwalklab.CapacityError),
      (_FLOAT32_SIGMA, lambda: (np.array([0.0, 2.0]), np.array([0.0, 2.0, 4.0, 6.0])))]),
    ("family_profile", "sigma0", lambda f, x: f("gaussian", x), _BAD_SIGMA,
     [(_TINY_SIGMA, lambda: "Gaussian(sigma0=5e-324)"),
      (_FLOAT32_SIGMA, lambda: "Gaussian(sigma0=np.float32(2.0))")]),
    ("family_profile", "sigma0 (rect)", lambda f, x: f("rect", x), _BAD_SIGMA,
     [(_TINY_SIGMA, lambda: "Rectangular(a=0)"), (_FLOAT32_SIGMA, lambda: "Rectangular(a=3)")]),
    ("Rectangular", "a", lambda f, x: f(x), _BAD_COUNT,  # a numpy 3 is stored as the int 3
     [(np.int64(3), lambda: "Rectangular(a=3)"), (0, lambda: "Rectangular(a=0)")]),
    ("evolve", "steps", lambda f, x: f(Local(), _UP, "hadamard", x), _BAD_COUNT,
     _counted(lambda x: qwalklab.evolve(Local(), _UP, "hadamard", x))),
    ("evolve", "spin", lambda f, x: f(Local(), x, "hadamard", 2), _BAD_SPINS,
     _spin_edges(lambda x: qwalklab.evolve(Local(), x, "hadamard", 2))),
    ("evolve_k_moments", "spin", lambda f, x: f(Local(), x, "hadamard", 2), _BAD_SPINS,
     _spin_edges(lambda x: qwalklab.evolve_k_moments(Local(), x, "hadamard", 2))),
    ("asymptotic_moments", "spin", lambda f, x: f(Local(), x, "hadamard"), _BAD_SPINS,
     _spin_edges(lambda x: qwalklab.asymptotic_moments(Local(), x, "hadamard"))),
    ("entropy_from_delta", "delta", lambda f, x: f(x),
     _NOT_NUMBERS + [_RAGGED, 1.0 + 2e-9, -2e-9, 1j],
     [(0.0, lambda: 1.0), (1.0, lambda: 0.0),
      (np.array(0.25), lambda: qwalklab.entropy_from_delta(0.25))]),
    ("evolve_basis", "steps", lambda f, x: f(Local(), "hadamard", x).sums, _BAD_COUNT,
     _counted(lambda x: qwalklab.evolve_basis(Local(), "hadamard", x).sums)),
    ("basis_sums", "steps", lambda f, x: f(Local(), "hadamard", x), _BAD_COUNT,
     _counted(lambda x: qwalklab.basis_sums(Local(), "hadamard", x))),
    ("sweep_simulated", "steps", lambda f, x: f("hadamard", Local(), _TINY_GRID, x).values,
     _BAD_COUNT,
     _counted(lambda x: qwalklab.sweep_simulated("hadamard", Local(), _TINY_GRID, x).values)),
    ("average_trace", "steps", lambda f, x: f("hadamard", Local(), _TINY_GRID, x), _BAD_COUNT,
     _counted(lambda x: qwalklab.average_trace("hadamard", Local(), _TINY_GRID, x))),
    ("compare", "steps", lambda f, x: f("hadamard", "gaussian", [1.0], _TINY_GRID, x),
     _BAD_COUNT,  # and steps = 0: a comparison needs a step
     [(np.int64(2), lambda: qwalklab.compare("hadamard", "gaussian", [1.0], _TINY_GRID, 2)),
      (0, DomainError)]),
    ("evolve_k_moments", "t", lambda f, x: f(Local(), _UP, "hadamard", x), _BAD_COUNT,
     _counted(lambda x: qwalklab.evolve_k_moments(Local(), _UP, "hadamard", x))),
]


def _row_id(row):
    return f"{row[0]}-{row[1]}"


class TestInputRules:
    """The input rules at their boundaries, through every entry point that reads them."""

    @pytest.mark.parametrize("row", INPUT_READERS, ids=map(_row_id, INPUT_READERS))
    def test_out_of_domain_inputs_raise_domain_error(self, row):
        name, _, call, bad, _ = row
        for value in bad:  # a numpy warning fails the test too (filterwarnings = error)
            with pytest.raises(DomainError):
                call(getattr(qwalklab, name), value)

    @pytest.mark.parametrize("row", INPUT_READERS, ids=map(_row_id, INPUT_READERS))
    def test_in_domain_edges_keep_their_outputs(self, row):
        name, _, call, _, edges = row
        for value, expected in edges:
            if isinstance(expected, type):
                with pytest.raises(expected):
                    call(getattr(qwalklab, name), value)
            else:
                assert _same(call(getattr(qwalklab, name), value), expected()), value

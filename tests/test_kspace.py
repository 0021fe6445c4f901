import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies

from qwalklab import (
    BlochAngles,
    CapacityError,
    CoinMoments,
    DomainError,
    Gaussian,
    Local,
    Rectangular,
    Spinor,
    asymptotic_moments,
    average_trace,
    basis_sums,
    closed_delta,
    compare,
    delta_from_moments,
    entropy_from_delta,
    entropy_from_moments,
    evolve,
    evolve_basis,
    evolve_k_moments,
    extract_f,
    f_interpolation,
    grid_from_step,
    max_entanglement_beta,
    spin_from_angles,
    sweep_asymptotic,
    sweep_simulated,
)
from qwalklab import kspace
from qwalklab.core import BASIS_SUMS, delta_form, fourier_coin, hadamard_coin, unitary_coin
from qwalklab.kspace import (
    LOCAL_F,
    _asymptotic_kernels,
    _averaged_rows,
    _basis_sums,
    _coefficients,
    _step_powers,
    coin_tag,
)
from qwalklab import lattice
from qwalklab.lattice import _autocorrelation, profile_weights, walk
from test_lattice import _general_coin, _longdouble_table

SQRT2 = math.sqrt(2.0)
UP = Spinor(1.0, 0.0)
EPS = np.finfo(float).eps


@pytest.fixture
def fresh_tables():
    """An empty table cache before and after the test."""
    _coefficients.cache_clear()
    yield
    _coefficients.cache_clear()


def _coin_op(coin):
    return hadamard_coin() if coin == "hadamard" else fourier_coin()


def _key(coin):
    """The cache key of a named coin's tables: its matrix as bytes."""
    return _coin_op(coin).tobytes()


class TestCoefficients:
    """The (coin, t) tables of Fourier coefficients behind every basis sum."""

    @pytest.mark.parametrize("coin", ["hadamard", "fourier"])
    @pytest.mark.parametrize("t", [0, 1, 15, 64])
    def test_table_agrees_at_twice_the_nodes(self, monkeypatch, fresh_tables, coin, t):
        table = _coefficients(_key(coin), t).copy()
        nodes = max(kspace._MIN_NODES, 1 << (4 * t).bit_length())
        monkeypatch.setattr(kspace, "_MIN_NODES", 2 * nodes)
        _coefficients.cache_clear()
        doubled = _coefficients(_key(coin), t)
        # the rounding of U_k^t grows with t: 1.2e-15 at t = 64
        assert doubled.shape == table.shape
        assert np.max(np.abs(doubled - table)) <= 1e-14

    def test_cache_is_bounded_and_read_only(self, fresh_tables):
        info = _coefficients.cache_info()
        assert info.maxsize is not None
        for t in range(info.maxsize + 2):
            _coefficients(_key("hadamard"), t)
        assert _coefficients.cache_info().currsize == info.maxsize
        table = _coefficients(_key("hadamard"), 3)
        assert table.shape == (7, 13) and not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0.0

    def test_capacity_error_before_sampling(self, monkeypatch):
        class Sampled(Exception):
            pass

        def refuse(matrix, t, n):
            raise Sampled(n)

        monkeypatch.setattr(kspace, "_step_powers", refuse)
        # t = 2**18 - 1 needs 2**20 nodes, the most a table may sample
        with pytest.raises(Sampled):
            _coefficients(_key("hadamard"), 262_143)
        with pytest.raises(CapacityError):
            evolve_k_moments(Local(), UP, "hadamard", 262_144)

    @pytest.mark.parametrize("t", [0, 1, 3])
    @pytest.mark.parametrize("profile", [Rectangular(17), Gaussian(10.0)], ids=str)
    def test_profile_wider_than_table(self, profile, t):
        # 35 and 1,091 sites against 4t + 1 lags
        for coin in ("hadamard", "fourier"):
            got = _basis_sums(_key(coin), profile, t)
            want = basis_sums(profile, _coin_op(coin), t)
            assert np.max(np.abs(np.subtract(got, want))) <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(strategies.floats(min_value=0.2, max_value=30.0),
           strategies.integers(min_value=0, max_value=300),
           strategies.sampled_from(["hadamard", "fourier"]))
    def test_gaussian_matches_lattice(self, sigma0, t, coin):
        got = _basis_sums(_key(coin), Gaussian(sigma0), t)
        want = basis_sums(Gaussian(sigma0), _coin_op(coin), t)
        assert np.max(np.abs(np.subtract(got, want))) <= 1e-12


class TestKAmplitudes:
    """The k-space amplitudes g(k) * spin: the weights behind g, and the spin check."""

    def test_gaussian_peak_value(self):
        # g(0) is the sum of the lattice weights; the continuum transform
        # (8 pi)^(1/4) differs from it by 2.8e-9 relative (Poisson summation)
        g0 = math.fsum(profile_weights(Gaussian(1.0))[1])
        assert g0 == pytest.approx(2.2390302638504442, abs=1e-14)
        assert g0 == pytest.approx(2.2392, abs=1e-3)

    def test_rectangular_zero_width_is_local(self):
        (j0, w0), (j1, w1) = profile_weights(Rectangular(0)), profile_weights(Local())
        assert j0 == j1 and w0.tolist() == w1.tolist()

    def test_rectangular_center_value(self):
        assert math.fsum(profile_weights(Rectangular(2))[1]) == pytest.approx(math.sqrt(5.0))

    @pytest.mark.parametrize(
        "profile", [Local(), Gaussian(1.0), Gaussian(10.0), Rectangular(1), Rectangular(17)]
    )
    def test_parseval(self, profile):
        # int dk/2pi |g|^2 = r(0) = sum_j w_j^2 = 1
        _, w = profile_weights(profile)
        r = _autocorrelation(w, w.shape[0] - 1)
        assert r[w.shape[0] - 1] == pytest.approx(1.0, abs=1e-15)

    def test_rejects_unnormalized_spin(self):
        with pytest.raises(DomainError):
            evolve_k_moments(Local(), Spinor(1.0, 1.0), "hadamard", 0)


#: The named coins' eigenphase frequencies omega_k: sin(omega) = sin(k)/sqrt2
#: (Hadamard, omega in [-pi/2, pi/2]), cos(omega) = cos(k)/sqrt2 (Fourier).
_OMEGA = {"hadamard": lambda k: np.arcsin(np.sin(k) / math.sqrt(2.0)),
          "fourier": lambda k: np.arccos(np.cos(k) / math.sqrt(2.0))}


def _step_eigenvalues(coin, nodes):
    """The eigenvalues (n, 2) of U_k at the FFT nodes k_m = 2 pi m / n, from
    the one-step power `_step_powers(coin, 1, n)`."""
    return np.linalg.eigvals(np.moveaxis(_step_powers(coin, 1, nodes), -1, 0))


class TestDispersion:
    @pytest.mark.parametrize("coin", ["hadamard", "fourier"])
    def test_eigenphase_consistency(self, coin):
        # at every k one eigenvalue of U_k is +-e^{-i omega_k}
        k = 2.0 * math.pi * np.arange(80) / 80
        evals = _step_eigenvalues(_coin_op(coin), 80)
        e = np.exp(-1j * _OMEGA[coin](k))[:, None]
        assert np.max(np.min(np.minimum(np.abs(evals - e), np.abs(evals + e)), axis=1)) < 1e-12


def _power_bound(t):
    """How far rounding may move U_k^t, or a table from it, off the exact one:
    c (t + 1) eps with c = 26, counted for `kspace._step_powers`.

    With u = eps / 2, the step rounds its node k = 2 pi m / n by at most
    2u |k| < 2 pi eps, which moves U_k^t by t times as much (|dU_k/dk| = 1),
    and its entries by (2 + sqrt5) u sqrt2 < 3 eps in norm (the phase and one
    complex product).  Each 2x2 product rounds by (sqrt5 + 1) u per entry of
    unit rows and columns, < 3.3 eps in norm, and a squaring doubles the error
    it inherits, so U_k^t carries t - 1 products' worth: in all
    (2 pi + 3 + 3.3) t eps < 12.6 t eps.  An integrand is a product of two
    entries, so a table is off by less than 25.2 t eps, and the rest of the
    bound holds the FFT's rounding of unit samples.
    """
    return 26.0 * (t + 1) * EPS


class TestCoinSpectrum:
    """U_k and its powers, which every k-space table is built from."""

    def test_hadamard_center(self):
        evals = _step_eigenvalues(_coin_op("hadamard"), 64)[0]
        assert sorted(np.round(evals.real, 12)) == [-1.0, 1.0]
        assert np.max(np.abs(evals.imag)) < 1e-12

    def test_fourier_center(self):
        evals = _step_eigenvalues(_coin_op("fourier"), 64)[0]
        expected = {cmath.exp(-1j * math.pi / 4), cmath.exp(1j * math.pi / 4)}
        for lam in evals:
            assert min(abs(lam - e) for e in expected) < 1e-12

    @pytest.mark.parametrize("nodes", [256, 4096])
    @pytest.mark.parametrize("coin", [
        hadamard_coin(), fourier_coin(),
        *(_general_coin(*angles) for angles in np.random.default_rng(7).uniform(-3, 3, (4, 4))),
        *(_general_coin(theta, 0.0, 0.0, 0.0) for theta in (1e-100, 1e-16, 1e-12, 1e-8)),
    ], ids=["hadamard", "fourier", *(f"random{i}" for i in range(4)),
            *(f"theta={theta}" for theta in (1e-100, 1e-16, 1e-12, 1e-8))])
    def test_powers_are_unitary_at_every_node(self, coin, nodes):
        # the rotations' eigenvalues nearly coincide at k = 0 and pi, which
        # squaring does not see.  Measured worst case: 2.54 (t + 1) eps at
        # t = 4000, 10x inside the bound; t = 0 is the identity, exactly
        assert np.array_equal(_step_powers(coin, 0, nodes), np.eye(2)[:, :, None] * np.ones(nodes))
        for t in (1, 2, 3, 7, 64, 1000, 4000):
            power = _step_powers(coin, t, nodes)
            gram = np.einsum("xsm,xrm->srm", np.conj(power), power)
            assert np.max(np.abs(gram - np.eye(2)[:, :, None])) <= _power_bound(t), t

    def test_unknown_coin_rejected(self):
        for coin in ("grover", np.eye(2)):
            with pytest.raises(DomainError):
                coin_tag(coin)


class TestEvolveKMoments:
    @pytest.mark.parametrize(
        "profile", [Local(), Gaussian(2.0), Rectangular(2)]
    )
    def test_t_zero_matches_lattice(self, profile):
        spin = spin_from_angles(BlochAngles(0.9, 0.4))
        mk = evolve_k_moments(profile, spin, "hadamard", 0)
        ml = walk(profile, (spin,), hadamard_coin(), 0).records()[0].moments
        assert mk.A == pytest.approx(ml.A, abs=1e-10)
        assert mk.B == pytest.approx(ml.B, abs=1e-10)

    def test_local_two_step_hand_values(self):
        m = evolve_k_moments(Local(), UP, "hadamard", 2)
        assert m.A == pytest.approx(0.5, abs=1e-10)
        assert m.B == pytest.approx(0.25, abs=1e-10)

    def test_long_time_near_asymptote(self):
        spin = spin_from_angles(BlochAngles(math.pi / 4, 0.0))
        m = evolve_k_moments(Local(), spin, "hadamard", 1000)
        s_t = entropy_from_moments(m)
        m_inf = asymptotic_moments(Local(), spin, "hadamard")
        s_inf = entropy_from_delta(delta_from_moments(m_inf))
        # a single state's S_E(t) still oscillates ~2% at t=1000; the sub-0.3%
        # figure-level agreement holds for grid averages, tested in test_analysis
        assert abs(s_t - s_inf) / s_inf < 0.02

    def test_rejects_negative_time(self):
        with pytest.raises(DomainError):
            evolve_k_moments(Local(), UP, "hadamard", -1)

    @pytest.mark.parametrize("t", [0, 1000])
    def test_wide_profile_matches_lattice(self, t):
        # Gaussian(50) spans ~5,450 sites, far more than the table's 4t + 1 lags
        run = walk(Gaussian(50.0), (UP,), hadamard_coin(), t, times=(t,))
        m = evolve_k_moments(Gaussian(50.0), UP, "hadamard", t)
        assert abs(m.A - run.cross[0, 0, 0, -1].real) <= 1e-10
        assert abs(m.B - run.cross[1, 0, 0, -1]) <= 1e-10

    @pytest.mark.parametrize("coin", ["hadamard", "fourier"])
    @pytest.mark.parametrize("profile", [Local(), Gaussian(2.0)])
    def test_every_t_walk_matches_past_t_64(self, profile, coin):
        # criterion 10 stops at t = 64; here the records of one every-t walk
        # (Local on its one parity class) meet k-space up to t = 1000
        spin = spin_from_angles(BlochAngles(0.7, 1.1))
        matrix = hadamard_coin() if coin == "hadamard" else fourier_coin()
        records = walk(profile, (spin,), matrix, 1000).records()
        for t in (65, 257, 1000):
            mk = evolve_k_moments(profile, spin, coin, t)
            assert records[t].t == t
            assert abs(mk.A - records[t].moments.A) <= 1e-12
            assert abs(mk.B - records[t].moments.B) <= 1e-12

    @pytest.mark.parametrize("t", [0, 64, 1000])
    def test_table_does_not_grow_with_profile_support(self, monkeypatch, t):
        # Gaussian(100) spans 10,899 sites; the table and the lags read are set by t
        seen = []
        autocorrelation = lattice._autocorrelation
        monkeypatch.setattr(lattice, "_autocorrelation",
                            lambda w, lags: seen.append(lags) or autocorrelation(w, lags))
        evolve_k_moments(Gaussian(100.0), UP, "hadamard", t)
        assert _coefficients(_key("hadamard"), t).shape == (7, 4 * t + 1)
        assert seen == [2 * t]

    @pytest.mark.parametrize("t", [3, 3.0, np.int64(3)])
    def test_integral_time_accepted(self, t):
        assert evolve_k_moments(Local(), UP, "fourier", t) == evolve_k_moments(
            Local(), UP, "fourier", 3)

    @pytest.mark.parametrize("t", [2.5, math.nan, math.inf, True, "3"])
    def test_non_integral_time_rejected(self, t):
        with pytest.raises(DomainError):
            evolve_k_moments(Local(), UP, "hadamard", t)


class TestExactEnvelope:
    """The k-space engine is exact for the lattice walk's own initial state."""

    @pytest.mark.parametrize("coin", ["hadamard", "fourier"])
    @pytest.mark.parametrize(
        "profile",
        [Gaussian(0.3), Gaussian(0.5), Gaussian(0.75), Rectangular(17)],
        ids=str,
    )
    def test_lattice_oracle_below_unit_dispersion(self, profile, coin):
        times = (0, 1, 64, 1000)
        spin = spin_from_angles(BlochAngles(0.7, 1.1))
        coin_op = hadamard_coin() if coin == "hadamard" else fourier_coin()
        run = walk(profile, (spin,), coin_op, 1000, times=times)
        for n, t in enumerate(times):
            mk = evolve_k_moments(profile, spin, coin, t)
            assert abs(mk.A - run.cross[0, 0, 0, n].real) <= 1e-10
            assert abs(mk.B - run.cross[1, 0, 0, n]) <= 1e-10

    @pytest.mark.parametrize("coin", ["hadamard", "fourier"])
    @pytest.mark.parametrize(
        "profile",
        [Local(), Gaussian(0.3), Gaussian(0.5), Gaussian(0.75), Gaussian(1.0),
         Gaussian(10.0), Rectangular(17)],
        ids=str,
    )
    def test_basis_sums_match_lattice(self, profile, coin):
        # the seven sums fix the moments of every spin at once
        times = (0, 1, 64, 1000)
        coin_op = hadamard_coin() if coin == "hadamard" else fourier_coin()
        basis = evolve_basis(profile, coin_op, 1000)
        names = ("auu", "aud", "add", "buu", "bud", "bdu", "bdd")
        for t in times:
            sums = _basis_sums(_key(coin), profile, t)
            for name, value, lattice_sum in zip(names, sums, basis.sums):
                assert abs(value - lattice_sum[t]) <= 1e-12, (name, t)

    @pytest.mark.parametrize("n", [1024, 2048])
    @pytest.mark.parametrize(
        "profile", [Local(), Gaussian(0.5), Gaussian(10.0), Rectangular(17)], ids=str
    )
    def test_node_fft_matches_direct_sum(self, profile, n):
        # r(m) by FFT against sum_j w_{j+m} w_j, and against the n-node
        # trapezoid mean of |g(k)|^2 e^{ikm}, g by its direct sum
        j_min, w = profile_weights(profile)
        lags = min(w.shape[0] - 1, 127)
        r = _autocorrelation(w, lags)
        m = np.arange(-lags, lags + 1)
        direct = [np.dot(w[abs(l):], w[: w.shape[0] - abs(l)]) for l in m]
        assert np.max(np.abs(r - direct)) <= 1e-15
        k = 2.0 * math.pi * np.arange(n) / n
        g = np.exp(-1j * np.multiply.outer(k, j_min + np.arange(w.shape[0]))) @ w
        g2 = np.abs(g) ** 2
        nodal = (g2 * np.exp(1j * np.multiply.outer(m, k))).mean(axis=1)
        assert np.max(np.abs(r - nodal)) <= 1e-13

    def test_kernel_against_mpmath(self):
        # ka1 = int dk/2pi |g|^2 sum_pm |<up|Phi_pm>|^4, integrated by mpmath
        # at 30 digits with mpmath's own eigenvectors
        j_min, w = profile_weights(Gaussian(0.5))
        terms = [(j_min + i, mpmath.mpf(float(x))) for i, x in enumerate(w)]
        c = [[mpmath.mpf(float(x.real)) for x in row] for row in hadamard_coin()]

        def integrand(k):
            g = mpmath.fsum(x * mpmath.expj(-k * j) for j, x in terms)
            e = mpmath.expj(-k)
            u = mpmath.matrix([[e * c[0][0], e * c[0][1]], [c[1][0] / e, c[1][1] / e]])
            _, vecs = mpmath.eig(u)
            total = 0
            for col in range(2):
                up, dn = abs(vecs[0, col]) ** 2, abs(vecs[1, col]) ** 2
                total += (up / (up + dn)) ** 2
            return abs(g) ** 2 * total

        with mpmath.workdps(30):
            exact = mpmath.quad(integrand, [-mpmath.pi, mpmath.pi]) / (2 * mpmath.pi)
        ka1 = _asymptotic_kernels(_key("hadamard"), Gaussian(0.5))[0]
        assert abs(ka1 - float(exact)) <= 1e-13


#: The coins both engines tabulate: the named coins (held to 1e-13, as
#: before), a general U(2) coin, and one with |c01| = 0.01 (held to
#: `_power_bound`, whose c (t + 1) eps the k-space table dominates).
_ORACLE_COINS = {"hadamard": hadamard_coin(), "fourier": fourier_coin(),
                 "general": _general_coin(0.7, 0.3, -1.1, 0.4),
                 "c01=0.01": _general_coin(math.asin(0.01), 0.9, -1.7, 0.3)}


class TestTableOracle:
    """Both engines make one lag table per (coin, t) and share `table_sums`:
    when the tables agree, every profile's sums agree."""

    @pytest.mark.parametrize("t", [0, 1, 2, 3, 17, 64, 500, 1000, 2000])
    @pytest.mark.parametrize("name", _ORACLE_COINS)
    def test_lattice_table_matches_kspace_table(self, name, t):
        # measured worst case of the unnamed coins: 0.45 (t + 1) eps (general,
        # t = 1) and 1.10 (t + 1) eps (c01 = 0.01, t = 64), 23x inside the bound
        coin = _ORACLE_COINS[name]
        walked = lattice._local_table(coin.tobytes(), t)
        sampled = _coefficients(coin.tobytes(), t)
        assert walked.shape == sampled.shape == (7, 4 * t + 1)
        bound = 1e-13 if name in ("hadamard", "fourier") else _power_bound(t)
        assert np.max(np.abs(walked - sampled)) <= bound

    @pytest.mark.parametrize("t", [0, 1, 64, 1000])
    @pytest.mark.parametrize("name", _ORACLE_COINS)
    def test_sums_differ_by_at_most_the_table_bound(self, name, t):
        # |sum_n r(n) dC(n)| <= max_n |dC(n)| * sum_n |r(n)|, plus the rounding
        # of the two sums: a few ulps per unit of sum_n |r(n)|, since |C| <= 1
        coin = _ORACLE_COINS[name]
        walked = lattice._local_table(coin.tobytes(), t)
        gap = np.max(np.abs(walked - _coefficients(coin.tobytes(), t)))
        assert gap <= _power_bound(t)
        for profile in (Local(), Gaussian(0.3), Gaussian(2.0), Gaussian(30.0),
                        Rectangular(0), Rectangular(17)):
            _, w = profile_weights(profile)
            r = _autocorrelation(w, min(2 * t, w.shape[0] - 1))
            diff = np.subtract(basis_sums(profile, coin, t),
                               _basis_sums(coin.tobytes(), profile, t))
            assert np.max(np.abs(diff)) <= (gap + 4 * EPS) * np.sum(np.abs(r)), profile


class TestPhysicalBounds:
    @settings(max_examples=80, deadline=None)
    @given(
        strategies.floats(min_value=0.2, max_value=20.0),
        strategies.floats(min_value=0.0, max_value=math.pi),
        strategies.floats(min_value=-math.pi, max_value=math.pi),
        strategies.sampled_from(["hadamard", "fourier"]),
    )
    def test_asymptotic_moments_are_a_density_matrix(self, sigma0, alpha, beta, coin):
        profile = Gaussian(sigma0)
        m = asymptotic_moments(profile, spin_from_angles(BlochAngles(alpha, beta)), coin)
        assert 0.0 <= m.A <= 1.0
        assert abs(m.B) ** 2 <= m.A * (1.0 - m.A) + 1e-12
        assert 0.0 <= extract_f(coin, profile).f <= 0.25


def _delta_and_entropy(moments):
    delta = delta_from_moments(moments)
    return delta, entropy_from_delta(delta)


class TestAsymptoticMoments:
    def test_local_maximum_point(self):
        spin = spin_from_angles(BlochAngles(3 * math.pi / 4, 0.0))
        delta, entropy = _delta_and_entropy(asymptotic_moments(Local(), spin, "hadamard"))
        assert delta < 1e-8
        assert entropy == pytest.approx(1.0, abs=1e-7)

    def test_local_spin_up(self):
        delta, entropy = _delta_and_entropy(asymptotic_moments(Local(), UP, "hadamard"))
        assert delta == pytest.approx(3.0 - 2.0 * SQRT2, abs=1e-9)
        assert entropy == pytest.approx(0.8725, abs=1e-3)

    def test_fourier_local_maximum_point(self):
        spin = spin_from_angles(BlochAngles(math.pi / 4, math.pi / 2))
        delta, _ = _delta_and_entropy(asymptotic_moments(Local(), spin, "fourier"))
        assert delta < 1e-8


class TestCharacteristic:
    """delta = (lambda_plus - lambda_minus)^2 from the moments (`delta_from_moments`)."""

    def test_balanced_moments(self):
        assert delta_from_moments(CoinMoments(0.5, 0.0)) == 0.0

    def test_pure_population(self):
        assert delta_from_moments(CoinMoments(1.0, 0.0)) == 1.0

    def test_mixed_population_with_coherence(self):
        # (lambda+ - lambda-)^2 with lambda_pm = 1/2 +- sqrt(1/16 + 1/16)
        assert delta_from_moments(CoinMoments(0.75, 0.25)) == pytest.approx(0.5)

    def test_unphysical_or_nan_moments_rejected(self):
        for moments in (CoinMoments(1.0, 0.1), CoinMoments(math.nan, 0.0),
                        CoinMoments(0.5, complex(math.nan, 0.0))):
            with pytest.raises(DomainError):
                delta_from_moments(moments)

    def test_entropy_consistency(self):
        m = CoinMoments(0.75, 0.25)
        assert entropy_from_moments(m) == pytest.approx(
            entropy_from_delta(delta_from_moments(m)), abs=1e-12
        )


def _angle_grid():
    """A 41 x 83 grid over alpha in [0, pi] and beta in [-pi, pi]."""
    return np.linspace(0.0, math.pi, 41)[:, None], np.linspace(-math.pi, math.pi, 83)[None, :]


class TestClosedDelta:
    def test_hadamard_local_minimum_point(self):
        d = closed_delta("hadamard", LOCAL_F, math.pi / 4, 0.0)
        assert d == pytest.approx(2.0 * (3.0 - 2.0 * SQRT2), abs=1e-12)

    def test_hadamard_delocalized_minimum_point(self):
        d = closed_delta("hadamard", 0.0327, math.pi / 4, 0.0)
        assert d == pytest.approx(0.5 * (1 - 4 * 0.0327) ** 2 * 2.0, abs=1e-12)

    @pytest.mark.parametrize("f", [LOCAL_F, 0.05], ids=["local", "delocalized"])
    def test_beta_shift_relation(self, f):
        for alpha in np.linspace(0.0, math.pi, 16):
            for beta in np.linspace(0.0, 2 * math.pi, 21, endpoint=False):
                d_f = closed_delta("fourier", f, float(alpha), float(beta) - math.pi / 2)
                d_h = closed_delta("hadamard", f, float(alpha), float(beta))
                assert d_f == pytest.approx(d_h, abs=1e-12)

    def test_local_f_gives_the_local_formulas(self):
        alpha, beta = _angle_grid()
        base = 3.0 - 2.0 * SQRT2
        hadamard = base * (1.0 + np.sin(2.0 * alpha) * np.cos(beta))
        fourier = base * (1.0 - np.sin(2.0 * alpha) * np.sin(beta))
        assert np.abs(closed_delta("hadamard", LOCAL_F, alpha, beta) - hadamard).max() <= 1e-15
        assert np.abs(closed_delta("fourier", LOCAL_F, alpha, beta) - fourier).max() <= 1e-15

    @pytest.mark.parametrize("coin", ["hadamard", "fourier"])
    @pytest.mark.parametrize("f", [0.0, 0.05, LOCAL_F, 0.25])
    def test_array_call_equals_scalar_calls_bit_for_bit(self, coin, f):
        alpha, beta = _angle_grid()
        array = closed_delta(coin, f, alpha, beta)
        assert array.shape == (41, 83)
        scalars = [[closed_delta(coin, f, float(a), float(b)) for b in beta[0]]
                   for a in alpha[:, 0]]
        assert all(isinstance(x, float) for row in scalars for x in row)
        assert array.tobytes() == np.array(scalars).tobytes()

    def test_f_out_of_range(self):
        with pytest.raises(DomainError):
            closed_delta("hadamard", 0.3, 1.0, 0.0)
        with pytest.raises(DomainError):
            closed_delta("hadamard", math.nan, 1.0, 0.0)

    @pytest.mark.parametrize("f", ["0.1", True, np.array([0.1, 0.2]), None, 0.1j], ids=repr)
    def test_f_that_is_no_real_number_rejected(self, f):
        # a string or an array once raised a bare TypeError or ValueError
        with pytest.raises(DomainError, match="f must be a real number"):
            closed_delta("hadamard", f, 1.0, 0.0)

    @pytest.mark.parametrize("alpha", [math.pi + 0.1, -0.1, math.nan,
                                       np.array([0.0, math.pi + 0.1])])
    def test_alpha_out_of_range(self, alpha):
        with pytest.raises(DomainError):
            closed_delta("fourier", 0.1, alpha, 0.0)


#: The profiles at whose extracted f the closed form is checked against k-space.
_CLOSED_FORM_PROFILES = [Local(), *map(Rectangular, (0, 1, 2, 5, 20, 300)),
                         *map(Gaussian, (0.3, 0.5, 0.75, 1.0, 1.3, 2.0, 3.7, 10.0, 30.0, 100.0))]


def _angles_of(n):
    """(alpha, beta) of the unit vector n."""
    return math.acos(n[2]), math.atan2(n[1], n[0])


class TestClosedFormIsTheBlochForm:
    """delta = n^T G(f) n with G(f) = (1/2)(1 - 4f)^2 u u^T + (4f)^2 v v^T."""

    @pytest.mark.parametrize("coin", ["hadamard", "fourier"])
    @pytest.mark.parametrize("profile", _CLOSED_FORM_PROFILES, ids=str)
    def test_extracted_f_gives_the_time_averaged_form(self, coin, profile):
        # the closed form at the extracted f is k-space's time-averaged G, not
        # an approximation of it: the worst coefficient was 1.8e-15
        form = kspace._closed_form(coin, extract_f(coin, profile).f)
        averaged = delta_form(_asymptotic_kernels(_key(coin), profile))
        assert np.max(np.abs(form - averaged)) <= 4e-15

    @pytest.mark.parametrize("coin", ["hadamard", "fourier"])
    def test_two_maximally_entangled_spins_at_rank_two(self, coin):
        u, v, _ = kspace._CLOSED_AXES[coin]
        kernel = np.cross(u, v) / np.linalg.norm(np.cross(u, v))
        for f in [*np.linspace(0.0, 0.25, 12)[1:-1], LOCAL_F]:
            for n in (kernel, -kernel):
                assert closed_delta(coin, float(f), *_angles_of(n)) <= 1e-15, (f, n)

    def test_hadamard_great_circle_at_f_zero(self):
        # the band of max_entanglement_beta: u . n = n_x + n_z = 0
        for alpha in np.linspace(math.pi / 4, 3 * math.pi / 4, 41):
            beta = max_entanglement_beta(float(alpha))
            for b in (beta, -beta):
                assert closed_delta("hadamard", 0.0, float(alpha), b) <= 1e-15, (alpha, b)

    def test_fourier_great_circle_at_f_quarter(self):
        # v . n = n_x = 0: cos beta = 0 at every alpha
        alpha = np.linspace(0.0, math.pi, 41)[:, None]
        beta = np.array([[-math.pi / 2, math.pi / 2]])
        assert np.max(closed_delta("fourier", 0.25, alpha, beta)) <= 1e-15

    def test_fourier_axes_are_hadamard_turned_about_z(self):
        c, s = math.cos(-math.pi / 2), math.sin(-math.pi / 2)
        turn = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        hadamard, fourier = kspace._CLOSED_AXES["hadamard"], kspace._CLOSED_AXES["fourier"]
        for h, f in zip(hadamard[:2], fourier[:2]):
            assert np.max(np.abs(turn @ h - f)) <= 1e-16


class TestExtractF:
    def test_local_constant(self):
        assert extract_f("hadamard", Local()).f == pytest.approx(LOCAL_F, abs=1e-8)

    def test_gaussian_unit_dispersion(self):
        assert extract_f("hadamard", Gaussian(1.0)).f == pytest.approx(0.0327, abs=5e-4)

    def test_rectangular_unit_width(self):
        # pinned from this engine, cross-validated against the closed-form
        # characteristic function and the lattice simulator
        assert extract_f("hadamard", Rectangular(1)).f == pytest.approx(0.06311, abs=1e-4)

    def test_fourier_f_monotone_to_quarter(self):
        f1 = extract_f("fourier", Gaussian(1.0)).f
        f2 = extract_f("fourier", Gaussian(2.0)).f
        f10 = extract_f("fourier", Gaussian(10.0)).f
        assert f10 > f2 > f1
        assert 0.25 - f10 < 0.01


class TestLargeDispersionLimits:
    def test_hadamard_limit_form(self):
        f = extract_f("hadamard", Gaussian(10.0)).f
        bound = 2 * f * (4 - 4 * f) * 2
        for alpha, beta in [(0.5, 1.0), (1.5, -2.0), (2.5, 0.3)]:
            spin = spin_from_angles(BlochAngles(alpha, beta))
            d = delta_from_moments(asymptotic_moments(Gaussian(10.0), spin, "hadamard"))
            limit = 0.5 * (math.cos(alpha) + math.sin(alpha) * math.cos(beta)) ** 2
            assert abs(d - limit) <= bound

    def test_fourier_limit_form(self):
        for alpha, beta in [(0.5, 1.0), (1.5, -2.0), (2.5, 0.3)]:
            spin = spin_from_angles(BlochAngles(alpha, beta))
            d = delta_from_moments(asymptotic_moments(Gaussian(10.0), spin, "fourier"))
            limit = (math.sin(alpha) * math.cos(beta)) ** 2
            assert abs(d - limit) < 0.02


class TestFInterpolation:
    def test_midpoint(self):
        assert f_interpolation(0.8) == pytest.approx(0.0365 * math.pi / 2, abs=1e-12)

    def test_unit_dispersion(self):
        # 0.0365 (pi/2 - arctan 0.7874) evaluated directly
        assert f_interpolation(1.0) == pytest.approx(0.032988, abs=1e-5)

    def test_small_dispersion_limit(self):
        assert f_interpolation(1e-9) == pytest.approx(LOCAL_F, rel=5e-3)


class TestMaxEntanglementBeta:
    def test_equator(self):
        assert max_entanglement_beta(math.pi / 2) == pytest.approx(math.pi / 2)

    def test_band_edges(self):
        # arccos near +-1 amplifies the last-bit error in cot(alpha) to ~1e-8
        assert max_entanglement_beta(3 * math.pi / 4) == pytest.approx(0.0, abs=1e-7)
        assert max_entanglement_beta(math.pi / 4) == pytest.approx(math.pi, abs=1e-7)

    def test_outside_band_rejected(self):
        with pytest.raises(DomainError):
            max_entanglement_beta(0.1)

    def test_one_angle_only(self):
        # an array once passed check_angles and raised a bare TypeError in math.cos
        with pytest.raises(DomainError, match="alpha must be one angle"):
            max_entanglement_beta(np.array([0.9, 1.0]))
        assert max_entanglement_beta(np.array(math.pi / 2)) == max_entanglement_beta(math.pi / 2)


#: A unitary coin 3.5e-6 off Hadamard: the rotation by pi/4 + 5e-6.
_NEAR_HADAMARD = np.array([[math.cos(math.pi / 4 + 5e-6), math.sin(math.pi / 4 + 5e-6)],
                           [math.sin(math.pi / 4 + 5e-6), -math.cos(math.pi / 4 + 5e-6)]],
                          dtype=np.complex128)

#: A global phase, and a diagonal coin, whose walk never mixes its spins.
_PHASED_HADAMARD = 1j * hadamard_coin()
_DIAGONAL = np.diag([cmath.exp(0.3j), cmath.exp(-1.1j)])

_ANGLE = strategies.floats(min_value=-math.pi, max_value=math.pi)


def _phase_coin(gamma, phi, theta, psi):
    """e^{i gamma} D(phi) R(theta) D(psi), with D(x) = diag(e^{ix}, e^{-ix}) and
    R(theta) = [[cos, sin], [sin, -cos]] of theta: every U(2) coin is one."""
    d_phi, d_psi = (np.diag([cmath.exp(1j * x), cmath.exp(-1j * x)]) for x in (phi, psi))
    c, s = math.cos(theta), math.sin(theta)
    return cmath.exp(1j * gamma) * d_phi @ np.array([[c, s], [s, -c]]) @ d_psi


def _eig_spectrum(coin, nodes):
    """Eigenvalues (n, 2) and orthonormal eigenvector columns (n, 2, 2) of
    U_k = diag(e^{-ik}, e^{ik}) C at k = -pi + 2 pi m / n, by numpy's eig: the
    first column is eig's, the second its orthogonal complement
    (-conj Phi_+[1], conj Phi_+[0]), which U_k, unitary and so normal, keeps
    as the eigenvector of lambda_- even where the eigenvalues nearly coincide
    and eig's own second column may be far from orthogonal."""
    k = -math.pi + (2.0 * math.pi / nodes) * np.arange(nodes)
    u = np.empty(k.shape + (2, 2), dtype=np.complex128)
    u[:, 0] = np.exp(-1j * k)[:, None] * coin[0]
    u[:, 1] = np.exp(1j * k)[:, None] * coin[1]
    evals, evecs = np.linalg.eig(u)
    first = evecs[:, :, 0]
    evecs[:, :, 1] = np.stack((-np.conj(first[:, 1]), np.conj(first[:, 0])), axis=-1)
    assert np.abs(u @ evecs - evals[..., None, :] * evecs).max() <= 1e-10
    return evals, evecs


def _averaged_table(coin, nodes):
    """The time-averaged coefficients C_i(l), |l| < nodes / 2, sampled: the
    products within each branch of U_k's eigenprojectors on `nodes` nodes,
    by one FFT, as k-space tabulated them before the closed form.  Where
    U_k's eigenphase gap is open the samples converge exponentially; the
    test oracle of `kspace._averaged_rows`."""
    evals, evecs = _eig_spectrum(coin, nodes)
    vec = np.ascontiguousarray(evecs.transpose(2, 1, 0))  # [branch, x, node]
    parts = vec[:, :, None] * np.conj(vec[:, None])  # [branch, x, s, node]
    y, s, r = np.array(BASIS_SUMS).T
    integrand = np.sum(parts[:, 0, s] * np.conj(parts[:, y, r]), axis=0)
    lags = np.arange(1 - nodes // 2, nodes // 2)
    spectrum = np.fft.fft(integrand, axis=-1)
    return spectrum[:, lags % nodes] * (np.where(lags % 2 == 0, 1.0, -1.0) / nodes)


def _closed_table(coin, m):
    """The closed-form coefficients C_i(l), |l| <= m, of `kspace._averaged_rows`."""
    rows, q = _averaged_rows(np.asarray(coin, dtype=np.complex128).tobytes())
    table = np.zeros((7, 2 * m + 1), dtype=np.complex128)
    powers = np.power(q, np.arange(m // 2))
    table[:, m] = rows[:, 0]
    table[:, m + 2 :: 2] = rows[:, 1:2] * powers
    table[:, m - 2 :: -2] = rows[:, 2:3] * np.conj(powers)
    return table


def _haar_coins(count, seed):
    """Haar-random U(2) coins: the QR of a complex Gaussian matrix, phases fixed."""
    rng = np.random.default_rng(seed)
    coins = []
    for _ in range(count):
        q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        coins.append(q * (np.diag(r) / np.abs(np.diag(r))))
    return coins


#: Twelve Haar coins, |c01| from 0.31 to 0.93, each held at 256 nodes.
_HAAR_COINS = _haar_coins(12, 27)

#: The closed-form coefficients against the sampled table: at most 3.3e-16 over
#: 420 coins (400 Haar draws with |c01| >= 0.1, the named coins, R(theta) with
#: phases at |c01| from 0.1 to 0.01), and sum i at most 2.2e-16 per unit of
#: sum_n |r(n)|; the bound is six times the worst case.
_ROWS_TOL = 2e-15


def _oracle_nodes(coin):
    """The fewest nodes, 256 and up, on which `_averaged_table` holds the
    coefficients: the folded tail |c01| |q|^(nodes / 4) lies below 1e-17."""
    s = abs(coin[0, 1])
    nodes = 256
    while s * ((1.0 - s) / (1.0 + s)) ** (nodes // 4) > 1e-17:
        nodes *= 2
    return nodes


class TestAveragedRows:
    """The time-averaged coefficients in closed form (`kspace._averaged_rows`),
    against the eig + FFT table they replace (`_averaged_table`)."""

    @pytest.mark.parametrize("coin", [hadamard_coin(), fourier_coin(), *_HAAR_COINS,
                                      _phase_coin(0.4, 1.1, math.asin(0.25), -0.7),
                                      _phase_coin(0.0, 0.0, math.asin(0.1), 0.0),
                                      _phase_coin(0.4, 1.1, math.asin(0.1), -0.7),
                                      _phase_coin(0.0, 0.0, math.asin(0.01), 0.0)],
                             ids=lambda c: f"c01={abs(c[0, 1]):.3f}")
    def test_rows_match_the_sampled_table(self, coin):
        nodes = _oracle_nodes(coin)
        assert nodes <= (1024 if abs(coin[0, 1]) >= 0.1 else 8192)
        sampled = _averaged_table(coin, nodes)
        closed = _closed_table(coin, nodes // 2 - 1)
        assert np.max(np.abs(closed - sampled)) <= _ROWS_TOL

    @pytest.mark.parametrize("coin", [hadamard_coin(), fourier_coin(), *_HAAR_COINS[:4]],
                             ids=lambda c: f"c01={abs(c[0, 1]):.3f}")
    @pytest.mark.parametrize("profile", [Local(), Gaussian(0.5), Gaussian(2.0), Gaussian(10.0),
                                         Rectangular(5), Rectangular(200)], ids=str)
    def test_sums_match_the_sampled_table(self, coin, profile):
        # sum_n |r(n)| <= 2a + 1 for a rectangle, so the bound scales with it
        _, w = profile_weights(profile)
        want = lattice.table_sums(_averaged_table(coin, _oracle_nodes(coin)), w)
        got = _asymptotic_kernels(coin.tobytes(), profile)
        r = _autocorrelation(w, w.shape[0] - 1)
        assert np.max(np.abs(np.subtract(got, want))) <= _ROWS_TOL * np.sum(np.abs(r))

    def test_hadamard_rows_are_exact_constants(self):
        # every entry lies in Q(sqrt2), with ratio q = -(3 - 2 sqrt2)
        with mpmath.workdps(30):
            r2 = mpmath.sqrt(2)
            rho, h, a = 3 - 2 * r2, 1 / (2 * r2), (2 - r2) / 4
            exact = [[1 - h, h * rho, h * rho], [a, a, -a * rho], [h, -h * rho, -h * rho],
                     [a, -a * rho, a], [h, -h * rho, -h * rho], [-h * rho, h * rho**2, h],
                     [-a, a * rho, -a]]
            exact = np.array([[float(x) for x in row] for row in exact])
            minus_rho = float(-rho)
        rows, q = _averaged_rows(_key("hadamard"))
        assert abs(q - minus_rho) <= EPS
        assert np.max(np.abs(rows - exact)) <= 2 * EPS
        # Fourier is the boost k0 = pi/2 of the same R(pi/4): its ratio is +rho
        assert abs(_averaged_rows(_key("fourier"))[1] + minus_rho) <= EPS

    def test_rows_are_cached_read_only(self):
        rows, _ = _averaged_rows(_key("hadamard"))
        assert _averaged_rows(_key("hadamard"))[0] is rows and not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0] = 0.0

    @pytest.mark.parametrize("coin", [_DIAGONAL, np.array([[0.0, 1.0], [1.0, 0.0]]),
                                      *(np.array([[math.sqrt(1.0 - s * s), s],
                                                  [-s, math.sqrt(1.0 - s * s)]])
                                        for s in (1e-3, 1e-6, 1e-20, 1e-300))],
                             ids=["diagonal", "sigma_x", "rot1e-3", "rot1e-6", "rot1e-20",
                                  "rot1e-300"])
    def test_edge_coins_are_served(self, coin):
        # the sampled table needed 65,536 nodes at |c01| = 1e-3, and raised
        # NumericalError at 1e-6 and for this rotation at 1e-20 (after 8.6 s);
        # the closed form costs the same for every coin.  A diagonal coin never
        # mixes its spins, and the rotation departs from it by at most |c01|.
        s = abs(coin[0, 1])
        for profile in (Local(), Gaussian(2.0)):
            m = asymptotic_moments(profile, spin_from_angles(BlochAngles(0.7, 1.1)), coin)
            assert 0.0 <= delta_from_moments(m) <= 1.0
        sums = _asymptotic_kernels(unitary_coin(coin).tobytes(), Local())
        if s < 1.0:
            assert np.max(np.abs(np.subtract(sums, (1.0, 0, 0, 0, 0, 0, 0)))) <= s
        else:  # sigma_x has a gap at every k: the sampled table holds it
            want = lattice.table_sums(_averaged_table(unitary_coin(coin), 256), np.ones(1))
            assert np.max(np.abs(np.subtract(sums, want))) <= _ROWS_TOL


#: Coins for the long-double oracle: the named coins, four Haar coins (|c01|
#: from 0.18 to 0.97), and |c01| = 0.01 and 1e-8, where U_k's eigenvalues
#: nearly coincide.
_LONGDOUBLE_COINS = {"hadamard": hadamard_coin(), "fourier": fourier_coin(),
                     **{f"haar{i}": c for i, c in enumerate(_haar_coins(4, 28))},
                     "c01=0.01": _general_coin(math.asin(0.01), 0.9, -1.7, 0.3),
                     "c01=1e-8": _general_coin(math.asin(1e-8), 0.9, -1.7, 0.3)}


class TestTableAgainstLongDouble:
    """The k-space table from U_k^t against the Local walk stepped in long double."""

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= EPS,
                        reason="long double is no wider than double here")
    @pytest.mark.parametrize("t", [0, 1, 3, 7, 64, 257, 1000, 4000])
    @pytest.mark.parametrize("name", _LONGDOUBLE_COINS)
    def test_table_within_the_power_bound(self, name, t):
        # measured worst case: 1.10 (t + 1) eps (c01 = 1e-8, t = 4000), 23x
        # inside the bound; the named coins stay below 0.36 (t + 1) eps
        coin = _LONGDOUBLE_COINS[name]
        exact = _longdouble_table(coin, t)
        assert np.max(np.abs(_coefficients(coin.tobytes(), t) - exact)) <= _power_bound(t)


class TestOneCoinRule:
    """Both engines read a coin by `core.unitary_coin`: a name or any finite
    unitary 2x2 matrix, walked and sampled as given."""

    @settings(max_examples=40, deadline=None)
    @given(
        strategies.one_of(
            strategies.sampled_from([_PHASED_HADAMARD, _DIAGONAL]),
            strategies.builds(_general_coin, strategies.floats(0.0, math.pi / 2),
                              _ANGLE, _ANGLE, _ANGLE)),
        strategies.one_of(
            strategies.just(Local()),
            strategies.integers(min_value=0, max_value=8).map(Rectangular),
            strategies.floats(min_value=0.2, max_value=5.0).map(Gaussian)),
        strategies.floats(min_value=0.0, max_value=math.pi), _ANGLE,
        strategies.integers(min_value=0, max_value=257),
        strategies.data(),
    )
    def test_every_t_walk_matches_kspace_for_any_coin(self, coin, profile, alpha, beta,
                                                      steps, data):
        spin = spin_from_angles(BlochAngles(alpha, beta))
        records = walk(profile, (spin,), coin, steps).records()
        drawn = data.draw(strategies.integers(min_value=0, max_value=steps))
        for t in sorted({0, steps // 2, steps, drawn}):
            mk = evolve_k_moments(profile, spin, coin, t)
            assert abs(mk.A - records[t].moments.A) <= 1e-12, t
            assert abs(mk.B - records[t].moments.B) <= 1e-12, t

    @pytest.mark.parametrize("theta", [1e-100, 1e-16, 1e-12, 1e-8])
    def test_near_degenerate_coins_match_the_walk(self, theta):
        # with every phase 0, U_k's eigenvalues nearly coincide at k = 0 and
        # pi, where an eigenbasis of eig was up to 0.58 from orthogonal and the
        # t = 0 table missed the walk by 5.7e-3 (theta = 8.4e-100); U_k^t
        # needs no eigenbasis
        coin = _general_coin(theta, 0.0, 0.0, 0.0)
        spin = spin_from_angles(BlochAngles(0.7, 1.1))
        records = walk(Gaussian(1.0), (spin,), coin, 64).records()
        for t in (0, 1, 64):
            mk = evolve_k_moments(Gaussian(1.0), spin, coin, t)
            assert abs(mk.A - records[t].moments.A) <= 1e-12
            assert abs(mk.B - records[t].moments.B) <= 1e-12

    @pytest.mark.parametrize("spin", [UP, spin_from_angles(BlochAngles(0.7, 1.1))], ids=str)
    def test_near_hadamard_coin_is_sampled_as_given(self, spin):
        # sampled as exact Hadamard, k-space missed the walk by 6.5e-5 in A here
        run = walk(Local(), (spin,), _NEAR_HADAMARD, 1000, times=(1000,))
        mk = evolve_k_moments(Local(), spin, _NEAR_HADAMARD, 1000)
        assert abs(mk.A - run.cross[0, 0, 0, 0].real) <= 1e-12
        assert abs(mk.B - run.cross[1, 0, 0, 0]) <= 1e-12

    def test_near_hadamard_coin_has_no_closed_form(self):
        # a matrix names a coin only within UNIT_TOL of it, entry by entry
        for call in (lambda: coin_tag(_NEAR_HADAMARD),
                     lambda: closed_delta(_NEAR_HADAMARD, 0.1, 1.0, 0.0),
                     lambda: extract_f(_NEAR_HADAMARD, Gaussian(1.0))):
            with pytest.raises(DomainError):
                call()
        assert coin_tag(hadamard_coin() * cmath.exp(1e-13j)) == "hadamard"

    @pytest.mark.parametrize("name", ["hadamard", "fourier"])
    def test_name_and_matrix_give_the_same_bytes(self, name):
        matrix = _coin_op(name)
        profile, grid = Gaussian(2.0), grid_from_step(0.5)
        spin = spin_from_angles(BlochAngles(0.7, 1.1))

        def outputs(coin):
            run = walk(profile, (UP, spin), coin, 64)
            return [
                run.cross.tobytes(), [(s.a.tobytes(), s.b.tobytes()) for s in run.final],
                evolve(profile, spin, coin, 64),
                [x.tobytes() for x in evolve_basis(profile, coin, 64).sums],
                basis_sums(profile, coin, 64),
                evolve_k_moments(profile, spin, coin, 64),
                asymptotic_moments(profile, spin, coin),
                extract_f(coin, profile),
                sweep_asymptotic(coin, profile, grid).values.tobytes(),
                sweep_simulated(coin, profile, grid, 64).values.tobytes(),
                average_trace(coin, profile, grid, 16),
                compare(coin, "rect", [1.0, 2.0], grid, 16),
            ]

        assert outputs(name) == outputs(matrix)

    @pytest.mark.parametrize("coin", ["Hadamard", np.eye(3), 2.0 * hadamard_coin()], ids=repr)
    def test_every_entry_point_refuses_a_non_coin(self, coin):
        grid = grid_from_step(1.0)
        for call in (lambda: walk(Local(), (UP,), coin, 3),
                     lambda: evolve(Local(), UP, coin, 3),
                     lambda: evolve_basis(Local(), coin, 3),
                     lambda: basis_sums(Local(), coin, 3),
                     lambda: evolve_k_moments(Local(), UP, coin, 3),
                     lambda: asymptotic_moments(Local(), UP, coin),
                     lambda: sweep_asymptotic(coin, Local(), grid),
                     lambda: sweep_simulated(coin, Local(), grid, 3),
                     lambda: average_trace(coin, Local(), grid, 3),
                     lambda: compare(coin, "gaussian", [1.0], grid, 3)):
            with pytest.raises(DomainError):
                call()

    @pytest.mark.parametrize("profile", [Local(), Gaussian(0.5), Gaussian(2.0), Rectangular(3)],
                             ids=str)
    def test_global_phase_leaves_the_asymptote(self, profile):
        for spin in (UP, spin_from_angles(BlochAngles(0.7, 1.1))):
            phased = asymptotic_moments(profile, spin, _PHASED_HADAMARD)
            named = asymptotic_moments(profile, spin, "hadamard")
            assert abs(phased.A - named.A) <= 1e-15
            assert abs(phased.B - named.B) <= 1e-15

    @pytest.mark.parametrize("coin", [
        _general_coin(math.asin(0.5), 0.9, -1.7, 0.3),
        _general_coin(math.asin(0.8), -2.2, 0.4, 1.9),
        _general_coin(math.pi / 2, 0.0, 1.3, -0.6),
        _DIAGONAL,
    ], ids=["c01=0.5", "c01=0.8", "c01=1", "diagonal"])
    @pytest.mark.parametrize("profile", [Local(), Gaussian(1.0)], ids=str)
    def test_asymptote_is_the_lattice_time_average(self, profile, coin):
        # the finite-T gap of the mean over t <= 2000 is about 1e-4 (2e-4 at c01 = 1)
        spin = spin_from_angles(BlochAngles(0.7, 1.1))
        run = walk(profile, (spin,), coin, 2000)
        m = asymptotic_moments(profile, spin, coin)
        assert abs(m.A - np.mean(run.cross[0, 0, 0].real)) <= 1e-3
        assert abs(m.B - np.mean(run.cross[1, 0, 0])) <= 1e-3

    @pytest.mark.parametrize("c01", [0.1, 0.05])
    @pytest.mark.parametrize("profile", [Local(), Gaussian(1.0)], ids=str)
    def test_small_off_diagonal_is_the_lattice_time_average(self, profile, c01):
        # the eigenphase gap of U_k closes to ~2 c01, and the walk's mean over
        # t <= 2000 still meets the asymptote
        coin = _general_coin(math.asin(c01), 0.9, -1.7, 0.3)
        spin = spin_from_angles(BlochAngles(0.7, 1.1))
        run = walk(profile, (spin,), coin, 2000)
        m = asymptotic_moments(profile, spin, coin)
        assert abs(m.A - np.mean(run.cross[0, 0, 0].real)) <= 1e-3
        assert abs(m.B - np.mean(run.cross[1, 0, 0])) <= 1e-3
        # the exact tables at integer t hold for it all the same
        run = walk(Gaussian(1.0), (UP,), coin, 100, times=(100,))
        mk = evolve_k_moments(Gaussian(1.0), UP, coin, 100)
        assert abs(mk.A - run.cross[0, 0, 0, 0].real) <= 1e-12

    @pytest.mark.parametrize("make", [lambda theta: _phase_coin(0.0, 0.0, theta, 0.0),
                                      lambda theta: _general_coin(theta, 0.9, -1.7, 0.3)],
                             ids=["bare", "phased"])
    def test_served_coins_match_the_sampled_table(self, make):
        # the sampled table served these at 256 to 8,192 nodes; a numerically
        # diagonal coin is served like a diagonal one
        for c01 in (0.5, 0.3, 0.25, 0.2, 0.02, 0.01, 0.0, 1e-20, 1e-300):
            coin = make(math.asin(c01))
            m = asymptotic_moments(Local(), UP, coin)
            assert 0.0 <= delta_from_moments(m) <= 1.0
            nodes = _oracle_nodes(coin)
            sampled = _averaged_table(coin, nodes)
            assert np.max(np.abs(_closed_table(coin, nodes // 2 - 1) - sampled)) <= _ROWS_TOL, c01

    def test_tiny_off_diagonal_matches_the_sampled_table(self):
        # at |c01| = 1e-3 the sampled table holds the rows only from 65,536 nodes on
        coin = _phase_coin(0.0, 0.0, math.asin(1e-3), 0.0)
        assert _oracle_nodes(coin) == 65536
        sampled = _averaged_table(coin, 65536)
        assert np.max(np.abs(_closed_table(coin, 32767) - sampled)) <= _ROWS_TOL
        m = asymptotic_moments(Local(), spin_from_angles(BlochAngles(0.7, 1.1)), coin)
        assert 0.0 <= delta_from_moments(m) <= 1.0

    @settings(max_examples=40, deadline=None)
    @given(_ANGLE, _ANGLE, _ANGLE, _ANGLE,
           strategies.floats(min_value=0.0, max_value=math.pi), _ANGLE)
    @example(math.pi / 2, -math.pi / 4, math.pi / 4, -math.pi / 4, 0.7, 1.1)  # Fourier
    def test_coin_phases_are_a_spin_frame_and_a_boost(self, gamma, phi, theta, psi,
                                                      alpha, beta):
        # C = e^{i gamma} D(phi) R(theta) D(psi) gives U_k(C) = D(-psi) e^{i gamma}
        # U_{k - k0}(R(theta)) D(psi), k0 = phi + psi: the C walk is the R walk
        # from D(psi) v, boosted by k0, seen in the frame D(-psi).  A frame
        # leaves the reduced state's spectrum, and the boost leaves the Local
        # profile, so the spectra agree.  A real profile wider than one site
        # is boosted: a Gaussian(2) walk differs from its unboosted reduction
        # by up to 0.47 in S at t = 100, which needs complex profiles to check.
        coin, reduced = _phase_coin(gamma, phi, theta, psi), _phase_coin(0.0, 0.0, theta, 0.0)
        spin = spin_from_angles(BlochAngles(alpha, beta))
        framed = Spinor(cmath.exp(1j * psi) * spin.up, cmath.exp(-1j * psi) * spin.down)
        # delta fixes the spectrum; S does not serve near a pure state, where it
        # is steep: from spin up at theta = 0 the complex coin's walk drifts A
        # to 1 - 2.1e-14 by t = 148, which S reads as 1.0e-12, against 0 for
        # the real R(0).  Both engines round like t steps: over 300 lattice and
        # 1,000 k-space draws, delta differed by at most 6.3 eps (t + 1)
        pairs = zip(walk(Local(), (spin,), coin, 257).records(),
                    walk(Local(), (framed,), reduced, 257).records())
        for given_walk, reduced_walk in pairs:
            bound = 16 * EPS * (given_walk.t + 1)
            assert abs(delta_from_moments(given_walk.moments)
                       - delta_from_moments(reduced_walk.moments)) <= bound, given_walk.t
            assert abs(given_walk.moments.A - reduced_walk.moments.A) <= bound, given_walk.t
        for t in (1, 7, 64, 257):
            d = [delta_from_moments(evolve_k_moments(Local(), s, c, t))
                 for s, c in ((spin, coin), (framed, reduced))]
            assert abs(d[0] - d[1]) <= 16 * EPS * (t + 1), t
        # the time average at every theta (3,000 draws, a third of them with
        # |sin theta| in {0, 1e-20, 1e-8, 1e-3} or near 1: at most 8.9e-16 = 4 eps apart)
        d = [delta_from_moments(asymptotic_moments(Local(), s, c))
             for s, c in ((spin, coin), (framed, reduced))]
        assert abs(d[0] - d[1]) <= 16 * EPS

    @pytest.mark.parametrize("alpha, beta", [(0.7, 1.1), (2.9, -3.0), (math.pi / 4, 0.0)])
    def test_fourier_is_hadamard_turned_a_quarter_in_beta(self, alpha, beta):
        # Fourier is (gamma, phi, theta, psi) = (pi/2, -pi/4, pi/4, -pi/4), whose
        # R(theta) is Hadamard: from Local, Fourier at beta is Hadamard at
        # beta + pi/2 at every t, on the lattice as on the closed forms
        assert np.max(np.abs(_phase_coin(math.pi / 2, -math.pi / 4, math.pi / 4, -math.pi / 4)
                             - fourier_coin())) <= 2 * EPS
        assert np.max(np.abs(_phase_coin(0.0, 0.0, math.pi / 4, 0.0) - hadamard_coin())) <= EPS
        fourier = walk(Local(), (spin_from_angles(BlochAngles(alpha, beta)),), "fourier", 257)
        turned = spin_from_angles(BlochAngles(alpha, beta + math.pi / 2))
        hadamard = walk(Local(), (turned,), "hadamard", 257)
        for f, h in zip(fourier.records(), hadamard.records()):
            assert abs(f.entropy - h.entropy) <= 1e-12, f.t


#: Real coins: Hadamard and the reflection R(0.7) = [[cos, sin], [sin, -cos]] of 0.7.
_REAL_COINS = [hadamard_coin(), _phase_coin(0.0, 0.0, 0.7, 0.0)]

#: Real profile weights, one-site, narrow and wide.
_REFLECTION_PROFILES = [Local(), Gaussian(2.0), Rectangular(5), Gaussian(0.6)]

#: beta and -beta both inside (-pi, pi), which BlochAngles keeps as they are.
_OPEN_BETA = strategies.floats(min_value=-math.pi, max_value=math.pi,
                               exclude_min=True, exclude_max=True)


class TestBetaReflection:
    """With a real coin and real profile weights, the walk from (alpha, -beta) is
    the complex conjugate of the walk from (alpha, beta): the initial spins are
    conjugate (the up amplitude cos(alpha/2) is real), and a real step keeps
    them so.  So A is the same, B is conjugated, and delta and the entropy are
    even in beta.  The Fourier coin is not real, and the reflection fails for it:
    for Gaussian(2) at alpha = 1, delta is 0.4398 at beta = 0.5 and 0.4444 at
    beta = -0.5.  So only real coins are drawn."""

    @settings(max_examples=48, deadline=None)
    @given(strategies.sampled_from(_REAL_COINS), strategies.sampled_from(_REFLECTION_PROFILES),
           strategies.floats(min_value=0.0, max_value=math.pi), _OPEN_BETA)
    def test_lattice_moments_reflect_byte_for_byte(self, coin, profile, alpha, beta):
        spins = [spin_from_angles(BlochAngles(alpha, b)) for b in (beta, -beta)]
        cross = walk(profile, spins, coin, 300).cross  # every t <= 300
        # adding +0.0 turns -0.0 into 0.0, as in TestSiteLayoutOracle
        assert (cross[0, 0, 0].real + 0.0).tobytes() == (cross[0, 1, 1].real + 0.0).tobytes()
        assert (cross[1, 0, 0] + 0.0).tobytes() == (np.conj(cross[1, 1, 1]) + 0.0).tobytes()

    @settings(max_examples=48, deadline=None)
    @given(strategies.sampled_from(_REAL_COINS), strategies.sampled_from(_REFLECTION_PROFILES),
           strategies.floats(min_value=0.0, max_value=math.pi), _OPEN_BETA)
    def test_kspace_delta_is_even_in_beta(self, coin, profile, alpha, beta):
        plus, minus = (spin_from_angles(BlochAngles(alpha, b)) for b in (beta, -beta))
        for t in (1, 7, 64, 257):
            d_plus, d_minus = (delta_from_moments(evolve_k_moments(profile, s, coin, t))
                               for s in (plus, minus))
            assert abs(d_plus - d_minus) <= 16 * EPS * (t + 1), t
        d_plus, d_minus = (delta_from_moments(asymptotic_moments(profile, s, coin))
                           for s in (plus, minus))
        assert abs(d_plus - d_minus) <= 16 * EPS

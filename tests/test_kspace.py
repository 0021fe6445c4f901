import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies

from qwalklab import (
    BlochAngles,
    CapacityError,
    CoinMoments,
    DomainError,
    Gaussian,
    Local,
    NumericalError,
    Rectangular,
    Spinor,
    asymptotic_moments,
    build_initial,
    closed_delta,
    coin_moments,
    coin_spectrum,
    delta_from_moments,
    dispersion,
    entropy_from_delta,
    entropy_from_moments,
    evolve_k_moments,
    extract_f,
    f_interpolation,
    max_entanglement_beta,
    spin_from_angles,
)
from qwalklab import kspace
from qwalklab.core import fourier_coin, hadamard_coin
from qwalklab.kspace import (
    LOCAL_F,
    _asymptotic_kernels,
    _basis_sums,
    _coefficients,
    _nodes,
    profile_envelope,
)
from qwalklab import lattice
from qwalklab.lattice import _autocorrelation, basis_sums, evolve_basis, profile_weights, walk

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


class TestCoefficients:
    """The (coin, t) tables of Fourier coefficients behind every basis sum."""

    def test_small_averaged_table_raises(self, monkeypatch, fresh_tables):
        # 16 nodes keep |n| < 8; the coefficients at |n| = 6 are still 4.3e-3
        monkeypatch.setattr(kspace, "_AVERAGE_NODES", 16)
        with pytest.raises(NumericalError):
            asymptotic_moments(Local(), UP, "hadamard")

    @pytest.mark.parametrize("coin", ["hadamard", "fourier"])
    @pytest.mark.parametrize("t", [None, 0, 1, 15, 64])
    def test_table_agrees_at_twice_the_nodes(self, monkeypatch, fresh_tables, coin, t):
        table = _coefficients(coin, t).copy()
        if t is None:
            monkeypatch.setattr(kspace, "_AVERAGE_NODES", 2 * kspace._AVERAGE_NODES)
        else:
            nodes = max(kspace._MIN_NODES, 1 << (4 * t).bit_length())
            monkeypatch.setattr(kspace, "_MIN_NODES", 2 * nodes)
        _coefficients.cache_clear()
        doubled = _coefficients(coin, t)
        # the rounding of lambda^t grows with t: 2.2e-15 at t = 64
        mid, half = doubled.shape[1] // 2, table.shape[1] // 2
        assert np.max(np.abs(doubled[:, mid - half : mid + half + 1] - table)) <= 1e-14
        # only the averaged table gains lags, and they lie below its edge tolerance
        assert np.max(np.abs(doubled[:, : mid - half]), initial=0.0) <= 1e-15
        assert np.max(np.abs(doubled[:, mid + half + 1 :]), initial=0.0) <= 1e-15

    def test_cache_is_bounded_and_read_only(self, fresh_tables):
        info = _coefficients.cache_info()
        assert info.maxsize is not None
        for t in range(info.maxsize + 2):
            _coefficients("hadamard", t)
        assert _coefficients.cache_info().currsize == info.maxsize
        table = _coefficients("hadamard", 3)
        assert table.shape == (7, 13) and not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0.0

    def test_capacity_error_before_sampling(self, monkeypatch):
        class Sampled(Exception):
            pass

        def refuse(n):
            raise Sampled(n)

        monkeypatch.setattr(kspace, "_nodes", refuse)
        # t = 2**18 - 1 needs 2**20 nodes, the most a table may sample
        with pytest.raises(Sampled):
            _coefficients("hadamard", 262_143)
        with pytest.raises(CapacityError):
            evolve_k_moments(Local(), UP, "hadamard", 262_144)

    @pytest.mark.parametrize("t", [0, 1, 3])
    @pytest.mark.parametrize("profile", [Rectangular(17), Gaussian(10.0)], ids=str)
    def test_profile_wider_than_table(self, profile, t):
        # 35 and 1,091 sites against 4t + 1 lags
        for coin in ("hadamard", "fourier"):
            got = _basis_sums(coin, profile, t)
            want = basis_sums(profile, _coin_op(coin), t)
            assert np.max(np.abs(np.subtract(got, want))) <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(strategies.floats(min_value=0.2, max_value=30.0),
           strategies.integers(min_value=0, max_value=300),
           strategies.sampled_from(["hadamard", "fourier"]))
    def test_gaussian_matches_lattice(self, sigma0, t, coin):
        got = _basis_sums(coin, Gaussian(sigma0), t)
        want = basis_sums(Gaussian(sigma0), _coin_op(coin), t)
        assert np.max(np.abs(np.subtract(got, want))) <= 1e-12


class TestKAmplitudes:
    """The k-space amplitudes g(k) * spin: the envelope g, and the spin check."""

    def test_local_constant(self):
        assert np.allclose(profile_envelope(Local(), np.array([-1.0, 0.0, 2.0])), 1.0)

    def test_gaussian_peak_value(self):
        a = profile_envelope(Gaussian(1.0), np.array([0.0]))
        # g(0) is the sum of the lattice weights; the continuum transform
        # (8 pi)^(1/4) differs from it by 2.8e-9 relative (Poisson summation)
        assert a[0] == pytest.approx(2.2390302638504442, abs=1e-14)
        assert a[0] == pytest.approx(2.2392, abs=1e-3)

    def test_rectangular_zero_width_is_local(self):
        k = np.linspace(-math.pi, math.pi, 33)
        assert np.allclose(profile_envelope(Rectangular(0), k), 1.0)

    def test_rectangular_center_limit(self):
        a = profile_envelope(Rectangular(2), np.array([0.0, 1e-12]))
        assert np.allclose(a, math.sqrt(5.0))

    @pytest.mark.parametrize(
        "profile", [Local(), Gaussian(1.0), Gaussian(10.0), Rectangular(1), Rectangular(17)]
    )
    def test_parseval(self, profile):
        # int dk/2pi |g|^2 = r(0) = sum_j w_j^2 = 1
        _, w = profile_weights(profile)
        r = _autocorrelation(w, w.shape[0] - 1)
        assert r[w.shape[0] - 1] == pytest.approx(1.0, abs=1e-15)

    def test_dirichlet_identity_against_direct_sum(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            a = int(rng.integers(0, 51))
            k = float(rng.uniform(-math.pi, math.pi))
            direct = sum(cmath.exp(-1j * k * j) for j in range(-a, a + 1))
            direct = direct.real / math.sqrt(2 * a + 1)
            assert profile_envelope(Rectangular(a), k) == pytest.approx(direct, abs=1e-12)

    def test_rejects_unnormalized_spin(self):
        with pytest.raises(DomainError):
            evolve_k_moments(Local(), Spinor(1.0, 1.0), "hadamard", 0)


class TestDispersion:
    def test_reference_points(self):
        assert dispersion("hadamard", 0.0) == pytest.approx(0.0)
        assert dispersion("hadamard", math.pi / 2) == pytest.approx(math.pi / 4)
        assert dispersion("fourier", 0.0) == pytest.approx(math.pi / 4)

    @pytest.mark.parametrize("coin", ["hadamard", "fourier"])
    def test_eigenphase_consistency(self, coin):
        for k in np.linspace(-math.pi, math.pi, 81):
            spec = coin_spectrum(coin, float(k))
            omega = dispersion(coin, float(k))
            lam_plus = spec.eigenvalues[0]
            assert abs(lam_plus - cmath.exp(-1j * omega)) < 1e-12 or abs(
                lam_plus + cmath.exp(-1j * omega)
            ) < 1e-12


class TestCoinSpectrum:
    def test_hadamard_center(self):
        spec = coin_spectrum("hadamard", 0.0)
        assert sorted(np.round(spec.eigenvalues.real, 12)) == [-1.0, 1.0]
        assert np.max(np.abs(spec.eigenvalues.imag)) < 1e-12

    def test_fourier_center(self):
        spec = coin_spectrum("fourier", 0.0)
        expected = {cmath.exp(-1j * math.pi / 4), cmath.exp(1j * math.pi / 4)}
        for lam in spec.eigenvalues:
            assert min(abs(lam - e) for e in expected) < 1e-12

    @pytest.mark.parametrize("coin", ["hadamard", "fourier"])
    def test_unit_modulus_and_orthonormal(self, coin):
        for k in np.linspace(-math.pi, math.pi, 41):
            spec = coin_spectrum(coin, float(k))
            assert np.max(np.abs(np.abs(spec.eigenvalues) - 1.0)) < 1e-12
            v = spec.eigenvectors
            assert np.max(np.abs(v.conj().T @ v - np.eye(2))) < 1e-12

    def test_unknown_coin_rejected(self):
        with pytest.raises(DomainError):
            coin_spectrum("grover", 0.0)
        with pytest.raises(DomainError):
            coin_spectrum(np.eye(2), 0.0)


class TestEvolveKMoments:
    @pytest.mark.parametrize(
        "profile", [Local(), Gaussian(2.0), Rectangular(2)]
    )
    def test_t_zero_matches_lattice(self, profile):
        spin = spin_from_angles(BlochAngles(0.9, 0.4))
        mk = evolve_k_moments(profile, spin, "hadamard", 0)
        ml = coin_moments(build_initial(profile, spin))
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
        assert abs(m.A - run.cross_a[0, 0, -1].real) <= 1e-10
        assert abs(m.B - run.cross_b[0, 0, -1]) <= 1e-10

    @pytest.mark.parametrize("t", [0, 64, 1000])
    def test_table_does_not_grow_with_profile_support(self, monkeypatch, t):
        # Gaussian(100) spans 10,899 sites; the table and the lags read are set by t
        seen = []
        autocorrelation = lattice._autocorrelation
        monkeypatch.setattr(lattice, "_autocorrelation",
                            lambda w, lags: seen.append(lags) or autocorrelation(w, lags))
        evolve_k_moments(Gaussian(100.0), UP, "hadamard", t)
        assert _coefficients("hadamard", t).shape == (7, 4 * t + 1)
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
            assert abs(mk.A - run.cross_a[0, 0, n].real) <= 1e-10
            assert abs(mk.B - run.cross_b[0, 0, n]) <= 1e-10

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
        basis = evolve_basis(profile, coin_op, 1000, times=times)
        fields = ("auu", "aud", "add", "buu", "bud", "bdu", "bdd")
        for n, t in enumerate(times):
            sums = _basis_sums(coin, profile, t)
            for name, value in zip(fields, sums):
                assert abs(value - getattr(basis, name)[n]) <= 1e-12, (name, t)

    @pytest.mark.parametrize("n", [1024, 2048])
    @pytest.mark.parametrize(
        "profile", [Local(), Gaussian(0.5), Gaussian(10.0), Rectangular(17)], ids=str
    )
    def test_node_fft_matches_direct_sum(self, profile, n):
        # r(m) by FFT against sum_j w_{j+m} w_j, and against the n-node
        # trapezoid mean of |g(k)|^2 e^{ikm}, g by its direct sum
        _, w = profile_weights(profile)
        lags = min(w.shape[0] - 1, 127)
        r = _autocorrelation(w, lags)
        m = np.arange(-lags, lags + 1)
        direct = [np.dot(w[abs(l):], w[: w.shape[0] - abs(l)]) for l in m]
        assert np.max(np.abs(r - direct)) <= 1e-15
        k = _nodes(n)
        g2 = np.abs(profile_envelope(profile, k)) ** 2
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
        ka1 = _asymptotic_kernels("hadamard", Gaussian(0.5))[0]
        assert abs(ka1 - float(exact)) <= 1e-13


class TestTableOracle:
    """Both engines make one lag table per (coin, t) and share `table_sums`:
    when the tables agree, every profile's sums agree."""

    @pytest.mark.parametrize("t", [0, 1, 2, 3, 17, 64, 500, 1000, 2000])
    @pytest.mark.parametrize("coin", ["hadamard", "fourier"])
    def test_lattice_table_matches_kspace_table(self, coin, t):
        walked = lattice._local_table(_coin_op(coin).tobytes(), t)
        sampled = _coefficients(coin, t)
        assert walked.shape == sampled.shape == (7, 4 * t + 1)
        assert np.max(np.abs(walked - sampled)) <= 1e-13

    @pytest.mark.parametrize("t", [0, 1, 64, 1000])
    @pytest.mark.parametrize("coin", ["hadamard", "fourier"])
    def test_sums_differ_by_at_most_the_table_bound(self, coin, t):
        # |sum_n r(n) dC(n)| <= max_n |dC(n)| * sum_n |r(n)|, plus the rounding
        # of the two sums: a few ulps per unit of sum_n |r(n)|, since |C| <= 1
        walked = lattice._local_table(_coin_op(coin).tobytes(), t)
        gap = np.max(np.abs(walked - _coefficients(coin, t)))
        for profile in (Local(), Gaussian(0.3), Gaussian(2.0), Gaussian(30.0),
                        Rectangular(0), Rectangular(17)):
            _, w = profile_weights(profile)
            r = _autocorrelation(w, min(2 * t, w.shape[0] - 1))
            diff = np.subtract(basis_sums(profile, _coin_op(coin), t),
                               _basis_sums(coin, profile, t))
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

    @pytest.mark.parametrize("alpha", [math.pi + 0.1, -0.1, math.nan,
                                       np.array([0.0, math.pi + 0.1])])
    def test_alpha_out_of_range(self, alpha):
        with pytest.raises(DomainError):
            closed_delta("fourier", 0.1, alpha, 0.0)


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

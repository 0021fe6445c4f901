import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from qwalklab import (
    CoinMoments,
    DomainError,
    FitError,
    Gaussian,
    Local,
    Rectangular,
    SweepGrid,
    asymptote_offset,
    average_trace,
    basis_sums,
    closed_delta,
    compare,
    entropy_from_delta,
    entropy_from_moments,
    evolve,
    evolve_basis,
    family_profile,
    fit_power_law,
    fourier_coin,
    grid_from_step,
    hadamard_coin,
    paper_grid,
    spin_amplitudes,
    spin_from_angles,
    sweep_asymptotic,
    sweep_simulated,
)
from qwalklab import BlochAngles, CapacityError, analysis
from qwalklab.core import bloch_monomials, delta_form, spin_moments, unitary_coin
from qwalklab.kspace import _asymptotic_kernels


class TestGrids:
    def test_paper_grid_cardinality(self):
        g = paper_grid()
        assert g.n_points == 2016
        assert g.alphas.size == 32 and g.betas.size == 63
        # the same rule as --grid-step 0.1, to the byte
        step = grid_from_step(0.1)
        assert g.alphas.tobytes() == step.alphas.tobytes()
        assert g.betas.tobytes() == step.betas.tobytes()

    def test_paper_grid_endpoints(self):
        g = paper_grid()
        assert g.alphas[0] == 0.0 and g.betas[0] == 0.0
        assert g.alphas[-1] == pytest.approx(3.1)
        assert g.betas[-1] == pytest.approx(6.2)
        assert np.all(g.alphas <= math.pi) and np.all(g.betas <= 2 * math.pi)

    def test_grid_from_step(self):
        g = grid_from_step(0.3)
        assert g.alphas.size == 11 and g.betas.size == 21
        g2 = grid_from_step(math.pi / 4)
        assert g2.alphas.size == 5 and g2.betas.size == 9

    def test_grid_alphas_end_at_pi(self):
        # 25 * (pi / 25) rounds one ulp above pi; the grid ends at pi itself
        assert 25 * (math.pi / 25) > math.pi
        g = grid_from_step(math.pi / 25)
        assert g.alphas.size == 26 and g.alphas[-1] == math.pi
        assert 0.0 < asymptote_offset("hadamard", grid=g) < 1.0

    def test_invalid_grids_rejected(self):
        with pytest.raises(DomainError):
            grid_from_step(0.0)
        with pytest.raises(DomainError):
            SweepGrid(alphas=np.array([0.2, 0.1]), betas=np.array([0.0]))
        with pytest.raises(DomainError):
            SweepGrid(alphas=np.array([]), betas=np.array([0.0]))

    @pytest.mark.parametrize("step", [1e-3, 1e-9, 1e-300, 5e-324])
    def test_grid_above_the_cap_refused_before_it_is_built(self, step):
        # 1e-9 would be a 3.1e9 x 6.3e9 grid; 5e-324 makes pi / step infinite
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                grid_from_step(step)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_grid_at_the_cap_is_built(self, monkeypatch):
        from qwalklab import analysis

        monkeypatch.setattr(analysis, "DEFAULT_MAX_SITES", 11 * 21)
        assert grid_from_step(0.3).n_points == 231
        monkeypatch.setattr(analysis, "DEFAULT_MAX_SITES", 11 * 21 - 1)
        with pytest.raises(CapacityError):
            grid_from_step(0.3)


class TestSpinAmplitudes:
    def test_paper_grid_equals_spin_from_angles_bit_for_bit(self):
        grid = paper_grid()
        up, down = spin_amplitudes(grid.alphas[:, None], grid.betas[None, :])
        assert up.shape == down.shape == (32, 63)
        for i, alpha in enumerate(grid.alphas):
            for j, beta in enumerate(grid.betas):
                spin = spin_from_angles(BlochAngles(float(alpha), float(beta)))
                assert (spin.up, spin.down) == (complex(up[i, j]), complex(down[i, j])), \
                    (alpha, beta)

    def test_beta_reduced_once(self):
        # 2 pi + 0.5 and 0.5 are one spin; a beta in [-pi, pi) is kept as given
        up, down = spin_amplitudes(1.0, np.array([0.5, 0.5 + 2 * math.pi]))
        assert down[0] == pytest.approx(down[1], abs=1e-15) and up[0] == up[1]
        assert BlochAngles(1.0, 0.5).beta == 0.5
        assert BlochAngles(1.0, math.pi).beta == -math.pi


class TestSweeps:
    def test_statistics_consistent_with_values(self):
        res = sweep_asymptotic("hadamard", Local(), grid_from_step(0.5))
        assert res.mean == pytest.approx(float(np.mean(res.values)), abs=1e-12)
        assert res.min == pytest.approx(float(np.min(res.values)), abs=1e-12)
        assert res.max == pytest.approx(float(np.max(res.values)), abs=1e-12)
        assert np.all(res.values >= 0.0) and np.all(res.values <= 1.0)

    def test_simulated_zero_steps_all_zero(self):
        res = sweep_simulated("hadamard", Local(), grid_from_step(0.5), 0)
        assert np.max(np.abs(res.values)) < 1e-12

    def test_simulated_matches_single_evolution(self):
        # linearity in the spin: one basis-pair walk recorded at t = steps
        # gives every grid point's entropy of its own walk
        grid = grid_from_step(1.0)
        steps = 25
        for coin, matrix in (("fourier", fourier_coin()), ("hadamard", hadamard_coin())):
            for profile in (Rectangular(1), Gaussian(1.5), Local()):
                res = sweep_simulated(coin, profile, grid, steps)
                for i, alpha in enumerate(grid.alphas):
                    for j, beta in enumerate(grid.betas):
                        spin = spin_from_angles(BlochAngles(float(alpha), float(beta)))
                        recs = evolve(profile, spin, matrix, steps)
                        assert res.values[i, j] == pytest.approx(recs[-1].entropy, abs=1e-12)

    def test_simulated_cold_and_warm_cache_bit_identical(self):
        from qwalklab import lattice

        for coin in ("hadamard", "fourier"):
            for profile in (Local(), Gaussian(2.0), Rectangular(5)):
                lattice._local_table.cache_clear()
                cold = sweep_simulated(coin, profile, paper_grid(), 200)
                warm = sweep_simulated(coin, profile, paper_grid(), 200)
                assert lattice._local_table.cache_info().hits == 1
                assert cold.values.tobytes() == warm.values.tobytes()
                assert (cold.mean, cold.argmin, cold.argmax) == \
                    (warm.mean, warm.argmin, warm.argmax)

    @pytest.mark.parametrize("coin", ["hadamard", "fourier"])
    def test_points_match_the_spin_moments_path(self, coin):
        # oracle: entropy_from_moments of spin_moments, the path of earlier versions
        grid = paper_grid()
        spins = spin_amplitudes(grid.alphas[:, None], grid.betas[None, :])
        for profile in (Local(), Gaussian(2.0), Rectangular(5), Gaussian(10.0)):
            runs = [(sweep_asymptotic(coin, profile, grid),
                     _asymptotic_kernels(unitary_coin(coin).tobytes(), profile))]
            runs += [(sweep_simulated(coin, profile, grid, steps),
                      basis_sums(profile, coin, steps)) for steps in (1, 3, 100, 1000)]
            for result, sums in runs:
                oracle = entropy_from_moments(CoinMoments(*spin_moments(sums, *spins)))
                assert np.max(np.abs(result.values - oracle)) <= 1e-14, profile
                assert abs(result.mean - float(np.mean(oracle))) <= 1e-15, profile

    def test_deterministic_statistics(self):
        a = sweep_asymptotic("hadamard", Gaussian(1.0), grid_from_step(0.5))
        b = sweep_asymptotic("hadamard", Gaussian(1.0), grid_from_step(0.5))
        assert a.mean == b.mean and a.min == b.min and a.max == b.max

    def test_argmin_near_known_minimum(self):
        expected = {(0.8, 0.0), (2.4, 3.1)}  # grid points nearest (pi/4, 0), (3pi/4, pi)
        for profile in (Local(), Gaussian(1.0), Rectangular(1)):
            res = sweep_asymptotic("hadamard", profile, paper_grid())
            argmin = (round(res.argmin[0], 10), round(res.argmin[1], 10))
            assert argmin in expected, f"{profile}: argmin {argmin}"

    def test_gaussian_means_decrease_toward_offset(self):
        means = [
            sweep_asymptotic("hadamard", Gaussian(s), paper_grid()).mean
            for s in (1.0, 2.0, 5.0, 10.0)
        ]
        assert all(m1 > m2 for m1, m2 in zip(means, means[1:]))
        assert all(m > 0.688 - 1e-3 for m in means)


class TestAverageTrace:
    def test_starts_at_zero_and_converges(self):
        grid = grid_from_step(0.5)
        trace = average_trace("hadamard", Local(), grid, 500)
        assert trace[0] == (0, pytest.approx(0.0))
        asym = sweep_asymptotic("hadamard", Local(), grid).mean
        assert trace[-1][1] == pytest.approx(asym, abs=0.01)

    @pytest.mark.parametrize("grid", [paper_grid(), grid_from_step(0.3)], ids=["paper", "0.3"])
    @pytest.mark.parametrize("profile", [Local(), Gaussian(2.0), Rectangular(5)], ids=repr)
    @pytest.mark.parametrize("coin", ["hadamard", "fourier"])
    @pytest.mark.parametrize("steps", [1, 7, 200])
    def test_equals_the_unblocked_mean_bit_for_bit(self, steps, coin, profile, grid):
        basis = evolve_basis(profile, coin, steps)
        spins = spin_amplitudes(grid.alphas[:, None], grid.betas[None, :])
        trace = average_trace(coin, profile, grid, steps)
        # the whole (na, nb, steps + 1) delta-form table at once, reduced by
        # numpy's mean; BLAS rounds a product by its shape, so the table is
        # stacked from the same (nb x 10) row products
        form = delta_form(basis.sums)
        monomials = bloch_monomials(grid.alphas[:, None], grid.betas[None, :])
        delta = np.stack([row @ form for row in monomials])
        means = entropy_from_delta(delta).reshape(-1, steps + 1).mean(axis=0)
        assert trace == [(t, float(means[t])) for t in range(steps + 1)]
        # oracle: the (A, B) path of earlier versions, one spin_moments table
        a_vals, b_vals = basis.moments_arrays(*spins)
        oracle = entropy_from_moments(CoinMoments(a_vals, b_vals))
        oracle = oracle.reshape(-1, steps + 1).mean(axis=0)
        assert max(abs(s - oracle[t]) for t, s in trace) <= 1e-14

    def test_starts_at_product_states(self):
        for coin in ("hadamard", "fourier"):
            for profile in (Local(), Gaussian(2.0), Rectangular(5)):
                assert 0.0 <= average_trace(coin, profile, paper_grid(), 0)[0][1] <= 1e-14

    @pytest.mark.parametrize("bad", ["nan", "excursion"])
    def test_unphysical_sums_raise(self, monkeypatch, bad):
        # a NaN sum, or an add lowered by 1e-6 at t = 0, so that r_z = n_z -
        # 2e-6 |down|^2 and delta > 1 + CLAMP_TOL in every alpha row but the
        # first (alpha = 0, spin up): the entropy kernel's check fails
        basis = evolve_basis(Gaussian(2.0), "hadamard", 5)
        sums = [np.array(x, copy=True) for x in basis.sums]
        t = 3 if bad == "nan" else 0
        if bad == "nan":
            sums[4][t] = math.nan
        else:
            sums[2][t] -= 1e-6
        monkeypatch.setattr(analysis, "evolve_basis",
                            lambda *args: replace(basis, sums=tuple(sums)))
        monkeypatch.setattr(analysis, "basis_sums", lambda *args: tuple(x[t] for x in sums))
        grid = paper_grid()
        with pytest.raises(DomainError):
            average_trace("hadamard", Gaussian(2.0), grid, 5)
        with pytest.raises(DomainError):
            sweep_simulated("hadamard", Gaussian(2.0), grid, 5)
        if bad == "excursion":
            first_row = SweepGrid(alphas=grid.alphas[:1], betas=grid.betas)
            average_trace("hadamard", Gaussian(2.0), first_row, 5)
            sweep_simulated("hadamard", Gaussian(2.0), first_row, 5)

    def test_peak_memory_is_a_few_rows(self):
        # the unblocked table needs ~154 MiB at the paper grid and T = 1000
        tracemalloc.start()
        try:
            average_trace("hadamard", Gaussian(2.0), paper_grid(), 1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20


class TestCompare:
    def test_report_invariant(self):
        reports = compare("hadamard", "gaussian", [1.0], grid_from_step(1.0), 50)
        assert len(reports) == 1
        r = reports[0]
        expected = 100.0 * abs(r.mean_simulated - r.mean_asymptotic) / r.mean_asymptotic
        assert r.delta_pct == pytest.approx(expected, abs=1e-12)

    def test_rejects_empty_inputs(self):
        with pytest.raises(DomainError):
            compare("hadamard", "gaussian", [], grid_from_step(1.0), 10)
        with pytest.raises(DomainError):
            compare("hadamard", "gaussian", [1.0], grid_from_step(1.0), 0)
        with pytest.raises(DomainError, match="non-empty"):
            compare("hadamard", "gaussian", (s for s in ()), grid_from_step(1.0), 10)

    def test_sigma_list_read_once_as_a_list(self):
        # an array once raised numpy's bare ValueError from `if not sigma_list`
        grid = grid_from_step(1.0)
        listed = compare("hadamard", "gaussian", [1.0, 2.0], grid, 3)
        assert compare("hadamard", "gaussian", np.array([1.0, 2.0]), grid, 3) == listed
        assert compare("hadamard", "gaussian", (s for s in (1.0, 2.0)), grid, 3) == listed


class TestFamilyProfile:
    def test_gaussian_passthrough(self):
        p = family_profile("gaussian", 2.5)
        assert isinstance(p, Gaussian) and p.sigma0 == 2.5

    def test_rect_rounds_dispersion(self):
        p = family_profile("rect", 10.0)
        assert isinstance(p, Rectangular) and p.a == 17

    def test_unknown_family(self):
        with pytest.raises(DomainError):
            family_profile("triangular", 1.0)

    @pytest.mark.parametrize("family", [["rect"], {"gaussian": 1}, None, 1.0])
    def test_family_that_is_no_name(self, family):
        # an unhashable family is refused as any other, not by a TypeError
        with pytest.raises(DomainError, match="unknown profile family"):
            family_profile(family, 1.0)


class TestFitPowerLaw:
    def test_exact_recovery_no_offset(self):
        pts = [(s, 2.0 * s**-1.0) for s in (1.0, 2.0, 4.0, 8.0)]
        fit = fit_power_law(pts)
        assert fit.amplitude == pytest.approx(2.0, abs=1e-12)
        assert fit.exponent == pytest.approx(-1.0, abs=1e-12)
        assert fit.rms_residual < 1e-12

    def test_exact_recovery_with_offset(self):
        pts = [(s, 0.5 * s**-2.0 + 0.7) for s in (1.0, 2.0, 3.0, 5.0)]
        fit = fit_power_law(pts, offset=0.7)
        assert fit.amplitude == pytest.approx(0.5, abs=1e-12)
        assert fit.exponent == pytest.approx(-2.0, abs=1e-12)
        assert fit.offset == 0.7

    def test_too_few_points(self):
        with pytest.raises(DomainError):
            fit_power_law([(1.0, 1.0), (2.0, 0.5)])

    def test_values_below_offset(self):
        with pytest.raises(FitError):
            fit_power_law([(1.0, 0.5), (2.0, 0.4), (3.0, 0.3)], offset=0.45)

    def test_nonpositive_abscissae(self):
        with pytest.raises(DomainError):
            fit_power_law([(0.0, 1.0), (2.0, 0.5), (3.0, 0.3)])

    @pytest.mark.parametrize("sigma0", [-1.0, math.nan, math.inf, True, "2"], ids=repr)
    def test_sigma0_read_by_the_dispersion_rule(self, sigma0):
        # NaN or inf once reached np.polyfit, which failed in LAPACK's SVD
        with pytest.raises(DomainError, match="sigma0 must be finite and > 0"):
            fit_power_law([(sigma0, 1.0), (2.0, 0.5), (3.0, 0.3)])

    @pytest.mark.parametrize("value, offset", [(math.inf, None), (math.nan, None),
                                               (1.0, math.nan), (1.0, -math.inf)])
    def test_non_finite_values_and_offsets_rejected(self, value, offset):
        # each once returned a fit of NaNs, or failed inside np.polyfit
        with pytest.raises(DomainError, match="must be finite"):
            fit_power_law([(1.0, value), (2.0, 0.5), (3.0, 0.3)], offset=offset)

    def test_degenerate_abscissae(self):
        with pytest.raises(FitError):
            fit_power_law([(2.0, 1.0), (2.0, 0.5), (2.0, 0.3)])


class TestAsymptoteOffset:
    def test_hadamard_reference(self):
        assert asymptote_offset("hadamard") == pytest.approx(0.688, abs=0.002)

    def test_fourier_reference(self):
        assert asymptote_offset("fourier") == pytest.approx(0.796, abs=0.003)

    def test_single_point_grid_maximal(self):
        grid = SweepGrid(
            alphas=np.array([math.pi / 2]), betas=np.array([math.pi / 2])
        )
        assert asymptote_offset("hadamard", grid=grid) == pytest.approx(1.0)

    @pytest.mark.parametrize("coin, f_limit", [("hadamard", 0.0), ("fourier", 0.25)])
    def test_closed_form_at_the_limiting_f(self, coin, f_limit):
        grid = grid_from_step(0.3)
        delta = closed_delta(coin, f_limit, grid.alphas[:, None], grid.betas[None, :])
        assert asymptote_offset(coin, grid=grid) == float(np.mean(entropy_from_delta(delta)))


class TestIntegerSteps:
    def test_integral_steps_accepted_fractional_rejected(self):
        grid, profile = grid_from_step(1.0), Gaussian(1.0)
        assert sweep_simulated("fourier", profile, grid, 3.0).mean == \
            sweep_simulated("fourier", profile, grid, 3).mean
        assert average_trace("fourier", profile, grid, 3.0) == \
            average_trace("fourier", profile, grid, 3)
        for run in (sweep_simulated, average_trace):
            with pytest.raises(DomainError):
                run("fourier", profile, grid, 2.5)

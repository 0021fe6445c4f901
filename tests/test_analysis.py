import math

import numpy as np
import pytest

from qwalklab import (
    DomainError,
    FitError,
    Gaussian,
    Local,
    Rectangular,
    SweepGrid,
    asymptote_offset,
    average_trace,
    compare,
    evolve,
    family_profile,
    fit_power_law,
    fourier_coin,
    grid_from_step,
    hadamard_coin,
    paper_grid,
    spin_from_angles,
    sweep_asymptotic,
    sweep_simulated,
)
from qwalklab import BlochAngles


class TestGrids:
    def test_paper_grid_cardinality(self):
        g = paper_grid()
        assert g.n_points == 2016
        assert g.alphas.size == 32 and g.betas.size == 63

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

    def test_invalid_grids_rejected(self):
        with pytest.raises(DomainError):
            grid_from_step(0.0)
        with pytest.raises(DomainError):
            SweepGrid(alphas=np.array([0.2, 0.1]), betas=np.array([0.0]))
        with pytest.raises(DomainError):
            SweepGrid(alphas=np.array([]), betas=np.array([0.0]))


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
        with pytest.raises(FitError):
            fit_power_law([(0.0, 1.0), (2.0, 0.5), (3.0, 0.3)])

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

    def test_unknown_family(self):
        with pytest.raises(DomainError):
            asymptote_offset("hadamard", family="triangular")

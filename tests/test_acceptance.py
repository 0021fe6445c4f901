"""End-to-end acceptance checks, one test per criterion.

Each test prints a single "CRITERION n: PASS/FAIL" line (collected in the
terminal summary) and asserts on the full list of its sub-checks, so a failing
criterion reports every violated bound at once.
"""

import math

import numpy as np
import pytest

from qwalklab import (
    BlochAngles,
    Gaussian,
    Local,
    Rectangular,
    asymptote_offset,
    asymptotic_moments,
    closed_delta,
    compare,
    delta_from_moments,
    entropy_from_delta,
    evolve_k_moments,
    extract_f,
    f_interpolation,
    fit_power_law,
    fourier_coin,
    grid_from_step,
    hadamard_coin,
    max_entanglement_beta,
    paper_grid,
    spin_from_angles,
    sweep_asymptotic,
)
from qwalklab.core import spin_moments, unitary_coin
from qwalklab.kspace import LOCAL_F, _asymptotic_kernels
from qwalklab.lattice import walk

SQRT2 = math.sqrt(2.0)
RESULTS: list[str] = []


# Adjudication of the criteria whose published constants the exact
# computation does not meet.  The values were computed with this package: the
# k-space quadrature, cross-checked on the lattice engine (moments averaged
# over t in [1500, 3000]), which computes the moments independently of it.
UNSETTLED = "published value; not settled: PAPER.md holds only the abstract"


def _report(num, desc, checks, note=None):
    ok = all(passed for _, passed in checks)
    line = f"CRITERION {num:2d}: {'PASS' if ok else 'FAIL'} — {desc}"
    RESULTS.append(line)
    print(line)
    failed = [label for label, passed in checks if not passed]
    assert ok, f"criterion {num} violated: {failed}" + (f"\n{note}" if note else "")


def _entropy_quad(coin, profile, alpha, beta):
    spin = spin_from_angles(BlochAngles(alpha, beta))
    return entropy_from_delta(delta_from_moments(asymptotic_moments(profile, spin, coin)))


def _delta_grid(coin, profile, grid, beta_shift=0.0):
    """Characteristic function over a grid via the quadrature kernels."""
    kernels = _asymptotic_kernels(unitary_coin(coin).tobytes(), profile)
    alphas = grid.alphas[:, None]
    betas = grid.betas[None, :] + beta_shift
    cu = np.cos(alphas / 2.0) * np.ones_like(betas) + 0j
    cd = np.exp(1j * betas) * np.sin(alphas / 2.0)
    a_bar, b_bar = spin_moments(kernels, cu, cd)
    return 4.0 * ((a_bar - 0.5) ** 2 + np.abs(b_bar) ** 2)


def test_criterion_01_local_hadamard_extrema():
    checks = []
    for alpha, beta in [(3 * math.pi / 4, 0.0), (math.pi / 4, math.pi)]:
        s_closed = entropy_from_delta(closed_delta("hadamard", LOCAL_F, alpha, beta))
        checks.append((f"closed S({alpha:.3f},{beta:.3f})=1", abs(s_closed - 1.0) < 1e-8))
        s_quad = _entropy_quad("hadamard", Local(), alpha, beta)
        checks.append((f"quad S({alpha:.3f},{beta:.3f})=1", abs(s_quad - 1.0) < 1e-6))
    for alpha, beta in [(math.pi / 4, 0.0), (3 * math.pi / 4, math.pi)]:
        s_quad = _entropy_quad("hadamard", Local(), alpha, beta)
        checks.append(
            (f"quad S({alpha:.3f},{beta:.3f})~0.736 got {s_quad:.6f}",
             abs(s_quad - 0.736) <= 0.001)
        )
    _report(1, "local Hadamard asymptotic extrema (1.0 and 0.736)", checks)


def test_criterion_02_gaussian_unit_dispersion_minimum():
    s = _entropy_quad("hadamard", Gaussian(1.0), math.pi / 4, 0.0)
    _report(
        2,
        "Gaussian sigma0=1 Hadamard minimum 0.343 +- 0.005",
        [(f"S(pi/4,0) = {s:.6f} vs 0.343 +- 0.005", abs(s - 0.343) <= 0.005)],
        note=(
            f"{UNSETTLED}. The lattice gives S = 0.34887 (converged), matching the "
            "quadrature to five digits. At (pi/4, 0) delta = (1 - 4f)^2, so 0.343 "
            "would need f(1) = 0.0320; the exact f(1) = 0.032746 (lattice 0.032746)."
        ),
    )


def test_criterion_03_delocalization_constants():
    checks = []
    f_local = extract_f("hadamard", Local()).f
    checks.append(("local f = (sqrt2-1)/4", abs(f_local - LOCAL_F) < 1e-8))
    for s in (2.0, 5.0, 10.0):
        eps = extract_f("hadamard", Gaussian(s)).f * s * s
        checks.append(
            (f"eps_gauss(sigma={s:g}) = {eps:.5f} vs 0.0327 +- 0.0005",
             abs(eps - 0.0327) <= 0.0005)
        )
    for a in (2, 5, 17):
        eps = extract_f("hadamard", Rectangular(a)).f * a
        checks.append(
            (f"eps_rect(a={a}) = {eps:.5f} vs 0.0684 +- 0.002",
             abs(eps - 0.0684) <= 0.002)
        )
    _report(
        3,
        "delocalization-factor constants (local, Gaussian, rectangular)",
        checks,
        note=(
            f"{UNSETTLED}. The lattice reproduces each extracted f to 1e-7. "
            "Gaussian: sigma0^2 f is not constant (0.03275, 0.03213, 0.03140, "
            "0.03129 at sigma0 = 1, 2, 5, 10) and tends to 1/32 = 0.03125 "
            "(0.031250 at sigma0 = 100); 0.0327 is the sigma0 = 1 value. "
            "Rectangular: f (2a+1) = 1/(4 sqrt2) = 0.17678 from a = 5 on, so f a "
            "tends to 1/(8 sqrt2) = 0.0884; 0.0684 lies between a = 1 (0.0631) "
            "and a = 2 (0.0698)."
        ),
    )


def test_criterion_04_fourier_hadamard_shift():
    grid = paper_grid()
    alphas, betas = grid.alphas[:, None], grid.betas[None, :]
    d_f = closed_delta("fourier", LOCAL_F, alphas, betas - math.pi / 2)
    d_h = closed_delta("hadamard", LOCAL_F, alphas, betas)
    worst_closed = float(np.max(np.abs(d_f - d_h)))
    d_h_quad = _delta_grid("hadamard", Local(), grid)
    d_f_quad = _delta_grid("fourier", Local(), grid, beta_shift=-math.pi / 2)
    worst_quad = float(np.max(np.abs(d_f_quad - d_h_quad)))
    _report(
        4,
        "Fourier-Hadamard beta-shift relation over the 2016-point grid",
        [
            (f"closed max diff {worst_closed:.2e} < 1e-10", worst_closed < 1e-10),
            (f"quadrature max diff {worst_quad:.2e} < 1e-6", worst_quad < 1e-6),
        ],
    )


def test_criterion_05_sweep_statistics():
    grid = paper_grid()
    had = sweep_asymptotic("hadamard", Local(), grid)
    fou = sweep_asymptotic("fourier", Gaussian(10.0), grid)
    _report(
        5,
        "grid sweep statistics (Hadamard local, Fourier Gaussian sigma0=10)",
        [
            (f"Hadamard local mean {had.mean:.5f} vs 0.871 +- 0.002",
             abs(had.mean - 0.871) <= 0.002),
            (f"Hadamard local min {had.min:.5f} vs 0.736 +- 0.002",
             abs(had.min - 0.736) <= 0.002),
            (f"Fourier g10 mean {fou.mean:.5f} vs 0.796 +- 0.003",
             abs(fou.mean - 0.796) <= 0.003),
            (f"Fourier g10 min {fou.min:.5f} < 0.02", fou.min < 0.02),
        ],
        note=(
            f"{UNSETTLED}. The Fourier g10 min lies at (alpha, beta) = (1.6, 0); "
            "the lattice gives 0.026823 there, and S(t=1000) = 0.02733. The min "
            "falls below 0.02 only from sigma0 ~ 13 on (0.0202 at 12, 0.0145 at 15, "
            "0.0029 as sigma0 -> infinity). Reading the Fourier walk as the Hadamard one with beta "
            "shifted by pi/2 would give min 0.0083 but mean 0.6877, failing the "
            "mean sub-check, so neither reading meets both."
        ),
    )


def test_criterion_06_simulated_vs_asymptotic_means():
    grid = grid_from_step(0.3)
    checks = []
    for family, tol in (("gaussian", 0.5), ("rect", 1.5)):
        for rep in compare("hadamard", family, [1.0, 2.0, 5.0, 10.0], grid, 1000):
            checks.append(
                (f"{family} sigma0={rep.sigma0:g}: delta {rep.delta_pct:.4f}% <= {tol}%",
                 rep.delta_pct <= tol)
            )
    _report(6, "T=1000 grid means match asymptotics (reduced 231-state grid)", checks)


def test_criterion_07_decay_power_laws():
    grid = paper_grid()
    sigmas = (1.0, 2.0, 3.0, 5.0, 10.0)
    sweeps = {}
    for family in ("gaussian", "rect"):
        for s in sigmas:
            profile = Gaussian(s) if family == "gaussian" else Rectangular(
                round((math.sqrt(12 * s * s + 1) - 1) / 2)
            )
            sweeps[(family, s)] = sweep_asymptotic("hadamard", profile, grid)
    offset = asymptote_offset("hadamard", grid=grid)

    def fit(family, quantity):
        pts = [
            (s, sweeps[(family, s)].mean if quantity == "avg" else sweeps[(family, s)].min)
            for s in sigmas
        ]
        return fit_power_law(pts, offset=offset if quantity == "avg" else None)

    ga = fit("gaussian", "avg")
    ra = fit("rect", "avg")
    gm = fit("gaussian", "min")
    rm = fit("rect", "min")
    _report(
        7,
        "power-law fits of entanglement decay with dispersion",
        [
            (f"gauss avg exponent {ga.exponent:.4f} vs -2 +- 0.1",
             abs(ga.exponent + 2.0) <= 0.1),
            (f"gauss avg amplitude {ga.amplitude:.5f} vs 0.0835 +- 0.005",
             abs(ga.amplitude - 0.0835) <= 0.005),
            (f"offset {ga.offset:.5f} vs 0.688 +- 0.002", abs(ga.offset - 0.688) <= 0.002),
            (f"rect avg exponent {ra.exponent:.4f} vs -1 +- 0.05",
             abs(ra.exponent + 1.0) <= 0.05),
            (f"rect avg amplitude {ra.amplitude:.5f} vs 0.1205 +- 0.01",
             abs(ra.amplitude - 0.1205) <= 0.01),
            (f"gauss min exponent {gm.exponent:.4f} vs -1.59 +- 0.08",
             abs(gm.exponent + 1.59) <= 0.08),
            (f"gauss min amplitude {gm.amplitude:.5f} vs 0.3463 +- 0.02",
             abs(gm.amplitude - 0.3463) <= 0.02),
            (f"rect min exponent {rm.exponent:.4f} vs -0.853 +- 0.05",
             abs(rm.exponent + 0.853) <= 0.05),
        ],
        note=(
            f"{UNSETTLED}. The fitted constants are 0.08858 (gauss avg amplitude, "
            "8e-5 past its bound), -0.9456 and 0.1352 (rect avg exponent and "
            "amplitude). The swept means are checked against T = 1000 lattice "
            "sweeps by criterion 6. Fitting the rectangular points against the "
            "realised dispersion sqrt(a(a+1)/3) instead of the nominal sigma0 "
            "moves the avg exponent further off, to -0.877, so the abscissa is "
            "not the cause."
        ),
    )


def test_criterion_08_f_interpolation_limits():
    checks = [
        (
            f"f_interp(0+) {f_interpolation(1e-12):.6f} within 0.5% of local f",
            abs(f_interpolation(1e-12) / LOCAL_F - 1.0) < 0.005,
        )
    ]
    for s in (0.5, 0.75, 1.0):
        fi = f_interpolation(s)
        fe = extract_f("hadamard", Gaussian(s)).f
        rel = abs(fi / fe - 1.0)
        checks.append(
            (f"sigma0={s:g}: interp {fi:.5f} vs extracted {fe:.5f} (rel {rel:.3f} < 0.05)",
             rel < 0.05)
        )
    _report(
        8,
        "arctan interpolation of f matches local limit and extraction",
        checks,
        note=(
            f"{UNSETTLED}. The extracted f is exact: k-space integrates the exact "
            "DTFT of the lattice weights, and the lattice gives f(0.75) = 0.054271. "
            "The continuum envelope gave f(0.75) = 0.0542706 and f(0.5) = 0.08726; "
            "the exact one gives 0.0542705 and 0.08714. The arctan fit misses "
            "only at sigma0 = 0.75 (0.06443 vs 0.05427); at 0.5 and 1.0 it is "
            "within 2.2% and 0.7%."
        ),
    )


def test_criterion_09_unitarity_suite():
    rng = np.random.default_rng(2024)
    coins = [hadamard_coin(), fourier_coin()]
    worst = 0.0
    for _ in range(50):
        coin = coins[int(rng.integers(0, 2))]
        kind = int(rng.integers(0, 3))
        if kind == 0:
            profile = Local()
        elif kind == 1:
            profile = Gaussian(float(rng.uniform(0.5, 3.0)))
        else:
            profile = Rectangular(int(rng.integers(0, 11)))
        alpha = float(rng.uniform(0.0, math.pi))
        beta = float(rng.uniform(-math.pi, math.pi))
        spin = spin_from_angles(BlochAngles(alpha, beta))
        for steps in range(100, 1001, 100):
            state = walk(profile, (spin,), coin, steps, times=(steps,)).final[0]
            norm = float(np.sum(np.abs(state.a) ** 2 + np.abs(state.b) ** 2))
            worst = max(worst, abs(norm - 1.0))
    _report(
        9,
        "norm drift over 1000 steps, 50 random configurations",
        [(f"max |norm-1| = {worst:.2e} < 1e-12", worst < 1e-12)],
    )


def test_criterion_10_cross_engine_oracle():
    times = (0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 64)
    spin = spin_from_angles(BlochAngles(0.7, 1.1))
    checks = []
    for coin_name, coin in (("hadamard", hadamard_coin()), ("fourier", fourier_coin())):
        for profile in (Local(), Gaussian(1.0), Gaussian(2.0), Rectangular(1), Rectangular(5)):
            run = walk(profile, (spin,), coin, 64, times=times)
            worst = 0.0
            for n, t in enumerate(times):
                mk = evolve_k_moments(profile, spin, coin_name, t)
                worst = max(
                    worst,
                    abs(mk.A - run.cross[0, 0, 0, n].real),
                    abs(mk.B - run.cross[1, 0, 0, n]),
                )
            checks.append(
                (f"{coin_name}/{profile}: worst diff {worst:.2e} < 1e-8", worst < 1e-8)
            )
    _report(10, "lattice vs momentum-space moments agree for t <= 64", checks)


def test_criterion_11_closed_form_vs_quadrature():
    grid = paper_grid()
    alphas, betas = grid.alphas[:, None], grid.betas[None, :]
    checks = []
    for coin in ("hadamard", "fourier"):
        d_quad = _delta_grid(coin, Local(), grid)
        worst = np.max(np.abs(d_quad - closed_delta(coin, LOCAL_F, alphas, betas)))
        checks.append((f"{coin} local max diff {worst:.2e} < 1e-8", worst < 1e-8))
        for profile in (
            Gaussian(1.0), Gaussian(2.0), Gaussian(5.0), Gaussian(10.0),
            Rectangular(1), Rectangular(2), Rectangular(5), Rectangular(17),
        ):
            f = extract_f(coin, profile).f
            d_quad = _delta_grid(coin, profile, grid)
            worst = np.max(np.abs(d_quad - closed_delta(coin, f, alphas, betas)))
            checks.append((f"{coin}/{profile}: max diff {worst:.2e} < 1e-6", worst < 1e-6))
    _report(11, "closed forms reproduce quadrature over the full angle grid", checks)


def test_criterion_12_max_entanglement_band():
    # Each coin is checked on its own high-delocalization band.  Hadamard:
    # f -> 0 and delta -> (1/2)(cos a + sin a cos b)^2, zero on
    # beta = arccos(-cot a).  Fourier: f -> 1/4 and delta -> (sin a cos b)^2,
    # zero on cos b = 0.  The -pi/2 beta-shift between the coins holds for
    # the local state only (criterion 4), so the Fourier band is not the
    # shifted Hadamard one: on that band Gaussian(10) gives S = 0.0286 at
    # alpha = 1.6, and the lattice agrees (0.028622 from the moments averaged
    # over t in [1500, 3000]).
    grid = paper_grid()
    checks = []
    for coin, band in (("hadamard", max_entanglement_beta), ("fourier", lambda _: math.pi / 2)):
        worst = 1.0
        worst_alpha = None
        for alpha in grid.alphas:
            if not math.pi / 4 < alpha < 3 * math.pi / 4:
                continue
            beta = band(float(alpha))
            s = _entropy_quad(coin, Gaussian(10.0), float(alpha), beta)
            if s < worst:
                worst, worst_alpha = s, float(alpha)
        checks.append(
            (f"{coin}: min S over band = {worst:.6f} at alpha={worst_alpha} (> 0.999)",
             worst > 0.999)
        )
    _report(12, "maximal-entanglement band at high delocalization", checks)

"""Quantum-walk entanglement laboratory.

Simulates coin-position entanglement of the discrete-time quantum walk on a
1D lattice, computes its long-time asymptotic value by momentum-space spectral
projection, and provides Bloch-sphere sweeps, simulated-vs-asymptotic
comparisons, and power-law fits of the entanglement decay with initial
dispersion.
"""

from .analysis import (
    ComparisonReport,
    PowerLawFit,
    SweepGrid,
    SweepResult,
    asymptote_offset,
    average_trace,
    compare,
    family_profile,
    fit_power_law,
    grid_from_step,
    paper_grid,
    sweep_asymptotic,
    sweep_simulated,
)
from .core import (
    BlochAngles,
    CoinMoments,
    Spinor,
    binary_entropy,
    delta_from_moments,
    entropy_from_delta,
    entropy_from_moments,
    fourier_coin,
    hadamard_coin,
    spin_amplitudes,
    spin_from_angles,
)
from .errors import (
    CapacityError,
    DomainError,
    FitError,
    NumericalError,
    QwalkError,
)
from .kspace import (
    LOCAL_F,
    DelocalizationFactor,
    asymptotic_moments,
    closed_delta,
    dispersion,
    evolve_k_moments,
    extract_f,
    f_interpolation,
    max_entanglement_beta,
)
from .lattice import (
    EntanglementRecord,
    Gaussian,
    InitialProfile,
    Local,
    Rectangular,
    WalkerState,
    basis_sums,
    evolve,
    evolve_basis,
    position_distribution,
    profile_weights,
    sigma_to_a,
)

__version__ = "0.1.0"

__all__ = [
    "BlochAngles",
    "CapacityError",
    "CoinMoments",
    "ComparisonReport",
    "DelocalizationFactor",
    "DomainError",
    "EntanglementRecord",
    "FitError",
    "Gaussian",
    "InitialProfile",
    "LOCAL_F",
    "Local",
    "NumericalError",
    "PowerLawFit",
    "QwalkError",
    "Rectangular",
    "Spinor",
    "SweepGrid",
    "SweepResult",
    "WalkerState",
    "asymptote_offset",
    "asymptotic_moments",
    "average_trace",
    "basis_sums",
    "binary_entropy",
    "closed_delta",
    "compare",
    "delta_from_moments",
    "dispersion",
    "entropy_from_delta",
    "entropy_from_moments",
    "evolve",
    "evolve_basis",
    "evolve_k_moments",
    "extract_f",
    "f_interpolation",
    "family_profile",
    "fit_power_law",
    "fourier_coin",
    "grid_from_step",
    "hadamard_coin",
    "max_entanglement_beta",
    "paper_grid",
    "position_distribution",
    "profile_weights",
    "sigma_to_a",
    "spin_amplitudes",
    "spin_from_angles",
    "sweep_asymptotic",
    "sweep_simulated",
]

"""Stability of solitary waves pinned to a nonlinear point defect.

A numpy library (scipy only for tabulated couplings) for the complex
Klein-Gordon field on the line with a nonlinearity concentrated at the
origin: closed-form spectra of the linearization about a pinned solitary
wave, root finding for the dispersion determinant on its four-sheet cover,
orbital-stability classification of the ``(omega, kappa)`` parameter plane,
and an independent conservative lattice simulation for empirical
cross-checks.
"""

from .model import (
    AmplitudeScan,
    DegenerateAmplitudeWarning,
    ModelParams,
    Nonlinearity,
    NoSolitaryWave,
    PowerLaw,
    SolitaryWave,
    Tabulated,
    UnrepresentableAmplitude,
    charge_and_slope,
    effective_kappa,
    find_amplitudes,
    nonlinearity_from_config,
    solve_amplitude,
)
from .spectra import (
    JordanBlock,
    PointSpectrum,
    RealIntervalSet,
    SpectralPoint,
    Verdict,
    c_pm,
    lambda_pm,
    scalar_eigenvalue,
    sigma_H,
    sigma_L,
    sigma_ess_A,
    stability_verdict,
    zero_jordan_structure,
)
from .dispersion import (
    ALL_SHEETS,
    PHYSICAL,
    ClassificationError,
    CriticalCurves,
    CubicData,
    CubicOverflow,
    D_eval,
    Q_eval,
    RootCandidate,
    SheetSelector,
    SpectrumReport,
    UnresolvableMass,
    accepted_roots,
    axis_scan_roots,
    candidate_roots,
    classify_point_spectrum,
    collision_exponent_frequency,
    critical_curves,
    cubic_data,
    cubic_roots,
    nu_pm,
    oracle_mismatches,
    residual_scale,
    virtual_level_exponent,
    virtual_level_frequency,
)
from .lattice import DefectLattice, FieldState, Grid, RunReport

__version__ = "0.1.0"

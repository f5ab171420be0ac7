"""Field-operator metrology for squeezed-light polarization sensing.

Models classical, SU(1,1) and truncated-SU(1,1) interferometers at the
ladder-operator level with arbitrary-precision scalars, and computes the
limit of detection (LOD) and its quantum improvement (LODI) for
polarization-rotation measurements.
"""

__version__ = "0.1.0"

from .algebra import (
    DEFAULT_DPS,
    OperatorExpr,
    PrecisionMismatch,
    adjoint,
    coherent_expectation,
    coherent_moments,
    ladder,
    mul,
    normal_order,
    zero,
)
from .circuits import (
    ARMS_BOTH,
    ARMS_PROBE,
    CIRCUITS,
    InterferometerParams,
    build_classical_J,
    build_su11_J,
    build_tsu11_J,
    build_vacuum_J,
)
from .closed_form import closed_form_report
from .jones import sampling_phase, transduce
from .metrology import (
    ConsistencyError,
    LodiReport,
    MetrologyReport,
    UndefinedLodError,
    classical_reference,
    dj_dphi_sq,
    lod_db,
    lodi_db,
    report,
    variance,
)
from .optimize import OptResult, optimize_phases
from .sweep import AxisSpec, SweepGrid, run_sweep, vacuum_noise_map
from .presets import PRESETS, make_params

__all__ = [
    "DEFAULT_DPS",
    "OperatorExpr",
    "PrecisionMismatch",
    "adjoint",
    "coherent_expectation",
    "coherent_moments",
    "ladder",
    "mul",
    "normal_order",
    "zero",
    "ARMS_BOTH",
    "ARMS_PROBE",
    "CIRCUITS",
    "InterferometerParams",
    "build_classical_J",
    "build_su11_J",
    "build_tsu11_J",
    "build_vacuum_J",
    "sampling_phase",
    "transduce",
    "ConsistencyError",
    "LodiReport",
    "MetrologyReport",
    "UndefinedLodError",
    "classical_reference",
    "closed_form_report",
    "dj_dphi_sq",
    "lod_db",
    "lodi_db",
    "report",
    "variance",
    "AxisSpec",
    "OptResult",
    "SweepGrid",
    "optimize_phases",
    "run_sweep",
    "vacuum_noise_map",
    "PRESETS",
    "make_params",
    "__version__",
]

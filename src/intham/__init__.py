"""Integer-valued Hamiltonian dynamics on phase-space lattices.

Deterministic, exactly reversible evolution of integer position/momentum
pairs along the level contours of integer-valued separable Hamiltonians,
with exact energy conservation.  Builds up from single pairs to sequentially
updated multi-pair systems and lattice field automata, plus the spectral
view of the dynamics as a shell permutation and a census of contour sizes.
"""

from .census import CensusReport, CensusRow, census
from .contours import (
    ContourTrace,
    SiteClassification,
    classify_site,
    enumerate_shell,
    next_site,
    orbit_map,
    prev_site,
    trace_component,
)
from .errors import (
    ConfigError,
    IntHamError,
    RegimeViolation,
    ShellNotClosed,
    ShellTooLarge,
    UnboundedContour,
    WindowExceeded,
)
from .evolver import (
    CoupledSeparableHamiltonian,
    PhaseState,
    decoupled,
    step,
    step_inverse,
    total_energy,
)
from .fields import (
    FieldHamiltonianSpec,
    FieldState,
    LatticeShape,
    MargolusFieldState,
    margolus_energy,
    margolus_step,
    margolus_unstep,
    restricted_hamiltonian,
    site_energy,
)
from .hamiltonians import (
    IntegerFunction1D,
    PowerLawFamily,
    SeparableHamiltonian1D,
    SmoothnessReport,
    floor_scaled_power,
    hamiltonian_from_json,
    validate_smoothness,
)
from .spectral import (
    ShellPermutation,
    SpectrumEntry,
    TruncationConfig,
    damped_closed_form,
    eigenphases,
    hfract_operator_check,
    series_omega,
    total_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "CensusReport",
    "CensusRow",
    "census",
    "ContourTrace",
    "SiteClassification",
    "classify_site",
    "enumerate_shell",
    "next_site",
    "orbit_map",
    "prev_site",
    "trace_component",
    "ConfigError",
    "IntHamError",
    "RegimeViolation",
    "ShellNotClosed",
    "ShellTooLarge",
    "UnboundedContour",
    "WindowExceeded",
    "CoupledSeparableHamiltonian",
    "PhaseState",
    "decoupled",
    "step",
    "step_inverse",
    "total_energy",
    "FieldHamiltonianSpec",
    "FieldState",
    "LatticeShape",
    "MargolusFieldState",
    "margolus_energy",
    "margolus_step",
    "margolus_unstep",
    "restricted_hamiltonian",
    "site_energy",
    "IntegerFunction1D",
    "PowerLawFamily",
    "SeparableHamiltonian1D",
    "SmoothnessReport",
    "floor_scaled_power",
    "hamiltonian_from_json",
    "validate_smoothness",
    "ShellPermutation",
    "SpectrumEntry",
    "TruncationConfig",
    "damped_closed_form",
    "eigenphases",
    "hfract_operator_check",
    "series_omega",
    "total_spectrum",
    "__version__",
]

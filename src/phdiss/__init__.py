"""phdiss: dissipation rates, energy audits and closability probes for
dissipative evolution models on the unit interval.

The package discretizes a family of contraction-generating operators with
trapezoid-weighted grids, steps runs under sampled controls block by
block, and exposes the instantaneous dissipation rate in three
mutually consistent representations (quadratic form, graph-space operator
square root, bounded resolvent probe) together with energy-balance audits
and a numerical closability probe for the underlying form.
"""

from .config import ConfigError
from .dissipation import (
    dissipation_rate,
    energy_audit,
    form_r,
    q_identity_residual,
    rt_bound_check,
)
from .grids import GridError, make_uniform_grid
from .linalg import NotPSDError, NotSelfAdjointError
from .presets import PresetError, control_signal, initial_state
from .probes import ProbeError, closability_probe, refinement_study
from .reporting import write_ledger_csv, write_probe_csv
from .semigroup import AlignmentError, SignalError, boundary_trace
from .systems import AssemblyError, assemble_custom, assemble_model

__version__ = "0.1.0"

# The names the README and the scripts use, plus the package's exceptions;
# everything else is imported from its submodule.
__all__ = [
    "AlignmentError",
    "AssemblyError",
    "ConfigError",
    "GridError",
    "NotPSDError",
    "NotSelfAdjointError",
    "PresetError",
    "ProbeError",
    "SignalError",
    "__version__",
    "assemble_custom",
    "assemble_model",
    "boundary_trace",
    "closability_probe",
    "control_signal",
    "dissipation_rate",
    "energy_audit",
    "form_r",
    "initial_state",
    "make_uniform_grid",
    "q_identity_residual",
    "refinement_study",
    "rt_bound_check",
    "write_ledger_csv",
    "write_probe_csv",
]

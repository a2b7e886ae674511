"""Coupled flexural-torsional vibration of a rotating piezo-actuated
cantilever: assumed-mode model, time integration and active control."""

from .basis import ModalBasis, flexural_eigenvalues
from .assembly import (AssemblyError, BeamSpec, PiezoSpec, SectionProperties,
                       SpinDestabilizedError, SystemMatrices, assemble,
                       damping_matrices, export_matrices, linear_frequencies,
                       section_properties)
from .dynamics import (Disturbance, IntegrationBlowupError, SimConfig, Trajectory,
                       avf_step, cubic_force, energy, rhs, rk4_step, simulate,
                       step)
from .control import (ControlAuthorityError, ControllerConfig, control_voltage,
                      design_gains, make_policy, output)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

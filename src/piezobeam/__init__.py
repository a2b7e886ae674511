"""Coupled flexural-torsional vibration of a rotating piezo-actuated
cantilever: assumed-mode model, time integration and active control."""

from .basis import ModalBasis, flexural_eigenvalues
from .assembly import (AssemblyError, BeamSpec, PiezoSpec, SectionProperties,
                       SpinDestabilizedError, SystemMatrices, assemble,
                       export_matrices, linear_frequencies, section_properties)
from .dynamics import (Disturbance, IntegrationBlowupError, SimConfig, Trajectory,
                       avf_step, closed_loop, energy, rhs, rk4_step, simulate,
                       step)
from .control import (ControlAuthorityError, ControllerConfig, design_gains,
                      make_policy, output)

__all__ = [
    "ModalBasis", "flexural_eigenvalues",
    "AssemblyError", "BeamSpec", "PiezoSpec", "SectionProperties",
    "SpinDestabilizedError", "SystemMatrices", "assemble", "export_matrices",
    "linear_frequencies", "section_properties",
    "Disturbance", "IntegrationBlowupError", "SimConfig", "Trajectory",
    "avf_step", "closed_loop", "energy", "rhs", "rk4_step", "simulate", "step",
    "ControlAuthorityError", "ControllerConfig", "design_gains", "make_policy",
    "output",
]
__version__ = "0.1.0"

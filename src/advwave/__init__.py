"""Energy-based discontinuous Galerkin solver for the advective wave
equation (d/dt + w . grad)^2 u = c^2 Lap u in one and two dimensions."""

from .basis import ReferenceElement, build_reference
from .diagnostics import (discrete_energy, energy_identity_residual, fit_rate,
                          l2_error, spectral_radius_probe)
from .fluxes import FluxParams, FluxState, Trace, compute_flux, energy_rate_density
from .mesh import FaceKind, MeshTopology, build_mesh
from .operators import Discretization, ModalState
from .problems import ProblemSpec, mixed_2d, periodic_1d, periodic_2d, project_initial
from .timeint import InstabilityError, RK4Buffers, evolve, rk4_step

__version__ = "0.1.0"

__all__ = [
    "ReferenceElement", "build_reference",
    "discrete_energy", "energy_identity_residual",
    "fit_rate", "l2_error", "spectral_radius_probe",
    "FluxParams", "FluxState", "Trace", "compute_flux", "energy_rate_density",
    "FaceKind", "MeshTopology", "build_mesh",
    "Discretization", "ModalState",
    "ProblemSpec", "mixed_2d", "periodic_1d", "periodic_2d", "project_initial",
    "InstabilityError", "RK4Buffers", "evolve", "rk4_step",
]

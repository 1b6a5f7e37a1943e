"""2D mixed finite-element toolkit for superconductor magnetodynamics.

Implements the coupled h-a and t-a formulations on triangular meshes,
hierarchical interface enrichment of the discrete spaces, transient
solves with Newton-Raphson, and a numerical inf-sup stability test for
the interface coupling.
"""

from .mesh import (Boundary, GeometryParams, Interface, Mesh2D, Region,
                   Scenario, build_stacked_bar_mesh, build_tape_mesh, refine)
from .materials import Materials, PowerLaw, de_dj, rho_power
from .spaces import DofSpace, build_a_space, build_h_space, build_t_space
from .assembly import (AssembledSystem, LinearBlocks, NormSpec,
                       assemble_coupling_matrix, assemble_ha_iteration,
                       assemble_norm_matrix, assemble_ta_iteration, linear_blocks)
from .linalg import EigenResult, infsup_eigenpairs, solve_sparse
from .transient import TimeConfig, TimeHistory, circuit_post, run_transient
from .infsup import InfSupReport, run_infsup_sweep
from .diagnostics import (ProfileSample, oscillation_metric, sample_bn_profile,
                          sample_tape_current)

__version__ = "0.1.0"

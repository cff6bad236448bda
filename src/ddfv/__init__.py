"""Free-energy diminishing DDFV solver for drift-diffusion equations."""

from .fields import TensorSpec
from .mesh import (
    DDFVMesh,
    PrimalMesh,
    QualityReport,
    build_ddfv,
    gen_kershaw,
    gen_quad_fvca,
    gen_uniform_quad,
    quality,
    read_mesh,
    write_mesh,
)
from .scheme import (
    Assembly,
    SchemeParams,
    StateRecord,
    energy,
    project_initial,
    project_potential,
    relative_energy,
    stationary_state,
)
from .solver import NewtonConfig, NewtonStats, linear_solve, newton_solve

__version__ = "0.1.0"

__all__ = [
    "TensorSpec",
    "DDFVMesh", "PrimalMesh", "QualityReport",
    "build_ddfv", "gen_kershaw", "gen_quad_fvca", "gen_uniform_quad",
    "quality", "read_mesh", "write_mesh",
    "Assembly", "SchemeParams", "StateRecord",
    "energy", "project_initial", "project_potential", "relative_energy",
    "stationary_state",
    "NewtonConfig", "NewtonStats", "linear_solve", "newton_solve",
    "__version__",
]

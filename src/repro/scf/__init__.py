"""Sequential self-consistent-field stack: reference Fock build, RHF, DIIS,
purification, and the convergence guard."""

from repro.scf.checkpoint import (
    Checkpoint,
    CheckpointCorruptionWarning,
    load_checkpoint,
    load_latest_intact,
    save_checkpoint,
)
from repro.scf.diis import DIIS
from repro.scf.guard import (
    DEFAULT_LADDER,
    STATES,
    ConvergenceClassifier,
    GuardConfig,
    GuardError,
    GuardEvent,
    Rung,
    SCFGuard,
)
from repro.scf.fock import (
    build_jk,
    canonical_shell_quartets,
    fock_matrix,
    hf_electronic_energy,
)
from repro.scf.guess import core_guess, gwh_guess, zero_guess
from repro.scf.hf import RHF, SCFResult
from repro.scf.incremental import IncrementalFockBuilder
from repro.scf.mp2 import MP2Result, ao_to_mo, mp2_energy
from repro.scf.properties import (
    DipoleMoment,
    OrbitalSummary,
    dipole_moment,
    mulliken_charges,
    mulliken_populations,
    orbital_summary,
)
from repro.scf.orthogonalization import (
    LinearDependenceWarning,
    OrthoInfo,
    density_from_coefficients,
    density_from_fock,
    orthogonalizer,
    orthogonalizer_info,
)
from repro.scf.ri import RIJBuilder, even_tempered_auxiliary
from repro.scf.uhf import UHF, UHFResult
from repro.scf.purification import (
    PurificationResult,
    canonical_step,
    initial_density,
    mcweeny_refine,
    mcweeny_step,
    purify,
)

__all__ = [
    "Checkpoint",
    "CheckpointCorruptionWarning",
    "load_checkpoint",
    "load_latest_intact",
    "save_checkpoint",
    "DEFAULT_LADDER",
    "STATES",
    "ConvergenceClassifier",
    "GuardConfig",
    "GuardError",
    "GuardEvent",
    "Rung",
    "SCFGuard",
    "LinearDependenceWarning",
    "OrthoInfo",
    "orthogonalizer_info",
    "DIIS",
    "build_jk",
    "canonical_shell_quartets",
    "fock_matrix",
    "hf_electronic_energy",
    "core_guess",
    "gwh_guess",
    "zero_guess",
    "RHF",
    "SCFResult",
    "IncrementalFockBuilder",
    "MP2Result",
    "ao_to_mo",
    "mp2_energy",
    "RIJBuilder",
    "even_tempered_auxiliary",
    "UHF",
    "UHFResult",
    "DipoleMoment",
    "OrbitalSummary",
    "dipole_moment",
    "mulliken_charges",
    "mulliken_populations",
    "orbital_summary",
    "density_from_coefficients",
    "density_from_fock",
    "orthogonalizer",
    "PurificationResult",
    "canonical_step",
    "initial_density",
    "mcweeny_refine",
    "mcweeny_step",
    "purify",
]

"""Gaussian integral engines: Boys, one-electron, ERIs, screening."""

from repro.integrals.boys import boys, boys_array, boys_quadrature, boys_series, boys_single
from repro.integrals.class_batch import (
    ClassBatch,
    ClassPlan,
    build_class_plan,
    jk_for_quartets,
    jk_from_plan,
)
from repro.integrals.engine import (
    ERIEngine,
    MDEngine,
    OSEngine,
    SyntheticERIEngine,
)
from repro.integrals.eri_3center import eri_2center_block, eri_3center_block
from repro.integrals.eri_md import eri_shell_quartet, eri_tensor
from repro.integrals.moments import dipole_integrals
from repro.integrals.eri_os import eri_shell_quartet_os
from repro.integrals.pairdata import (
    PairData,
    ShellPairData,
    StackedPairs,
    build_pair_data,
    eri_shell_quartet_batched,
    stack_pairs,
)
from repro.integrals.store import ERIStore, StoreInvalidatedWarning, basis_fingerprint
from repro.integrals.oneelec import (
    core_hamiltonian,
    kinetic,
    nuclear_attraction,
    overlap,
)
from repro.integrals.schwarz import (
    pair_bound,
    schwarz_matrix,
    schwarz_model,
    screening_stats,
    unique_significant_quartet_count,
)

__all__ = [
    "boys",
    "boys_array",
    "boys_quadrature",
    "boys_series",
    "boys_single",
    "ERIEngine",
    "MDEngine",
    "OSEngine",
    "SyntheticERIEngine",
    "ClassBatch",
    "ClassPlan",
    "ERIStore",
    "StoreInvalidatedWarning",
    "basis_fingerprint",
    "build_class_plan",
    "jk_for_quartets",
    "jk_from_plan",
    "PairData",
    "ShellPairData",
    "StackedPairs",
    "stack_pairs",
    "build_pair_data",
    "eri_shell_quartet",
    "eri_shell_quartet_batched",
    "eri_tensor",
    "eri_2center_block",
    "eri_3center_block",
    "dipole_integrals",
    "eri_shell_quartet_os",
    "core_hamiltonian",
    "kinetic",
    "nuclear_attraction",
    "overlap",
    "pair_bound",
    "schwarz_matrix",
    "schwarz_model",
    "screening_stats",
    "unique_significant_quartet_count",
]

"""Exact integer homological algebra.

Smith and Hermite normal forms over Z, derived functors of tensor /
symmetric / exterior powers via Koszul-type complexes, and finite group
homology with Fox calculus and the Magnus relation module. All arithmetic
is exact (Python integers); nothing here ever touches a float.
"""

from .abelian import ChainComplex, FgAbGroup, canonical_form, from_cyclic_orders, homologies, homology, homology_at
from .errors import (
    ComplexValidityError,
    ExactHomError,
    InputError,
    InvariantViolation,
    ResourceBudgetError,
    UnsupportedFunctorError,
)
from .grouphom import (
    DEFAULT_BAR_BUDGET,
    FiniteGroupTable,
    FourTermReport,
    FpGroupPresentation,
    GModuleFree,
    MagnusSequence,
    augmentation_ideal,
    coinvariants,
    four_term_report,
    fox_derivative,
    group_homology,
    group_ring,
    h1_free,
    homology_bar,
    homology_cyclic,
    magnus_sequence,
    tensor_gmodule,
)
from .koszul import (
    DerivedResult,
    PresentationPair,
    derived,
    derived_from_presentation,
    kos,
    kos_prime,
    power_of_group,
    presentation_from_group,
    random_padded_presentation,
    tensor_complex,
)
from .linalg import (
    IntMatrix,
    SmithDecomposition,
    SparseMatrix,
    det,
    hnf,
    kernel_basis,
    smith_diagonal,
    snf,
    solve,
)
from .powers import FunctorKind, PowerKind, basis, induced_map, norm_diagonal
from .presets import GroupPreset, PRESET_NAMES, load_preset

__version__ = "0.1.0"

__all__ = [
    "ChainComplex",
    "ComplexValidityError",
    "DEFAULT_BAR_BUDGET",
    "DerivedResult",
    "ExactHomError",
    "FgAbGroup",
    "FiniteGroupTable",
    "FourTermReport",
    "FpGroupPresentation",
    "FunctorKind",
    "GModuleFree",
    "GroupPreset",
    "InputError",
    "IntMatrix",
    "InvariantViolation",
    "MagnusSequence",
    "PRESET_NAMES",
    "PowerKind",
    "PresentationPair",
    "ResourceBudgetError",
    "SmithDecomposition",
    "SparseMatrix",
    "UnsupportedFunctorError",
    "augmentation_ideal",
    "basis",
    "canonical_form",
    "coinvariants",
    "derived",
    "derived_from_presentation",
    "det",
    "four_term_report",
    "fox_derivative",
    "from_cyclic_orders",
    "group_homology",
    "group_ring",
    "h1_free",
    "hnf",
    "homologies",
    "homology",
    "homology_at",
    "homology_bar",
    "homology_cyclic",
    "induced_map",
    "kernel_basis",
    "kos",
    "kos_prime",
    "load_preset",
    "magnus_sequence",
    "norm_diagonal",
    "power_of_group",
    "presentation_from_group",
    "random_padded_presentation",
    "smith_diagonal",
    "snf",
    "solve",
    "tensor_complex",
    "tensor_gmodule",
    "__version__",
]

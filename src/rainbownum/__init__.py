"""Rainbow numbers of Z_n for the equation a1*x1 + a2*x2 + a3*x3 = b.

Closed-form evaluation with exact applicability guards, an exhaustive
search oracle over exact colorings, explicit rainbow-free witness
constructions, and structural characterizations of rainbow-free
3-colorings at prime modulus.
"""

from .characterize import (
    IntervalDecomposition,
    interval_decomposition,
    is_arithmetic_progression,
    thm3_rainbow_free,
    thm5_rainbow_free,
    thm6_singleton_necessary,
)
from .coloring import (
    Coloring,
    PaletteView,
    RainbowReport,
    find_rainbow,
    load_coloring,
    palette_view,
    project_palette_coloring,
    save_coloring,
)
from .constructions import (
    product_coloring,
    symmetric_interval_coloring,
    two_power_coloring,
    z9_coloring,
)
from .equation import (
    Equation,
    dilation_values,
    every_3coloring_rainbow,
    normalize_b_to_zero,
)
from .errors import (
    BadModulusError,
    BadPartitionError,
    BadWitnessError,
    CapExceededError,
    ConsistencyError,
    ModulusMismatchError,
    NonUnitError,
    NotApplicableError,
    NotCoveredError,
    NotDivisorError,
    NotProjectableError,
    RainbowError,
)
from .formulas import (
    RbResult,
    rb_formula,
    rb_two_power,
    rb_z3,
    rb_zn,
    rb_zp,
)
from .modring import (
    factorize,
    is_periodic,
    is_prime,
    is_symmetric,
    is_unit,
    multiplicative_closure,
    try_inverse,
    units,
)
from .search import (
    RainbowHypergraph,
    SearchConfig,
    build_hypergraph,
    exists_rainbow_free,
    iter_exact_partitions,
    rainbow_number_brute,
)

__version__ = "0.1.0"

__all__ = [
    "BadModulusError",
    "BadPartitionError",
    "BadWitnessError",
    "CapExceededError",
    "Coloring",
    "ConsistencyError",
    "Equation",
    "IntervalDecomposition",
    "ModulusMismatchError",
    "NonUnitError",
    "NotApplicableError",
    "NotCoveredError",
    "NotDivisorError",
    "NotProjectableError",
    "PaletteView",
    "RainbowError",
    "RainbowHypergraph",
    "RainbowReport",
    "RbResult",
    "SearchConfig",
    "build_hypergraph",
    "dilation_values",
    "every_3coloring_rainbow",
    "exists_rainbow_free",
    "factorize",
    "find_rainbow",
    "interval_decomposition",
    "is_arithmetic_progression",
    "is_periodic",
    "is_prime",
    "is_symmetric",
    "is_unit",
    "iter_exact_partitions",
    "load_coloring",
    "multiplicative_closure",
    "normalize_b_to_zero",
    "palette_view",
    "product_coloring",
    "project_palette_coloring",
    "rainbow_number_brute",
    "rb_formula",
    "rb_two_power",
    "rb_z3",
    "rb_zn",
    "rb_zp",
    "save_coloring",
    "symmetric_interval_coloring",
    "thm3_rainbow_free",
    "thm5_rainbow_free",
    "thm6_singleton_necessary",
    "try_inverse",
    "two_power_coloring",
    "units",
    "z9_coloring",
]

"""Rainbow numbers of Z_n for the equation a1*x1 + a2*x2 + a3*x3 = b.

Closed-form evaluation with exact applicability guards, an exhaustive
search oracle over exact colorings, explicit rainbow-free witness
constructions, and structural characterizations of rainbow-free
3-colorings at prime modulus.
"""

from .characterize import thm3_rainbow_free, thm5_rainbow_free
from .coloring import Coloring, find_rainbow, load_coloring, save_coloring
from .equation import Equation, dilation_values
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
    RainbowError,
)
from .formulas import rb_formula, rb_zp
from .modring import multiplicative_closure
from .search import (
    SearchConfig,
    build_hypergraph,
    exists_rainbow_free,
    iter_exact_partitions,
    rainbow_number_brute,
)

__version__ = "0.1.0"

# The error classes, Coloring, and what the README, the CLI, the scripts and
# the benchmark import.  The submodules listed last load on first import;
# everything else is imported from its submodule.
__all__ = [
    "BadModulusError",
    "BadPartitionError",
    "BadWitnessError",
    "CapExceededError",
    "Coloring",
    "ConsistencyError",
    "Equation",
    "ModulusMismatchError",
    "NonUnitError",
    "NotApplicableError",
    "NotCoveredError",
    "NotDivisorError",
    "RainbowError",
    "SearchConfig",
    "build_hypergraph",
    "dilation_values",
    "exists_rainbow_free",
    "find_rainbow",
    "iter_exact_partitions",
    "load_coloring",
    "multiplicative_closure",
    "rainbow_number_brute",
    "rb_formula",
    "rb_zp",
    "save_coloring",
    "thm3_rainbow_free",
    "thm5_rainbow_free",
    "cli",
    "coloring",
    "constructions",
    "formulas",
    "search",
]

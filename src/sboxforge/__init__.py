"""Key-dependent clone s-box generation and algebraic property analysis.

The report and Boolean-function API, with derive_row_permutation and
find_fixed_points, is library's, which no CLI command runs: it loads on the
first access to one of its names, through __getattr__, so a CLI call never
compiles it.
"""

from .analysis import max_balanced_nonlinearity
from .core import (
    BitPermutation,
    FixedPointReport,
    NonBijectiveError,
    RemovalExhausted,
    SBox,
    clone_sbox,
    clone_sbox_avoiding_fixed_points,
)
from .keys import key_to_permutations, lehmer_decode

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "BitPermutation",
    "BooleanFunctionTable",
    "FixedPointReport",
    "NonBijectiveError",
    "PropertyStats",
    "RemovalExhausted",
    "ReportComparison",
    "SBox",
    "WalshSpectrum",
    "analyze",
    "clone_sbox",
    "clone_sbox_avoiding_fixed_points",
    "compare_reports",
    "component_function",
    "derive_row_permutation",
    "find_fixed_points",
    "key_to_permutations",
    "lehmer_decode",
    "max_balanced_nonlinearity",
    "nonlinearity",
    "walsh_spectrum",
]


def __getattr__(name):
    # Only a name not bound above gets here: a public one is library's.
    if name in __all__:
        from . import library

        return getattr(library, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})

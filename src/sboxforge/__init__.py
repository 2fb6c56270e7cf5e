"""Key-dependent clone s-box generation and algebraic property analysis."""

from .analysis import (
    AnalysisReport,
    BooleanFunctionTable,
    PropertyStats,
    ReportComparison,
    WalshSpectrum,
    analyze,
    compare_reports,
    component_function,
    max_balanced_nonlinearity,
    nonlinearity,
    walsh_spectrum,
)
from .core import (
    BitPermutation,
    FixedPointReport,
    NonBijectiveError,
    RemovalExhausted,
    SBox,
    clone_sbox,
    clone_sbox_avoiding_fixed_points,
    derive_row_permutation,
    find_fixed_points,
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

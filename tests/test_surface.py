import sboxforge

# The package exports what the CLI, the README quick start and the
# acceptance suite use; growing this list is a deliberate API change.
PUBLIC = {
    "AnalysisReport",
    "BitPermutation",
    "BooleanFunctionTable",
    "CloneOptions",
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
}


def test_public_surface_is_pinned():
    assert set(sboxforge.__all__) == PUBLIC
    assert len(sboxforge.__all__) == len(PUBLIC)
    for name in PUBLIC:
        assert getattr(sboxforge, name) is not None

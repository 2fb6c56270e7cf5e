import os
import re

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


def test_readme_quick_start_runs_as_written():
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(path, encoding="utf-8") as handle:
        section = handle.read().split("\n## Library quick start\n", 1)[1]
    block = re.match(r"\s*```python\n(.*?)```\n", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})

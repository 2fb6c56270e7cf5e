import ast
import os
import re
import shlex
import subprocess
import sys
from math import factorial

import sboxforge
from sboxforge import cli

# The package exports what the CLI, the README quick start and the
# acceptance suite use; growing this list is a deliberate API change.
PUBLIC = {
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
}


def test_public_surface_is_pinned():
    assert set(sboxforge.__all__) == PUBLIC
    assert len(sboxforge.__all__) == len(PUBLIC)
    for name in PUBLIC:
        assert getattr(sboxforge, name) is not None


def readme_block(heading, language):
    """The first fenced block under the README's `## heading`."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(path, encoding="utf-8") as handle:
        section = handle.read().split(f"\n## {heading}\n", 1)[1]
    return re.match(rf"\s*```{language}\n(.*?)```\n", section, re.S).group(1)


def test_readme_quick_start_runs_as_written():
    exec(compile(readme_block("Library quick start", "python"), "README.md", "exec"), {})


def test_readme_cli_lines_parse():
    lines = [line for line in readme_block("CLI", "sh").splitlines() if line.startswith("sboxforge ")]
    assert len(lines) >= 5
    for line in lines:
        words = shlex.split(line)[1:]
        args = cli.parse_args(words)
        assert (args.command, args.func) == (words[0], getattr(cli, f"cmd_{words[0]}"))


# One argv of each shape the benchmark's ops send.
BENCH_ARGVS = [
    ["clone", "s8.txt", "--key", "0123456789abcdef", "--remove-fixed-points",
     "--max-attempts", "16", "-o", "c.txt"],
    ["enumerate", "s4.txt", "--all", "--check-invariance", "--out", "e.csv"],
    ["enumerate", "aes.txt", "--sample", "50", "--rng-seed", "1234", "--check-invariance",
     "--out", "e.csv"],
    ["analyze", "s10.txt", "--format", "json"],
    ["verify", "a.txt", "b.txt"],
]


def test_cli_import_leaves_argparse_out(child_env):
    # A cold CLI call should not pay for building argparse parsers or loading gettext,
    # nor should parsing the README's command lines or the benchmark's.
    argvs = [shlex.split(line)[1:] for line in readme_block("CLI", "sh").splitlines()
             if line.startswith("sboxforge ")] + BENCH_ARGVS
    probe = (f"import sys, sboxforge.cli; [sboxforge.cli.parse_args(a) for a in {argvs!r}]; "
             "print(sorted({'argparse', 'gettext'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=child_env, check=True)
    assert result.stdout == "[]\n"


def test_cli_import_leaves_dataclasses_and_typing_out(child_env):
    # The value types are plain slotted classes, so a cold CLI call loads
    # neither dataclasses, with the inspect module it imports, nor typing.
    # -S: site-packages hooks (.pth files) can load typing themselves.
    probe = ("import sys, sboxforge.cli; "
             "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                            env=child_env, check=True)
    assert result.stdout == "[]\n"


def test_cli_import_builds_no_plan(child_env):
    # Per-width Walsh plans with their byte tables and butterfly masks, and
    # the fingerprint's decimal strings, are built on first use: a cold call
    # pays only for its widths.
    probe = ("import sboxforge.cli; from sboxforge import analysis, formats; "
             "print(analysis._plan.cache_info().currsize, formats._decimals.cache_info().currsize)")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=child_env, check=True)
    assert result.stdout == "0 0\n"


def test_core_imports_without_analysis(child_env):
    # analysis builds on core's coordinate bitsets, so core must not import analysis.
    # The package's __init__ loads both; a bare package module stands in for it.
    probe = ("import sys, types, importlib.util; "
             "spec = importlib.util.find_spec('sboxforge'); "
             "package = types.ModuleType('sboxforge'); "
             "package.__path__ = list(spec.submodule_search_locations); "
             "sys.modules['sboxforge'] = package; "
             "import sboxforge.core; "
             "print(sorted(m for m in sys.modules if m.startswith('sboxforge')))")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=child_env, check=True)
    assert result.stdout == "['sboxforge', 'sboxforge.core']\n"


def module_containers(module):
    """Names assigned at the top level of `module` whose values are a dict, list, set or bytearray."""
    path = module.__file__
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), path)
    assigned = {target.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
                for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
                if isinstance(target, ast.Name)}
    assert assigned
    return {name for name in assigned
            if isinstance(getattr(module, name), (dict, list, set, bytearray))}


def module_caches(module):
    """The maxsize of every lru_cache bound at the top level of `module`."""
    return {name: value.cache_parameters()["maxsize"] for name, value in vars(module).items()
            if callable(getattr(value, "cache_parameters", None))}


def test_analysis_keeps_no_unbounded_memo():
    # Module state of analysis is built at import and only read: no
    # module-level dict, list or set it assigns, which calls could fill. Its
    # caches are lru_caches of finite size, but for _plan, which the 15
    # accepted widths bound.
    from sboxforge import analysis

    assert not module_containers(analysis)
    caches = module_caches(analysis)
    assert caches.pop("_plan") is None
    assert caches and all(size is not None for size in caches.values())
    assert analysis._criteria.cache_parameters()["maxsize"] == 1


def test_cli_keeps_no_unbounded_memo():
    # cli's one module-level container is its command table, built at import
    # and only read. Its one cache is the rank cache each sweep makes, whose
    # lifts hold at most 2**16 table entries at every width (one lift at
    # n = 16), and every rank up to n = 6.
    assert module_containers(cli) == {"COMMANDS"}
    assert not module_caches(cli)
    for n in range(2, 17):
        cli._init_sweep(list(range(1 << n)), None)
        size = cli._sweep[2].cache_parameters()["maxsize"]
        assert size is not None and 1 <= size and size << n <= 1 << 16
        assert size >= factorial(n) or n > 6
    assert size == 1

import ast
import importlib.util
import os
import random
import re
import shlex
import subprocess
import sys
import time
import tokenize
import tracemalloc
import typing
from math import factorial

import pytest

import sboxforge
from sboxforge import (BitPermutation, BooleanFunctionTable, SBox, analysis, cli, clone_sbox,
                       formats, derive_row_permutation, key_to_permutations, lehmer_decode, library,
                       max_balanced_nonlinearity, nonlinearity, walsh_spectrum)
from sboxforge.formats import serialize_sbox

from oracles import (direct_walsh, identity_sbox, lehmer_rank, measure_by_stages, permute_bits,
                     random_bijective, stabilizer_size, walsh_by_stages)
from vectors import AES_SBOX

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


# Each public class's own public members: the names in vars(cls) without a
# leading "_". A member that only tests call belongs in tests/oracles.py.
MEMBERS = {
    "AnalysisReport": {"bic_nl", "bic_sac", "bijective", "fixed_points", "n", "nl", "nl_bound", "sac"},
    "BitPermutation": {"images"},
    "BooleanFunctionTable": {"values"},
    "FixedPointReport": {"empty", "fixed", "reverse_fixed"},
    "NonBijectiveError": set(),
    "PropertyStats": {"avg", "max", "min", "sd"},
    "RemovalExhausted": set(),
    "ReportComparison": {"differences", "equal"},
    "SBox": {"from_table", "is_bijective", "n", "table"},
    "WalshSpectrum": {"coefficients"},
}


def test_public_surface_is_pinned():
    assert set(sboxforge.__all__) == PUBLIC
    assert len(sboxforge.__all__) == len(PUBLIC)
    for name in PUBLIC:
        assert getattr(sboxforge, name) is not None
    members = {name: {member for member in vars(cls) if not member.startswith("_")}
               for name, cls in (vars(sboxforge) | vars(library)).items()
               if name in PUBLIC and isinstance(cls, type)}
    assert members == MEMBERS


def test_public_type_hints_resolve():
    # Every annotation of a public function, and of a public class's
    # __init__, names something its module binds: get_type_hints raises
    # NameError on one that does not.
    for name in sboxforge.__all__:
        value = getattr(sboxforge, name)
        typing.get_type_hints(value.__init__ if isinstance(value, type) else value)


def test_library_names_load_on_first_use():
    # The 12 public names that sboxforge does not bind at import are the
    # ones library defines, got through the package's __getattr__; dir()
    # lists them all.
    lazy = PUBLIC - set(vars(sboxforge))
    assert lazy == {name for name in PUBLIC if getattr(sboxforge, name).__module__ == library.__name__}
    assert len(lazy) == 12 and all(getattr(sboxforge, name) is getattr(library, name) for name in lazy)
    assert set(dir(sboxforge)) >= PUBLIC
    with pytest.raises(AttributeError, match="has no attribute 'nothing'"):
        sboxforge.nothing


def test_differences_names_the_fields_of_property_stats():
    # verify and sweeps name a differing field from analysis.STATS, so that
    # no command loads library; it must stay PropertyStats' own field list.
    assert library.PropertyStats.__slots__ == analysis.STATS


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def readme_block(heading, language):
    """The first fenced block under the README's `## heading`."""
    with open(README, encoding="utf-8") as handle:
        section = handle.read().split(f"\n## {heading}\n", 1)[1]
    return re.match(rf"\s*```{language}\n(.*?)```\n", section, re.S).group(1)


def readme_section(heading, level="###"):
    """The text under the README's `level heading` (### by default), up to the next heading."""
    with open(README, encoding="utf-8") as handle:
        section = handle.read().split(f"\n{level} {heading}\n", 1)[1]
    return re.split(r"\n#+ ", section, maxsplit=1)[0]


def test_readme_quick_start_runs_as_written():
    exec(compile(readme_block("Library quick start", "python"), "README.md", "exec"), {})


def test_readme_cli_lines_parse():
    lines = [line for line in readme_block("CLI", "sh").splitlines() if line.startswith("sboxforge ")]
    assert len(lines) >= 5
    for line in lines:
        words = shlex.split(line)[1:]
        args = cli.parse_args(words)
        assert (args.command, args.func) == (words[0], getattr(cli, f"cmd_{words[0]}"))


def test_readme_exit_codes_are_the_cli_codes():
    # The "Exit codes" table lists every cli.EXIT_* code once, in order, and no other.
    listed = re.findall(r"^\| (\d+) +\|", readme_section("Exit codes"), re.M)
    assert [int(code) for code in listed] == sorted(
        value for name, value in vars(cli).items() if name.startswith("EXIT_"))


def test_readme_csv_header_is_the_one_enumerate_writes(tmp_path, capsys):
    # "Enumeration CSV" gives the header on a line of its own, with
    # "[,invariance]" for the column that --check-invariance adds.
    line = re.search(r"^`(sigma1_index,.*)\[,invariance\]`$",
                     readme_section("Enumeration CSV"), re.M).group(1)
    seed = tmp_path / "seed.txt"
    seed.write_text("0 1 2 3\n")
    for flags, column, summary in (([], "", ""),
                                   (["--check-invariance"], ",invariance", " invariance_pass=0")):
        assert cli.main(["enumerate", str(seed), "--sample", "0", *flags]) == 0
        assert capsys.readouterr() == (f"{line}{column}\n", f"rows=0 distinct=0{summary}\n")


def test_readme_input_bounds_are_the_parsers(tmp_path, capsys, monkeypatch):
    # "S-box files" states the byte bound in MiB and in bytes, the entry
    # bound and the longest text that is split whole; it and "Exit codes"
    # quote the line a command prints past each bound. Lines are joined.
    files, codes = (" ".join(readme_section(name).split()) for name in ("S-box files", "Exit codes"))
    mib, size, entries, split = [int(re.search(pattern, files)[1].replace(" ", "")) for pattern in (
        r"At most (\d+) MiB", r"MiB \(([\d ]+) bytes\)", r"more than ([\d ]+) entries exits",
        r"A text of up to ([\d ]+) characters")]
    assert mib << 20 == size == formats.MAX_FILE_BYTES
    assert entries == formats.MAX_ENTRIES
    big, many = tmp_path / "big.txt", tmp_path / "many.txt"
    big.write_bytes(b" " * (formats.MAX_FILE_BYTES + 1))
    many.write_text("0 " * (formats.MAX_ENTRIES + 1))
    for path in (big, many):
        assert cli.main(["analyze", str(path)]) == cli.EXIT_PARSE
        line = capsys.readouterr().err.replace(str(path), "PATH").rstrip("\n")
        assert f"`{line}`" in files and f"`{line}`" in codes
    long_texts = []
    monkeypatch.setattr(formats, "_long_tokens", lambda text: long_texts.append(len(text)) or text.split())
    for length in (split, split + 1):
        assert formats.parse_sbox_text("0 1 2 3".ljust(length)).table == (0, 1, 2, 3)
    assert long_texts == [split + 1]


def test_readme_key_reach_is_the_keys(tmp_path, capsys):
    # "Security notes" states what a key reaches; each figure is computed
    # here from key_to_permutations, clone and the stabilizer oracle.
    notes = " ".join(readme_section("Security notes", "##").split())

    def figures(pattern):
        return re.search(pattern, notes).groups()

    assert "such as `--key 00`, gives sigma1 = sigma2 = identity" in notes
    path = tmp_path / "seed.txt"
    for seed in (identity_sbox(4), SBox.from_table(AES_SBOX)):
        path.write_text(serialize_sbox(seed))
        identity = ",".join(map(str, range(seed.n)))
        # Two keys with K mod (n!)**2 = 0: 00 and (n!)**2 itself.
        for key in ("00", (factorial(seed.n) ** 2).to_bytes(4, "big").hex()):
            assert cli.main(["clone", str(path), "--key", key]) == cli.EXIT_OK
            assert capsys.readouterr() == (serialize_sbox(seed),
                                           f"sigma1={identity}\nsigma2={identity}\n")

    fixed, total = map(int, figures(r"(\d+) of the (\d+) pairs of the n = 4 identity"))
    seed = identity_sbox(4)
    pairs = [key_to_permutations(k.to_bytes(2, "big"), 4) for k in range(total)]
    assert total == factorial(4) ** 2 == len(set(pairs))
    assert fixed == stabilizer_size(seed.table) == sum(clone_sbox(seed, *p) == seed for p in pairs)

    pairs8 = factorial(8) ** 2
    one_byte, mantissa, power = figures(r"One byte reaches (\d+) of about ([\d.]+)·10\^(\d+) pairs")
    reached = {key_to_permutations(bytes([k]), 8) for k in range(256)}
    assert int(one_byte) == min(1 << 8, pairs8) == len(reached)
    assert float(f"{mantissa}e{power}") == float(f"{pairs8:.1e}")
    sizes = figures(r"takes (\d+) bytes at n = 8 and (\d+) bytes at n = 16")
    for size, n in zip(sizes, (8, 16)):
        assert int(size) == min(b for b in range(1, 17) if 1 << 8 * b >= factorial(n) ** 2)

    low, high, mean, bias = figures(r"4-byte key at n = 8 hits each pair (\d+) or (\d+) times "
                                    r"\(2\^32 / \(8!\)\^2 ≈ ([\d.]+)\), a ([\d.]+)× bias")
    hits, rest = divmod(1 << 32, pairs8)
    assert rest and (int(low), int(high)) == (hits, hits + 1)
    assert (mean, float(bias)) == (f"{(1 << 32) / pairs8:.2f}", (hits + 1) / hits)
    exponent = int(figures(r"An 8-byte key's bias at n = 8 is below 10\^(-\d+)")[0])
    assert 1 / ((1 << 64) // pairs8) < 10 ** exponent


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


def _literals(name):
    """The string literals of the package module `name`, f-strings' text
    parts among them, docstrings left out."""
    with open(os.path.join(os.path.dirname(sboxforge.__file__), name), encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                  and ast.get_docstring(node) is not None}
    return [node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)
            and isinstance(node.value, str) and id(node) not in docstrings]


def test_each_result_text_is_written_once_in_formats():
    # The CSV header, the sigma1= template, verify's result key (its
    # `result: ` line comes from the key: value renderer) and the summary's
    # invariance_pass= each occur once in src/, in formats.py; cli.py passes
    # formats content and builds no result text.
    pins = {"sigma1_index,": str.startswith, "sigma1=": str.startswith,
            "result": str.__eq__, " invariance_pass=": str.startswith}
    modules = sorted(n for n in os.listdir(os.path.dirname(sboxforge.__file__)) if n.endswith(".py"))
    found = {pin: [name for name in modules for text in _literals(name) if test(text, pin)]
             for pin, test in pins.items()}
    assert found == {pin: ["formats.py"] for pin in pins}


def test_cli_import_leaves_argparse_out(child_env):
    # A cold CLI call should not pay for building argparse parsers or loading gettext,
    # nor should parsing the README's command lines or the benchmark's; nor
    # compile sboxforge.usage, which holds the argparse reader and the help.
    argvs = [shlex.split(line)[1:] for line in readme_block("CLI", "sh").splitlines()
             if line.startswith("sboxforge ")] + BENCH_ARGVS
    # A repeated option too, whose last value argparse keeps.
    argvs.append(["clone", "s8.txt", "--key", "0a", "--key", "0b", "-o", "x", "--output", "y"])
    probe = (f"import sys, sboxforge.cli; [sboxforge.cli.parse_args(a) for a in {argvs!r}]; "
             "print(sorted({'argparse', 'gettext', 'sboxforge.usage'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=child_env, check=True)
    assert result.stdout == "[]\n"


def _module_level_imports(tree):
    """The top-level names of the absolute imports a module runs at import:
    its module-level statements, and those inside its module-level try and if blocks."""
    names, body = set(), list(tree.body)
    while body:
        node = body.pop()
        if isinstance(node, ast.Import):
            names |= {alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.partition(".")[0])
        elif isinstance(node, ast.If):
            body += node.body + node.orelse
        elif isinstance(node, ast.Try):
            body += node.body + node.orelse + node.finalbody
            body += [statement for handler in node.handlers for statement in handler.body]
    return names


def test_cli_docstring_names_the_standard_library_a_cold_call_imports():
    # cli's docstring lists what sboxforge's modules import from the standard
    # library at module level, and names the interpreter's SHA-256 and
    # _signal apart; usage.py, which only an argv that _fast declines loads,
    # and library.py, which only a library caller loads, are left out.
    package = os.path.dirname(sboxforge.__file__)
    imported = set()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py") and name not in ("usage.py", "library.py"):
            with open(os.path.join(package, name), encoding="utf-8") as handle:
                imported |= _module_level_imports(ast.parse(handle.read()))
    listed = re.search(r"import from the standard library only (.*?), with what those import",
                       " ".join(cli.__doc__.split())).group(1)
    assert imported - {"_signal", "_sha2", "_sha256", "hashlib"} == set(re.split(r", | and ", listed))


# What a cold CLI call must not load: fractions, with the decimal and numbers
# modules it imports, since no command builds a Fraction; re, which only a
# text too long to split whole needs; random, which only a sample needs; and
# sboxforge.library, the report and Boolean-function API that no command runs.
LAZY = {"fractions", "decimal", "_decimal", "numbers", "re", "random", "sboxforge.library"}


def test_cli_calls_leave_fractions_re_and_random_out(child_env, tmp_path):
    # Each of the benchmark's argvs, then analyze --format text, derive and
    # a verify that names the fields that differ, run through cli.main in one
    # process, which prints what of LAZY each left loaded: random from the
    # first --sample on, and nothing else. -S as below: site-packages hooks
    # can load re and random themselves.
    rng = random.Random(36)
    seed8 = SBox(8, tuple(random_bijective(rng, 8)))
    seed10 = SBox(10, tuple(random_bijective(rng, 10)))
    files = {"s8.txt": seed8, "s4.txt": SBox(4, tuple(random_bijective(rng, 4))),
             "aes.txt": SBox.from_table(AES_SBOX), "s10.txt": seed10, "a.txt": seed10,
             "b.txt": clone_sbox(seed10, *key_to_permutations(b"\x24", 10)),
             "u.txt": SBox(10, tuple(random_bijective(rng, 10)))}
    for name, s in files.items():
        (tmp_path / name).write_text(serialize_sbox(s))
    argvs = BENCH_ARGVS + [["analyze", "s10.txt", "--format", "text"],
                           ["derive", "--key", "0123456789", "--n", "10"],
                           ["verify", "a.txt", "u.txt"]]
    # The probe's own lines start "probe:", apart from what the commands print.
    probe = ("import sys, sboxforge.cli; "
             f"print('probe:', sorted({LAZY!r} & set(sys.modules))); "
             f"[print('probe:', sboxforge.cli.main(a), sorted({LAZY!r} & set(sys.modules))) "
             f"for a in {argvs!r}]")
    result = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                            env={**child_env, "SBOXFORGE_THREADS": "1"}, cwd=tmp_path, check=True)
    sampled = [any("--sample" in a for a in argvs[:i + 1]) for i in range(len(argvs))]
    assert [line for line in result.stdout.splitlines() if line.startswith("probe:")] == \
        ["probe: []"] + [f"probe: {cli.EXIT_MISMATCH if a[2:] == ['u.txt'] else 0} "
                         f"{['random'] if s else []}" for a, s in zip(argvs, sampled)]


def test_the_library_loads_fractions_and_re_where_it_uses_them(child_env):
    # A text longer than 2 * MAX_ENTRIES characters is split by a regex,
    # loading re; analyze still returns Fractions, its first access loading
    # library and with it fractions, and compare_reports finds a clone's
    # report equal to its seed's.
    probe = ("import sys, sboxforge, sboxforge.cli; from sboxforge import formats; "
             "loaded = lambda: sorted({'fractions', 're'} & set(sys.modules)); print(loaded()); "
             "seed = formats.parse_sbox_text(' '.join(map(str, range(255, -1, -1)))); print(loaded()); "
             "formats.parse_sbox_text('0 1 2 3'.ljust(2 * formats.MAX_ENTRIES + 1)); print(loaded()); "
             "report = sboxforge.analyze(seed); "
             "clone = sboxforge.clone_sbox(seed, *sboxforge.key_to_permutations(b'\\x24', 8)); "
             "print([type(s.avg).__name__ for s in (report.nl, report.sac)], type(report.sac.min).__name__, "
             "sboxforge.compare_reports(report, sboxforge.analyze(clone)).equal, loaded())")
    result = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                            env=child_env, check=True)
    assert result.stdout == ("[]\n[]\n['re']\n"
                             "['Fraction', 'Fraction'] Fraction True ['fractions', 're']\n")


def test_cli_import_leaves_dataclasses_and_typing_out(child_env):
    # The value types are plain slotted classes, so a cold CLI call loads
    # neither dataclasses, with the inspect module it imports, nor typing.
    # The JSON report is written without the json module, so no json either.
    # -S: site-packages hooks (.pth files) can load typing themselves.
    probe = ("import sys, sboxforge.cli; "
             "print(sorted({'dataclasses', 'inspect', 'typing', 'json', 'json.encoder', '_json'}"
             " & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                            env=child_env, check=True)
    assert result.stdout == "[]\n"


@pytest.mark.skipif(not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")),
                    reason="the interpreter has no built-in SHA-256")
def test_cli_and_a_serial_sweep_leave_hashlib_out(child_env, tmp_path):
    # fingerprint hashes with the interpreter's own SHA-256: hashlib would
    # load OpenSSL's libcrypto into every CLI call. -S as above.
    seed = tmp_path / "seed4.txt"
    seed.write_text(" ".join(map(str, random.Random(4).sample(range(16), 16))) + "\n")
    argv = ["enumerate", str(seed), "--all", "--check-invariance", "--out", str(tmp_path / "e.csv")]
    probe = ("import sys, sboxforge.cli; "
             "print(sorted({'hashlib', '_hashlib'} & set(sys.modules))); "
             f"print(sboxforge.cli.main({argv!r}), sorted({{'hashlib', '_hashlib'}} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                            env={**child_env, "SBOXFORGE_THREADS": "1"}, check=True)
    assert (result.stdout, result.stderr) == ("[]\n0 []\n", "rows=576 distinct=576 invariance_pass=576\n")


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
    # analysis builds on core's coordinate bitsets, so core must not import
    # analysis; formats, which reads and writes files and reports, depends on
    # core alone. The package's __init__ loads them all; a bare package module
    # stands in for it.
    loaded = "print(sorted(m for m in sys.modules if m.startswith('sboxforge'))); "
    probe = ("import sys, types, importlib.util; "
             "spec = importlib.util.find_spec('sboxforge'); "
             "package = types.ModuleType('sboxforge'); "
             "package.__path__ = list(spec.submodule_search_locations); "
             "sys.modules['sboxforge'] = package; "
             f"import sboxforge.core; {loaded}import sboxforge.formats; {loaded}")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=child_env, check=True)
    assert result.stdout == ("['sboxforge', 'sboxforge.core']\n"
                             "['sboxforge', 'sboxforge.core', 'sboxforge.formats']\n")


SRC = os.path.dirname(sboxforge.__file__)
MODULES = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))


def parser_tokens(name):
    """tokenize's tokens for src/sboxforge/NAME less COMMENT, NL and
    ENCODING, counted as Python 3.10 and 3.11 give them on every version:
    from 3.12 on, tokenize splits an f-string into FSTRING_START, its parts
    and FSTRING_END, and the span from an outermost FSTRING_START to its
    FSTRING_END counts here as the one STRING token the older versions give."""
    start, end = getattr(tokenize, "FSTRING_START", None), getattr(tokenize, "FSTRING_END", None)
    tokens, depth = [], 0
    with open(os.path.join(SRC, name), "rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type == start:
                if not depth:
                    tokens.append(token._replace(type=tokenize.STRING))
                depth += 1
            elif token.type == end:
                depth -= 1
            elif not depth and token.type not in (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING):
                tokens.append(token)
    return tokens


@pytest.mark.parametrize("name", MODULES)
def test_modules_stay_below_4096_parser_tokens(name):
    # Every CLI call compiles the modules it imports (PYTHONDONTWRITEBYTECODE
    # leaves no bytecode cache to read), and the parser's token array doubles
    # at 4096 tokens: past that, compiling a module peaks about 230 KiB
    # higher, and the import leaves about 270 KiB more resident. Counted as
    # the parser sees them: comments and blank-line NL tokens left out.
    assert len(parser_tokens(name)) < 4096


# src/'s size, as CHANGES.md counts it: (code lines, parser tokens). A
# change that grows src/ raises these numbers in its own diff.
SIZE_BUDGET = (1090, 12741)


def src_size():
    """Over src/sboxforge/*.py: the lines that hold a token other than a
    comment or a docstring, and the parser tokens."""
    layout = (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER)
    lines = tokens = 0
    for name in MODULES:
        with open(os.path.join(SRC, name), "rb") as handle:
            tree = ast.parse(handle.read(), name)
        docstrings = {node.body[0].lineno for node in ast.walk(tree)
                      if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                      and ast.get_docstring(node, clean=False) is not None}
        parsed = parser_tokens(name)
        lines += len({t.start[0] for t in parsed if t.type not in layout
                      and not (t.type == tokenize.STRING and t.start[0] in docstrings)})
        tokens += len(parsed)
    return lines, tokens


def test_src_stays_within_its_size_budget():
    lines, tokens = src_size()
    assert lines <= SIZE_BUDGET[0] and tokens <= SIZE_BUDGET[1], (lines, tokens)


def test_each_failure_class_has_an_exit_code_of_its_own():
    # main maps a failure to its exit code through cli._FAILURES. Every
    # exception class that src/ defines is in that table, with a code that no
    # other class there has, but for cli.Terminated, whose code is 128 + the
    # signal, and usage._HelpRequested, which is control flow.
    from sboxforge import usage

    defined = set()
    for name in MODULES:
        with open(os.path.join(SRC, name), "rb") as handle:
            classes = [node.name for node in ast.parse(handle.read(), name).body
                       if isinstance(node, ast.ClassDef)]
        if classes:  # __main__.py, which runs the CLI when imported, defines none
            module = importlib.import_module(f"sboxforge.{name[:-3]}".removesuffix(".__init__"))
            defined |= {getattr(module, c) for c in classes if issubclass(getattr(module, c), BaseException)}
    codes = dict(cli._FAILURES)
    assert len(codes) == len(cli._FAILURES)
    for kind in defined - {cli.Terminated, usage._HelpRequested}:
        assert kind in codes and list(codes.values()).count(codes[kind]) == 1, kind


def test_cli_opens_every_file_as_bytes(tmp_path, monkeypatch, capsys):
    # The CLI reads s-box files and writes -o/--out files as raw bytes. A
    # text stack (a TextIOWrapper over a buffer) costs a cold call more, and
    # would come back through an open without "b" in its mode, or through an
    # os.open without O_BINARY where that flag exists (Windows, where it
    # stops "\n" being translated).
    import builtins

    table = list(range(16))
    random.Random(4).shuffle(table)
    seed, clone = tmp_path / "seed.txt", tmp_path / "clone.txt"
    seed.write_text(" ".join(map(str, table)) + "\n")
    real_open, real_os_open, opened = builtins.open, os.open, []
    binary = getattr(os, "O_BINARY", 0)

    def recording(file, mode="r", *args, **kwargs):
        opened.append((os.fspath(file), mode))
        return real_open(file, mode, *args, **kwargs)

    def recording_os_open(path, flags, *args, **kwargs):
        opened.append((os.fspath(path), "rb" if flags & binary == binary else "r"))
        return real_os_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", recording)
    monkeypatch.setattr(os, "open", recording_os_open)
    monkeypatch.delenv("SBOXFORGE_THREADS", raising=False)
    for argv in (["clone", str(seed), "--key", "17", "-o", str(clone)],
                 ["enumerate", str(seed), "--sample", "3", "--out", str(tmp_path / "sweep.csv")],
                 ["analyze", str(clone)],
                 ["verify", str(seed), str(clone)]):
        assert cli.main(argv) == 0
    capsys.readouterr()
    assert {path for path, _ in opened} >= {str(seed), str(clone)}
    assert [(path, mode) for path, mode in opened if "b" not in mode] == []


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
    """The maxsize of every lru_cache that `module` defines at its top level;
    not those it imports, such as analysis's core._identity."""
    return {name: value.cache_parameters()["maxsize"] for name, value in vars(module).items()
            if callable(getattr(value, "cache_parameters", None)) and value.__module__ == module.__name__}


def test_no_call_rebinds_module_state():
    # A call keeps its state in its arguments and locals: no function in
    # src/ rebinds a module-level name, so calls of cli.main on several
    # threads share no state that one of them sets.
    directory = os.path.dirname(sboxforge.__file__)
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            with open(os.path.join(directory, name), encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), name)
            assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Global)] == [], name


def private_reads(trees):
    """Each `owner.attr` of `trees`, read or by getattr with a literal name,
    whose attr is private (a leading "_", not a dunder) and is defined by
    none of `trees`: no function, class, assigned name or assigned
    attribute of theirs bears that name. As (file, line, source) triples."""
    defined = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                defined.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                defined.add(node.attr)
    reads = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attr = node.attr
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr" \
                    and len(node.args) > 1 and isinstance(node.args[1], ast.Constant):
                attr = node.args[1].value
            else:
                continue
            if isinstance(attr, str) and attr.startswith("_") and not attr.endswith("__") \
                    and attr not in defined:
                reads.append((name, node.lineno, ast.unparse(node)))
    return reads


def test_src_reads_no_private_attribute_of_another_library():
    # A private name of the standard library may change in any release, so
    # src/ reads none that src/ does not itself define. os._exit, which the
    # os documentation describes, is the one exception. The worker pool is
    # the CLI's own processes and pipes: no file imports concurrent.futures.
    caught = {"a.py": ast.parse("import os\nclass A:\n    _mine = 1\n"
                                "A._mine, pool._processes, getattr(pool, '_queue'), os._exit\n")}
    assert private_reads(caught) == [("a.py", 4, "pool._processes"),
                                     ("a.py", 4, "getattr(pool, '_queue')"), ("a.py", 4, "os._exit")]
    directory = os.path.dirname(sboxforge.__file__)
    trees = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            with open(os.path.join(directory, name), encoding="utf-8") as handle:
                trees[name] = ast.parse(handle.read(), name)
    assert [source for _, _, source in private_reads(trees)] == ["os._exit"]
    imported = {alias.name if isinstance(node, ast.Import) else node.module
                for tree in trees.values() for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    assert not {name for name in imported if name and name.startswith("concurrent")}


# What a sweep's plan reads: a test sets none of them on cli, but stubs
# cli._schedule or calls it with the numbers it needs.
SCHEDULE_INPUTS = {"perf_counter", "POOL_START", "_cpus"}


def schedule_stubs(tree):
    """The lines of `tree` that set cli.perf_counter, cli.POOL_START or
    cli._cpus, by setattr or by assignment, in its code or in any string of
    it that parses as Python, such as a child's script."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) \
                == "setattr" and len(node.args) > 1:
            owner, name = node.args[:2]
            if getattr(owner, "id", getattr(owner, "attr", None)) == "cli" \
                    and getattr(name, "value", None) in SCHEDULE_INPUTS:
                lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) \
                and getattr(node.value, "id", None) == "cli" and node.attr in SCHEDULE_INPUTS:
            lines.append(node.lineno)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                script = ast.parse(node.value)
            except (SyntaxError, ValueError):
                continue
            lines += [node.lineno] * len(schedule_stubs(script))
    return lines


def test_no_test_stubs_what_the_schedule_reads():
    # The scheduling rule is one pure function, cli._schedule, so its tests
    # are a table of numbers, and a test that needs a pool stubs _schedule:
    # none stubs the clock, POOL_START or the CPU count on cli. Stubbing
    # cli.os for the affinity mask stays allowed.
    # Spelled {cli} here, so that the scan of this file finds none.
    caught = ('monkeypatch.setattr({cli}, "_cpus", lambda: 2)\n'
              'setattr(sboxforge.{cli}, "perf_counter", clock)\n'
              '{cli}.POOL_START = 1e-12\n'
              'probe = "{cli}.POOL_START, {cli}._cpus = 1e-12, lambda: 2"\n'
              'monkeypatch.setattr({cli}.os, "sched_getaffinity", lambda pid: {0})\n')
    assert schedule_stubs(ast.parse(caught.replace("{cli}", "cli"))) == [1, 2, 3, 4, 4]
    directory = os.path.dirname(os.path.abspath(__file__))
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            with open(os.path.join(directory, name), encoding="utf-8") as handle:
                assert schedule_stubs(ast.parse(handle.read(), name)) == [], name


def test_readme_states_the_schedules_numbers():
    # README "Environment" names where the rule lives and its numbers, read
    # here against the constants _schedule reads.
    text = " ".join(readme_section("Environment").split())
    assert "`cli._schedule`" in text and callable(cli._schedule)
    per, two, batch = map(float, re.search(
        r"one worker per ([\d.]+) s of rows left at that time, so two from ([\d.]+) s, fewer "
        r"than two meaning serial\. A batch holds at most ([\d.]+) s of rows at that time, "
        r"and at most a quarter of each worker's share when pooled\.", text).groups())
    assert (per, two, batch) == (cli.POOL_START, 2 * cli.POOL_START, cli._BATCH_SECONDS)


def test_analysis_keeps_no_unbounded_memo():
    # Module state of analysis is built at import and only read: no
    # module-level dict, list or set it assigns, which calls could fill. Its
    # caches are lru_caches of finite size, but for _plan, which the
    # accepted widths 1..16 bound.
    from sboxforge import analysis

    assert not module_containers(analysis)
    caches = module_caches(analysis)
    assert caches.pop("_plan") is None
    assert caches and all(size is not None for size in caches.values())
    assert analysis._criteria.cache_parameters()["maxsize"] == 1


def test_cli_keeps_no_unbounded_memo():
    # cli's one module-level container is its command table, built at import
    # and only read. Its one cache is _rank's, shared by every sweep of the
    # process: it holds every rank of each width --all takes, so at most
    # 872 lifts of at most 64 entries while that bound is n = 6, and a
    # wider row puts nothing in it.
    assert module_containers(cli) == {"COMMANDS"}
    widest = cli._ALL_MAX_N
    assert module_caches(cli) == {"_rank": sum(map(factorial, range(2, widest + 1)))}
    for n in range(2, 17):
        cli._rank.cache_clear()
        cli._enumerate_rows((list(range(1 << n)), n, None), [(0, 1)])
        assert cli._rank.cache_info().currsize == (2 if n <= widest else 0)


# Every public name that takes or derives a bit width, with the widths just
# outside its domain: s-boxes and bit permutations 2..16, Boolean functions
# 1..16 (from the truth table's length), the nonlinearity bound 3..16.
# Inputs are built before the call is measured; the call itself must raise
# before it allocates or loops in proportion to the width. Widths 17 and 18
# already show such work as 2**17 entries, over 1 MB. Far wider ones go only
# to calls whose work stays small if the check is lost: at n = 30 a lift
# takes 2**30 entries, and at n = 20 000 a key takes minutes.
OUTSIDE = [0, 1, 17, 18]
WIDTH_CALLS = [
    *[(f"SBox n={n}", lambda n=n: SBox(n, ())) for n in OUTSIDE + [30, 20_000]],
    *[(f"SBox.from_table n={n}", lambda table=tuple(range(1 << n)): SBox.from_table(table))
      for n in (1, 17)],
    *[(f"lehmer_decode n={n}", lambda n=n: lehmer_decode(0, n)) for n in OUTSIDE],
    *[(f"key_to_permutations n={n}", lambda n=n: key_to_permutations(b"\xff" * 8, n))
      for n in OUTSIDE],
    *[(f"derive_row_permutation n={n}",
       lambda n=n, sigma=BitPermutation(tuple(range(max(n, 1)))): derive_row_permutation(sigma, n))
      for n in OUTSIDE],
    *[(f"BooleanFunctionTable length {size}", lambda values=(0,) * size: BooleanFunctionTable(values))
      for size in (0, 1, 3, 1 << 17)],
    *[(f"max_balanced_nonlinearity n={n}", lambda n=n: max_balanced_nonlinearity(n))
      for n in (0, 1, 2, 17, 18, 30, 40, 20_000)],
    ("BitPermutation of no position", lambda: BitPermutation(())),
]


# Every other public name gets its width from a value already checked: it is
# a function of an SBox, BitPermutation or BooleanFunctionTable, whose
# constructors WIDTH_CALLS checks, a value type such a function returns, or
# one of the two errors. None loops or allocates by a width it is given.
WIDTH_FROM_CHECKED_VALUES = [
    "AnalysisReport", "FixedPointReport", "NonBijectiveError", "PropertyStats",
    "RemovalExhausted", "ReportComparison", "WalshSpectrum", "analyze", "clone_sbox",
    "clone_sbox_avoiding_fixed_points", "compare_reports", "component_function",
    "find_fixed_points", "nonlinearity", "walsh_spectrum",
]


def test_width_contract_covers_every_public_name():
    # A new public name must be given width calls, or be listed as taking
    # its width from a value already checked.
    called = {label.split()[0].partition(".")[0] for label, _ in WIDTH_CALLS}
    listed = set(WIDTH_FROM_CHECKED_VALUES)
    assert len(listed) == len(WIDTH_FROM_CHECKED_VALUES) and not called & listed
    assert sorted(called | listed) == sorted(sboxforge.__all__)


@pytest.mark.parametrize("call", [call for _, call in WIDTH_CALLS], ids=[i for i, _ in WIDTH_CALLS])
def test_width_outside_the_domain_is_rejected_up_front(call):
    plans = analysis._plan.cache_info().currsize
    tracemalloc.start()
    began = time.perf_counter()
    try:
        with pytest.raises(ValueError):
            call()
        seconds = time.perf_counter() - began
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seconds < 0.1
    assert peak < 1 << 20
    assert analysis._plan.cache_info().currsize == plans


def test_width_bound_is_stated_in_one_message():
    # Every width check reads core's one bound and says which domain it applies.
    for call, low in ((lambda: SBox(17, ()), 2), (lambda: lehmer_decode(0, 1), 2),
                      (lambda: key_to_permutations(b"\x01", 1), 2),
                      (lambda: derive_row_permutation(BitPermutation(tuple(range(17))), 17), 2),
                      (lambda: BooleanFunctionTable((0,)), 1),
                      (lambda: max_balanced_nonlinearity(2), 3)):
        with pytest.raises(ValueError, match=rf"^bit width must be in \[{low}, 16\], got "):
            call()


def test_readme_width_table_is_the_width_checks():
    # Each row of "Accepted widths" names public names whose widths are
    # [LOW, 16]: the bound that the name's WIDTH_CALLS reject with, or for a
    # name without width calls that of the type its first argument takes.
    rows = re.findall(r"^\| (\d+) to (\d+) \| (.+) \|$", readme_section("Accepted widths"), re.M)
    assert rows
    bounds = {}
    for label, call in WIDTH_CALLS:
        try:
            call()
        except ValueError as exc:
            if found := re.match(r"bit width must be in \[(\d+), (\d+)\]", str(exc)):
                bounds.setdefault(label.split()[0], set()).add(tuple(map(int, found.groups())))
    listed = set()
    for low, high, cell in rows:
        for name in re.findall(r"`([\w.]+)`", cell):
            assert name.partition(".")[0] in sboxforge.__all__
            if name not in bounds:
                name = next(iter(getattr(sboxforge, name).__annotations__.values()))
            assert bounds[name] == {(int(low), int(high))}, name
            listed.add(name)
    assert listed == set(bounds)


@pytest.mark.parametrize("n", [2, 16])
def test_width_edges_agree_with_the_oracles(n):
    last = factorial(n) - 1
    assert lehmer_decode(last, n).images == tuple(reversed(range(n)))
    assert lehmer_rank(lehmer_decode(last // 3, n).images) == last // 3
    key = (last * factorial(n) + last // 5).to_bytes(16, "big")
    sigma1, sigma2 = key_to_permutations(key, n)
    assert (lehmer_rank(sigma1.images), lehmer_rank(sigma2.images)) == (last // 5, last)
    rows = derive_row_permutation(sigma1, n).images
    assert all(rows[x] == permute_bits(x, sigma1.images) for x in range(0, 1 << n, 1 << n >> 8 or 1))


@pytest.mark.parametrize("n", [1, 16])
def test_boolean_width_edges_agree_with_the_oracles(n):
    bits = random.Random(n).getrandbits(1 << n)
    f = BooleanFunctionTable(tuple(bits >> x & 1 for x in range(1 << n)))
    spectrum = walsh_spectrum(f).coefficients
    assert list(spectrum) == walsh_by_stages(bits, n)
    if n == 1:
        assert list(spectrum) == direct_walsh(f.values)
    assert nonlinearity(f) == measure_by_stages([bits], n)[0]

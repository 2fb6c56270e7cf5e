"""Independent checks of every op's exit code and output.

Expected values come from `reference` (numpy, written from the definitions)
and from the dense matrix oracle in tests/oracles.py, never from sboxforge.
Each check returns None when the op is correct, or the reason it is not.
"""

from __future__ import annotations

import hashlib
import json
import random
from math import factorial

import numpy as np

import reference
from oracles import dense_clone
from workloads import Result

ENUMERATE_HEADER = ("sigma1_index,sigma2_index,sigma1,sigma2,prefix,hash64,"
                    "fixed_points,reverse_fixed_points,invariance")
# Rows per enumerate op whose invariance verdict is re-derived from scratch.
RECHECKED_ROWS = 4
# Half a unit in the sixth decimal place, the rounding of report numbers.
REPORT_TOLERANCE = 5e-7 + 1e-12


class Mismatch(Exception):
    """The program's result differs from the reference."""


def expect(condition: bool, reason: str) -> None:
    if not condition:
        raise Mismatch(reason)


def check(op, result: Result) -> str | None:
    try:
        CHECKS[op.kind](op.spec, result)
    except Mismatch as exc:
        return f"{op.kind}: {exc}"
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return f"{op.kind}: unreadable output ({type(exc).__name__}: {exc})"
    return None


def _perm_text(sigma, sep: str) -> str:
    return sep.join(str(v) for v in sigma)


def check_clone(spec: dict, r: Result) -> None:
    seed = np.array(spec["seed"], dtype=np.int64)
    n = len(seed).bit_length() - 1
    sigma1, sigma2 = reference.key_permutations(bytes.fromhex(spec["key"]), n)
    # An unremovable seed needs no replay: the structural reason proves exhaustion.
    attempt = None if reference.unremovable(seed) else \
        reference.first_clean_attempt(seed, sigma1, sigma2, spec["cap"])
    if attempt is None:
        expect(r.code == 3, f"expected exit 3 (exhausted), got {r.code!r}")
        expect(r.output is None and r.stdout == "", "exhausted clone wrote a result")
        expect(r.stderr.startswith("error: "), f"no error line on stderr: {r.stderr!r}")
        return
    expect(r.code == 0, f"expected exit 0 (clean at attempt {attempt}), got {r.code!r}")
    eff1, eff2 = reference.schedule_entry(sigma1, sigma2, attempt)
    expect(r.stderr == f"sigma1={_perm_text(eff1, ',')}\nsigma2={_perm_text(eff2, ',')}\n",
           f"effective permutations {r.stderr!r}, expected attempt {attempt}: {eff1} {eff2}")
    expect(r.output is not None, "no output file")
    table = [int(token) for token in r.output.split()]
    expect(table == dense_clone(spec["seed"], eff1, eff2), "clone table differs from the dense oracle")
    table = np.array(table, dtype=np.int64)
    expect(len(np.unique(table)) == len(table), "clone is not bijective")
    expect(not reference.has_fixed_points(table), "clone has a fixed or reverse fixed point")


def _expected_pairs(spec: dict, n: int) -> list[tuple[int, int]]:
    fact = factorial(n)
    if spec["sample"] is None:
        return [(k1, k2) for k1 in range(fact) for k2 in range(fact)]
    rng = random.Random(spec["rng_seed"])
    return [(rng.randrange(fact), rng.randrange(fact)) for _ in range(spec["sample"])]


def check_enumerate(spec: dict, r: Result) -> None:
    expect(r.code == 0, f"expected exit 0, got {r.code!r}")
    expect(r.stdout == "" and r.output is not None, "CSV not written to --out only")
    seed = np.array(spec["seed"], dtype=np.int64)
    n = len(seed).bit_length() - 1
    pairs = _expected_pairs(spec, n)
    lines = r.output.split("\n")
    expect(lines[0] == ENUMERATE_HEADER and lines[-1] == "", "CSV header or ending differs")
    rows = lines[1:-1]
    expect(len(rows) == len(pairs), f"{len(rows)} rows, expected {len(pairs)}")
    perms = {}
    digests = set()
    clones = []
    for (k1, k2), row in zip(pairs, rows):
        s1 = perms.setdefault(k1, reference.lehmer_decode(k1, n))
        s2 = perms.setdefault(k2, reference.lehmer_decode(k2, n))
        table = reference.clone(seed, s1, s2)
        digest = hashlib.sha256(_perm_text(table.tolist(), " ").encode()).hexdigest()[:16]
        fixed, reverse = reference.fixed_points(table)
        expected = [str(k1), str(k2), _perm_text(s1, " "), _perm_text(s2, " "),
                    _perm_text(table[:8].tolist(), " "), digest,
                    str(len(fixed)), str(len(reverse)), "pass"]
        expect(row.split(",") == expected, f"row {row!r}, expected {','.join(expected)!r}")
        digests.add(digest)
        clones.append(table)
    expect(r.stderr == f"rows={len(rows)} distinct={len(digests)} invariance_pass={len(rows)}\n",
           f"summary line {r.stderr!r}")
    seed_criteria = reference.criteria(seed)
    for table in random.Random(str(spec)).sample(clones, min(RECHECKED_ROWS, len(clones))):
        diffs = reference.differences(seed_criteria, reference.criteria(table))
        expect(not diffs, f"row marked pass but the reference finds {diffs}")


def _same_number(reported, expected) -> bool:
    if isinstance(expected, int):
        return reported == expected and isinstance(reported, int)
    return isinstance(reported, (int, float)) and abs(reported - float(expected)) <= REPORT_TOLERANCE


def check_analyze(spec: dict, r: Result) -> None:
    expect(r.code == 0 and r.stderr == "", f"expected exit 0, got {r.code!r} {r.stderr!r}")
    report = json.loads(r.stdout)
    ref = reference.criteria(spec["seed"])
    expect(set(report) == set(ref), f"report keys {sorted(report)}")
    for key in ("n", "bijective", "fixed_points", "reverse_fixed_points", "nl_bound"):
        expect(report[key] == ref[key], f"{key} = {report[key]!r}, expected {ref[key]!r}")
    for name in reference.CRITERIA:
        fields = ("min", "max", "avg") if name == "nl" else reference.FIELDS
        expect(set(report[name]) == set(fields), f"{name} fields {sorted(report[name])}")
        for field in fields:
            expect(_same_number(report[name][field], ref[name][field]),
                   f"{name}.{field} = {report[name][field]!r}, expected {float(ref[name][field])!r}")


def check_verify(spec: dict, r: Result) -> None:
    diffs = reference.differences(reference.criteria(spec["seed"]), reference.criteria(spec["other"]))
    lines = [f"{name}: {'differs' if any(d == name or d.startswith(name + '.') for d in diffs) else 'equal'}"
             for name in ("bijective",) + reference.CRITERIA]
    if diffs:
        lines += ["result: mismatch", "differences: " + " ".join(diffs)]
    else:
        lines.append("result: match")
    code = 5 if diffs else 0
    expect(r.code == code, f"expected exit {code}, got {r.code!r}")
    expect(r.stdout == "\n".join(lines) + "\n", f"verify printed {r.stdout!r}")


CHECKS = {"clone": check_clone, "enumerate": check_enumerate,
          "analyze": check_analyze, "verify": check_verify}

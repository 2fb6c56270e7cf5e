"""Workload generation: s-box files and CLI argv lists, made from a seed.

The program sees only the files written here and the argv lists; `spec`
keeps what the independent check needs. Every workload is a fixed block of
op kinds repeated a number of times that depends on --seconds alone, so the
op list, and with it the tail percentile, is the same on every commit.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from math import factorial

import numpy as np

import reference
from stats import TAIL_BEYOND

# Removal attempts allowed per clone op. Attempt counts are heavy-tailed
# (median about 6 at n = 8 and 10, one key in ten needs over 100), so a
# small cap keeps one key from dominating a run; a third of removable keys
# and every unremovable seed end in exit 3 after exactly CAP attempts.
CAP = 16
SAMPLE_ROWS = 8
THREADS = 2

# (ops, seconds) of one block at the baseline commit (2 cores, Python 3.11),
# and the passes a run makes over its op list. An op's latency is the median
# of its passes, each scaled to the calibration loop's reference speed.
# A run repeats its block round(FILL * seconds / (block seconds * passes))
# times, and at least often enough for a tail percentile, so the passes
# fill most of --seconds there.
FILL = 0.85
BLOCKS = {"clone-keyed": (20, 0.45), "sweep-invariance": (3, 0.46), "audit-wide": (34, 6.5)}
PASSES = {"clone-keyed": 5, "sweep-invariance": 5, "audit-wide": 4}


@dataclass
class Op:
    """One CLI command: its argv, the file it writes, and what checks it."""

    kind: str
    argv: list[str]
    output: str | None = None
    spec: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Result:
    """What one CLI call left behind."""

    code: object            # exit code, or a description of the exception it raised
    stdout: str
    stderr: str
    output: str | None      # contents of the file the op wrote, None if absent


def random_bijection(rng: random.Random, n: int) -> list[int]:
    table = list(range(1 << n))
    rng.shuffle(table)
    return table


def pin_endpoint(rng: random.Random, table: list[int]) -> list[int]:
    """Swap entries so S(0) or S(2^n - 1) is 0 or 2^n - 1: no clone can lose that point."""
    top = len(table) - 1
    index, value = rng.choice([(0, 0), (0, top), (top, 0), (top, top)])
    other = table.index(value)
    table[index], table[other] = table[other], table[index]
    return table


class Writer:
    """Writes s-box files into one run directory, alternating decimal and hex."""

    def __init__(self, directory: str):
        self.directory = directory
        self.count = 0

    def sbox(self, table, label: str) -> str:
        self.count += 1
        path = os.path.join(self.directory, f"{self.count:05d}-{label}.txt")
        if self.count % 2:
            cells = [str(v) for v in table]
        else:
            width = (len(table).bit_length() + 2) // 4
            cells = [f"0x{v:0{width}x}" for v in table]
        lines = [" ".join(cells[i:i + 16]) for i in range(0, len(cells), 16)]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(f"# {label}\n" + "\n".join(lines) + "\n")
        return path

    def output(self, suffix: str) -> str:
        self.count += 1
        return os.path.join(self.directory, f"{self.count:05d}-out.{suffix}")


def _clone_ops(rng: random.Random, blocks: int, w: Writer) -> list[Op]:
    aes = reference.aes_table()
    inversion = reference.aes_table(constant=0)      # affine map without 0x63: S(0) = 0
    aes_path, inversion_path = w.sbox(aes, "aes"), w.sbox(inversion, "aes-no-constant")
    # (n, pinned endpoint, fixed table) per op of one block. Sorted by latency,
    # each reported rank then lands at the low end of a group of ops doing
    # equal work, not on the boundary between two groups, where it would jump
    # between their latencies:
    # the median among the n = 8 ops that make all CAP attempts (six
    # unremovable seeds plus a third of the removable ones), and the tail
    # among the n = 10 ops that make all CAP attempts (one unremovable seed
    # plus a third of a removable one per block: about 15 ops in the eleven
    # blocks of a 30-second run, whose tail is the twelfth-slowest op).
    block = ([(8, False, aes)] + [(8, False, None)] * 11 + [(8, True, inversion)]
             + [(8, True, None)] * 5 + [(10, False, None), (10, True, None)])
    ops = []
    for _ in range(blocks):
        for n, pinned, fixed in block:
            if fixed is not None:
                table, path = fixed, aes_path if fixed is aes else inversion_path
            else:
                table = random_bijection(rng, n)
                if pinned:
                    pin_endpoint(rng, table)
                path = w.sbox(table, f"seed{n}")
            key = rng.randbytes(8).hex()
            out = w.output("txt")
            argv = ["clone", path, "--key", key, "--remove-fixed-points",
                    "--max-attempts", str(CAP), "-o", out]
            ops.append(Op("clone", argv, out, {"seed": table, "key": key, "cap": CAP}))
    rng.shuffle(ops)
    return ops


def _sweep_ops(rng: random.Random, blocks: int, w: Writer) -> list[Op]:
    aes = reference.aes_table()
    aes_path = w.sbox(aes, "aes")
    ops = []
    for _ in range(blocks):
        seed4 = random_bijection(rng, 4)
        out = w.output("csv")
        ops.append(Op("enumerate", ["enumerate", w.sbox(seed4, "seed4"), "--all",
                                    "--check-invariance", "--out", out], out,
                      {"seed": seed4, "sample": None}))
        seed8 = random_bijection(rng, 8)
        for table, path in ((aes, aes_path), (seed8, w.sbox(seed8, "seed8"))):
            rng_seed = rng.randrange(1 << 31)
            out = w.output("csv")
            argv = ["enumerate", path, "--sample", str(SAMPLE_ROWS), "--rng-seed", str(rng_seed),
                    "--check-invariance", "--out", out]
            ops.append(Op("enumerate", argv, out,
                          {"seed": table, "sample": SAMPLE_ROWS, "rng_seed": rng_seed}))
    return ops


def _audit_ops(rng: random.Random, blocks: int, w: Writer) -> list[Op]:
    def analyze_op(n):
        table = random_bijection(rng, n)
        return Op("analyze", ["analyze", w.sbox(table, f"seed{n}"), "--format", "json"],
                  spec={"seed": table})

    def verify_op(n, true_clone):
        seed = random_bijection(rng, n)
        if true_clone:
            other = reference.clone(np.array(seed), tuple(rng.sample(range(n), n)),
                                    tuple(rng.sample(range(n), n))).tolist()
        else:
            other = random_bijection(rng, n)
        return Op("verify", ["verify", w.sbox(seed, f"seed{n}"), w.sbox(other, f"other{n}")],
                  spec={"seed": seed, "other": other})

    # A block of 34: 23 n = 10 analyses, ten n = 10 verifies and one n = 12
    # analysis. Sorted by latency, the median of one block lands among the
    # n = 10 analyses and the tail (p70, rank 24) on the cheapest verify, the
    # low end of a group of equal work rather than the boundary between two
    # groups. An n = 12 verify (two n = 12 analyses) would leave time for
    # too few passes.
    ops = []
    for _ in range(blocks):
        ops += [analyze_op(10) for _ in range(23)]
        ops += [verify_op(10, i % 2 == 0) for i in range(10)]
        ops.append(analyze_op(12))
    return ops


GENERATORS = {"clone-keyed": _clone_ops, "sweep-invariance": _sweep_ops, "audit-wide": _audit_ops}


def rows(op: Op) -> int:
    """Result rows one op yields: its CSV rows for enumerate, one for any other command."""
    if op.kind != "enumerate":
        return 1
    if op.spec["sample"] is not None:
        return op.spec["sample"]
    return factorial(len(op.spec["seed"]).bit_length() - 1) ** 2


def threads(workload: str) -> int | None:
    """SBOXFORGE_THREADS for the workload; None leaves it unset (serial)."""
    return THREADS if workload == "sweep-invariance" else None


def generate(workload: str, seed: int, seconds: float, directory: str) -> list[Op]:
    """The op list of one run; the same (workload, seed, seconds) give the same files and argv."""
    ops_per_block, block_seconds = BLOCKS[workload]
    blocks = max(TAIL_BEYOND // ops_per_block + 1,
                 round(FILL * seconds / (block_seconds * PASSES[workload])))
    rng = random.Random(f"{workload}/{seed}")
    return GENERATORS[workload](rng, blocks, Writer(directory))

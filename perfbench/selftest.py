"""Self-tests of the benchmark, kept out of the repository's test suite.

    python3 -m pytest -q perfbench/selftest.py
"""

import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), HERE]

import calibration  # noqa: E402
import checks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from sboxforge import cli  # noqa: E402


def snapshot(directory, ops):
    files = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), encoding="utf-8") as handle:
            files[name] = handle.read()
    argv = [[a.replace(str(directory), "DIR") for a in op.argv] for op in ops]
    return files, argv, [op.spec for op in ops]


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_same_seed_generates_identical_inputs(tmp_path, workload):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    (tmp_path / "c").mkdir()
    first = snapshot(tmp_path / "a", workloads.generate(workload, 7, 2, str(tmp_path / "a")))
    second = snapshot(tmp_path / "b", workloads.generate(workload, 7, 2, str(tmp_path / "b")))
    other = snapshot(tmp_path / "c", workloads.generate(workload, 8, 2, str(tmp_path / "c")))
    assert first == second
    assert first[0] != other[0]


def execute(op):
    return run.execute(cli, op)[1]


def write(path, table):
    path.write_text(" ".join(str(v) for v in table) + "\n")
    return str(path)


def clone_op(tmp_path, table, key):
    out = str(tmp_path / "clone.txt")
    argv = ["clone", write(tmp_path / "seed.txt", table), "--key", key,
            "--remove-fixed-points", "--max-attempts", str(workloads.CAP), "-o", out]
    return workloads.Op("clone", argv, out, {"seed": table, "key": key, "cap": workloads.CAP})


def test_check_rejects_corrupted_clone_table(tmp_path):
    rng = random.Random(3)
    for _ in range(50):
        table = workloads.random_bijection(rng, 8)
        key = rng.randbytes(8).hex()
        sigma1, sigma2 = reference.key_permutations(bytes.fromhex(key), 8)
        attempt = reference.first_clean_attempt(reference.np.array(table), sigma1, sigma2, workloads.CAP)
        if attempt is not None:
            break
    op = clone_op(tmp_path, table, key)
    good = execute(op)
    assert good.code == 0 and checks.check(op, good) is None
    entries = good.output.split()
    entries[1], entries[2] = entries[2], entries[1]
    swapped = workloads.Result(0, good.stdout, good.stderr, " ".join(entries) + "\n")
    assert "dense oracle" in checks.check(op, swapped)
    assert checks.check(op, workloads.Result(3, "", "error: x\n", None)) is not None


def test_check_proves_exhaustion_of_unremovable_seed(tmp_path):
    table = workloads.pin_endpoint(random.Random(5), workloads.random_bijection(random.Random(4), 8))
    op = clone_op(tmp_path, table, "0123456789abcdef")
    result = execute(op)
    assert result.code == 3 and checks.check(op, result) is None
    assert checks.check(op, workloads.Result(0, "", result.stderr, "0\n")) is not None


def test_check_rejects_wrong_report_field(tmp_path):
    table = workloads.random_bijection(random.Random(9), 6)
    op = workloads.Op("analyze", ["analyze", write(tmp_path / "s.txt", table), "--format", "json"],
                      spec={"seed": table})
    good = execute(op)
    assert checks.check(op, good) is None
    for name, field, delta in (("sac", "max", 1e-6), ("nl", "min", 1), ("bic_sac", "sd", 2e-6)):
        report = json.loads(good.stdout)
        report[name][field] += delta
        bad = workloads.Result(0, json.dumps(report), "", None)
        assert f"{name}.{field}" in checks.check(op, bad)


def test_check_rejects_wrong_verify_verdict(tmp_path):
    rng = random.Random(11)
    seed = workloads.random_bijection(rng, 6)
    clone = reference.clone(reference.np.array(seed), (1, 0, 2, 3, 5, 4), (5, 4, 3, 2, 1, 0)).tolist()
    op = workloads.Op("verify", ["verify", write(tmp_path / "a.txt", seed), write(tmp_path / "b.txt", clone)],
                      spec={"seed": seed, "other": clone})
    good = execute(op)
    assert good.code == 0 and checks.check(op, good) is None
    assert checks.check(op, workloads.Result(5, good.stdout, "", None)) is not None


def test_cold_execution_keeps_no_state_between_ops(tmp_path):
    class Counting:
        """A CLI whose exit code is the number of calls its process has seen."""
        calls = 0

        def main(self, argv):
            Counting.calls += 1
            return Counting.calls

    op = workloads.Op("analyze", ["analyze"])
    assert [run.execute(Counting(), op)[1].code for _ in range(2)] == [1, 2]
    assert [run.execute_cold(Counting(), op)[1].code for _ in range(2)] == [3, 3]


def test_scaling_to_reference_speed():
    assert calibration.scaled(0.5, calibration.REFERENCE_S) == 0.5
    assert calibration.scaled(0.5, 2 * calibration.REFERENCE_S) == 0.25
    assert calibration.calibrate() > 0


def test_tail_rank_leaves_ten_samples_beyond():
    for count in range(11, 3000):
        percentile, rank = stats.tail_rank(count)
        assert count - rank >= stats.TAIL_BEYOND
        assert count - -(-(percentile + 1) * count // 100) < stats.TAIL_BEYOND
    assert stats.tail(range(1, 101)) == (90, 90, 100)
    assert stats.tail(list(range(760, 0, -1))) == (745, 98, 760)
    with pytest.raises(ValueError):
        stats.tail_rank(10)


def test_self_time_subtracts_union_of_children():
    children = [(1, 3), (2, 5), (7, 8), (9, 12), (-3, -1)]
    assert stats.covered(children, 0, 10) == 6
    assert stats.self_time(0, 10, children) == 4
    assert stats.self_time(0, 10, []) == 10


def test_worker_busy_and_self_times_from_spans():
    parent, worker_a, worker_b = 100 << 32, 200 << 32, 300 << 32
    e = (parent + 1, 0, "cli.cmd_enumerate", 0.0, 10.0, 0, 4, False)
    spans = [
        e,
        (parent + 2, e[0], "formats.load_sbox", 0.0, 1.0, 0, 0, False),
        (worker_a + 1, e[0], "core.clone_sbox", 2.0, 6.0, 0, 4, False),
        (worker_a + 2, e[0], "analysis.analyze", 5.0, 8.0, 0, 4, False),
        (worker_b + 1, e[0], "core.clone_sbox", 2.0, 4.0, 0, 4, False),
        (worker_b + 2, worker_b + 1, "keys.lehmer_decode", 2.5, 3.0, 0, 0, False),
    ]
    children = tracing.children_of(spans)
    assert tracing.worker_busy([e], children) == 6 + 2
    selfs = tracing.self_times(spans, children)
    assert selfs[e[0]] == 10 - 1 - 6
    assert selfs[worker_b + 1] == 1.5
    metrics = tracing.layer_metrics(spans, ops=1, threads=2)
    assert metrics["cli.worker_busy_ratio"] == (8 / 20, "ratio")
    assert metrics["cli.enumerate_self_ms"] == (3000, "ms")

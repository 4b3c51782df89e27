"""`scripts/ab_bench.py`: its summary of canned bench/run.py result lines,
and a whole run against stand-in checkouts whose bench/run.py prints a
canned line."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
sys.path.insert(0, str(SCRIPTS))

from ab_bench import read_result, summarize  # noqa: E402

METRICS = [{"name": "throughput_ops_s", "better": "higher"},
           {"name": "op_p50_ms", "better": "lower"}]


def result_line(throughput, p50, correct=True, failed=0):
    return json.dumps({"correct": correct, "attempted": 27, "failed": failed, "metrics": {
        "throughput_ops_s": {"value": throughput, "unit": "1/s"},
        "op_p50_ms": {"value": p50, "unit": "ms"}}})


class TestReadResult:
    def test_last_line_metrics(self):
        out = "workload bounds seed 1\n  throughput_ops_s 500.0 1/s\n" + result_line(500.0, 1.5)
        assert read_result(out) == {"throughput_ops_s": 500.0, "op_p50_ms": 1.5}

    @pytest.mark.parametrize("out", [
        result_line(500.0, 1.5, correct=False), result_line(500.0, 1.5, failed=2),
        "", "workload bounds seed 1\n", '{"correct": true}'])
    def test_incorrect_failed_or_missing_is_refused(self, out):
        with pytest.raises(ValueError):
            read_result(out)


class TestSummarize:
    def test_medians_quartiles_and_better_pairs(self):
        runs = {str(seed): {"parent": read_result(result_line(t0, m0)),
                            "change": read_result(result_line(t1, m1))}
                for seed, (t0, m0, t1, m1) in enumerate([
                    (100.0, 2.0, 110.0, 1.0), (120.0, 3.0, 119.0, 4.0),
                    (90.0, 1.0, 95.0, 0.5), (130.0, 5.0, 140.0, 5.0)])}
        block = summarize(runs, METRICS)
        assert block["throughput_ops_s"] == {
            "parent_median": 110.0, "parent_quartiles": [97.5, 122.5],
            "change_median": 114.5, "change_quartiles": [106.25, 124.25],
            "change_better_pairs": 3, "pairs": 4}
        # lower is better; an equal pair counts for neither side
        assert block["op_p50_ms"] == {
            "parent_median": 2.5, "parent_quartiles": [1.75, 3.5],
            "change_median": 2.5, "change_quartiles": [0.875, 4.25],
            "change_better_pairs": 2, "pairs": 4}

    def test_one_pair(self):
        runs = {"7": {"parent": {"throughput_ops_s": 5.0, "op_p50_ms": 1.0},
                      "change": {"throughput_ops_s": 6.0, "op_p50_ms": 1.0}}}
        block = summarize(runs, METRICS)
        assert block["throughput_ops_s"]["parent_quartiles"] == [5.0, 5.0]
        assert block["throughput_ops_s"]["change_better_pairs"] == 1


def stand_in(root: Path, name: str, throughput: float, correct=True) -> Path:
    """A checkout whose bench/run.py appends its seed and run length to
    runs.log and prints one canned result line."""
    checkout = root / name
    (checkout / "bench").mkdir(parents=True)
    (checkout / "BENCHMARK.json").write_text(
        json.dumps({"run_seconds": 32, "end_to_end": METRICS}))
    (checkout / "bench" / "run.py").write_text(
        "import sys\n"
        "seed = sys.argv[sys.argv.index('--seed') + 1]\n"
        "seconds = sys.argv[sys.argv.index('--seconds') + 1]\n"
        f"open({str(root / 'runs.log')!r}, 'a').write("
        f"{name!r} + ' ' + seed + ' ' + seconds + '\\n')\n"
        f"print({result_line(throughput, 1.0, correct)!r})\n")
    return checkout


def run_script(*argv):
    return subprocess.run([sys.executable, str(SCRIPTS / "ab_bench.py"), *map(str, argv)],
                          capture_output=True, text=True, timeout=60)


def test_alternating_pairs_against_stand_in_checkouts(tmp_path):
    parent, change = stand_in(tmp_path, "parent", 100.0), stand_in(tmp_path, "change", 120.0)
    proc = run_script(parent, change, "bounds", "3-4")
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout)
    assert summary["end_to_end"]["throughput_ops_s"]["change_better_pairs"] == 2
    assert summary["runs"]["3"] == {"parent": {"throughput_ops_s": 100.0, "op_p50_ms": 1.0},
                                    "change": {"throughput_ops_s": 120.0, "op_p50_ms": 1.0}}
    # odd seeds run the parent first, even seeds the change, each for the
    # run_seconds of BENCHMARK.json
    assert (tmp_path / "runs.log").read_text().split("\n") == [
        "parent 3 32", "change 3 32", "change 4 32", "parent 4 32", ""]


def test_an_incorrect_run_exits_one(tmp_path):
    parent = stand_in(tmp_path, "parent", 100.0)
    change = stand_in(tmp_path, "change", 120.0, correct=False)
    proc = run_script(parent, change, "bounds", "3")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.splitlines()[-1] == "error: change run at seed 3: correct False, 0 failed of 27"

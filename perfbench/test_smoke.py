"""Smoke test of the benchmark at tiny sizes: n <= 5 and a handful of queries.

    python3 -m pytest perfbench/test_smoke.py -p no:cacheprovider

It checks that every named metric is printed and that a perturbed exact
table fails the digest gate.  It asserts nothing about timings.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCH["workloads"]]


def run_all(trace: int) -> list[str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", "5"]
    cmd += ["--seconds", "1", "--trace", str(trace), "--tiny"]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


def check_metrics(total: dict, specs: list[dict], positive: bool) -> None:
    assert total["correct"] and total["failed"] == 0 and total["attempted"] >= len(NAMES)
    for name in NAMES:
        for spec in specs:
            got = total["metrics"][f"{name}.{spec['name']}"]
            assert got["unit"] == spec["unit"]
            assert isinstance(got["value"], (int, float))
            if positive:
                assert got["value"] > 0, (name, spec["name"])


def test_end_to_end_metrics_printed():
    lines = run_all(0)
    check_metrics(json.loads(lines[-1]), BENCH["end_to_end"], positive=True)
    printed = [line.split()[0] for line in lines if line.startswith("  ")]
    assert printed.count("fail_ratio") == len(NAMES)
    assert printed.count("verify_s") == 1
    assert printed.count("sim_trials_per_s") == 1
    for unscaled in ("setup_wall_s", "p50_wall_ms", "tail_wall_ms", "ops_wall_per_s", "reference_ms"):
        assert printed.count(unscaled) == len(NAMES)


def test_per_layer_metrics_printed():
    lines = run_all(1)
    check_metrics(json.loads(lines[-1]), BENCH["per_layer"], positive=False)
    assert sum(line.split()[0] == "trace.overhead_s" for line in lines if line.strip()) == len(NAMES)


def test_perturbed_table_fails_digest_gate(monkeypatch):
    sys.path.insert(0, str(HERE))
    import run

    workloads = run.import_package()
    from remixed import cli, qcalc

    real = cli.exact_sweep

    def perturbed(n):
        table = real(n)
        if n == 5:
            ct = min(table)
            table[ct] = table[ct] + qcalc.ONE
        return table

    monkeypatch.setattr(cli, "exact_sweep", perturbed)
    wl = workloads.Verify(1, workloads.TINY)
    reasons = run.check_all(wl, run.closed_loop(wl, [next(wl.queries())]))
    assert len(reasons) == 1
    assert "table digest mismatch for n=5" in reasons[0]
    assert "n=4" not in reasons[0]

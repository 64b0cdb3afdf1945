"""The multi-pair bench regression gate (tools/check_bench_regression.py):
per-pair thresholds from the JSON config, loud failure on missing pairs,
and GitHub Actions ::error annotations naming the regressing pair."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[2] / "tools" / "check_bench_regression.py"


def run_of(num: float, den: float) -> dict:
    return {
        "benchmarks": {
            "bench_fast": {"mean": num},
            "bench_slow": {"mean": den},
        }
    }


PAIR = {
    "name": "fast-vs-slow",
    "numerator": "bench_fast",
    "denominator": "bench_slow",
    "max_regression": 0.25,
}


def run_gate(tmp_path, runs, pairs=None, extra_env=None):
    bench = tmp_path / "bench.json"
    bench.write_text(json.dumps({"runs": runs}))
    config = tmp_path / "gates.json"
    config.write_text(json.dumps({"pairs": pairs if pairs is not None else [PAIR]}))
    env = dict(
        os.environ,
        REPRO_BENCH_JSON=str(bench),
        REPRO_BENCH_GATES=str(config),
    )
    env.pop("BENCH_REGRESSION_THRESHOLD", None)
    env.update(extra_env or {})
    return subprocess.run(
        [sys.executable, str(TOOL)], capture_output=True, text=True, env=env
    )


class TestMultiPairGate:
    def test_steady_ratio_passes(self, tmp_path):
        runs = [run_of(0.5, 1.0)] * 3 + [run_of(0.52, 1.0)]
        proc = run_gate(tmp_path, runs)
        assert proc.returncode == 0
        assert "-> OK" in proc.stdout

    def test_regression_fails_with_named_annotation(self, tmp_path):
        runs = [run_of(0.5, 1.0)] * 3 + [run_of(0.9, 1.0)]  # +80%
        proc = run_gate(tmp_path, runs)
        assert proc.returncode == 1
        assert "-> REGRESSION" in proc.stdout
        assert "::error title=bench regression: fast-vs-slow::" in proc.stdout

    def test_missing_pair_in_latest_run_fails_loudly(self, tmp_path):
        runs = [run_of(0.5, 1.0), {"benchmarks": {}}]
        proc = run_gate(tmp_path, runs)
        assert proc.returncode == 1
        assert "::error title=bench pair missing: fast-vs-slow::" in proc.stdout

    def test_first_run_without_baseline_skips(self, tmp_path):
        proc = run_gate(tmp_path, [run_of(0.5, 1.0)])
        assert proc.returncode == 0
        assert "no committed baseline" in proc.stdout

    def test_per_pair_thresholds_apply_independently(self, tmp_path):
        loose = dict(PAIR, name="loose", max_regression=1.0)
        runs = [run_of(0.5, 1.0)] * 3 + [run_of(0.8, 1.0)]  # +60%
        proc = run_gate(tmp_path, runs, pairs=[PAIR, loose])
        assert proc.returncode == 1  # strict pair fails...
        assert "bench-check[fast-vs-slow]" in proc.stdout
        assert "::error title=bench regression: fast-vs-slow" in proc.stdout
        # ...while the loose pair passes on the same numbers
        assert "bench-check[loose]: ratio 0.800" in proc.stdout
        assert "::error title=bench regression: loose" not in proc.stdout
        assert "1 failed" in proc.stdout

    def test_env_threshold_overrides_all_pairs(self, tmp_path):
        runs = [run_of(0.5, 1.0)] * 3 + [run_of(0.8, 1.0)]
        proc = run_gate(
            tmp_path, runs, extra_env={"BENCH_REGRESSION_THRESHOLD": "2.0"}
        )
        assert proc.returncode == 0

    def test_empty_or_missing_config_fails(self, tmp_path):
        proc = run_gate(tmp_path, [run_of(0.5, 1.0)] * 2, pairs=[])
        assert proc.returncode == 1
        assert "declares no pairs" in proc.stdout

    def test_absolute_cap_fails_even_on_steady_trajectory(self, tmp_path):
        capped = dict(PAIR, name="capped", max_ratio=0.6)
        runs = [run_of(0.7, 1.0)] * 3 + [run_of(0.7, 1.0)]  # steady but > cap
        proc = run_gate(tmp_path, runs, pairs=[capped])
        assert proc.returncode == 1
        assert "absolute cap" in proc.stdout
        assert "::error title=bench regression: capped::" in proc.stdout

    def test_absolute_cap_needs_no_baseline(self, tmp_path):
        capped = dict(PAIR, name="capped", max_ratio=0.6)
        proc = run_gate(tmp_path, [run_of(0.5, 1.0)], pairs=[capped])
        assert proc.returncode == 0
        assert "no trajectory baseline yet" in proc.stdout
        assert "-> OK" in proc.stdout

    def test_committed_config_gates_the_committed_pairs(self):
        committed = json.loads(
            (TOOL.parent / "bench_gates.json").read_text()
        )["pairs"]
        names = {pair["name"] for pair in committed}
        assert names == {
            "overlapped-pipeline",
            "pack-routed-farm-map",
            "cpu-farm-process",
            "pack-marshal-process",
            "fault-retry-farm",
            "trivial-submit",
            "five-aspect-stack",
            "nonseparable-mixed-compile",
            "pack8-cache-partial-hit",
            "replicated-read-store",
            "tenancy-p99-overload",
            "tenancy-shed-rate",
        }
        for pair in committed:
            assert 0 < pair["max_regression"] <= 1.0
        # the landed-optimisation pairs are locked in absolutely
        caps = {p["name"]: p.get("max_ratio") for p in committed}
        assert caps["trivial-submit"] == 17.0
        assert caps["five-aspect-stack"] == 60.0
        assert caps["nonseparable-mixed-compile"] == 0.67
        assert caps["pack8-cache-partial-hit"] == 1.15
        assert caps["replicated-read-store"] == 0.1

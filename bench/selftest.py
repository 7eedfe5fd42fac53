"""Self-test of the benchmark at tiny sizes; takes seconds.

    python3 bench/selftest.py

Runs every workload of BENCHMARK.json plain and traced with --scale tiny
and the default seed, whose output digests are stored, and requires every
metric that BENCHMARK.json names, with its unit, and no failed op.  Then
checks that the benchmark refuses to run, printing no result, in a copy
that holds only BENCHMARK.json and the benchmark's own directories.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for workload in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            what = f"{workload['name']} trace {trace}"
            proc = _run(ROOT, "--workload", workload["name"], "--seed", "0",
                        "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny")
            if proc.returncode != 0:
                errors.append(f"{what}: exit {proc.returncode}: {proc.stderr.strip()}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                errors.append(f"{what}: metrics {got} != {want}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                errors.append(f"{what}: {result['failed']}/{result['attempted']} ops failed\n"
                              + proc.stdout)
            print(f"{what}: {result['attempted']} ops, {result['failed']} failed")

    (ROOT / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, Path(bare) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(Path(bare), "--workload", spec["workloads"][0]["name"], "--seed", "0",
                    "--seconds", "0.5", "--trace", "0", "--scale", "tiny")
        if proc.returncode == 0 or proc.stdout.strip():
            errors.append("ran without the misact sources")
        print(f"without sources: exit {proc.returncode}")

    for error in errors:
        print("FAIL " + error)
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

"""misact benchmark: times CLI operations end to end, or layer by layer.

    python3 bench/run.py --workload {oracle,wide,search} --seed N --seconds S --trace {0,1}

Run it from anywhere inside a source checkout; it imports misact from the
checkout's src/ directory.  Each run spawns one fresh single-threaded
worker process (worker.py) for the workload, plus a few processes that
only import misact.cli, to time set-up.  It prints each metric with its
unit and a provenance line, and last a JSON line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1).  The full record, with every op's input properties and raw
times, goes to .bench_out/ at the root of the checkout; see README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import reference
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
OUT_DIR = ROOT / ".bench_out"

SETUP_PROBES = 16  # set-up is the median over these spawns and the worker's own
TIME_LIMIT = 170.0  # seconds for the whole run

UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNIT = {"_s": "s", "_bytes": "B", "_ratio": "ratio"}


def _unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return next((u for suffix, u in PER_LAYER_UNIT.items() if name.endswith(suffix)), "count")


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _deadline_left(start: float) -> float:
    left = TIME_LIMIT - (_now() - start)
    if left <= 0:
        raise TimeoutError("benchmark ran out of time")
    return left


def _git_commit() -> str:
    """HEAD of the checkout, read from .git directly; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _spawn(cmd: list[str], start: float, **kwargs):
    """Run cmd to completion; returns (the time it was spawned, its result)."""
    t0 = _now()
    return t0, subprocess.run(cmd, timeout=_deadline_left(start), **kwargs)


def _setup_sample(spawned: float, probe: dict) -> tuple[float, float]:
    """(set-up time in reference seconds, in seconds) of one spawn; the
    process timed the reference computation right after its import."""
    took = probe["imported"] - spawned
    return took * reference.UNIT_S / probe["unit_s"], took


def _terminate(signum, frame):
    # Raising here lets subprocess.run kill and reap the running child, and
    # lets the temporary directory clean up, before this process exits.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0,
                    help="input seed; 0 is the default seed, whose output digests are stored")
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny inputs, for the self-test")
    ap.add_argument("--record-digests", action="store_true",
                    help="store this run's output digests as the default seed's reference")
    args = ap.parse_args(argv)
    if args.record_digests and args.seed != 0:
        ap.error("--record-digests records the default seed 0 only")
    start = _now()

    if not (ROOT / "src" / "misact" / "cli.py").is_file():
        print(f"error: no misact sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}"

    # The first spawn also compiles misact's bytecode; it is not a sample.
    # Half the samples come before the worker and half after it, because
    # start-up time drifts with the machine's load over tens of seconds.
    probe = [sys.executable, str(WORKER), "--probe"]
    samples = []

    def probe_setup(count):
        for _ in range(count):
            t0, proc = _spawn(probe, start, capture_output=True, text=True, check=True)
            samples.append(_setup_sample(t0, json.loads(proc.stdout)))

    _spawn(probe, start, capture_output=True, check=True)
    probe_setup(SETUP_PROBES // 2)

    with tempfile.TemporaryDirectory(dir=OUT_DIR) as work:
        work = Path(work)
        result_file = work / "result.json"
        cmd = [sys.executable, str(WORKER), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale, "--workdir", str(work),
               "--result", str(result_file), "--spans", str(OUT_DIR / f"spans-{tag}.json")]
        if args.record_digests:
            cmd.append("--record-digests")
        t0, proc = _spawn(cmd, start)
        if proc.returncode != 0:
            print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(result_file.read_text())
    samples.append(_setup_sample(t0, {"imported": result["imported"],
                                      "unit_s": result["import_unit_s"]}))
    probe_setup(SETUP_PROBES - SETUP_PROBES // 2)

    metrics = dict(result["metrics"])
    if not args.trace:
        metrics = {"setup_s": statistics.median(s for s, _ in samples), **metrics}
    attempted, failed = result["attempted"], result["failed"]
    provenance = {
        "workload": args.workload, "scale": args.scale, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "cpu": _cpu_model(), "commit": _git_commit(),
    }
    record = {"provenance": provenance, "metrics": metrics, "setup_samples_s": samples,
              **{k: v for k, v in result.items() if k != "metrics"}}
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    ops = len(result["ops"])
    print(f"{args.workload} ({args.scale}), seed {args.seed}: {attempted} ops "
          f"({ops} per pass, {len(result['passes'])} passes)")
    for name, value in metrics.items():
        print(f"  {name:<30} {value:>14.6g} {_unit(name)}")
    if not args.trace:
        raw = {"setup_s": statistics.median(t for _, t in samples), **result["raw_metrics"]}
        for name, value in raw.items():
            print(f"  {name + ' (seconds)':<30} {value:>14.6g} {_unit(name)}")
    print(f"  {'fail_ratio':<30} {failed / attempted:>14.6g} ratio ({failed}/{attempted})")
    for problem in result["problems"]:
        print(f"  FAIL {problem}")
    print("provenance " + json.dumps(provenance))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

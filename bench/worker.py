"""One workload run in a fresh, single-threaded Python process.

Started by run.py, which times the spawn.  The process imports misact.cli
first and reports when that finished (the end of setup), then generates
the inputs, runs one unmeasured pass over the workload's fixed batch that
checks every output, then measured passes for --seconds of wall time,
and writes its measurements to --result as JSON.  Every measured op sits
between two timings of the reference computation (reference.py), which
turn its time into reference seconds.  With --trace 1 every measured op
also runs a second time with spans recorded.

With --probe it only imports misact.cli, then times the reference
computation, and prints both as JSON; the import time is on the
CLOCK_MONOTONIC clock that every process on the machine shares.
"""

import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import misact.cli  # noqa: E402  (setup ends when this import is done)

IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 0
DIGESTS = BENCH / "digests.json"
REF_SHARE = 0.1  # reference time before and after each op, as a share of the op's time
PROBE_UNITS = 40  # reference units a --probe process times after its import
MIN_PASSES = 3


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--workdir", type=Path)
    ap.add_argument("--result", type=Path)
    ap.add_argument("--spans", type=Path)
    ap.add_argument("--record-digests", action="store_true")
    return ap.parse_args(argv)


class Run:
    """The output digests seen so far, and what went wrong."""

    def __init__(self, op_count, stored_digests):
        self.stored = stored_digests
        self.digests = [None] * op_count
        self.bytes = [0] * op_count
        self.failed = [False] * op_count  # an op that failed once fails on every pass
        self.problems = []
        self.attempted = 0
        self.failures = 0

    def run_op(self, op, tracer=None) -> float:
        """Run and check one op; returns its time."""
        op.out.unlink(missing_ok=True)  # a stale output must not pass for a new one
        gc.collect()  # each op starts without the previous op's garbage
        t0 = perf_counter()
        try:
            if tracer is None:
                rc = misact.cli.run(op.argv)
            else:
                rc = tracer.run_op(op.id, misact.cli.run, op.argv)
            crash = None
        except Exception as exc:  # the CLI process would die with exit 1
            crash = "raised " + traceback.format_exception_only(exc)[-1].strip()
        took = perf_counter() - t0
        if tracer is not None:
            tracer.count_calls()
        self.attempted += 1
        problems = [crash] if crash else self._check(op, rc)
        if problems:
            self.failed[op.id] = True
            self.problems += [f"op {op.id} ({op.command}): {p}" for p in problems]
        self.failures += self.failed[op.id]
        return took

    def _check(self, op, rc):
        if rc != op.expect_rc:
            return [f"exit code {rc}, expected {op.expect_rc}"]
        try:
            data = op.out.read_bytes()
        except OSError as exc:
            return [f"no output: {exc}"]
        digest = hashlib.sha256(data).hexdigest()
        if self.digests[op.id] is not None:
            # Measured runs, traced ones included, must reproduce the bytes
            # that the check pass produced and checked.
            return [] if digest == self.digests[op.id] else ["output bytes changed between passes"]
        self.digests[op.id] = digest
        self.bytes[op.id] = len(data)
        try:
            problems = op.check(data.decode("utf-8"))
        except (ValueError, LookupError, TypeError, AttributeError) as exc:
            problems = [f"malformed output: {exc!r}"]
        if self.stored is not None and digest != self.stored[op.id]:
            problems.append("output differs from the stored digest for the default seed")
        return problems


def _op_times(passes, key):
    """Each op's median time over the passes."""
    return [statistics.median(times) for times in zip(*(p[key] for p in passes))]


def _timed(run, stick, op, units, tracer=None):
    """Run one op between two timings of `units` reference units; returns
    (when it started, its time in seconds)."""
    stick.measure(units)
    start = perf_counter()
    took = run.run_op(op, tracer)
    stick.measure(units)
    return start, took


def _per_layer(tracer, traced_ops, out_bytes, overhead_s):
    """Per-op means of each layer's self time (in seconds) and counts over
    the traced passes, the mean output size, and the tracing overhead per
    op (traced minus plain op time, in reference seconds)."""
    self_s = tracer.self_times()
    c = tracer.counts
    per = 1.0 / traced_ops

    def t(name):
        return self_s.get(name, 0.0) * per

    return {
        "cli.self_s": t(spans.OP_SPAN),
        "io.parse_s": t("io.parse"),
        "io.report_s": t("io.report"),
        "io.out_bytes": out_bytes,
        "graph.enum_s": t("graph.enum"),
        "graph.mis_count": c["graph.mis_count"] * per,
        "activities.kernel_s": t("activities.cover"),
        "activities.verdict_s": t("activities.verdict"),
        "activities.scan_cells": c["activities.scan_cells"] * per,
        "activities.scan_useful_ratio": (c["activities.scan_useful"] / c["activities.scan_cells"]
                                         if c["activities.scan_cells"] else 0.0),
        "activities.search_s": t("activities.search"),
        "activities.search_trials": c["activities.search_trials"] * per,
        "activities.polynomial_s": t("activities.polynomial"),
        "complete.sets_s": t("complete.sets"),
        "pruned.instance_s": t("pruned.instance"),
        "pruned.partition_s": t("pruned.partition"),
        "verify.all_s": t("verify.all"),
        "verify.subsets": c["verify.subsets"] * per,
        "trace.overhead_s": overhead_s,
    }


def main(argv=None):
    args = _parse(argv)
    if args.probe:
        print(json.dumps({"imported": IMPORTED,
                          "unit_s": reference.time_units(PROBE_UNITS) / PROBE_UNITS}))
        return 0
    import_unit_s = reference.time_units(PROBE_UNITS) / PROBE_UNITS
    os.chdir(args.workdir)
    ops = workloads.build(args.workload, args.scale, args.seed)
    key = f"{args.scale}/{args.workload}"
    stored = None
    if args.seed == DEFAULT_SEED and not args.record_digests:
        stored = json.loads(DIGESTS.read_text()).get(key)
    run = Run(len(ops), stored)
    tracer = spans.Tracer() if args.trace else None

    # An unmeasured first pass checks every output in full; it also lets
    # lazy set-up finish, and sizes each op's reference timings.  Then whole
    # measured passes, so every op of the batch weighs the same, for about
    # --seconds of wall time.  In a traced run each op runs plain and
    # traced, back to back, so that both see the same state of the machine;
    # which goes first alternates.
    units = [max(1, round(REF_SHARE * run.run_op(op) / import_unit_s)) for op in ops]
    stick = reference.Yardstick()
    passes = []
    start = perf_counter()
    while len(passes) < MIN_PASSES or (
            perf_counter() - start) * (len(passes) + 1) / len(passes) <= args.seconds:
        p = {"plain": [], "traced": []}
        for i, (op, k) in enumerate(zip(ops, units)):
            order = ["plain"] if tracer is None else ["plain", "traced"]
            if (len(passes) + i) % 2:  # neither gains from following the other
                order.reverse()
            for kind in order:
                if kind == "plain":
                    p[kind].append(_timed(run, stick, op, k))
                else:
                    with spans.installed(tracer):
                        p[kind].append(_timed(run, stick, op, k, tracer))
        passes.append(p)
    for p in passes:
        for kind in ("plain", "traced"):
            timed = p.pop(kind)
            p[kind + "_op_seconds"] = [took for _, took in timed]
            p[kind + "_op_ref_seconds"] = [stick.ref_seconds(at, took) for at, took in timed]

    result = {
        "imported": IMPORTED,
        "import_unit_s": import_unit_s,
        "reference_units": units,
        "attempted": run.attempted,
        "failed": run.failures,
        "problems": run.problems[:20],
        "digests_checked": stored is not None,
        "passes": passes,
        "ops": [{"id": op.id, "command": op.command, "props": op.props,
                 "expect_rc": op.expect_rc, "bytes": run.bytes[op.id],
                 "digest": run.digests[op.id]} for op in ops],
    }
    if tracer is None:
        def ops_per_s_and_p50(key):
            return (len(ops) / sum(_op_times(passes, key)),
                    statistics.median(t for p in passes for t in p[key]))

        ops_per_s, op_p50_s = ops_per_s_and_p50("plain_op_ref_seconds")
        result["metrics"] = {
            "ops_per_s": ops_per_s,
            "op_p50_s": op_p50_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        result["raw_metrics"] = dict(zip(("ops_per_s", "op_p50_s"),
                                         ops_per_s_and_p50("plain_op_seconds")))
    else:
        overhead = (sum(_op_times(passes, "traced_op_ref_seconds"))
                    - sum(_op_times(passes, "plain_op_ref_seconds")))
        result["metrics"] = _per_layer(tracer, len(passes) * len(ops),
                                       sum(run.bytes) / len(ops), overhead / len(ops))
        args.spans.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "op"], "spans": tracer.spans}))
    args.result.write_text(json.dumps(result))

    if args.record_digests and args.seed == DEFAULT_SEED and not run.problems:
        table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        table[key] = run.digests
        DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

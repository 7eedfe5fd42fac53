"""The benchmark's workloads: fixed batches of misact CLI operations.

An op is one call of `misact.cli.run(argv)` with `--out` pointing at a
file.  A workload is a list of slots, each a command with the parameters
of its input; the seed draws one input per slot.  Where the cost of an op
follows an input property more than n, a slot also fixes a band for that
property and the generator draws until the sample falls inside it: the
number k of maximal independent sets on `wide` and `search`, and the excess
multiplicity (summed interval sizes over 2^n, the work of the per-subset
scan) for `partition-check` on `oracle`.  The seed then chooses which
graphs run while the band fixes how much work they are, so runs with
different seeds measure about the same amount of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import check
import gen

WORKLOADS = ("oracle", "wide", "search")


@dataclass(frozen=True)
class Slot:
    command: str
    n: int
    p: float  # edge probability; for `pruned`, the extra host-edge probability
    band: tuple[str, float, float] | None = None  # (input property, low, high)
    budget: int = 0  # search-labelling trials


def _slots(workload: str, scale: str) -> list[Slot]:
    full = scale == "full"
    if workload == "oracle":
        # The 2^n subset scans do the work: the histogram inside
        # partition_verdict, and the locate loop inside verify_all.
        if not full:
            return [Slot("partition-check", 10, 0.3), Slot("verify", 9, 0.3)]
        # Single op times jitter by a tenth here, so op_p50_s is the
        # median of many samples: the median op, a partition-check at n=21,
        # is seven of the batch's eleven ops.
        excess = ("excess", 1.85, 2.0)
        return ([Slot("partition-check", n, 0.3, excess) for n in (20, 21, 21, 21, 22, 21, 21, 21, 21)]
                + [Slot("verify", n, 0.3) for n in (17, 18)])
    if workload == "wide":
        # Every n is above misact's oracle bound of 25, so no 2^n scan runs:
        # the pivot enumerator, the activity kernel, the full pairwise scan
        # on tree covers (partitions) and JSON shaping of multi-megabyte
        # reports do the work.  One op per slot keeps a pass short, so each
        # op gets many passes.
        if not full:
            return [Slot("cover", 27, 0.5), Slot("polynomial", 27, 0.5),
                    Slot("complete-sets", 27, 0.5), Slot("pruned", 26, 0.0)]
        return [
            Slot("cover", 44, 0.3, ("k", 2550, 2750)),
            Slot("polynomial", 50, 0.3, ("k", 5100, 5450)),
            Slot("complete-sets", 42, 0.3, ("k", 1950, 2100)),
            Slot("pruned", 32, 0.0, ("k", 1350, 1450)),
            Slot("cover", 50, 0.3, ("k", 5100, 5450)),
            Slot("pruned", 30, 0.05, ("k", 520, 600)),
        ]
    if workload == "search":
        # Thousands of tiny relabel -> cover -> verdict trials through the
        # growth enumerator: per-call overheads dominate.  Each trial's
        # cover costs about k, so k is banded around its median for each n.
        if not full:
            return [Slot("search-labelling", n, 0.3, budget=20) for n in (9, 10, 11)]
        bands = {9: ("k", 8, 9), 10: ("k", 10, 11), 11: ("k", 12, 14)}
        return [Slot("search-labelling", n, 0.3, bands[n], budget=200)
                for n in (9, 10, 11) * 8]
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class Op:
    """One CLI call: its argv (output path included), the exit code it must
    return, the properties of its input and the check of its output."""

    id: int
    command: str
    argv: list[str]
    out: Path
    expect_rc: int
    props: dict
    check: Callable[[str], list[str]] = field(repr=False)


def _draw(slot: Slot, rng: random.Random) -> tuple[list[int], list[int] | None, check.Reference]:
    for _ in range(500):
        if slot.command == "pruned":
            tree, adj = gen.pruned_host(slot.n, slot.p, rng)
        else:
            tree, adj = None, gen.gnp(slot.n, slot.p, rng)
        ref = check.Reference(adj)
        if slot.band is None or slot.band[1] <= ref.props()[slot.band[0]] <= slot.band[2]:
            return adj, tree, ref
    raise RuntimeError(f"no input for {slot} within 500 draws")


def build(workload: str, scale: str, seed: int) -> list[Op]:
    """Generate the workload's inputs into the current directory and
    describe its ops.  File names are relative, because `verify` writes
    its input path into its output, which must not depend on where the
    run happens."""
    rng = random.Random(f"{workload}/{seed}")
    ops = []
    for i, slot in enumerate(_slots(workload, scale)):
        adj, tree, ref = _draw(slot, rng)
        graph = Path(f"in-{i}.txt")
        graph.write_text(gen.edge_list_text(adj))
        out = Path(f"out-{i}.json")
        argv = [slot.command, str(graph)]
        expect_rc = 0
        if slot.command == "pruned":
            tree_file = Path(f"tree-{i}.txt")
            tree_file.write_text(gen.edge_list_text(tree))
            argv = ["pruned", "--tree", str(tree_file), "--host", str(graph), "--root", "1"]
            expect_rc = 0 if ref.is_partition else 2  # criterion 13's known class
            verify_out = partial(check.check_pruned, ref, tree)
        elif slot.command == "search-labelling":
            search_seed = rng.randrange(1 << 30)
            argv += ["--mode", "random", "--budget", str(slot.budget), "--seed", str(search_seed)]
            verify_out = partial(check.check_search, ref, slot.budget, search_seed)
        else:
            verify_out = partial(getattr(check, "check_" + slot.command.replace("-", "_")), ref)
        ops.append(Op(i, slot.command, argv + ["--out", str(out)], out, expect_rc,
                      ref.props(), verify_out))
    return ops

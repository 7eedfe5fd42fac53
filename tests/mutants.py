"""Recorded mutants of the library, and a runner that checks the tests kill each one.

Run from anywhere, with pytest installed:

    python tests/mutants.py            # every row
    python tests/mutants.py ID ...     # the rows named

Each row changes one text in one file under src/misact, in a copy of the
repository's src, tests and pyproject.toml in a temporary directory.  The
copy needs pyproject.toml: its `pythonpath = ["src", "tests"]` puts the
copy's src ahead of any other misact, so the mutant and not the checkout is
imported (the `import-fails` control shows it).  The runner then collects
the row's test files there, and runs `pytest -x -q` on them.

A mutant counts as killed only when pytest exits 1: some test failed or
raised.  A row marked equivalent, with the reason, must pass (exit 0).  Any
other exit (2 interrupted, as on a collection error, 3 internal error, 4
usage error, 5 no tests) is a fault of the row or of the harness, as is an
old text that does not occur exactly once.  The runner exits 1 when some
row survives or faults, and 0 when every row ends as recorded.

The file's name does not match pytest's `test_*.py`, so the suite does not
collect it.  A row is edited or removed only with a line in CHANGES.md
saying why.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
KERNEL_TESTS = (
    "tests/test_activity_planes.py",
    "tests/test_trial_kernel.py",
    "tests/test_rank_kernels.py",
    "tests/test_word_paths.py",
    "tests/test_search_trials.py",
)


class Row(NamedTuple):
    id: str
    path: str  # under src/misact
    old: str  # must occur exactly once in the file
    new: str
    tests: tuple[str, ...]
    equivalent: str = ""  # "equivalent because ...": the row must pass
    exit: int | None = None  # a control's own pytest exit, in place of 1 (or 0 if equivalent)


CONTROLS = [
    Row("no-op", "activities.py", "_INDEX_MIN = 64", "_INDEX_MIN = 64", KERNEL_TESTS,
        equivalent="equivalent because it changes nothing"),
    Row("import-fails", "activities.py", "_INDEX_MIN = 64",
        "raise ImportError('the mutated copy is the one imported')", KERNEL_TESTS, exit=2),
]

ROWS = [
    # The activity kernel, _end_planes.
    Row("low-every-neighbour", "activities.py",
        "        low[u] |= aw & ~p\n"
        "        two[w] |= one[w] & au\n"
        "        one[w] |= au\n"
        "        low[w] |= au & p\n",
        "        low[u] |= aw\n"
        "        two[w] |= one[w] & au\n"
        "        one[w] |= au\n"
        "        low[w] |= au\n",
        KERNEL_TESTS),
    Row("edge-plane-not-repeated", "activities.py", "        p *= repeat\n", "", KERNEL_TESTS),
    Row("edge-plane-over-k-1-sets", "activities.py",
        "repeat = ((1 << len(sets)) - 1) // ((1 << width) - 1)",
        "repeat = ((1 << len(sets) - width) - 1) // ((1 << width) - 1)", KERNEL_TESTS),
    Row("single-from-one", "activities.py",
        "single = [lo & ~s & ~t for lo, s, t in zip(low, a, two)]",
        "single = [o & ~s & ~t for o, s, t in zip(one, a, two)]", KERNEL_TESTS),
    Row("passive-from-own-single", "activities.py",
        "        passive[u] |= single[w] & a[u]\n"
        "        passive[w] |= single[u] & a[w]\n",
        "        passive[u] |= single[u] & a[u]\n"
        "        passive[w] |= single[w] & a[w]\n",
        KERNEL_TESTS),
    Row("upper-without-set", "activities.py",
        "return a[1:], passive[1:], list(map(or_, a[1:], low[1:]))",
        "return a[1:], passive[1:], low[1:]", KERNEL_TESTS),
    Row("passive-only-below", "activities.py",
        "    for u, w, _ in edges:  # in the columns of single[w], u is w's one neighbour in the set\n"
        "        passive[u] |= single[w] & a[u]\n"
        "        passive[w] |= single[u] & a[w]\n",
        "    for u, w, p in edges:\n"
        "        p *= repeat\n"
        "        passive[u] |= single[w] & a[u] & p\n"
        "        passive[w] |= single[u] & a[w] & ~p\n",
        KERNEL_TESTS,
        equivalent="equivalent because single[w] holds only columns where w's one"
        " neighbour in the set lies below w, so the orientation test is always true"),
    # The search batch's edge planes and keys, _trial_batch.
    Row("edge-plane-reversed", "activities.py",
        "diff = ((lab[w] | raised) - lab[u])", "diff = ((lab[u] | raised) - lab[w])",
        ("tests/test_trial_kernel.py",)),
    Row("constant-orientation-key", "activities.py",
        "return _columns([p for _, _, p in edges], width), ends", "return [0] * width, ends",
        ("tests/test_trial_kernel.py",)),
    Row("counts-kept-past-bound", "search.py",
        "if len(counts) < _ORIENTATIONS_KEPT:", "if True:", ("tests/test_search_trials.py",)),
    # The verdict's pair walk and counter.
    Row("partners-span-loop-dropped", "activities.py",
        "    for v in _bits(span & ~hi):\n        cand &= lower_lacks[v - 1]\n", "",
        ("tests/test_word_paths.py", "tests/test_overlap.py")),
    Row("allow0-allow1-swapped", "activities.py",
        "if off := held & allow0[b]:", "if off := held & allow1[b]:",
        ("tests/test_shannon_branches.py", "tests/test_union_count.py")),
    Row("union-child-dropped", "activities.py",
        "                covered += size\n                stack.append((free, rest, False, on))\n",
        "                covered += size\n",
        ("tests/test_shannon_branches.py", "tests/test_union_count.py")),
    Row("least-from-first-cube", "activities.py",
        "                        least = on | lo & free\n",
        "                        least = on | los[j] & free\n",
        ("tests/test_shannon_branches.py", "tests/test_union_count.py")),
    # The canonical order of maximal independent sets.
    Row("canonical-order-ascending", "graph.py",
        '.translate(_REV), reverse=True)', ".translate(_REV))", ("tests/test_graph_core.py",)),
    # verify's location check.
    Row("held-skip-low-half-dropped", "verify.py",
        "if lo_high & ~base or base & out_high:", "if base & out_high:",
        ("tests/test_locate_planes.py", "tests/test_verify.py")),
    Row("held-skip-high-half-dropped", "verify.py",
        "if lo_high & ~base or base & out_high:", "if lo_high & ~base:",
        ("tests/test_locate_planes.py", "tests/test_verify.py")),
]


def run(row: Row) -> tuple[bool, str]:
    """(whether the row ended as recorded, what happened) for one row, in a fresh copy."""
    with tempfile.TemporaryDirectory(prefix="misact-mutant-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
        target = copy / "src" / "misact" / row.path
        text = target.read_text()
        if (found := text.count(row.old)) != 1:
            return False, f"fault: the old text occurs {found} times in {row.path}"
        target.write_text(text.replace(row.old, row.new))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        pytest = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
        # with -x over several files pytest ends a collection error in exit 1, as it does a
        # failed test, so the files are collected first: a collection error there exits 2
        for flag in ("--collect-only", "-x"):
            done = subprocess.run([*pytest, flag, *row.tests], cwd=copy, env=env,
                                  stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
            if done.returncode:
                break
    want = row.exit if row.exit is not None else 0 if row.equivalent else 1
    last = done.stdout.strip().splitlines()[-1:] or [""]
    if done.returncode == want:
        outcome = {0: "passed", 1: "killed", 2: "collection error"}[want]
        return True, f"{outcome} (exit {done.returncode}): {last[0]}"
    if done.returncode == 0:
        return False, f"SURVIVED: {last[0]}"
    return False, f"fault: pytest exit {done.returncode}, expected {want}: {last[0]}"


def main(ids: list[str]) -> int:
    rows = CONTROLS + ROWS
    unknown = set(ids) - {row.id for row in rows}
    if unknown:
        print(f"unknown rows: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    failed = 0
    for row in rows:
        if ids and row.id not in ids:
            continue
        start = time.perf_counter()
        ok, what = run(row)
        failed += not ok
        print(f"{row.id:30s} {time.perf_counter() - start:6.1f} s  {what}", flush=True)
    print(f"{failed} of the rows run did not end as recorded" if failed else "every row ended as recorded")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

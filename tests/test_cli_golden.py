"""Golden CLI outputs: exact stdout bytes and exit code of every subcommand.

Each case runs `misact.cli.run(argv)` from a directory holding the sample
graphs as edge-list files, so file names in the output (the `target` of
`verify FILE`) are stable.  The expected outputs live in
tests/golden_cli.json.  A refactor must leave every byte of them unchanged;
when an output is meant to change, rewrite the file with

    PYTHONPATH=src:tests python tests/test_cli_golden.py

and review the diff.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

import sample_graphs
from misact import emit_edge_list
from misact.cli import run

GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"

FIXTURES = [
    "tailed_triangle",
    "dense_five_overlapping",
    "dense_five_partition",
    "wheel_five",
    "hub_five",
    "seven_edge_five",
    "ten_vertex_with_complete_a",
    "ten_vertex_with_complete_b",
    "layered_tree",
    "layered_host",
    "sparse_layered_tree",
    "sparse_layered_host",
]

FAMILY_ARGS = [
    ["kn", "--n", "6"],
    ["join", "--n", "3", "--m", "2"],
    ["pendant", "--sizes", "1,1,1"],
    ["pendant", "--sizes", "1,0,1"],
    ["lex", "--n", "5", "--m", "6"],
    ["colex", "--n", "6", "--m", "7"],
]

CASES = (
    [
        [cmd, f"{name}.txt"]
        for name in FIXTURES
        for cmd in ("cover", "partition-check", "complete-sets", "polynomial", "verify")
    ]
    + [
        ["search-labelling", "dense_five_overlapping.txt"],
        ["search-labelling", "tailed_triangle.txt", "--mode", "exhaustive"],
        ["search-labelling", "wheel_five.txt"],
        ["search-labelling", "dense_five_overlapping.txt",
         "--mode", "random", "--budget", "10", "--seed", "3"],
        ["search-labelling", "ten_vertex_with_complete_a.txt",
         "--mode", "random", "--budget", "12", "--seed", "5"],
        ["pruned", "--tree", "layered_tree.txt", "--host", "layered_host.txt"],
        ["pruned", "--tree", "layered_tree.txt"],
        ["pruned", "--tree", "layered_tree.txt", "--host", "layered_host.txt",
         "--leaf-mode", "host"],
        ["pruned", "--tree", "sparse_layered_tree.txt", "--host", "sparse_layered_host.txt"],
    ]
    + [[cmd, *fam] for cmd in ("generate", "predict") for fam in FAMILY_ARGS]
    + [["verify", "--family", *fam] for fam in FAMILY_ARGS]
)


def case_id(argv: list[str]) -> str:
    return " ".join(argv)


def write_fixtures(directory: Path) -> None:
    for name in FIXTURES:
        graph = getattr(sample_graphs, name)()
        (directory / f"{name}.txt").write_text(emit_edge_list(graph))


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("golden")
    write_fixtures(directory)
    return directory


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_lists_exactly_the_cases(golden):
    assert sorted(golden) == sorted(case_id(a) for a in CASES)


@pytest.mark.parametrize("argv", CASES, ids=case_id)
def test_output_is_byte_identical(argv, fixture_dir, golden, monkeypatch, capsys):
    monkeypatch.chdir(fixture_dir)
    expected = golden[case_id(argv)]
    assert run(argv) == expected["exit"]
    assert capsys.readouterr().out == expected["stdout"]


def record() -> None:
    """Run every case and rewrite the golden file."""
    results = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        write_fixtures(Path(tmp))
        os.chdir(tmp)
        try:
            for argv in CASES:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = run(argv)
                results[case_id(argv)] = {"exit": code, "stdout": buf.getvalue()}
        finally:
            os.chdir(cwd)
    GOLDEN.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(results)} cases in {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    record()

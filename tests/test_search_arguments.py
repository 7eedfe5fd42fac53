"""Every argument error of the labelling search, by its exact text, and which
one wins when two apply."""

import re

import pytest

from misact import Graph, emit_edge_list, search_labelling
from misact.cli import USAGE_ERROR, run

POSITIVE = "budget must be positive"
MODE = "mode must be 'exhaustive' or 'random'"
RANDOM_ONLY = "budget and seed apply to random mode only"
NO_BUDGET = "random mode needs a trial budget"
TOO_LARGE = "labelling search needs exact repeat counts; graph too large"
REFUSED = "exhaustive search over 10! labellings refused; bound is 9!"


@pytest.mark.parametrize(
    "n, args, message",
    [
        (5, {"budget": 0, "mode": "random"}, POSITIVE),
        (5, {"budget": -1, "mode": "random"}, POSITIVE),
        (26, {"budget": 0, "mode": "random"}, POSITIVE),
        (5, {"budget": 0, "mode": "bogus"}, POSITIVE),
        (5, {"budget": 0}, POSITIVE),  # exhaustive: before its budget-and-seed error
        (5, {"mode": "bogus"}, MODE),
        (26, {"mode": "bogus", "seed": 1}, MODE),
        (5, {"mode": "Random"}, MODE),
        (5, {"budget": 2}, RANDOM_ONLY),
        (5, {"seed": 9}, RANDOM_ONLY),
        (5, {"budget": 2, "seed": 9}, RANDOM_ONLY),
        (26, {"budget": 2}, RANDOM_ONLY),
        (26, {"seed": 9}, RANDOM_ONLY),
        (10, {"budget": 2, "seed": 9}, RANDOM_ONLY),
        (5, {"mode": "random"}, NO_BUDGET),
        (5, {"mode": "random", "seed": 3}, NO_BUDGET),
        (26, {"mode": "random"}, TOO_LARGE),
        (26, {"mode": "random", "budget": 5}, TOO_LARGE),
        (10, {}, REFUSED),
        (10, {"mode": "exhaustive"}, REFUSED),
        (26, {}, TOO_LARGE),
    ],
    ids=lambda v: repr(v) if isinstance(v, dict) else None,
)
def test_search_argument_errors(n, args, message):
    with pytest.raises(ValueError) as caught:
        search_labelling(Graph(n), **args)
    assert str(caught.value) == message


def test_cli_rejects_an_unknown_mode(tmp_path, capsys):
    path = tmp_path / "graph.txt"
    path.write_text(emit_edge_list(Graph(3)))
    assert run(["search-labelling", str(path), "--mode", "bogus"]) == USAGE_ERROR == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: argument --mode: invalid choice: ")
    # the choices keep the order of the search's modes; newer argparse drops their quotes
    assert re.search(r"\(choose from '?exhaustive'?, '?random'?\)\n$", captured.err)

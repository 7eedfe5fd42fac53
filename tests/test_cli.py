"""Edge-list round-trips, JSON determinism, commands and exit codes."""

import dataclasses
import json
import random
import subprocess
import sys
import tracemalloc
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import misact.activities
import misact.cli
import misact.complete
import misact.verify
from misact import Graph, complete_graph, emit_edge_list, parse_edge_list, random_graph
from misact.cli import _build_parser, run
from misact.families import FAMILIES
from misact.io import MAX_VERTICES, EdgeListError, to_json

from reference import edge_list_per_edge
from sample_graphs import (
    dense_five_overlapping,
    dense_five_partition,
    hub_five,
    layered_host,
    layered_tree,
    tailed_triangle,
    ten_vertex_with_complete_a,
    wheel_five,
)


def write_graph(tmp_path: Path, g: Graph, name: str = "graph.txt") -> str:
    path = tmp_path / name
    path.write_text(emit_edge_list(g))
    return str(path)


class TestEdgeListFormat:
    def test_parse_tailed_triangle(self):
        text = "5 5\n3 4\n2 3\n2 4\n2 5\n1 5\n"
        assert parse_edge_list(text) == tailed_triangle()

    def test_single_vertex(self):
        assert parse_edge_list("1 0\n") == Graph(1)

    def test_comments_and_blanks(self):
        text = "# a sample\n\n3 1\n# the only edge\n1 2\n"
        assert parse_edge_list(text) == Graph(3, [(1, 2)])

    def test_label_out_of_range(self):
        with pytest.raises(EdgeListError, match="line 2"):
            parse_edge_list("3 1\n1 4\n")

    def test_self_loop(self):
        with pytest.raises(EdgeListError, match="self-loop"):
            parse_edge_list("3 1\n2 2\n")

    def test_bad_header(self):
        with pytest.raises(EdgeListError, match="header"):
            parse_edge_list("3\n")

    def test_wrong_edge_count(self):
        with pytest.raises(EdgeListError, match="promises 2"):
            parse_edge_list("3 2\n1 2\n")

    def test_malformed_edge_line(self):
        with pytest.raises(EdgeListError, match="line 3"):
            parse_edge_list("3 2\n1 2\n1 2 3\n")

    def test_vertex_count_over_limit(self):
        # refused from the header alone, before any per-vertex table exists
        with pytest.raises(EdgeListError, match=f"line 2: vertex count {MAX_VERTICES + 1}"):
            parse_edge_list(f"# big\n{MAX_VERTICES + 1} 0\n")

    def test_vertex_count_limit_covers_tested_sizes(self):
        assert MAX_VERTICES >= 1200
        assert parse_edge_list("1200 1\n1 1200\n").n == 1200

    def test_round_trip_all_fixtures(self):
        rng = random.Random(9)
        graphs = [tailed_triangle(), dense_five_partition(), Graph(1), Graph(4)]
        graphs += [random_graph(rng.randint(1, 12), rng.random(), rng=rng)
                   for _ in range(20)]
        for g in graphs:
            assert parse_edge_list(emit_edge_list(g)) == g

    def test_emit_matches_per_edge_text(self):
        rng = random.Random(59)
        graphs = [complete_graph(n) for n in (0, 1, 2, 3, 9, 64, 130)]
        graphs += [Graph(n, rng.sample(list(combinations(range(1, n + 1), 2)), m))
                   for n, m in ((5, 0), (40, 30), (200, 150), (300, 9000))]
        graphs += [random_graph(rng.randint(1, 90), rng.random(), rng=rng) for _ in range(30)]
        for g in graphs:
            assert emit_edge_list(g) == edge_list_per_edge(g)

    def test_emit_dense_graph_without_edge_list(self):
        # a list of all edges and their lines took 17 times the output (22 MB) here
        g = complete_graph(600)
        tracemalloc.start()
        try:
            text = emit_edge_list(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert text.startswith("600 179700\n1 2\n1 3\n")
        assert text.endswith("598 600\n599 600\n")
        assert peak < 4 * len(text)


TRICKY_TEXT = st.text(alphabet='"\\/\b\f\n\r\t\x00\x1f\x7f aZ\u00e9\u2028\u20ac\U0001f600')
JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(1 << 200), max_value=1 << 200)
    | st.floats()
    | st.text()
    | TRICKY_TEXT
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: (
        st.lists(inner)
        | st.lists(st.integers() | st.booleans())
        | st.dictionaries(st.text() | TRICKY_TEXT, inner)
    ),
    max_leaves=20,
)


class TestToJson:
    @settings(max_examples=150, deadline=None)
    @given(JSON_VALUES)
    def test_matches_json_dumps(self, value):
        assert to_json(value) == json.dumps(value, indent=2) + "\n"

    def test_bools_are_not_ints(self):
        assert to_json({"v": [1, True, False, 0]}) == (
            '{\n  "v": [\n    1,\n    true,\n    false,\n    0\n  ]\n}\n'
        )
        assert to_json([True]) == "[\n  true\n]\n"

    def test_empty_containers_and_tuples(self):
        value = {"a": [], "b": {}, "c": (3, 1), "d": [[], {}]}
        assert to_json(value) == json.dumps(value, indent=2) + "\n"

    def test_non_string_key_refused(self):
        with pytest.raises(TypeError, match="keys must be str"):
            to_json({1: 2})


class TestCliCommands:
    def test_cover_report(self, tmp_path, capsys):
        path = write_graph(tmp_path, tailed_triangle())
        assert run(["cover", path]) == 0
        report = json.loads(capsys.readouterr().out)
        by_mis = {tuple(e["mis"]): e for e in report["entries"]}
        assert by_mis[(3, 5)]["int"] == [5]
        assert by_mis[(3, 5)]["ext"] == [4]

    def test_cover_report_is_deterministic(self, tmp_path, capsys):
        path = write_graph(tmp_path, dense_five_overlapping())
        run(["cover", path])
        first = capsys.readouterr().out
        run(["cover", path])
        assert capsys.readouterr().out == first

    def test_partition_check(self, tmp_path, capsys):
        path = write_graph(tmp_path, dense_five_overlapping())
        assert run(["partition-check", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["is_partition"] is False
        assert report["repeated_subsets"] == 2
        assert report["witness"]["subset"] == [4]

    def test_complete_sets(self, tmp_path, capsys):
        path = write_graph(tmp_path, ten_vertex_with_complete_a())
        assert run(["complete-sets", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["complete"] == [1, 4, 5, 6, 8, 10]
        assert report["is_partition"] is False
        assert any(o["kind"] == "complete_set_exists" for o in report["obstructions"])

    def test_complete_sets_obstruction_free(self, tmp_path, capsys):
        path = write_graph(tmp_path, dense_five_partition())
        run(["complete-sets", path])
        report = json.loads(capsys.readouterr().out)
        assert report["complete"] is None
        assert report["obstructions"] == []
        assert report["is_partition"] is True

    def test_generate_and_out_file(self, tmp_path, capsys):
        out = tmp_path / "lex.txt"
        assert run(["generate", "lex", "--n", "5", "--m", "6", "--out", str(out)]) == 0
        assert parse_edge_list(out.read_text()).edges() == [
            (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4)
        ]

    def test_generate_pendant(self, capsys):
        assert run(["generate", "pendant", "--sizes", "1,0,1"]) == 0
        g = parse_edge_list(capsys.readouterr().out)
        assert g.n == 5 and g.neighbors(5) == {3}

    @pytest.mark.parametrize(
        "argv",
        [
            ["predict", "kn", "--n", "6"],
            ["predict", "join", "--n", "3", "--m", "2"],
            ["predict", "lex", "--n", "5", "--m", "6"],
            ["predict", "colex", "--n", "6", "--m", "7"],
            ["predict", "pendant", "--sizes", "1,1,1"],
        ],
    )
    def test_predict_verified(self, argv, capsys):
        assert run(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verified"] is True

    @pytest.mark.parametrize(
        "argv, params",
        [
            (["kn", "--n", "3", "--m", "7"], {"n": 3}),
            (["kn", "--n", "3"], {"n": 3}),
            (["join", "--m", "2", "--n", "3"], {"n": 3, "m": 2}),
        ],
    )
    def test_predict_echoes_the_parameters_it_read(self, argv, params, capsys):
        assert run(["predict", *argv]) == 0
        assert json.loads(capsys.readouterr().out)["params"] == params

    def test_predict_pendant_non_partition_still_verified(self, capsys):
        assert run(["predict", "pendant", "--sizes", "1,0,1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["predicted_partition"] is False
        assert report["verified"] is True

    def test_pruned_pipeline(self, tmp_path, capsys):
        tree = write_graph(tmp_path, layered_tree(), "tree.txt")
        host = write_graph(tmp_path, layered_host(), "host.txt")
        assert run(["pruned", "--tree", tree, "--host", host]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["root"] == 1
        assert report["is_partition"] is True
        assert report["lower_matches_f"] is True
        assert report["tree_leaves"] == [2, 5, 6, 7, 10, 11, 12, 13, 14]
        assert report["host_leaves"] == [2, 5, 6, 7]
        assert len(report["entries"]) == 9
        assert all(e["f_lower"] == e["lower"] for e in report["entries"])

    def test_pruned_tree_only(self, tmp_path, capsys):
        tree = write_graph(tmp_path, layered_tree(), "tree.txt")
        assert run(["pruned", "--tree", tree]) == 0
        assert json.loads(capsys.readouterr().out)["is_partition"] is True

    def test_pruned_host_leaf_mode(self, tmp_path, capsys):
        tree = write_graph(tmp_path, layered_tree(), "tree.txt")
        host = write_graph(tmp_path, layered_host(), "host.txt")
        assert run(["pruned", "--tree", tree, "--host", host, "--leaf-mode", "host"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["leaf_mode"] == "host"
        # stripping only the host's leaves leaves extra vertices behind, so
        # the f_lower column genuinely disagrees with the activity lower
        assert report["lower_matches_f"] is False
        assert report["is_partition"] is True

    def test_search_labelling_exhaustive(self, tmp_path, capsys):
        path = write_graph(tmp_path, dense_five_overlapping())
        assert run(["search-labelling", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["found_partition"] is True
        assert report["best_permutation"] == [1, 2, 4, 3, 5]

    def test_search_labelling_exhaustive_rejects_budget_and_seed(self, tmp_path, capsys):
        path = write_graph(tmp_path, wheel_five())
        for extra in (["--budget", "2"], ["--seed", "9"], ["--budget", "2", "--seed", "9"]):
            assert run(["search-labelling", path, *extra]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: budget and seed apply to random mode only\n"

    def test_search_labelling_random_echoes_seed(self, tmp_path, capsys):
        path = write_graph(tmp_path, dense_five_overlapping())
        assert run(["search-labelling", path, "--mode", "random", "--budget", "10"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["seed"] == 0
        assert report["trials"] == 10

    def test_verify_file(self, tmp_path, capsys):
        path = write_graph(tmp_path, dense_five_partition())
        assert run(["verify", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["all_passed"] is True
        names = {c["name"] for c in report["checks"]}
        assert {"coverage", "locate_generator", "externally_complete_unique"} <= names

    def test_verify_family(self, capsys):
        assert run(["verify", "--family", "lex", "--n", "5", "--m", "6"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["all_passed"] is True

    def test_verify_obstructed_graph_still_passes(self, tmp_path, capsys):
        path = write_graph(tmp_path, hub_five())
        assert run(["verify", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["all_passed"] is True

    def test_complete_sets_builds_one_cover(self, tmp_path, capsys, monkeypatch):
        calls = []

        def counted(G):
            calls.append(G.n)
            return misact.activities.cover(G)

        for mod in (misact.cli, misact.complete, misact.verify):
            monkeypatch.setattr(mod, "cover", counted)
        path = write_graph(tmp_path, hub_five())
        assert run(["complete-sets", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["obstructions"][0]["kind"] == "two_internally_complete"
        assert calls == [5]

    def test_family_choices_read_the_table(self):
        parser = _build_parser()
        commands = next(a for a in parser._actions if a.dest == "command").choices
        for name in ("generate", "predict", "verify"):
            family = next(a for a in commands[name]._actions if a.dest == "family")
            assert family.choices == tuple(FAMILIES)

    @pytest.mark.parametrize("family", tuple(FAMILIES))
    def test_verify_family_reads_parameters_like_predict(self, family, capsys):
        # missing, extra, conflicting and malformed --n/--m/--sizes
        shapes = [
            [*n, *m, *sizes]
            for n in ([], ["--n", "3"], ["--n", "4"], ["--n", "-1"], ["--n", "0"])
            for m in ([], ["--m", "2"], ["--m", "0"])
            for sizes in ([], ["--sizes", "1,0,1"], ["--sizes", ","], ["--sizes", "x"])
        ]
        for shape in shapes:
            predict = run(["predict", family, *shape])
            verify = run(["verify", "--family", family, *shape])
            if predict in (1, 64) or verify in (1, 64):
                assert verify == predict, shape
        capsys.readouterr()

    def test_predict_reads_the_family_checks(self, capsys, monkeypatch):
        # a wrong neighbourhood formula fails predict as it fails verify --family
        wrong = dataclasses.replace(
            FAMILIES["lex"], neighborhoods=lambda n, m: {v: frozenset() for v in range(1, n + 1)}
        )
        monkeypatch.setitem(FAMILIES, "lex", wrong)
        assert run(["predict", "lex", "--n", "5", "--m", "6"]) == 2
        assert json.loads(capsys.readouterr().out)["verified"] is False
        assert run(["verify", "--family", "lex", "--n", "5", "--m", "6"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert [c["name"] for c in report["checks"] if not c["passed"]] == ["neighborhood_formula"]

    @pytest.mark.parametrize(
        "shape, code",
        [
            (["lex", "--n", "5"], 64),
            (["join", "--n", "3"], 64),
            (["kn", "--sizes", "1,1,1"], 64),
            (["pendant", "--n", "4", "--sizes", "1,0,1"], 0),
            (["pendant", "--sizes", ","], 0),
        ],
    )
    def test_verify_family_shapes_that_changed(self, shape, code, capsys):
        assert run(["verify", "--family", *shape]) == code
        assert run(["predict", *shape]) == code

    def test_polynomial(self, tmp_path, capsys):
        path = write_graph(tmp_path, dense_five_overlapping())
        assert run(["polynomial", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mis_count"] == 4
        assert {"mis_size": 1, "ext_size": 4, "int_size": 0, "count": 1} in report["terms"]


class TestExitCodes:
    def test_missing_file(self, capsys):
        assert run(["cover", "/nonexistent/g.txt"]) == 1

    def test_malformed_input(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("3 1\n1 4\n")
        assert run(["cover", str(path)]) == 1

    def test_usage_error(self, capsys):
        assert run(["not-a-command"]) == 64
        assert run([]) == 64

    def test_missing_family_param(self, capsys):
        assert run(["generate", "lex", "--n", "5"]) == 64

    def test_domain_rejection(self, capsys):
        assert run(["generate", "lex", "--n", "4", "--m", "99"]) == 1

    def test_help_names_every_exit_1_cause(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())  # argparse rewraps it
        assert "out of memory" in text
        assert "an option refused for the chosen mode" in text

    def test_pruned_labelling_violation(self, tmp_path, capsys):
        path = tmp_path / "path3.txt"
        path.write_text("3 2\n1 2\n2 3\n")
        assert run(["pruned", "--tree", str(path), "--root", "2"]) == 1

    def test_pruned_non_partition_host_exits_two(self, tmp_path, capsys):
        from sample_graphs import sparse_layered_host, sparse_layered_tree

        tree = write_graph(tmp_path, sparse_layered_tree(), "st.txt")
        host = write_graph(tmp_path, sparse_layered_host(), "sh.txt")
        assert run(["pruned", "--tree", tree, "--host", host]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["is_partition"] is False
        assert report["repeated_subsets"] == 128
        assert report["int_equals_tree_leaves"] is False

    def test_internal_error_exits_three(self, tmp_path, capsys, monkeypatch):
        import misact.cli

        def broken(*args, **kwargs):
            raise RuntimeError("partition methods disagree on a covered lattice")

        monkeypatch.setattr(misact.cli, "partition_verdict", broken)
        path = write_graph(tmp_path, tailed_triangle())
        assert run(["partition-check", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "internal error: partition methods disagree on a covered lattice\n"
        )

    def test_out_of_memory_exits_one(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(misact.cli, "cover", exhausted)
        path = write_graph(tmp_path, tailed_triangle())
        assert run(["cover", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: out of memory\n"

    def test_vertex_count_over_limit(self, tmp_path, capsys):
        path = tmp_path / "big.txt"
        path.write_text(f"{MAX_VERTICES + 1} 0\n")
        assert run(["cover", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: line 1: vertex count {MAX_VERTICES + 1} exceeds the limit {MAX_VERTICES}\n"
        )

    # each family's arguments for an instance with `count` vertices
    FAMILY_ARGS = {
        "kn": lambda count: ["--n", str(count)],
        "join": lambda count: ["--n", "1", "--m", str(count - 1)],
        "pendant": lambda count: ["--sizes", str(count - 1)],
        "lex": lambda count: ["--n", str(count), "--m", "0"],
        "colex": lambda count: ["--n", str(count), "--m", "0"],
    }

    @pytest.mark.parametrize("command", [["generate"], ["predict"], ["verify", "--family"]])
    @pytest.mark.parametrize("family", sorted(FAMILY_ARGS))
    def test_family_vertex_count_over_limit(self, family, command, capsys, monkeypatch):
        class Built(Exception):
            pass

        def build(**params):
            raise Built(params)

        monkeypatch.setitem(FAMILIES, family, dataclasses.replace(FAMILIES[family], graph=build))
        args = self.FAMILY_ARGS[family]
        assert run([*command, family, *args(MAX_VERTICES + 1)]) == 1
        assert capsys.readouterr().err == (
            f"error: family '{family}': vertex count {MAX_VERTICES + 1} "
            f"exceeds the limit {MAX_VERTICES}\n"
        )
        with pytest.raises(Built):
            run([*command, family, *args(MAX_VERTICES)])  # the limit itself is built

    def test_oracle_bound_over_limit(self, tmp_path, capsys):
        # a small graph, so a missing check would not allocate 2^60 bytes
        path = write_graph(tmp_path, tailed_triangle())
        assert run(["verify", path, "--oracle-bound", "60"]) == 1
        assert capsys.readouterr().err == "error: oracle bound 60 exceeds the limit 30\n"

    def test_oracle_bound_negative(self, tmp_path, capsys):
        # a negative bound used to skip every check and exit 0
        path = write_graph(tmp_path, tailed_triangle())
        assert run(["verify", path, "--oracle-bound", "-3"]) == 1
        assert capsys.readouterr().err == "error: oracle bound -3 is below 0\n"
        for bound in ("0", "30"):  # both ends of the accepted range run
            assert run(["verify", path, "--oracle-bound", bound]) == 0
        capsys.readouterr()

    def test_verify_refuses_a_file_with_a_family(self, tmp_path, capsys):
        # the file used to be ignored, with exit 0
        path = write_graph(tmp_path, tailed_triangle())
        for extra in (["--n", "3"], []):
            assert run(["verify", path, "--family", "kn", *extra]) == 64
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == (
                "", "usage error: verify takes a file or --family, not both\n")

    @pytest.mark.parametrize(
        "extra, flag",
        [(["--n", "3"], "--n"), (["--m", "0"], "--m"), (["--sizes", "1,0"], "--sizes"),
         (["--m", "2", "--n", "3"], "--n")],
    )
    def test_verify_refuses_family_parameters_without_a_family(self, tmp_path, capsys, extra, flag):
        # with a file they used to be ignored, with exit 0
        path = write_graph(tmp_path, tailed_triangle())
        for argv in ([path, *extra], extra):
            assert run(["verify", *argv]) == 64
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == (
                "", f"usage error: {flag} applies with --family only\n")

    @pytest.mark.parametrize("bound", ["60", "25", "-3"])
    def test_verify_refuses_an_oracle_bound_with_a_family(self, capsys, bound):
        # it used to be ignored, with exit 0, where a file exits 1 on 60 and -3
        assert run(["verify", "--family", "kn", "--n", "3", "--oracle-bound", bound]) == 64
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "usage error: --oracle-bound applies to a file only\n")
        assert run(["verify", "--family", "kn", "--n", "3"]) == 0  # without it, the family runs
        capsys.readouterr()

    def test_subprocess_entry_point(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("3 3\n1 2\n1 3\n2 3\n")
        proc = subprocess.run(
            [sys.executable, "-m", "misact", "partition-check", str(path)],
            capture_output=True,
            text=True,
            cwd=str(Path(__file__).resolve().parent.parent),
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["is_partition"] is True

    def test_pruned_cyclic_tree_without_root_exits_one(self, tmp_path):
        # n - 1 edges holding a cycle: finding the default root must not hang
        path = tmp_path / "t.txt"
        path.write_text("4 3\n1 2\n2 3\n1 3\n")
        proc = subprocess.run(
            [sys.executable, "-m", "misact", "pruned", "--tree", str(path)],
            capture_output=True,
            text=True,
            cwd=str(Path(__file__).resolve().parent.parent),
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            timeout=30,
        )
        assert proc.returncode == 1
        assert proc.stderr == "error: not a tree: disconnected\n"


class TestOneParser:
    """Every run shares the parser built at import; no call may see the last one's options."""

    def test_run_does_not_build_a_parser(self, tmp_path, capsys, monkeypatch):
        def rebuilt():
            raise AssertionError("run built a parser")

        monkeypatch.setattr(misact.cli, "_build_parser", rebuilt)
        assert run(["cover", write_graph(tmp_path, tailed_triangle())]) == 0
        assert json.loads(capsys.readouterr().out)["n"] == tailed_triangle().n

    def test_out_then_stdout(self, tmp_path, capsys):
        path = write_graph(tmp_path, tailed_triangle())
        out = tmp_path / "cover.json"
        assert run(["cover", path, "--out", str(out)]) == 0
        written = out.read_text()
        assert capsys.readouterr().out == ""
        assert run(["cover", path]) == 0
        assert capsys.readouterr().out == written
        assert out.read_text() == written

    def test_random_search_then_exhaustive(self, tmp_path, capsys):
        path = write_graph(tmp_path, tailed_triangle())
        random_args = ["--mode", "random", "--budget", "5", "--seed", "1"]
        assert run(["search-labelling", path, *random_args]) == 0
        capsys.readouterr()
        assert run(["search-labelling", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mode"] == "exhaustive"
        assert report["seed"] is None

    def test_family_then_file(self, tmp_path, capsys):
        path = write_graph(tmp_path, tailed_triangle())
        assert run(["verify", "--family", "kn", "--n", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["target"] == "family:kn"
        assert run(["verify", path]) == 0
        assert json.loads(capsys.readouterr().out)["target"] == path

    def test_usage_error_then_valid_command(self, tmp_path, capsys):
        assert run(["generate", "lex", "--n", "5"]) == 64
        assert capsys.readouterr().err.startswith("usage error: ")
        assert run(["generate", "kn", "--n", "3"]) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("3 3\n1 2\n1 3\n2 3\n", "")

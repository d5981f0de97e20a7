"""Command-line behaviour: flags, outputs, formats, and exit codes."""
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

jsonschema = pytest.importorskip("jsonschema")

from coptree import column_ranks, learn_structure, load_dataset, spearman_rho, weight_matrix
from coptree.cli import build_parser, main

TREE_SCHEMA = {
    "type": "object",
    "required": ["nodes", "edges", "measure", "lattice_order", "coverage_ratio"],
    "additionalProperties": False,
    "properties": {
        "nodes": {"type": "array", "items": {"type": "string"}, "minItems": 2},
        "edges": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["u", "v", "weight", "signed_value"],
                "additionalProperties": False,
                "properties": {
                    "u": {"type": "string"},
                    "v": {"type": "string"},
                    "weight": {"type": "number"},
                    "signed_value": {"type": "number"},
                },
            },
        },
        "measure": {"type": "string", "enum": ["rho_abs", "mi_cell"]},
        "lattice_order": {"type": "integer", "minimum": 2},
        "coverage_ratio": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
    },
}

HOUSING = Path(__file__).resolve().parent.parent / "data" / "housing.csv"

DOT_EDGE = re.compile(r'^  "[^"]+" -- "[^"]+" \[label="\d+\.\d{4}"\];$')


@pytest.fixture()
def toy_csv(tmp_path):
    path = tmp_path / "toy.csv"
    rng = np.random.default_rng(31)
    x = rng.standard_normal(60)
    y = 0.8 * x + 0.2 * rng.standard_normal(60)
    z = rng.standard_normal(60)
    rows = "\n".join(
        f"{float(a)!r},{float(b)!r},{float(c)!r}" for a, b, c in zip(x, y, z)
    )
    path.write_text("x,y,z\n" + rows + "\n")
    return path


class TestLearn:
    def test_json_output_validates_and_repeats(self, toy_csv, tmp_path):
        out1 = tmp_path / "tree1.json"
        out2 = tmp_path / "tree2.json"
        base = ["learn", "--input", str(toy_csv), "--measure", "mi-cell"]
        assert main(base + ["--json", str(out1)]) == 0
        assert main(base + ["--json", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        payload = json.loads(out1.read_text())
        jsonschema.validate(payload, TREE_SCHEMA)
        assert len(payload["edges"]) == len(payload["nodes"]) - 1

    def test_stdout_when_no_output_path(self, toy_csv, capsys):
        assert main(["learn", "--input", str(toy_csv)]) == 0
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, TREE_SCHEMA)

    def test_dot_output(self, toy_csv, tmp_path):
        dot = tmp_path / "tree.dot"
        assert main(["learn", "--input", str(toy_csv), "--dot", str(dot)]) == 0
        lines = dot.read_text().splitlines()
        assert lines[0] == "graph deptree {"
        assert lines[-1] == "}"
        edges = lines[1:-1]
        assert len(edges) == 2
        for line in edges:
            assert DOT_EDGE.match(line), line

    def test_single_pair_matches_measure_command(self, tmp_path, capsys):
        path = tmp_path / "pair.csv"
        rng = np.random.default_rng(32)
        x = rng.standard_normal(50)
        y = x + 0.1 * rng.standard_normal(50)
        path.write_text(
            "a,b\n" + "\n".join(f"{float(u)!r},{float(v)!r}" for u, v in zip(x, y)) + "\n"
        )
        out = tmp_path / "t.json"
        assert main(["learn", "--input", str(path), "--measure", "rho",
                     "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert main(["measure", "--input", str(path), "--pair", "a,b",
                     "--measure", "rho"]) == 0
        printed = capsys.readouterr().out
        value = float(printed.strip().split("=")[1])
        assert payload["edges"][0]["signed_value"] == pytest.approx(value, abs=5e-7)
        assert payload["coverage_ratio"] == 1.0

    def test_signed_value_kept_for_negative_rho(self, tmp_path):
        path = tmp_path / "neg.csv"
        xs = np.linspace(-2, 2, 40)
        path.write_text(
            "x,negx\n" + "\n".join(f"{float(v)!r},{float(-v)!r}" for v in xs) + "\n"
        )
        out = tmp_path / "t.json"
        assert main(["learn", "--input", str(path), "--measure", "rho",
                     "--json", str(out)]) == 0
        edge = json.loads(out.read_text())["edges"][0]
        assert edge["weight"] == pytest.approx(1.0)
        assert edge["signed_value"] == pytest.approx(-1.0)

    def test_housing_stable_edges_through_cli(self, tmp_path):
        out = tmp_path / "housing.json"
        assert main(["learn", "--input", str(HOUSING), "--measure", "mi-cell",
                     "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        pairs = {tuple(sorted((e["u"], e["v"]))) for e in payload["edges"]}
        assert ("crim", "rad") in pairs
        assert ("lstat", "medv") in pairs

    def test_dot_escapes_quotes_in_names(self, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_text('a,b"q\n1,2\n3,4\n2,2\n')
        dot = tmp_path / "tree.dot"
        assert main(["learn", "--input", str(path), "--dot", str(dot)]) == 0
        assert dot.read_text().splitlines()[1].startswith('  "a" -- "b\\"q" [')

    def test_dot_refuses_name_ending_in_backslash(self, tmp_path, capsys):
        # in a DOT quoted string "a\" the backslash escapes the closing quote
        path = tmp_path / "slash.csv"
        path.write_text("a\\,b\n1,2\n3,4\n2,2\n")
        out, dot = tmp_path / "tree.json", tmp_path / "tree.dot"
        assert main(["learn", "--input", str(path), "--json", str(out),
                     "--dot", str(dot)]) == 1
        assert capsys.readouterr().err == (
            "error: column 'a\\\\' ends in a backslash, which DOT cannot quote\n"
        )
        assert not out.exists() and not dot.exists()
        assert main(["learn", "--input", str(path), "--json", str(out)]) == 0

    @pytest.mark.parametrize("bad", ["--json", "--dot"])
    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    @pytest.mark.parametrize("unwritable, reason", [
        ("missing/tree", "[Errno 2] No such file or directory"),
        ("adir", "[Errno 21] Is a directory"),
    ], ids=["missing-directory", "directory"])
    def test_unwritable_output_leaves_the_other_alone(self, toy_csv, tmp_path, capsys,
                                                      bad, existing, unwritable, reason):
        # learn opens both destinations before it writes either: one it
        # cannot open leaves the other as it was, and leaves no file behind
        good = "--dot" if bad == "--json" else "--json"
        out = tmp_path / "out"
        out.mkdir()
        (tmp_path / "adir").mkdir()
        target, refused = out / "tree", tmp_path / unwritable
        if existing:
            target.write_bytes(b"before\n")
        assert main(["learn", "--input", str(toy_csv), good, str(target),
                     bad, str(refused)]) == 1
        assert capsys.readouterr().err == f"error: {reason}: '{refused}'\n"
        assert [p.name for p in out.iterdir()] == (["tree"] if existing else [])
        assert not existing or target.read_bytes() == b"before\n"
        assert main(["learn", "--input", str(toy_csv), good, str(target),
                     bad, str(out / "other")]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["other", "tree"]

    def test_outputs_are_written_in_place(self, toy_csv, tmp_path):
        # a symlink is written through, an existing file keeps its inode
        # (so its hard links) and mode, and an existing file in a
        # directory that takes no new entries is still written
        store = tmp_path / "store"
        store.mkdir()
        target, dot = store / "tree.json", store / "tree.dot"
        for path in (target, dot):
            path.write_bytes(b"before\n")
        target.chmod(0o640)
        inode = target.stat().st_ino
        link = tmp_path / "link.json"
        link.symlink_to(target)
        store.chmod(0o555)
        try:
            assert main(["learn", "--input", str(toy_csv), "--json", str(link),
                         "--dot", str(dot)]) == 0
        finally:
            store.chmod(0o755)
        assert link.is_symlink() and json.loads(target.read_text())["nodes"]
        assert target.stat().st_ino == inode and target.stat().st_mode & 0o777 == 0o640
        assert dot.read_text().startswith("graph deptree {")

    def test_refusal_removes_what_a_dangling_link_created(self, toy_csv, tmp_path):
        link, target = tmp_path / "link.json", tmp_path / "target.json"
        link.symlink_to(target)
        assert main(["learn", "--input", str(toy_csv), "--json", str(link),
                     "--dot", str(tmp_path / "missing" / "tree.dot")]) == 1
        assert link.is_symlink() and not target.exists()

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    @pytest.mark.parametrize("alias", ["same-path", "symlink"])
    def test_one_file_for_both_outputs_is_refused(self, toy_csv, tmp_path, capsys,
                                                  alias, existing):
        # the DOT would overwrite the JSON: refused before either is opened
        out = tmp_path / "out"
        out.mkdir()
        path = out / "tree"
        other = path if alias == "same-path" else tmp_path / "link"
        if alias == "symlink":
            other.symlink_to(path)
        if existing:
            path.write_bytes(b"before\n")
        assert main(["learn", "--input", str(toy_csv), "--json", str(path),
                     "--dot", str(other)]) == 1
        assert capsys.readouterr().err == f"error: --json and --dot name the same file: {path}\n"
        assert [p.name for p in out.iterdir()] == (["tree"] if existing else [])
        assert not existing or path.read_bytes() == b"before\n"

    def test_hard_linked_outputs_are_refused(self, toy_csv, tmp_path, capsys):
        # two paths, one inode: refused before either is opened
        path, other = tmp_path / "tree.json", tmp_path / "tree.dot"
        path.write_bytes(b"before\n")
        os.link(path, other)
        assert main(["learn", "--input", str(toy_csv), "--json", str(path),
                     "--dot", str(other)]) == 1
        assert capsys.readouterr().err == f"error: --json and --dot name the same file: {path}\n"
        assert path.read_bytes() == b"before\n"

    def test_malformed_csv_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,x\n3,4\n")
        assert main(["learn", "--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert "row 1" in err and "'b'" in err

    def test_overlong_cell_exits_one(self, tmp_path, capsys):
        path = tmp_path / "long.csv"
        path.write_text("a,b\n1,2\n3," + "x" * 131073 + "\n")
        assert main(["learn", "--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: row 2: field larger than field limit")

    @pytest.mark.parametrize("content, message", [
        pytest.param(b"a,\xe9b\n1,2\n3,4\n5,6\n7,8\n",
                     "header row: column 2 is not valid UTF-8", id="header"),
        pytest.param(b"a,b\n1,2\n3,4\n5,\xe96\n7,8\n",
                     "row 3, column 'b': not valid UTF-8", id="row-3"),
        pytest.param(b"a,b\n" + b"1,2\n" * 3000 + b"\xe9,6\n",
                     "row 3001, column 'a': not valid UTF-8", id="past-8-KB"),
        pytest.param(b"a,b\n1,2\n\xe9\n", "row 2, column 'a': not valid UTF-8",
                     id="short-row"),
    ])
    def test_invalid_utf8_reported_with_its_row(self, tmp_path, capsys, content, message):
        path = tmp_path / "bytes.csv"
        path.write_bytes(content)
        assert main(["learn", "--input", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_missing_file_exits_one(self, tmp_path):
        assert main(["learn", "--input", str(tmp_path / "nope.csv")]) == 1

    def test_bad_lattice_order_exits_one(self, toy_csv):
        assert main(["learn", "--input", str(toy_csv), "--lattice-order", "1"]) == 1
        assert main(["learn", "--input", str(toy_csv), "--lattice-order", "500"]) == 1
        assert main(["learn", "--input", str(toy_csv), "--measure", "rho",
                     "--lattice-order", "1"]) == 1

    def test_negative_tie_seed_exits_one(self, toy_csv, capsys):
        assert main(["learn", "--input", str(toy_csv), "--tie-seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: tie_seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("measure", ["mi-cell"])
    def test_balanced_two_factor_design(self, tmp_path, measure):
        # a and b cross 10 levels each with 20 replicates per cell: at the
        # default lattice order K = 10 their grid is exactly independent,
        # so their weight must be exactly 0, never a rounded negative
        path = tmp_path / "design.csv"
        a, b = np.divmod(np.arange(2000) // 20, 10)
        y = a + b + np.random.default_rng(35).standard_normal(2000)
        rows = "\n".join(f"{p},{q},{float(r)!r}" for p, q, r in zip(a, b, y))
        path.write_text("a,b,y\n" + rows + "\n")
        data = load_dataset(path)
        for tie_seed in (0, 1, 2):
            out = tmp_path / f"tree{tie_seed}.json"
            assert main(["learn", "--input", str(path), "--measure", measure,
                         "--tie-seed", str(tie_seed), "--json", str(out)]) == 0
            payload = json.loads(out.read_text())
            jsonschema.validate(payload, TREE_SCHEMA)
            assert payload["lattice_order"] == 10
            assert {(e["u"], e["v"]) for e in payload["edges"]} == {("a", "y"), ("b", "y")}
            tree = learn_structure(data, measure.replace("-", "_"), tie_seed=tie_seed)
            assert [(e.u, e.v, e.weight) for e in tree.edges] == [
                (e["u"], e["v"], e["weight"]) for e in payload["edges"]
            ]

    @pytest.mark.parametrize("measure", ["mi-cell"])
    def test_constant_column_is_ranked_like_any_other(self, tmp_path, measure):
        # a constant column is one 30-way tie: its ranks are a seeded
        # random permutation, and the MI scores it
        path = tmp_path / "flat.csv"
        rng = np.random.default_rng(33)
        rows = "\n".join(f"{float(v)!r},1.0" for v in rng.standard_normal(30))
        path.write_text("a,b\n" + rows + "\n")
        out = tmp_path / "tree.json"
        assert main(["learn", "--input", str(path), "--measure", measure,
                     "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        jsonschema.validate(payload, TREE_SCHEMA)
        assert [(e["u"], e["v"]) for e in payload["edges"]] == [("a", "b")]


    @pytest.mark.parametrize("measure", ["mi-cell"])
    def test_exactly_independent_pair_covers_everything(self, tmp_path, measure):
        # a and b cross 10 levels each with 20 replicates per cell: their
        # order-10 grid is exactly independent, so the only weight is 0
        # and the tree holds all of it
        path = tmp_path / "design.csv"
        a, b = np.divmod(np.arange(2000) // 20, 10)
        path.write_text("a,b\n" + "".join(f"{p},{q}\n" for p, q in zip(a, b)))
        out = tmp_path / "tree.json"
        assert main(["learn", "--input", str(path), "--measure", measure,
                     "--lattice-order", "10", "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        jsonschema.validate(payload, TREE_SCHEMA)
        assert payload["edges"] == [{"u": "a", "v": "b", "weight": 0.0, "signed_value": 0.0}]
        assert payload["coverage_ratio"] == 1.0


class TestParser:
    def test_measure_defaults(self):
        parser = build_parser()
        assert parser.parse_args(["learn", "--input", "x.csv"]).measure == "mi-cell"
        assert parser.parse_args(["measure", "--input", "x.csv", "--pair", "a,b"]).measure == "rho"

    @pytest.mark.parametrize("command", ["learn", "measure"])
    def test_help_lists_the_scoring_flags(self, command, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert "copula grid resolution K (0 = auto, about 20 samples per cell)" in out
        assert "seed for randomized rank tie order (default 0)" in out

    @pytest.mark.parametrize("command", [["learn"], ["measure", "--pair", "a,b"]],
                             ids=["learn", "measure"])
    def test_mi_kde_is_not_a_choice(self, command, capsys):
        # mi_kde spans mi_cell's tree, so the CLI offers mi-cell and rho only;
        # argparse refuses any other choice as a usage error, exit code 2
        with pytest.raises(SystemExit) as stop:
            main([*command, "--input", "x.csv", "--measure", "mi-kde"])
        assert stop.value.code == 2
        assert "argument --measure: invalid choice: 'mi-kde'" in capsys.readouterr().err


class TestSynth:
    def test_reproducible_output(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "blocks": [{"vars": [1, 2], "family": "gaussian", "theta": 0.8},
                       {"vars": [3], "family": "independence"}],
            "margins": [{"family": "standard_normal"},
                        {"family": "exponential", "rate": 1.0},
                        {"family": "standard_normal"}],
            "samples": 200,
            "seed": 7,
        }))
        out1, out2, out3 = (tmp_path / f"d{i}.csv" for i in range(3))
        assert main(["synth", "--spec", str(spec), "--output", str(out1)]) == 0
        assert main(["synth", "--spec", str(spec), "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert main(["synth", "--spec", str(spec), "--output", str(out3),
                     "--seed", "8"]) == 0
        assert out1.read_bytes() != out3.read_bytes()
        data = load_dataset(out1)
        assert data.sample_count == 200 and data.dim == 3
        ranks = column_ranks(data.values)
        assert spearman_rho(ranks[:, 0], ranks[:, 1]) > 0.6

    def test_identity_correlation_passes_independence_check(self, tmp_path):
        spec = tmp_path / "indep.json"
        spec.write_text(json.dumps({
            "blocks": [{"vars": [1], "family": "independence"},
                       {"vars": [2], "family": "independence"}],
            "margins": [{"family": "standard_normal"}] * 2,
            "samples": 1000,
            "seed": 42,
        }))
        out = tmp_path / "indep.csv"
        assert main(["synth", "--spec", str(spec), "--output", str(out)]) == 0
        data = load_dataset(out)
        ranks = column_ranks(data.values)
        assert abs(spearman_rho(ranks[:, 0], ranks[:, 1])) < 0.08

    def test_round_trip_through_learn(self, tmp_path, synthetic_spec, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "blocks": [{"vars": [1, 2, 3], "family": "gaussian", "theta": 0.8},
                       {"vars": [4, 5], "family": "gaussian", "theta": 0.8}],
            "margins": [{"family": "standard_normal"}] * 4
                       + [{"family": "exponential", "rate": 1.0}],
            "samples": 1000,
            "seed": 42,
            "names": ["G1", "G2", "G3", "Cn", "Ce"],
        }))
        csv_path = tmp_path / "synth.csv"
        assert main(["synth", "--spec", str(spec_path), "--output", str(csv_path)]) == 0
        assert main(["learn", "--input", str(csv_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        pairs = {tuple(sorted((e["u"], e["v"]))) for e in payload["edges"]}
        cross = [p for p in pairs
                 if (p[0] in ("Cn", "Ce")) != (p[1] in ("Cn", "Ce"))]
        assert ("Ce", "Cn") in pairs
        assert len(cross) == 1

    def test_non_positive_definite_block_exits_one(self, tmp_path, capsys):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({
            "blocks": [{"vars": [1, 2, 3], "family": "gaussian", "theta": -0.9}],
            "margins": [{"family": "standard_normal"}] * 3,
            "samples": 100,
            "seed": 0,
        }))
        assert main(["synth", "--spec", str(spec), "--output",
                     str(tmp_path / "x.csv")]) == 1
        assert "Cholesky" in capsys.readouterr().err

    def test_invalid_json_exits_one(self, tmp_path):
        spec = tmp_path / "broken.json"
        spec.write_text("{not json")
        assert main(["synth", "--spec", str(spec), "--output",
                     str(tmp_path / "x.csv")]) == 1

    def test_malformed_spec_exits_one(self, tmp_path, capsys):
        spec = tmp_path / "novars.json"
        spec.write_text(json.dumps({
            "blocks": [{"family": "independence"}],
            "margins": [{"family": "standard_normal"}] * 2,
            "samples": 10,
            "seed": 0,
        }))
        assert main(["synth", "--spec", str(spec), "--output",
                     str(tmp_path / "x.csv")]) == 1
        assert "blocks[0] is missing key 'vars'" in capsys.readouterr().err


    def test_infinite_rate_exits_one(self, tmp_path, capsys):
        spec = tmp_path / "infinite.json"
        spec.write_text(json.dumps({
            "blocks": [{"vars": [1, 2], "family": "independence"}],
            "margins": [{"family": "standard_normal"},
                        {"family": "exponential", "rate": float("inf")}],
            "samples": 10,
            "seed": 0,
        }))
        assert "Infinity" in spec.read_text()
        output = tmp_path / "x.csv"
        assert main(["synth", "--spec", str(spec), "--output", str(output)]) == 1
        assert "rate must be > 0 and finite, got inf" in capsys.readouterr().err
        assert not output.exists()


    @staticmethod
    def _named_spec(tmp_path, name, other="b"):
        spec = tmp_path / "named.json"
        spec.write_text(json.dumps({
            "blocks": [{"vars": [1, 2], "family": "gaussian", "theta": 0.5}],
            "margins": [{"family": "standard_normal"}] * 2,
            "samples": 50,
            "seed": 0,
            "names": [name, other],
        }))
        return spec

    @pytest.mark.parametrize("name", ["a,b", "a\nb", "a\rb", " G1", "G1\t", '"q'])
    def test_name_learn_cannot_read_back_exits_one(self, tmp_path, capsys, name):
        output = tmp_path / "x.csv"
        spec = self._named_spec(tmp_path, name)
        assert main(["synth", "--spec", str(spec), "--output", str(output)]) == 1
        assert f"error: column {name!r} cannot be written" in capsys.readouterr().err
        assert not output.exists()

    @pytest.mark.parametrize("names, bad, reason", [
        (("G\ud800", "G2"), "G\ud800", "UTF-8 cannot encode"),
        (("G1", "G\udfff"), "G\udfff", "UTF-8 cannot encode"),
        (("\ufeffG1", "G2"), "\ufeffG1", "byte-order mark"),
    ], ids=["surrogate-first", "surrogate-second", "bom-first"])
    @pytest.mark.parametrize("existing", [None, b"kept,bytes\n"], ids=["new", "existing"])
    def test_refused_header_leaves_the_output_alone(self, tmp_path, capsys, names, bad,
                                                    reason, existing):
        # the names are checked before the output is opened, which would
        # create or truncate it
        output = tmp_path / "x.csv"
        if existing is not None:
            output.write_bytes(existing)
        spec = self._named_spec(tmp_path, *names)
        assert main(["synth", "--spec", str(spec), "--output", str(output)]) == 1
        err = capsys.readouterr().err
        assert f"error: column {bad!r} cannot be written" in err and reason in err
        if existing is None:
            assert not output.exists()
        else:
            assert output.read_bytes() == existing

    def test_byte_order_mark_after_the_first_name_round_trips(self, tmp_path):
        output, tree = tmp_path / "x.csv", tmp_path / "tree.json"
        spec = self._named_spec(tmp_path, "a", "\ufeffb")
        assert main(["synth", "--spec", str(spec), "--output", str(output)]) == 0
        assert main(["learn", "--input", str(output), "--json", str(tree)]) == 0
        assert json.loads(tree.read_text())["nodes"] == ["a", "\ufeffb"]

    @pytest.mark.parametrize("name", ['q"x', "a b"])
    def test_inner_quote_or_space_round_trips(self, tmp_path, name):
        output, tree = tmp_path / "x.csv", tmp_path / "tree.json"
        spec = self._named_spec(tmp_path, name)
        assert main(["synth", "--spec", str(spec), "--output", str(output)]) == 0
        assert main(["learn", "--input", str(output), "--json", str(tree)]) == 0
        assert json.loads(tree.read_text())["nodes"] == [name, "b"]


class TestMeasure:
    def test_comonotone_rho(self, tmp_path, capsys):
        path = tmp_path / "pair.csv"
        for encoding in ("utf-8", "utf-8-sig"):  # with and without a BOM
            path.write_text("a,b\n1,10\n2,20\n", encoding=encoding)
            assert main(["measure", "--input", str(path), "--pair", "a,b"]) == 0
            assert capsys.readouterr().out.strip() == "rho(a, b) = 1.000000"

    def test_countermonotone_rho(self, tmp_path, capsys):
        path = tmp_path / "anti.csv"
        xs = np.linspace(0, 1, 50)
        path.write_text("x,negx\n" + "\n".join(f"{float(v)!r},{float(-v)!r}" for v in xs) + "\n")
        assert main(["measure", "--input", str(path), "--pair", "x,negx"]) == 0
        value = float(capsys.readouterr().out.strip().split("=")[1])
        assert abs(value + 1.0) <= 2.0 / 50

    def test_mi_reports_lattice_order(self, tmp_path, capsys):
        path = tmp_path / "pair.csv"
        rng = np.random.default_rng(34)
        rows = "\n".join(
            f"{float(a)!r},{float(b)!r}" for a, b in rng.standard_normal((100, 2))
        )
        path.write_text("a,b\n" + rows + "\n")
        assert main(["measure", "--input", str(path), "--pair", "a,b",
                     "--measure", "mi-cell"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("mi_cell(a, b) = ")
        assert "[lattice_order=2]" in out
        assert main(["measure", "--input", str(path), "--pair", "a,b",
                     "--measure", "mi-cell", "--lattice-order", "5"]) == 0
        assert "[lattice_order=5]" in capsys.readouterr().out

    @pytest.mark.parametrize("tie_seed", [0, 1])
    @pytest.mark.parametrize("flag, measure", [
        ("rho", "rho_abs"), ("mi-cell", "mi_cell")])
    def test_prints_learns_matrix_entry(self, flag, measure, tie_seed, housing, capsys):
        # every housing column is tied, so the value depends on ranking the
        # whole table as learn does, whichever way round the pair is given
        w = weight_matrix(housing, measure, 0, tie_seed)
        i, j = housing.column_index("crim"), housing.column_index("rad")
        lines = []
        for pair in ("crim,rad", "rad,crim"):
            assert main(["measure", "--input", str(HOUSING), "--pair", pair,
                         "--measure", flag, "--tie-seed", str(tie_seed)]) == 0
            lines.append(capsys.readouterr().out)
        assert lines[0] == lines[1]
        assert lines[0].split(" = ")[1].split()[0] == f"{w.signed[i, j]:.6f}"

    def test_self_pair_rejected(self, tmp_path, capsys):
        path = tmp_path / "pair.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        assert main(["measure", "--input", str(path), "--pair", "a,a"]) == 1
        assert "distinct" in capsys.readouterr().err

    def test_unknown_column_rejected(self, tmp_path, capsys):
        path = tmp_path / "pair.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        assert main(["measure", "--input", str(path), "--pair", "a,q"]) == 1
        assert "unknown column" in capsys.readouterr().err

    def test_malformed_pair_rejected(self, tmp_path):
        path = tmp_path / "pair.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        assert main(["measure", "--input", str(path), "--pair", "a"]) == 1
        assert main(["measure", "--input", str(path), "--pair", "a,b,c"]) == 1

"""Smoke test of the benchmark itself: ``python -m pytest -q bench``.

Runs every workload at tiny sizes, checks the reference code against the
literal oracles of the package's tests, and shows that a corrupted result
is counted as a failed operation.
"""
import dataclasses
import json
import sys

import numpy as np
import pytest

import inputs
import reference
import run

TINY = {"cli-housing": (506, 14), "tall-csv": (300, 6), "wide-rho": (60, 12),
        "kde-mid": (200, 5)}


def tiny(name):
    rows, cols = TINY[name]
    return dataclasses.replace(inputs.WORKLOADS[name], rows=rows, cols=cols)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(inputs.WORKLOADS))
def test_every_workload_runs_and_checks(name, trace):
    result, lines, path = run.run(tiny(name), seed=3, seconds=0.2, trace=trace, launches=1)
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] >= 2
    units = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    record = json.loads(path.read_text())
    provenance = record["provenance"]
    assert len(provenance["input"]["sha256"]) == 64
    assert (provenance["T"], provenance["N"]) == TINY[name]
    for key in ("seed", "measure", "K", "python", "numpy", "scipy", "nproc", "cpu_model",
                "blas_threads", "git_commit", "host_loop_ms"):
        assert key in provenance


def test_traced_layers_cover_the_operation():
    result, _, _ = run.run(tiny("wide-rho"), seed=4, seconds=0.2, trace=1, launches=1)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    rows, cols = TINY["wide-rho"]
    assert metrics["measures.pair_calls"] == cols * (cols - 1) // 2
    assert metrics["dataset.rank_cols"] == cols
    assert metrics["measures.weights_s"] > 0 and metrics["structure.tree_s"] > 0
    assert metrics["dataset.load_s"] == 0 and metrics["measures.kde_s"] == 0


def _tiny_case(name, seed=5):
    workload = tiny(name)
    make = inputs.abalone_like if name == "kde-mid" else inputs.dependent_table
    values = make(np.random.default_rng(seed), *TINY[name])
    columns = [f"c{j}" for j in range(values.shape[1])]
    sys.path.insert(0, str(run.SRC))
    import coptree
    from coptree import cli

    tree = coptree.learn_structure(coptree.Dataset(tuple(columns), values),
                                   measure=workload.measure)
    ranks = coptree.column_ranks(values, "random", 0)
    ref = reference.reference_tree(columns, values, ranks, workload.measure)
    return ref, cli.tree_as_dict(tree)


@pytest.mark.parametrize("name", ["tall-csv", "wide-rho", "kde-mid"])
def test_reference_accepts_the_package_tree(name):
    ref, tree = _tiny_case(name)
    assert reference.output_problems(ref, json.dumps(tree)) == []


def test_corrupted_results_count_as_failed():
    ref, tree = _tiny_case("wide-rho")
    good = json.dumps(tree)
    swapped = json.loads(good)
    edge = swapped["edges"][0]
    other = next(n for n in swapped["nodes"] if n not in (edge["u"], edge["v"]))
    edge["v"] = other
    perturbed = json.loads(good)
    perturbed["edges"][-1]["weight"] += 1e-9
    worker = {"attempted": 10, "errors": 0, "mismatches": 0}
    assert run.failed_operations(worker, reference.output_problems(ref, good)) == 0
    for corrupted in (swapped, perturbed):
        problems = reference.output_problems(ref, json.dumps(corrupted))
        assert problems
        assert run.failed_operations(worker, problems) / worker["attempted"] == 1.0
    # one later output that differs from the first, and one exception
    assert run.failed_operations({"attempted": 10, "errors": 1, "mismatches": 1}, []) == 2


def test_reference_agrees_with_the_literal_oracles():
    tests_dir = run.ROOT / "tests"
    if not (tests_dir / "oracles.py").is_file():
        pytest.skip("the package's tests/oracles.py is not present")
    sys.path.insert(0, str(tests_dir))
    import oracles

    rng = np.random.default_rng(0)
    for rows in (7, 20, 33):
        ranks = np.column_stack([rng.permutation(rows) + 1 for _ in range(4)])
        for (i, j), (_, weight, rho) in reference.rho_pairs(ranks).items():
            assert rho == pytest.approx(oracles.naive_spearman(ranks[:, i], ranks[:, j]),
                                        abs=1e-12)
            assert weight == abs(rho)
        for order in (2, 3, rows // 2):
            for i, j in ((0, 1), (2, 3)):
                assert np.array_equal(reference.cell_counts(ranks[:, i], ranks[:, j], order),
                                      oracles.direct_bin_counts(ranks[:, [i, j]], order))


def test_seed_changes_values_not_shapes(tmp_path):
    workload = tiny("tall-csv")
    provenance = []
    for k, seed in enumerate((1, 2, 1)):
        workdir = tmp_path / str(k)
        workdir.mkdir()
        provenance.append(inputs.make_inputs(workload, seed, tmp_path, workdir)["provenance"])
    first, other, again = provenance
    assert (first["T"], first["N"]) == (other["T"], other["N"])
    assert first["input"]["sha256"] != other["input"]["sha256"]
    assert first["input"]["sha256"] == again["input"]["sha256"]


def test_import_split():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | site",
        "import time:        10 |         10 |     numpy.core",
        "import time:        20 |         30 |   numpy",
        "import time:         5 |          5 |       numpy.testing",
        "import time:        40 |         45 |     scipy.special",
        "import time:         5 |         50 |   scipy",
        "import time:         2 |         82 | coptree",
    ])
    split = run.import_split(stderr)
    assert split == pytest.approx({"numpy": 30e-6, "scipy": 50e-6, "coptree": 2e-6})


def test_missing_program_exits_nonzero(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "wide-rho", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(inputs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER

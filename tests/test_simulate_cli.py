from __future__ import annotations

import csv
import json
import os
import re
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import causaleffects
from causaleffects import (
    ERROR_FAMILIES,
    GraphValidationError,
    Mpdag,
    Pdag,
    bootstrap_ci,
    build_plan,
    estimate_total_effect,
    rng_from_seed,
    sample,
    save_graph,
)
from causaleffects import cli
from causaleffects.cli import _read_data_csv, main
from causaleffects.simulate import CSV_COLUMNS, REPORT_HEADER, _median, run_simulation

from .conftest import exact_cov_data


def _run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


@pytest.fixture
def chain_graph_file(tmp_path):
    g = Mpdag(("a", "m", "y"), (("a", "m"), ("m", "y")))
    path = tmp_path / "chain.json"
    save_graph(g, path)
    return str(path)


@pytest.fixture
def chain_data_file(tmp_path, chain_sem):
    x = sample(chain_sem, 400, rng_from_seed(31))
    path = tmp_path / "data.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["a", "m", "y"])
        w.writerows(x.tolist())
    return str(path), x


# ---------------------------------------------------------------------------
# simulation harness


def test_run_simulation_deterministic(tmp_path):
    kw = dict(n_vertices=5, treat_size=1, n=150, reps=5, seed=11)
    r1 = run_simulation(**kw)
    r2 = run_simulation(**kw)
    assert r1.records == r2.records
    assert r1.summary == r2.summary
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    r1.write_csv(p1)
    r2.write_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()


_PINNED_FIELDS = ("treatment", "outcome", "tau_true_sqnorm", "sq_err_g_regression",
                  "sq_err_adjustment", "adj_pop_avar_ratio")
# repr of (each record's _PINNED_FIELDS, None where absent, and the summary),
# recorded before the truth and the estimate were read through one assembly
_PINNED_SIMULATIONS = {
    1: "([('4', '2', 0.908171482171462, 0.01575686460389256, 3.667948000340784e-05, "
       "2.4969592151593245), ('3', '5', 0.14213390168769557, 0.002188886374834298, "
       "0.5501121519230112, 54.52737510554379)], {'g_regression': {'n_reps': 2, "
       "'geometric_mean_rel_sq_err': 1.0, 'median_rel_sq_err': 1.0}, 'adjustment': "
       "{'n_reps': 2, 'geometric_mean_rel_sq_err': 0.7648754008416042, "
       "'median_rel_sq_err': 125.66144447418732}})",
    2: "([('5;6', '4', 0.34546952779724915, 0.01260555259543441, None, None), "
       "('2;3', '4', 1.9273981959573205, 0.006921813440304782, None, None)], "
       "{'g_regression': {'n_reps': 2, 'geometric_mean_rel_sq_err': 1.0, "
       "'median_rel_sq_err': 1.0}, 'adjustment': None})",
}


@pytest.mark.parametrize("treat_size", [1, 2])
def test_simulation_is_pinned_bit_for_bit(treat_size):
    rep = run_simulation(n_vertices=6, treat_size=treat_size, n=150, reps=2, seed=11)
    got = [tuple(r.get(k) for k in _PINNED_FIELDS) for r in rep.records]
    assert repr((got, rep.summary)) == _PINNED_SIMULATIONS[treat_size]


def test_simulation_report_shape():
    rep = run_simulation(n_vertices=5, treat_size=1, n=150, reps=6, seed=3)
    assert [r["rep"] for r in rep.records] == list(range(6))
    for r in rep.records:
        assert r["sq_err_g_regression"] > 0.0
        assert r["outcome"] not in r["treatment"].split(";")
    g_row = rep.summary["g_regression"]
    assert g_row["geometric_mean_rel_sq_err"] == 1.0
    assert g_row["median_rel_sq_err"] == 1.0
    adj = rep.summary["adjustment"]
    assert adj is not None and adj["n_reps"] <= 6
    assert np.isfinite(adj["geometric_mean_rel_sq_err"])
    assert set(rep.summary) == {"g_regression", "adjustment"}


def test_simulation_joint_treatment_skips_adjustment():
    rep = run_simulation(n_vertices=5, treat_size=2, n=150, reps=4, seed=8)
    assert rep.summary["adjustment"] is None
    assert all("sq_err_adjustment" not in r for r in rep.records)
    assert all(len(r["treatment"].split(";")) == 2 for r in rep.records)


@pytest.mark.parametrize("family", [None, "gaussian", "mixed"])
def test_simulation_records_the_family(family):
    rep = run_simulation(n_vertices=5, treat_size=1, n=120, reps=4, seed=6, family=family)
    assert rep.params["family"] == family and "per_vertex_families" not in rep.params
    labels = {r["family"] for r in rep.records}
    if family is None:
        assert labels <= set(ERROR_FAMILIES)
    else:
        assert labels == {family}


def test_simulation_refuses_an_unknown_family_before_any_draw(monkeypatch):
    def no_draws(*args):
        raise AssertionError("run_simulation drew before checking its arguments")

    monkeypatch.setattr("causaleffects.simulate.rng_from_seed", no_draws)
    with pytest.raises(GraphValidationError, match="unknown error family 'foo'; expected"):
        run_simulation(n_vertices=6, treat_size=1, n=100, reps=2, seed=0, family="foo")


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"n_vertices": 1.5}, "n_vertices must be an integer, got 1.5"),
        ({"n_vertices": "6"}, "n_vertices must be an integer, got '6'"),
        ({"treat_size": True}, "treat_size must be an integer, got True"),
        ({"n": 100.0}, "n must be an integer, got 100.0"),
        ({"reps": True}, "reps must be an integer, got True"),
        ({"seed": True}, "seed must be an integer, got True"),
    ],
)
def test_simulation_refuses_non_integer_counts_before_any_draw(monkeypatch, kwargs, message):
    def no_draws(*args):
        raise AssertionError("run_simulation drew before checking its arguments")

    monkeypatch.setattr("causaleffects.simulate.rng_from_seed", no_draws)
    kw = {"n_vertices": 6, "treat_size": 1, "n": 100, "reps": 2, "seed": 0, **kwargs}
    with pytest.raises(GraphValidationError, match=re.escape(message)):
        run_simulation(**kw)


@pytest.mark.parametrize("rescale", ["no", 0, None])
def test_simulation_refuses_a_non_bool_rescale_before_any_draw(monkeypatch, rescale):
    def no_draws(*args):
        raise AssertionError("run_simulation drew before checking its arguments")

    monkeypatch.setattr("causaleffects.simulate.rng_from_seed", no_draws)
    with pytest.raises(GraphValidationError,
                       match=re.escape(f"rescale must be a bool, got {rescale!r}")):
        run_simulation(n_vertices=5, treat_size=1, n=50, reps=1, seed=0, rescale=rescale)


def test_simulation_reads_a_numpy_bool_rescale_as_a_bool():
    kw = dict(n_vertices=5, treat_size=1, n=60, reps=2, seed=3)
    got = run_simulation(**kw, rescale=np.True_)
    want = run_simulation(**kw, rescale=True)
    assert got.params["rescale"] is True and got.summary_json() == want.summary_json()
    assert got.records == want.records


def test_simulation_summary_reads_back_with_numpy_counts():
    """numpy integers come back as Python ints, so the summary is valid JSON."""
    rep = run_simulation(n_vertices=np.int64(6), treat_size=np.int32(1), n=np.int64(100),
                         reps=np.int64(2), seed=np.uint64(3))
    summary = json.loads(rep.summary_json())
    assert summary["params"]["n_vertices"] == 6 and summary["params"]["seed"] == 3
    assert rep.records == run_simulation(n_vertices=6, treat_size=1, n=100, reps=2,
                                         seed=3).records


def test_summary_median_is_the_statistics_median():
    """The summary's private median gives statistics.median's float bit for
    bit, on odd and even lengths, ties and a single value included."""
    import statistics

    rng = np.random.default_rng(19)
    for size in [1, 2, 3, 4, *rng.integers(5, 200, size=60)]:
        values = (rng.lognormal(size=size) * rng.choice([1e-6, 1.0, 1e6])).tolist()
        if size > 3:
            values[1] = values[0]
        got, want = _median(values), statistics.median(values)
        assert repr(got) == repr(want), (size, got, want)


def test_importing_the_package_skips_the_statistics_module():
    """statistics pulls in fractions and decimal, a cost paid at every start
    of the command line; the package imports none of them."""
    script = "import sys, causaleffects.cli; print(sorted({'statistics', 'fractions', " \
             "'decimal'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(causaleffects.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout == "[]\n"


def test_simulation_csv_layout(tmp_path):
    rep = run_simulation(n_vertices=4, treat_size=1, n=120, reps=3, seed=5)
    path = tmp_path / "report.csv"
    rep.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == REPORT_HEADER
    assert lines[1].split(",") == CSV_COLUMNS
    assert len(lines) == 2 + 3


# ---------------------------------------------------------------------------
# cli: graph subcommand


def test_cli_graph_validate_ok(capsys, chain_graph_file):
    code, out, _ = _run(capsys, "graph", "validate", "--graph", chain_graph_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] is True and payload["violations"] == []


def test_cli_graph_validate_violation(capsys, tmp_path):
    path = tmp_path / "open.json"
    save_graph(Pdag(("a", "b", "c"), (("a", "b"),), (("b", "c"),)), path)
    code, out, _ = _run(capsys, "graph", "validate", "--graph", str(path))
    assert code == 2
    payload = json.loads(out)
    assert payload["valid"] is False
    assert payload["violations"][0]["rule"] == "R1"


def test_cli_graph_buckets(capsys, tmp_path, three_bucket_graph):
    path = tmp_path / "g.json"
    save_graph(three_bucket_graph, path)
    code, out, _ = _run(capsys, "graph", "buckets", "--graph", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["buckets"] == [["1"], ["2", "3", "4"], ["5", "6"]]
    assert payload["external_parents"][2] == ["4"]


def test_cli_graph_cpdag(capsys, tmp_path, chain_graph_file, three_bucket_graph):
    code, out, _ = _run(capsys, "graph", "cpdag", "--graph", chain_graph_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["directed"] == []
    assert len(payload["undirected"]) == 2
    # not a DAG -> invalid input for this action
    path = tmp_path / "g.json"
    save_graph(three_bucket_graph, path)
    code, _, err = _run(capsys, "graph", "cpdag", "--graph", str(path))
    assert code == 2 and "invalid graph" in err


def test_cli_graph_saturate_out_file(capsys, tmp_path, three_bucket_graph):
    path = tmp_path / "g.json"
    out_path = tmp_path / "saturated.json"
    save_graph(three_bucket_graph, path)
    code, out, _ = _run(
        capsys, "graph", "saturate", "--graph", str(path), "--out", str(out_path)
    )
    assert code == 0 and out == ""
    payload = json.loads(out_path.read_text())
    assert ["1", "5"] in payload["directed"]


def test_cli_graph_missing_and_malformed(capsys, tmp_path):
    code, _, err = _run(capsys, "graph", "validate", "--graph", str(tmp_path / "no.json"))
    assert code == 3 and "cannot read graph" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = _run(capsys, "graph", "validate", "--graph", str(bad))
    assert code == 3
    schema = tmp_path / "schema.json"
    schema.write_text('{"vertices": ["a"], "directed": []}')
    code, _, err = _run(capsys, "graph", "validate", "--graph", str(schema))
    assert code == 2 and "undirected" in err


def test_cli_id_refuses_a_repeated_graph_field(capsys, tmp_path):
    """Were the last ``directed`` kept, a -> b -> c would read as three
    unconnected vertices and the effect as identified."""
    path = tmp_path / "g.json"
    path.write_text('{"vertices": ["a", "b", "c"], "directed": [["a", "b"], ["b", "c"]], '
                    '"undirected": [], "directed": []}')
    code, out, err = _run(capsys, "id", "--graph", str(path), "--treat", "a", "--outcome", "c")
    assert code == 2 and out == ""
    assert err == "invalid graph: JSON object repeats the 'directed' field\n"


def test_cli_out_of_memory_is_an_input_error(capsys, chain_graph_file, chain_data_file):
    """10**15 replicates need an array larger than any address space: numpy
    refuses it at once, and the CLI exits 3, not 1 (not identified)."""
    data_path, _ = chain_data_file
    code, out, err = _run(capsys, "estimate", "--graph", chain_graph_file, "--data", data_path,
                          "--treat", "a", "--outcome", "y", "--bootstrap", str(10**15))
    assert code == 3 and out == ""
    assert err.startswith("input error: out of memory: ")


def test_cli_usage_error(capsys):
    code, _, err = _run(capsys, "frobnicate")
    assert code == 3 and "input error" in err


# ---------------------------------------------------------------------------
# cli: one parser per process


@pytest.fixture
def fresh_parser():
    """Clear main's cached parser before and after the test."""
    cli._build_parser.cache_clear()
    yield
    cli._build_parser.cache_clear()


def test_cached_parser_carries_nothing_between_calls(capsys, tmp_path, chain_graph_file,
                                                     chain_data_file, fresh_parser):
    """Each call on the parser that earlier calls used answers as the same
    call on a freshly built parser: exit code, stdout, stderr and --out file."""
    data_path, _ = chain_data_file
    out_path = tmp_path / "boot.json"
    query = ("--graph", chain_graph_file, "--treat", "a", "--outcome", "y")
    boot = ("estimate", *query, "--data", data_path, "--center", "--bootstrap", "20",
            "--seed", "3", "--level", "0.9", "--out", str(out_path))
    calls = [boot, ("estimate", *query, "--data", data_path), ("id", *query),
             ("graph", "buckets", "--graph", chain_graph_file),
             ("estimate", *query),  # no --data: a usage error
             ("--help",), boot]

    def answer(argv):
        code = main(list(argv))
        cap = capsys.readouterr()
        written = out_path.read_text() if out_path.exists() else None
        out_path.unlink(missing_ok=True)
        return code, cap.out, cap.err, written

    cached = [answer(argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(answer(argv))
    assert [c[0] for c in cached] == [0, 0, 0, 0, 3, 0, 0]
    assert cached[0][3] is not None and cached[0] == cached[-1]
    assert cached == fresh


def test_main_builds_its_parser_once(capsys, chain_graph_file, monkeypatch, fresh_parser):
    built = []

    class Counting(cli._Parser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs["prog"])  # the subcommands' parsers are built as this class too
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "_Parser", Counting)
    for argv in (["graph", "validate", "--graph", chain_graph_file], ["frobnicate"],
                 ["--help"]) * 4:
        main(argv)
    capsys.readouterr()
    assert built.count("causal-effects") == 1 and len(built) == 5


# ---------------------------------------------------------------------------
# cli: id subcommand


def test_cli_id_identified(capsys, tmp_path, three_bucket_graph):
    path = tmp_path / "g.json"
    save_graph(three_bucket_graph, path)
    code, out, _ = _run(
        capsys, "id", "--graph", str(path), "--treat", "1", "--outcome", "5"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["identified"] is True
    assert payload["d_set"] == ["4", "5"]
    assert payload["parents_per_bucket"] == [["1"], ["4"]]


def test_cli_id_not_identified(capsys, tmp_path, three_bucket_graph):
    path = tmp_path / "g.json"
    save_graph(three_bucket_graph, path)
    code, out, _ = _run(
        capsys, "id", "--graph", str(path), "--treat", "3", "--outcome", "5"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["identified"] is False and "undirected" in payload["reason"]
    assert payload["blocking_path"] == ["3", "4", "5"]


def test_cli_id_bad_query(capsys, chain_graph_file):
    code, _, err = _run(
        capsys, "id", "--graph", chain_graph_file, "--treat", "q", "--outcome", "y"
    )
    assert code == 3 and "bad input" in err
    # strict loading refuses graphs that are not rule-closed
    code2, _, err2 = _run(
        capsys, "id", "--graph", chain_graph_file, "--treat", "a", "--outcome", "a"
    )
    assert code2 == 3


def test_cli_id_requires_closed_graph(capsys, tmp_path):
    path = tmp_path / "open.json"
    save_graph(Pdag(("a", "b", "c"), (("a", "b"),), (("b", "c"),)), path)
    code, _, err = _run(
        capsys, "id", "--graph", str(path), "--treat", "a", "--outcome", "c"
    )
    assert code == 2 and "R1" in err


# ---------------------------------------------------------------------------
# cli: estimate subcommand


def test_cli_estimate_matches_library(capsys, tmp_path, chain_graph_file, chain_data_file):
    data_path, x = chain_data_file
    out_path = tmp_path / "est.json"
    code, _, _ = _run(
        capsys, "estimate", "--graph", chain_graph_file, "--data", data_path,
        "--treat", "a", "--outcome", "y", "--out", str(out_path),
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    g = Mpdag(("a", "m", "y"), (("a", "m"), ("m", "y")))
    want = estimate_total_effect(g, ("a",), "y", data=x).to_dict()
    assert payload["tau"] == pytest.approx(want["tau"])
    assert np.allclose(payload["acov"], want["acov"])
    assert payload["method"] == "g_regression"


def test_cli_estimate_column_order_irrelevant(capsys, tmp_path, chain_graph_file, chain_sem):
    x = sample(chain_sem, 300, rng_from_seed(41))
    shuffled = tmp_path / "shuffled.csv"
    with open(shuffled, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["y", "a", "m"])
        w.writerows(x[:, [2, 0, 1]].tolist())
    code, out, _ = _run(
        capsys, "estimate", "--graph", chain_graph_file, "--data", str(shuffled),
        "--treat", "a", "--outcome", "y",
    )
    assert code == 0
    want = estimate_total_effect(
        Mpdag(("a", "m", "y"), (("a", "m"), ("m", "y"))), ("a",), "y", data=x
    )
    assert json.loads(out)["tau"]["a"] == pytest.approx(want.tau[0])


@pytest.mark.parametrize("center", [False, True])
def test_cli_estimate_prints_the_library_result_bit_for_bit(capsys, tmp_path, chain_graph_file,
                                                            chain_sem, center):
    """The printed estimate is the library's on the array the file holds,
    whichever order the header lists the columns in (a column-ordered copy
    once changed the centred means in their last bits)."""
    g = Mpdag(("a", "m", "y"), (("a", "m"), ("m", "y")))
    path = tmp_path / "data.csv"
    for n in (150, 400, 1000):
        x = sample(chain_sem, n, rng_from_seed(n))
        want = estimate_total_effect(g, ("a",), "y", data=x, center=center).to_dict()
        for order in ([0, 1, 2], [2, 0, 1]):
            with open(path, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow([g.vertices[i] for i in order])
                w.writerows(x[:, order].tolist())
            code, out, _ = _run(capsys, "estimate", "--graph", chain_graph_file, "--data",
                                str(path), "--treat", "a", "--outcome", "y",
                                *["--center"] * center)
            assert code == 0 and json.loads(out) == want, (n, order)


def test_cli_estimate_bootstrap(capsys, chain_graph_file, chain_data_file):
    data_path, x = chain_data_file
    code, out, _ = _run(
        capsys, "estimate", "--graph", chain_graph_file, "--data", data_path,
        "--treat", "a", "--outcome", "y",
        "--bootstrap", "150", "--level", "0.9", "--seed", "7",
    )
    assert code == 0
    payload = json.loads(out)
    want = estimate_total_effect(
        Mpdag(("a", "m", "y"), (("a", "m"), ("m", "y"))),
        ("a",), "y", data=x, n_boot=150, level=0.9, seed=7,
    )
    ci = payload["ci"]
    assert ci["level"] == 0.9
    assert ci["lower"] == pytest.approx({"a": want.ci_lower[0]})
    assert ci["upper"] == pytest.approx({"a": want.ci_upper[0]})
    assert ci["lower"]["a"] < payload["tau"]["a"] < ci["upper"]["a"]


def test_cli_estimate_not_identified(capsys, tmp_path, chain_data_file):
    data_path, _ = chain_data_file
    path = tmp_path / "undirected.json"
    save_graph(Mpdag(("a", "m", "y"), (), (("a", "m"), ("m", "y"), ("a", "y"))), path)
    code, _, err = _run(
        capsys, "estimate", "--graph", str(path), "--data", data_path,
        "--treat", "a", "--outcome", "y",
    )
    assert code == 1 and "undirected" in err


def test_cli_estimate_data_mismatch(capsys, tmp_path, chain_graph_file):
    path = tmp_path / "short.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["a", "m"])
        w.writerows([[0.1, 0.2], [0.3, 0.4]])
    code, _, err = _run(
        capsys, "estimate", "--graph", chain_graph_file, "--data", str(path),
        "--treat", "a", "--outcome", "y",
    )
    assert code == 3 and "'y'" in err and "missing" in err


def test_cli_estimate_rejects_bad_values(capsys, tmp_path, chain_graph_file):
    path = tmp_path / "nan.csv"
    path.write_text("a,m,y\n1.0,2.0,nan\n0.5,0.1,0.2\n")
    code, _, err = _run(
        capsys, "estimate", "--graph", chain_graph_file, "--data", str(path),
        "--treat", "a", "--outcome", "y",
    )
    assert code == 3 and "finite" in err
    path.write_text("a,m,y\n1.0,two,3.0\n")
    code, _, err = _run(
        capsys, "estimate", "--graph", chain_graph_file, "--data", str(path),
        "--treat", "a", "--outcome", "y",
    )
    assert code == 3 and "decimal" in err


def test_cli_estimate_skips_blank_lines(capsys, tmp_path, chain_graph_file, chain_data_file):
    data_path, _ = chain_data_file
    path = tmp_path / "blank.csv"
    with open(data_path) as fh:
        path.write_text("\n" + fh.read() + "\n")
    runs = [
        _run(capsys, "estimate", "--graph", chain_graph_file, "--data", d,
             "--treat", "a", "--outcome", "y")
        for d in (data_path, str(path))
    ]
    assert runs[0][0] == 0 and runs[1] == runs[0]


def test_cli_estimate_ignores_a_byte_order_mark(capsys, tmp_path, chain_graph_file, chain_data_file):
    data_path, _ = chain_data_file
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + Path(data_path).read_bytes())
    runs = [
        _run(capsys, "estimate", "--graph", chain_graph_file, "--data", d,
             "--treat", "a", "--outcome", "y")
        for d in (data_path, str(path))
    ]
    assert runs[0][0] == 0 and runs[1] == runs[0]


@pytest.mark.parametrize(
    "body, row, fields",
    [("1,2,3\n4,5\n6,7,8\n", 2, 2), ("1,2\n3,4\n", 1, 2), ("1,2,3,4\n5,6,7,8\n", 1, 4)],
)
def test_cli_estimate_names_a_ragged_row(capsys, tmp_path, chain_graph_file, body, row, fields):
    path = tmp_path / "ragged.csv"
    path.write_text("a,m,y\n" + body)
    code, _, err = _run(
        capsys, "estimate", "--graph", chain_graph_file, "--data", str(path),
        "--treat", "a", "--outcome", "y",
    )
    assert code == 3 and f"data row {row} has {fields} fields, the header has 3" in err


def test_cli_id_ignores_a_byte_order_mark(capsys, tmp_path, chain_graph_file):
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xef\xbb\xbf" + Path(chain_graph_file).read_bytes())
    runs = [_run(capsys, "id", "--graph", g, "--treat", "a", "--outcome", "y")
            for g in (chain_graph_file, str(path))]
    assert runs[0][0] == 0 and runs[1] == runs[0]


def _csv_text(rows, cell="{}", end="\n"):
    return "".join(",".join(cell.format(v) for v in row) + end for row in rows)


# layouts the data reader accepts, each applied to every row, header included
_ACCEPTED_LAYOUTS = {
    "crlf": lambda rows: _csv_text(rows, end="\r\n"),
    "cr_only": lambda rows: _csv_text(rows, end="\r"),
    "padded": lambda rows: _csv_text(rows, cell="  {} "),
    "tab_padded": lambda rows: _csv_text(rows, cell="\t{}\t"),
    "quoted": lambda rows: _csv_text(rows, cell='"{}"'),
    "quoted_newline": lambda rows: _csv_text(rows, cell='"{}\n"'),
    "blank_lines": lambda rows: "\n\r\n" + _csv_text(rows, end="\n\n"),
    "no_final_newline": lambda rows: _csv_text(rows)[:-1],
    "form_feed": lambda rows: _csv_text(rows, cell="\f{}"),
    "non_breaking_space": lambda rows: _csv_text(rows, cell="{}\xa0"),
}


@pytest.mark.parametrize("layout", sorted(_ACCEPTED_LAYOUTS))
def test_cli_estimate_reads_every_accepted_layout(capsys, tmp_path, chain_graph_file,
                                                  chain_data_file, layout):
    """A file in each layout estimates exactly as the plain CSV of the same
    values does, bootstrap included."""
    data_path, _ = chain_data_file
    with open(data_path, newline="") as fh:
        rows = list(csv.reader(fh))
    path = tmp_path / "layout.csv"
    path.write_text(_ACCEPTED_LAYOUTS[layout](rows), encoding="utf-8", newline="")
    runs = [
        _run(capsys, "estimate", "--graph", chain_graph_file, "--data", d,
             "--treat", "a", "--outcome", "y", "--bootstrap", "20")
        for d in (data_path, str(path))
    ]
    assert runs[0][0] == 0 and runs[1] == runs[0]


def test_reader_reads_a_single_column(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("a\n1.5\n\n-2\n")
    assert _read_data_csv(str(path), ("a",)).tolist() == [[1.5], [-2.0]]


_BASE = "a,m,y\n1,2,3\n4,5,6\n"
_DECIMALS = "input error: data values must be decimals: could not convert string to float: "
_FINITE = "input error: data values must be finite and non-empty\n"

# file contents the reader refuses, and the whole stderr of `estimate` (a
# message without a final newline is a prefix: the rest is the codec's)
_REFUSED_LAYOUTS = {
    "hash_in_field": (_BASE + "1,2,#3\n", _DECIMALS + "'#3'\n"),
    "comment_line": (_BASE + "# note\n", "input error: data row 3 has 1 fields, the header has 3\n"),
    "whitespace_line": (_BASE + "   \n", "input error: data row 3 has 1 fields, the header has 3\n"),
    "trailing_comma": (_BASE + "1,2,3,\n", "input error: data row 3 has 4 fields, the header has 3\n"),
    "empty_field": (_BASE + "1,,3\n", _DECIMALS + "''\n"),
    "nul": (_BASE + "1,2\x00,3\n", _DECIMALS + "'2\\x00'\n"),
    "doubled_quote": (_BASE + '"1""2",2,3\n', _DECIMALS + "'1\"2'\n"),
    "unterminated_quote": (_BASE + '"1,2,3\n',
                           "input error: data row 3 has 1 fields, the header has 3\n"),
    "quoted_comma": (_BASE + '"1,5",2,3\n', _DECIMALS + "'1,5'\n"),
    "hex": (_BASE + "0x10,2,3\n", _DECIMALS + "'0x10'\n"),
    "fortran_exponent": (_BASE + "1d3,2,3\n", _DECIMALS + "'1d3'\n"),
    "nan": (_BASE + "nan,2,3\n", _FINITE),
    "overflow": (_BASE + "1,-1e999,3\n", _FINITE),
    "ragged_before_a_word": (_BASE + "1,2\nx,1,2\n",
                             "input error: data row 3 has 2 fields, the header has 3\n"),
    "word_before_nan": (_BASE + "x,1,2\nnan,1,2\n", _DECIMALS + "'x'\n"),
    "header_before_a_word": ("a,m,q\n1,2,x\n", "input error: data columns do not match the "
                             "graph: missing graph vertices ['y']; columns ['q'] are not graph "
                             "vertices\n"),
    "blank_only": ("\n\r\n\n", "input error: data file is empty\n"),
    "long_word": (_BASE + "1,2," + "x" * 200_000 + "\n",
                  "input error: cannot read data: field larger than field limit (131072)\n"),
    "late_latin1_after_a_header_mismatch": (
        ("a,m,q\n" + "1,2,3\n" * 3000).encode() + "é,1,2\n".encode("latin-1"),
        "input error: cannot read data: 'utf-8' codec can't decode byte 0xe9 in position "),
}


@pytest.mark.parametrize("layout", sorted(_REFUSED_LAYOUTS))
def test_cli_estimate_refuses_every_malformed_layout(capsys, tmp_path, chain_graph_file, layout):
    text, message = _REFUSED_LAYOUTS[layout]
    path = tmp_path / "bad.csv"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text, encoding="utf-8", newline="")
    code, out, err = _run(
        capsys, "estimate", "--graph", chain_graph_file, "--data", str(path),
        "--treat", "a", "--outcome", "y",
    )
    assert (code, out) == (3, "")
    assert err.startswith(message) and err.count("\n") == 1, err


@pytest.mark.parametrize("text", ["a,m,y\n", "a,m,y\n\n\r\n", "a,m,y"])
def test_cli_estimate_refuses_a_header_only_file_without_a_warning(capsys, tmp_path,
                                                                   chain_graph_file, text):
    path = tmp_path / "header.csv"
    path.write_text(text, newline="")
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        got = _run(capsys, "estimate", "--graph", chain_graph_file, "--data", str(path),
                   "--treat", "a", "--outcome", "y")
    assert got == (3, "", _FINITE)
    assert not seen


@pytest.mark.parametrize(
    "field, plain",
    [("0." + "0" * 150_000 + "1", "0"),  # longer than csv's field limit
     ("2\x1c", "2")],  # padded with an ASCII separator, as numpy strips it
    ids=["long_decimal", "separator_padding"],
)
def test_cli_estimate_reads_a_decimal_that_only_numpy_reads(capsys, tmp_path, chain_graph_file,
                                                            chain_data_file, field, plain):
    """Declared: numpy's reader decides what a decimal is, so these values
    read as the plain value does; csv and Python's float refused them."""
    data_path, _ = chain_data_file
    text = Path(data_path).read_text()
    runs = []
    for name, value in (("plain", plain), ("field", field)):
        path = tmp_path / f"{name}.csv"
        path.write_text(text + f"1.5,{value},-0.5\n", newline="")
        runs.append(_run(capsys, "estimate", "--graph", chain_graph_file, "--data", str(path),
                         "--treat", "a", "--outcome", "y"))
    assert runs[0][0] == 0 and runs[1] == runs[0]


@pytest.mark.parametrize("field", ["1_000", "\u0661", "\uff11"])
def test_cli_estimate_refuses_a_value_only_python_float_reads(capsys, tmp_path, chain_graph_file,
                                                              field):
    """Declared: digit-group underscores and non-ASCII digits, which
    Python's float reads, are not decimals.  The message numbers the row as
    the ragged-row message does: body rows from 1, blank lines skipped."""
    path = tmp_path / "digits.csv"
    path.write_text(_BASE + f"\n1,2,{field}\n" * 3, encoding="utf-8")
    code, out, err = _run(capsys, "estimate", "--graph", chain_graph_file, "--data", str(path),
                          "--treat", "a", "--outcome", "y")
    assert (code, out) == (3, "") and err.count("\n") == 1
    assert err.startswith("input error: data values must be decimals: ") and f"'{field}'" in err
    assert err.endswith(" at data row 3, column 3.\n"), err
    path.write_text(_BASE + "\n1,2\n", encoding="utf-8")  # the same row, ragged
    assert _run(capsys, "estimate", "--graph", chain_graph_file, "--data", str(path),
                "--treat", "a", "--outcome", "y")[2].startswith("input error: data row 3 has")


def _loadtxt_after_the_header(path):
    """What numpy's C reader gives on the open file once csv has read the
    header: the array the data reader must return."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        next(filter(None, csv.reader(fh)))
        return np.loadtxt(fh, delimiter=",", comments=None, quotechar='"', ndmin=2, dtype=float)


def _loadtxt_spy(monkeypatch, before=None):
    """The list of the first arguments that later ``np.loadtxt`` calls get;
    ``before(arg)`` runs ahead of each call."""
    seen, real = [], np.loadtxt

    def spy(fname, *args, **kwargs):
        seen.append(fname)
        if before is not None:
            before(fname)
        return real(fname, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    return seen


# layouts applied to the header line alone, ahead of a plain body
_HEADER_LAYOUTS = {
    "bom_cr_blank_lines": lambda header: "\ufeff\r\r" + header + "\n",
    "bom_crlf_blank_lines": lambda header: "\ufeff\r\n\r\n" + header + "\r\n",
    "quoted_newline_header": lambda header: ",".join(f'"{h}\n"' for h in header.split(",")) + "\n",
}


@pytest.mark.parametrize("layout", sorted(_ACCEPTED_LAYOUTS) + sorted(_HEADER_LAYOUTS))
def test_reader_hands_numpy_the_path_of_a_regular_file(monkeypatch, tmp_path, chain_data_file,
                                                       layout):
    """numpy reads a regular file's body from its path, in chunks, and
    returns the very array it gives on the open file after the header."""
    data_path, _ = chain_data_file
    with open(data_path, newline="") as fh:
        rows = list(csv.reader(fh))
    if layout in _HEADER_LAYOUTS:
        text = _HEADER_LAYOUTS[layout](",".join(rows[0])) + _csv_text(rows[1:])
    else:
        text = _ACCEPTED_LAYOUTS[layout](rows)
    path = tmp_path / "layout.csv"
    path.write_text(text, encoding="utf-8", newline="")
    want = _loadtxt_after_the_header(path)
    seen = _loadtxt_spy(monkeypatch)
    got = _read_data_csv(str(path), ("a", "m", "y"))
    assert seen == [str(path)]
    assert got.shape == want.shape == (len(rows) - 1, 3) and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["data.csv.gz", "data.csv.BZ2", "data.csv.xz",
                                  "http://localhost/data.csv"])
def test_reader_keeps_the_handle_where_numpy_would_not_open_the_path_as_a_file(
        monkeypatch, tmp_path, chain_data_file, name):
    """numpy's path reader decompresses a .gz, .bz2, .xz or .lzma file and
    fetches a URL: such a name is read through the open file, as plain text."""
    data_path, _ = chain_data_file
    monkeypatch.chdir(tmp_path)
    path = Path(name)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(Path(data_path).read_bytes())

    def refuse_a_path(fname):
        assert not isinstance(fname, str), fname  # before numpy opens anything

    seen = _loadtxt_spy(monkeypatch, before=refuse_a_path)
    got = _read_data_csv(name, ("a", "m", "y"))
    assert len(seen) == 1
    assert got.tobytes() == _loadtxt_after_the_header(path).tobytes()


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
def test_files_made_as_they_are_read_are_not_opened_again(tmp_path):
    """A file under /dev, /proc or /sys, or a link to one, may give other
    rows when opened again; a plain file, or a link to one, may not."""
    (tmp_path / "data.csv").write_text("a\n1\n")
    (tmp_path / "status").symlink_to("/proc/self/status")
    (tmp_path / "plain").symlink_to(tmp_path / "data.csv")
    for path in ["/proc/self/status", "/dev/stdin", "/sys/kernel/x", str(tmp_path / "status")]:
        assert not cli._reopenable(path), path
    for path in [str(tmp_path / "data.csv"), str(tmp_path / "plain"), "data.csv"]:
        assert cli._reopenable(path), path


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs POSIX named pipes")
def test_reader_reads_every_row_of_a_named_pipe(tmp_path):
    """A pipe cannot be opened again for its body: the reader keeps the
    handle, and every row a writer sends arrives."""
    x = np.random.default_rng(5).standard_normal((3000, 3))
    text = "a,m,y\n" + _csv_text(x.tolist(), cell="{!r}")
    fifo = tmp_path / "data.pipe"
    os.mkfifo(fifo)
    done = threading.Event()

    def write():
        with open(fifo, "w", encoding="utf-8") as fh:
            fh.write(text)
        if not done.wait(10):  # a reader that opened the pipe again waits for a writer
            open(fifo, "w").close()

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        got = _read_data_csv(str(fifo), ("a", "m", "y"))
    finally:
        done.set()
    writer.join(20)
    assert not writer.is_alive()
    assert got.shape == x.shape and got.tobytes() == x.tobytes()


@pytest.mark.parametrize("change", ["replaced", "removed"])
def test_cli_estimate_refuses_a_file_replaced_while_it_is_read(capsys, monkeypatch, tmp_path,
                                                               chain_graph_file, chain_data_file,
                                                               change):
    """Header and body come from one file: a path that no longer names the
    opened file once the body is read exits 3, naming the fault."""
    data_path, _ = chain_data_file
    path = tmp_path / "data.csv"
    path.write_bytes(Path(data_path).read_bytes())
    other = tmp_path / "other.csv"
    other.write_text("a,m,y\n" + "1,2,3\n4,5,7\n" * 50)

    def swap(fname):
        if change == "replaced":
            os.replace(other, path)
        else:
            path.unlink()

    _loadtxt_spy(monkeypatch, before=swap)
    code, out, err = _run(capsys, "estimate", "--graph", chain_graph_file, "--data", str(path),
                          "--treat", "a", "--outcome", "y")
    assert (code, out) == (3, "")
    assert err == f"input error: cannot read data: {path} was replaced while it was read\n"


def _fuzz_field(rng) -> str:
    """A decimal, with any sign, point and exponent, sometimes padded or quoted."""
    digits = "".join(rng.choice(list("0123456789"), size=rng.integers(1, 6)))
    value = str(rng.choice(["", "-", "+"])) + digits
    if rng.random() < 0.5:
        cut = 1 + rng.integers(len(value))
        value = value[:cut] + "." + value[cut:]
    if rng.random() < 0.3:
        value += str(rng.choice(["e", "E"])) + str(rng.choice(["", "-", "+"])) + str(rng.integers(310))
    if rng.random() < 0.2:
        value = str(rng.choice([" ", "\t", "  "])) + value + str(rng.choice(["", " ", "\t"]))
    if rng.random() < 0.15:
        value = '"' + value + str(rng.choice(["", "\n", "\r\n", "\r"])) + '"'
    return value


_NON_DECIMALS = ["x", "nan", "-inf", "1e999", "", "0x1f", "1_0", "1d3", "1e", ".", "--1",
                 "\u0661", "1 2", "#3", '"1""2"', '"1,5"']


def _fuzz_file(rng) -> bytes:
    """A random data file for the graph a -> m -> y: most read, the rest
    have a non-decimal value, a ragged row, a foreign column or no rows."""
    header = [str(h) for h in rng.permutation(["a", "m", "y"])]
    if rng.random() < 0.05:
        header[rng.integers(3)] = "q"
    body = [[_fuzz_field(rng) for _ in range(3)] for _ in range(rng.integers(0, 7))]
    if body and rng.random() < 0.3:
        body[rng.integers(len(body))][rng.integers(3)] = str(rng.choice(_NON_DECIMALS))
    if body and rng.random() < 0.1:
        row = body[rng.integers(len(body))]
        row.append("1") if rng.random() < 0.5 else row.pop()
    lines = []
    for row in [header] + body:
        lines += [""] * int(rng.choice([0, 0, 0, 1, 2]))  # blank lines
        lines.append(",".join(row))
    ends = [str(rng.choice(["\n", "\r\n", "\r"])) for _ in lines]
    if rng.random() < 0.5:  # one line end throughout
        ends = [ends[0]] * len(lines)
    text = "".join(line + end for line, end in zip(lines, ends))
    if rng.random() < 0.2:
        text = text.rstrip("\r\n")
    return (b"\xef\xbb\xbf" if rng.random() < 0.2 else b"") + text.encode()


def _read_or_refusal(path):
    try:
        x = _read_data_csv(str(path), ("a", "m", "y"))
    except cli._CliInputError as e:
        return "input error: " + str(e)
    return x.shape, x.tobytes()


def test_reader_reads_random_files_as_it_does_through_the_handle(monkeypatch, tmp_path):
    """About 200 random files of decimals, signs, exponents, quotes, padding,
    CR/LF/CRLF line ends, blank lines, byte-order marks, ragged rows and
    non-decimals: the path read gives the handle read's array bit for bit,
    and a refusal its message."""
    rng = np.random.default_rng(2024)
    outcomes = set()
    for k in range(200):
        path = tmp_path / f"fuzz{k}.csv"
        path.write_bytes(_fuzz_file(rng))
        got = _read_or_refusal(path)
        with monkeypatch.context() as m:
            m.setattr(cli, "_reopenable", lambda path: False)
            want = _read_or_refusal(path)
        assert got == want, path.read_bytes()
        outcomes.add(isinstance(got, str))
    assert outcomes == {True, False}  # the files hold both kinds


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the peak resident set from /proc/self/status, "
                           "which this platform lacks")
def test_reader_memory_stays_within_a_small_multiple_of_the_array(tmp_path):
    """Reading a 100,000 x 10 file whose header lists the vertices in order
    raises the peak resident set by at most 1.5x the array's size: the C
    reader's array is returned without a reordering copy (which took ~2x),
    and keeping every field as a Python string took ~15x."""
    labels = [f"v{j}" for j in range(10)]
    block = np.random.default_rng(3).standard_normal((1000, 10))
    path = tmp_path / "big.csv"
    path.write_text(",".join(labels) + "\n"
                    + (("%.17g," * 9 + "%.17g\n") * 1000 % tuple(block.ravel())) * 100)
    script = (
        "import json, sys\n"
        "from causaleffects.cli import _read_data_csv\n"
        "def peak():  # kB; ru_maxrss would keep the forking process's peak across exec\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return next(int(line.split()[1]) for line in fh if line.startswith('VmHWM:'))\n"
        "before = peak()\n"
        "x = _read_data_csv(sys.argv[1], tuple(sys.argv[2:]))\n"
        "print(json.dumps([before, peak(), x.nbytes, list(x.shape)]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(causaleffects.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script, str(path), *labels], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    before, after, nbytes, shape = json.loads(done.stdout)
    assert shape == [100_000, 10]
    assert (after - before) * 1024 <= 1.5 * nbytes, (after - before) * 1024 / nbytes


@pytest.mark.parametrize("n_boot", ["-1", "1"])
def test_cli_estimate_rejects_too_few_replicates(
    capsys, chain_graph_file, chain_data_file, n_boot
):
    data_path, _ = chain_data_file
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(
            capsys, "estimate", "--graph", chain_graph_file, "--data", data_path,
            "--treat", "a", "--outcome", "y", "--bootstrap", n_boot,
        )
    assert code == 3 and out == ""
    assert err == f"bad input: need at least 2 bootstrap replicates, got {n_boot}\n"


@pytest.mark.parametrize("level", ["5", "0", "nan"])
def test_cli_estimate_checks_level_without_a_bootstrap(capsys, chain_graph_file, chain_data_file,
                                                      level):
    data_path, _ = chain_data_file
    code, out, err = _run(
        capsys, "estimate", "--graph", chain_graph_file, "--data", data_path,
        "--treat", "a", "--outcome", "y", "--level", level,
    )
    assert code == 3 and out == "" and err.startswith("bad input: ")
    assert "level must be" in err


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seeds_outside_64_bits_are_refused(capsys, chain_graph_file, chain_data_file, seed):
    data_path, x = chain_data_file
    code, out, err = _run(
        capsys, "estimate", "--graph", chain_graph_file, "--data", data_path,
        "--treat", "a", "--outcome", "y", "--bootstrap", "20", "--seed", str(seed),
    )
    assert code == 3 and out == "" and "seed must be an integer in [0, 2**64)" in err
    code, out, err = _run(capsys, "simulate", "--nodes", "6", "--reps", "1", "--seed", str(seed))
    assert code == 3 and out == "" and "seed must be an integer in [0, 2**64)" in err
    g = Mpdag(("a", "m", "y"), (("a", "m"), ("m", "y")))
    with pytest.raises(GraphValidationError, match="seed must be an integer"):
        bootstrap_ci(x, g.vertices, build_plan(g, ("a",), "y"), n_boot=20, seed=seed)
    with pytest.raises(GraphValidationError, match="seed must be an integer"):
        run_simulation(n_vertices=6, treat_size=1, n=100, reps=1, seed=seed)


def test_cli_estimate_too_few_rows(capsys, tmp_path, chain_graph_file):
    path = tmp_path / "tiny.csv"
    path.write_text("a,m,y\n1.0,2.0,3.0\n2.0,1.0,0.5\n")
    code, _, err = _run(
        capsys, "estimate", "--graph", chain_graph_file, "--data", str(path),
        "--treat", "a", "--outcome", "y",
    )
    assert code == 3 and "bad input" in err


def test_cli_estimate_fits_only_the_plan_buckets(capsys, tmp_path, side_collider):
    g, sigma = side_collider
    graph_path = tmp_path / "g.json"
    save_graph(g, graph_path)
    data_path = tmp_path / "d.csv"
    x = exact_cov_data(sigma, 10)

    def estimate(treat, outcome):
        with open(data_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(g.vertices)
            w.writerows(x.tolist())
        return _run(capsys, "estimate", "--graph", str(graph_path), "--data",
                    str(data_path), "--treat", treat, "--outcome", outcome)

    # w's nearly collinear parents lie outside the plan of a -> y
    code, out, _ = estimate("a", "y")
    assert code == 0
    assert json.loads(out)["tau"]["a"] == pytest.approx(0.5, abs=1e-9)
    # inside the plan of z1 -> w they still refuse the query
    code, _, err = estimate("z1", "w")
    assert code == 4 and "condition number" in err
    # a constant column leaves the data covariance not positive definite
    x[:, 4] = 0.0
    code, _, err = estimate("a", "y")
    assert code == 3 and "not positive definite" in err


# ---------------------------------------------------------------------------
# cli: simulate subcommand


def test_cli_simulate_writes_report(capsys, tmp_path):
    out_path = tmp_path / "rep.csv"
    code, out, _ = _run(
        capsys, "simulate", "--nodes", "4", "--reps", "3", "--n", "120",
        "--seed", "2", "--out", str(out_path),
    )
    assert code == 0
    stdout_summary = json.loads(out)
    assert stdout_summary["summary"]["g_regression"]["geometric_mean_rel_sq_err"] == 1.0
    assert out_path.read_text().splitlines()[0] == REPORT_HEADER
    side = json.loads((tmp_path / "rep.csv.summary.json").read_text())
    assert side == stdout_summary


def test_cli_simulate_mixed_family(capsys):
    code, out, _ = _run(capsys, "simulate", "--nodes", "5", "--reps", "3", "--n", "120",
                        "--seed", "4", "--family", "mixed")
    rep = run_simulation(n_vertices=5, treat_size=1, n=120, reps=3, seed=4, family="mixed")
    assert code == 0 and json.loads(out) == json.loads(rep.summary_json())
    assert json.loads(out)["params"]["family"] == "mixed"


def test_cli_simulate_deterministic(capsys, tmp_path):
    argv = ["simulate", "--nodes", "4", "--reps", "3", "--n", "100", "--seed", "9"]
    code1, out1, _ = _run(capsys, *argv)
    code2, out2, _ = _run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize(
    "argv, kwargs, message",
    [
        (["--nodes", "1"], {"n_vertices": 1}, "need at least two vertices, got 1"),
        (["--treat-size", "0"], {"treat_size": 0}, "treatment size must be in [1, 6), got 0"),
        (["--treat-size", "6"], {"treat_size": 6}, "treatment size must be in [1, 6), got 6"),
        (["--n", "0"], {"n": 0}, "need more samples than vertices, got n=0 for 6 vertices"),
        (["--n", "6"], {"n": 6}, "need more samples than vertices, got n=6 for 6 vertices"),
        (["--reps", "0"], {"reps": 0}, "need at least one replication, got 0"),
        (["--reps", "-1"], {"reps": -1}, "need at least one replication, got -1"),
    ],
)
def test_simulate_refuses_bad_arguments_before_any_draw(capsys, monkeypatch, argv, kwargs, message):
    def no_draws(*args):
        raise AssertionError("run_simulation drew before checking its arguments")

    monkeypatch.setattr("causaleffects.simulate.rng_from_seed", no_draws)
    kw = {"n_vertices": 6, "treat_size": 1, "n": 100, "reps": 2, "seed": 0, **kwargs}
    with pytest.raises(GraphValidationError, match=re.escape(message)):
        run_simulation(**kw)
    code, out, err = _run(capsys, "simulate", "--nodes", "6", "--n", "100", "--reps", "2", *argv)
    assert (code, out, err) == (3, "", f"bad input: {message}\n")


# ---------------------------------------------------------------------------
# cli: the exit-code contract


@pytest.fixture
def contract_files(tmp_path, three_bucket_graph, side_collider, chain_sem):
    """Graph and data files for every failure a command can hit."""
    paths = {"missing": str(tmp_path / "missing.json"),
             "unwritable": str(tmp_path / "no-such-dir" / "out.json")}
    graphs = {
        "tb": three_bucket_graph,
        "chain": Mpdag(("a", "m", "y"), (("a", "m"), ("m", "y"))),
        "open": Pdag(("a", "b", "c"), (("a", "b"),), (("b", "c"),)),
        "und": Mpdag(("a", "m", "y"), (), (("a", "m"), ("m", "y"), ("a", "y"))),
        "collider": side_collider[0],
    }
    for name, g in graphs.items():
        paths[name] = str(tmp_path / f"{name}.json")
        save_graph(g, paths[name])
    paths["latin1"] = str(tmp_path / "latin1.json")
    Path(paths["latin1"]).write_bytes(
        '{"vertices": ["\u00e9"], "directed": [], "undirected": []}'.encode("latin-1")
    )
    paths["nulls"] = str(tmp_path / "nulls.json")
    Path(paths["nulls"]).write_text('{"vertices": ["a"], "directed": null, "undirected": []}')

    def write_csv(name, columns, x):
        paths[name] = str(tmp_path / f"{name}.csv")
        with open(paths[name], "w", newline="") as fh:
            csv.writer(fh).writerows([columns, *x.tolist()])

    write_csv("data", ["a", "m", "y"], sample(chain_sem, 50, rng_from_seed(5)))
    write_csv("ill", side_collider[0].vertices, exact_cov_data(side_collider[1], 10))
    paths["latin1_data"] = str(tmp_path / "latin1.csv")
    Path(paths["latin1_data"]).write_bytes("a,m,y\n1,2,3\n\u00e9,1,2\n".encode("latin-1"))
    paths["wide_data"] = str(tmp_path / "wide.csv")  # one field past csv's size limit
    Path(paths["wide_data"]).write_text("a,m,y\n1,2," + "3" * 200_000 + "\n")
    for name, text in (("empty_data", "\n\n"), ("extra_data", "a,m,y,z\n1,2,3,4\n"),
                       ("dup_data", "a,m,y,y\n1,2,3,4\n")):
        paths[name] = str(tmp_path / f"{name}.csv")
        Path(paths[name]).write_text(text)
    return paths


def _estimate(graph, data="data", treat="a", outcome="y", *extra):
    return ["estimate", "--graph", graph, "--data", data, "--treat", treat,
            "--outcome", outcome, *extra]


_CONTRACT = {
    # command: [(argv with file names, exit code, stderr prefix), ...]
    "graph": [
        (["graph", "cpdag", "--graph", "tb"], 2, "invalid graph: "),
        (["graph", "buckets", "--graph", "nulls"], 2, "invalid graph: 'directed' must be an array"),
        (["graph", "validate", "--graph", "missing"], 3, "input error: cannot read graph: "),
        (["graph", "validate", "--graph", "latin1"], 3, "input error: cannot read graph: "),
        (["graph", "frobnicate", "--graph", "tb"], 3, "input error: "),
        (["graph", "buckets", "--graph", "tb", "--out", "unwritable"], 3, "input error: "),
    ],
    "id": [
        (["id", "--graph", "open", "--treat", "a", "--outcome", "c"], 2, "invalid graph: "),
        (["id", "--graph", "missing", "--treat", "a", "--outcome", "y"], 3,
         "input error: cannot read graph: "),
        (["id", "--graph", "latin1", "--treat", "a", "--outcome", "y"], 3,
         "input error: cannot read graph: "),
        (["id", "--graph", "chain", "--treat", "q", "--outcome", "y"], 3, "bad input: "),
        (["id", "--graph", "chain", "--treat", "a", "--outcome", "y", "--out", "unwritable"], 3,
         "input error: "),
    ],
    "estimate": [
        (_estimate("und"), 1, "total effect of ['a'] on 'y' is not identified"),
        (_estimate("open", "data", "a", "c"), 2, "invalid graph: "),
        (_estimate("missing"), 3, "input error: cannot read graph: "),
        (_estimate("latin1"), 3, "input error: cannot read graph: "),
        (_estimate("chain", "missing"), 3, "input error: cannot read data: "),
        (_estimate("chain", "latin1_data"), 3, "input error: cannot read data: "),
        (_estimate("chain", "wide_data"), 3, "input error: cannot read data: field larger"),
        (_estimate("chain", "data", "q"), 3, "bad input: "),
        (_estimate("chain", "data", "a", "y", "--level", "high"), 3, "input error: "),
        (_estimate("collider", "ill", "z1", "w"), 4, "numeric failure: "),
        (_estimate("chain", "data", "a", "y", "--out", "unwritable"), 3, "input error: "),
        (_estimate("chain", "empty_data"), 3, "input error: data file is empty"),
        (_estimate("chain", "extra_data"), 3,
         "input error: data columns do not match the graph: columns ['z'] are not graph"),
        (_estimate("chain", "dup_data"), 3, "input error: duplicate data columns"),
    ],
    "simulate": [
        (["simulate", "--nodes", "1"], 3, "bad input: "),
        (["simulate", "--nodes", "4", "--family", "cauchy"], 3, "input error: "),
        (["simulate", "--nodes", "2", "--n", "10", "--reps", "1"], 4,
         "simulation aborted: could not draw an identified query"),
        (["simulate", "--nodes", "4", "--n", "50", "--reps", "1", "--out", "unwritable"], 3,
         "input error: "),
    ],
}


@pytest.mark.parametrize(
    "argv, code, prefix",
    [case for cases in _CONTRACT.values() for case in cases],
    ids=[f"{cmd}-{k}" for cmd, cases in _CONTRACT.items() for k in range(len(cases))],
)
def test_cli_exit_code_contract(capsys, contract_files, argv, code, prefix):
    got, out, err = _run(capsys, *(contract_files.get(a, a) for a in argv))
    assert (got, out) == (code, "")
    assert err.startswith(prefix) and err.count("\n") == 1, err

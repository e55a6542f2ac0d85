"""Command-line interface.

Subcommands: ``graph`` (validate | buckets | saturate | cpdag), ``id``,
``estimate``, ``simulate``.  Exit codes: 0 success (or identified), 1 not
identified, 2 invalid graph, 3 input error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from .errors import (
    CausalEffectsError,
    DegenerateSampleError,
    GraphValidationError,
    IllConditionedError,
    NotIdentifiedError,
)
from .estimate import _check_seed, estimate_total_effect
from .graph import (
    bucket_decomposition,
    cpdag_from_dag,
    graph_to_dict,
    load_graph,
    rule_violations,
    saturated_mpdag,
)
from .identify import build_plan
from .simulate import run_simulation

_OK, _NOT_IDENTIFIED, _INVALID_GRAPH, _INPUT_ERROR, _NUMERIC = 0, 1, 2, 3, 4


class _CliInputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; 2 means "invalid graph" here
    def error(self, message):
        raise _CliInputError(message)


def _seed(text: str) -> int:
    """Parse a ``--seed`` value: an integer the library accepts as a seed."""
    try:
        return _check_seed(int(text))
    except (ValueError, GraphValidationError):
        raise argparse.ArgumentTypeError(
            f"seed must be an integer in [0, 2**64), got {text!r}"
        ) from None


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_graph(path: str, strict: bool):
    try:
        return load_graph(path, strict=strict)
    except GraphValidationError as e:
        print(f"invalid graph: {e}", file=sys.stderr)
        raise SystemExit(_INVALID_GRAPH)
    except (OSError, json.JSONDecodeError) as e:
        print(f"cannot read graph: {e}", file=sys.stderr)
        raise SystemExit(_INPUT_ERROR)


def _check_row_widths(rows: list[list[str]], width: int) -> None:
    """Name the first data row whose field count is not ``width``."""
    for k, row in enumerate(rows):
        if len(row) != width:
            raise _CliInputError(f"data row {k + 1} has {len(row)} fields, the header has {width}")


def _read_data_csv(path: str, vertices: tuple[str, ...]):
    """CSV with a header whose columns match the graph's vertex labels
    exactly (any order); finite decimal values.  Blank lines are skipped."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = filter(None, csv.reader(fh))  # drops blank lines
            header = next(reader, None)
            if header is None:
                raise _CliInputError("data file is empty")
            rows = list(reader)
    except OSError as e:
        raise _CliInputError(f"cannot read data: {e}")
    header = [h.strip() for h in header]
    missing = [v for v in vertices if v not in header]
    extra = [h for h in header if h not in vertices]
    if missing or extra:
        parts = []
        if missing:
            parts.append(f"missing graph vertices {missing}")
        if extra:
            parts.append(f"columns {extra} are not graph vertices")
        raise _CliInputError("data columns do not match the graph: " + "; ".join(parts))
    if len(set(header)) != len(header):
        raise _CliInputError("duplicate data columns")
    try:
        x = np.array(rows, dtype=float)
    except ValueError as e:
        _check_row_widths(rows, len(header))
        raise _CliInputError(f"data values must be decimals: {e}")
    if x.size == 0 or not np.all(np.isfinite(x)):
        raise _CliInputError("data values must be finite and non-empty")
    if x.shape[1] != len(header):
        _check_row_widths(rows, len(header))
    order = [header.index(v) for v in vertices]
    return x[:, order]


def _cmd_graph(args) -> int:
    if args.action == "validate":
        g = _load_graph(args.graph, strict=False)
        viol = rule_violations(g)
        payload = {
            "valid": not viol,
            "n_vertices": g.n_vertices,
            "violations": [{"rule": r, "vertices": list(vs)} for r, vs in viol],
        }
        _emit(payload, args.out)
        return _OK if not viol else _INVALID_GRAPH
    g = _load_graph(args.graph, strict=False)
    try:
        if args.action == "buckets":
            dec = bucket_decomposition(g)
            _emit(
                {
                    "buckets": [list(b) for b in dec.buckets],
                    "external_parents": [list(p) for p in dec.external_parents],
                },
                args.out,
            )
        elif args.action == "saturate":
            _emit(graph_to_dict(saturated_mpdag(g)), args.out)
        else:  # cpdag
            _emit(graph_to_dict(cpdag_from_dag(g)), args.out)
    except GraphValidationError as e:
        print(f"invalid graph: {e}", file=sys.stderr)
        return _INVALID_GRAPH
    return _OK


def _cmd_id(args) -> int:
    g = _load_graph(args.graph, strict=True)
    treatment = [t.strip() for t in args.treat.split(",") if t.strip()]
    try:
        plan = build_plan(g, treatment, args.outcome)
    except NotIdentifiedError as e:
        _emit(
            {"identified": False, "reason": str(e), "blocking_path": list(e.path)},
            args.out,
        )
        return _NOT_IDENTIFIED
    except GraphValidationError as e:
        print(f"bad query: {e}", file=sys.stderr)
        return _INPUT_ERROR
    _emit(
        {
            "identified": True,
            "treatment": list(plan.treatment),
            "outcome": plan.outcome,
            "d_set": list(plan.d_set),
            "bucket_order": list(plan.bucket_order),
            "d_buckets": [list(b) for b in plan.d_buckets],
            "parents_per_bucket": [list(p) for p in plan.parents_per_bucket],
        },
        args.out,
    )
    return _OK


def _cmd_estimate(args) -> int:
    g = _load_graph(args.graph, strict=True)
    treatment = [t.strip() for t in args.treat.split(",") if t.strip()]
    data = _read_data_csv(args.data, g.vertices)
    try:
        est = estimate_total_effect(
            g,
            treatment,
            args.outcome,
            data=data,
            columns=g.vertices,
            center=args.center,
            n_boot=args.bootstrap,
            level=args.level,
            seed=args.seed,
        )
    except NotIdentifiedError as e:
        print(str(e), file=sys.stderr)
        return _NOT_IDENTIFIED
    except IllConditionedError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return _NUMERIC
    except (GraphValidationError, DegenerateSampleError) as e:
        print(f"bad input: {e}", file=sys.stderr)
        return _INPUT_ERROR
    _emit(est.to_dict(), args.out)
    return _OK


def _cmd_simulate(args) -> int:
    try:
        report = run_simulation(
            n_vertices=args.nodes,
            treat_size=args.treat_size,
            n=args.n,
            reps=args.reps,
            seed=args.seed,
            rescale=args.rescale,
            family=args.family,
            per_vertex_families=args.per_vertex_families,
        )
    except IllConditionedError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return _NUMERIC
    except CausalEffectsError as e:
        print(f"simulation aborted: {e}", file=sys.stderr)
        return _NUMERIC
    if args.out:
        report.write_csv(args.out)
        with open(args.out + ".summary.json", "w", encoding="utf-8") as fh:
            fh.write(report.summary_json() + "\n")
    print(report.summary_json())
    return _OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="causal-effects", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    pg = sub.add_parser("graph", help="graph-level operations")
    pg.add_argument("action", choices=["validate", "buckets", "saturate", "cpdag"])
    pg.add_argument("--graph", required=True, help="graph JSON file")
    pg.add_argument("--out", help="write JSON here instead of stdout")
    pg.set_defaults(func=_cmd_graph)

    pi = sub.add_parser("id", help="decide identifiability and print the plan")
    pi.add_argument("--graph", required=True)
    pi.add_argument("--treat", required=True, help="comma-separated treatment labels")
    pi.add_argument("--outcome", required=True)
    pi.add_argument("--out")
    pi.set_defaults(func=_cmd_id)

    pe = sub.add_parser("estimate", help="estimate a total effect from CSV data")
    pe.add_argument("--graph", required=True)
    pe.add_argument("--data", required=True, help="CSV with vertex-labelled columns")
    pe.add_argument("--treat", required=True)
    pe.add_argument("--outcome", required=True)
    pe.add_argument("--center", action="store_true",
                    help="subtract column means before forming moments")
    pe.add_argument("--bootstrap", type=int, default=0, metavar="B",
                    help="pairs-bootstrap replicates for percentile intervals")
    pe.add_argument("--level", type=float, default=0.95)
    pe.add_argument("--seed", type=_seed, default=0)
    pe.add_argument("--out")
    pe.set_defaults(func=_cmd_estimate)

    ps = sub.add_parser("simulate", help="benchmark estimators on random SEMs")
    ps.add_argument("--nodes", type=int, required=True)
    ps.add_argument("--treat-size", type=int, default=1)
    ps.add_argument("--n", type=int, default=1000)
    ps.add_argument("--reps", type=int, default=100)
    ps.add_argument("--seed", type=_seed, default=0)
    ps.add_argument("--rescale", action="store_true")
    ps.add_argument("--family", choices=["gaussian", "scaled_t5", "logistic", "uniform"])
    ps.add_argument("--per-vertex-families", action="store_true")
    ps.add_argument("--out", help="per-replication CSV path")
    ps.set_defaults(func=_cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _CliInputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return _INPUT_ERROR
    except SystemExit as e:
        if isinstance(e.code, int):
            return e.code
        return _OK if e.code is None else _INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())

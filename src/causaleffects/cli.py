"""Command-line interface.

Subcommands: ``graph`` (validate | buckets | saturate | cpdag), ``id``,
``estimate``, ``simulate``.  Exit codes: 0 success (or identified), 1 not
identified, 2 invalid graph, 3 input error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import re
import stat
import sys
import urllib.parse
import warnings

import numpy as np

from .errors import (
    CausalEffectsError,
    DegenerateSampleError,
    GraphValidationError,
    IllConditionedError,
    NotIdentifiedError,
    _check_seed,
)
from .estimate import estimate_total_effect
from .graph import (
    bucket_decomposition,
    cpdag_from_dag,
    graph_to_dict,
    load_graph,
    rule_violations,
    saturated_mpdag,
)
from .identify import build_plan
from .sem import ERROR_FAMILIES
from .simulate import run_simulation

_OK, _NOT_IDENTIFIED, _INVALID_GRAPH, _INPUT_ERROR, _NUMERIC = 0, 1, 2, 3, 4


class _CliInputError(Exception):
    pass


class _InvalidGraph(Exception):
    pass


# the exit-code contract: (exception types, exit code, stderr prefix), the
# first match wins; command functions only raise
_FAILURES = (
    (_InvalidGraph, _INVALID_GRAPH, "invalid graph: "),
    ((_CliInputError, OSError), _INPUT_ERROR, "input error: "),
    (MemoryError, _INPUT_ERROR, "input error: out of memory: "),
    (NotIdentifiedError, _NOT_IDENTIFIED, ""),
    (IllConditionedError, _NUMERIC, "numeric failure: "),
    ((GraphValidationError, DegenerateSampleError), _INPUT_ERROR, "bad input: "),
    (CausalEffectsError, _NUMERIC, "simulation aborted: "),
)


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


def _labels(text: str) -> list[str]:
    """Parse a comma-separated ``--treat`` value; blank entries are dropped."""
    return [t.strip() for t in text.split(",") if t.strip()]


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
        raise _InvalidGraph(str(e)) from None
    except (OSError, ValueError) as e:  # JSON and UTF-8 decoding errors are ValueErrors
        raise _CliInputError(f"cannot read graph: {e}") from None


def _check_header(header: list[str], vertices: tuple[str, ...]) -> None:
    """Refuse a data header that names other columns than the graph's
    vertices, or one of them twice."""
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


# the options of numpy's C reader, on the open handle and on the path alike
_LOADTXT = dict(delimiter=",", comments=None, quotechar='"', ndmin=2, dtype=float)
# trees of files made as they are read: opening one again may give other rows
_PSEUDO_FILE_ROOTS = ("/dev/", "/proc/", "/sys/")
# suffixes that numpy's path reader decompresses (numpy.lib._datasource)
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def _read_data_csv(path: str, vertices: tuple[str, ...]):
    """CSV with a header whose columns match the graph's vertex labels
    exactly (any order); finite decimal values.  Blank lines are skipped,
    and a leading byte-order mark is ignored.

    The header is read by :mod:`csv` from the open file and the body once,
    by numpy's C reader: from the path, in chunks, for a regular file, and
    from the open file, a line at a time, for a pipe or a device
    (:func:`_read_body`).  A file that reader refuses is read again row by
    row, only to name its fault (:func:`_refuse_data_csv`)."""
    fault = None
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            header = next(filter(None, reader), None)  # skips blank lines
            try:
                with warnings.catch_warnings():  # a header-only file is refused below
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                    x = _read_body(fh, path, reader.line_num)
            except ValueError as e:  # decoding errors included
                x, fault = None, e
    except (OSError, UnicodeDecodeError, csv.Error) as e:
        raise _CliInputError(f"cannot read data: {e}") from None
    if x is not None and header is not None:
        header = [h.strip() for h in header]
        _check_header(header, vertices)
        if x.size and x.shape[1] == len(header) and np.all(np.isfinite(x)):
            # a header in vertex order needs no copy.  Otherwise take makes a
            # row-major copy, as the reader's array is: numpy's column means
            # add in an order set by the layout, so the layout must not
            # depend on the header's order
            if tuple(header) == vertices:
                return x
            return x.take([header.index(v) for v in vertices], axis=1)
    _refuse_data_csv(path, vertices, fault)


def _read_body(fh, path: str, skip: int) -> np.ndarray:
    """The rows after the header, of which :mod:`csv` has taken the first
    ``skip`` lines from the open file ``fh``.

    numpy reads a regular file from its path in chunks, skipping those
    lines (it counts physical lines as ``csv`` does, quoted newlines
    included); from the handle it would take one line at a time from
    Python, about a tenth slower on the same parse.  Any other file keeps
    the handle: a pipe, or a file under ``/dev``, ``/proc`` or ``/sys``,
    may give other rows when opened again, and numpy's path reader fetches
    a URL and decompresses a ``.gz`` file.  So that header and body come
    from one file, a path that no longer names the handle's file after the
    read is refused."""
    ident = os.fstat(fh.fileno())
    if not (stat.S_ISREG(ident.st_mode) and _reopenable(path)):
        return np.loadtxt(fh, **_LOADTXT)
    try:
        return np.loadtxt(path, skiprows=skip, encoding="utf-8-sig", **_LOADTXT)
    finally:
        try:
            same = os.path.samestat(os.stat(path), ident)
        except OSError:
            same = False
        if not same:
            raise _CliInputError(f"cannot read data: {path} was replaced while it was read")


def _reopenable(path: str) -> bool:
    """Whether numpy's path reader opens ``path`` as the plain file that
    :func:`open` does, outside the trees of files made as they are read."""
    url = urllib.parse.urlsplit(path)
    if (url.scheme and url.netloc) or path.lower().endswith(_COMPRESSED_SUFFIXES):
        return False
    return not any(p.startswith(_PSEUDO_FILE_ROOTS)
                   for p in (os.path.abspath(path), os.path.realpath(path)))


def _refuse_data_csv(path: str, vertices: tuple[str, ...], fault: ValueError | None):
    """Raise the fault of a data file that :func:`_read_data_csv` refuses,
    found row by row, in this order: reading, an empty file, the header,
    a ragged row, a non-decimal value, a non-finite value.  ``fault`` is
    the C reader's error, if it raised one; it is the message for a value
    that Python's ``float`` reads and the C reader does not (``1_000``,
    non-ASCII digits), with its row numbered as the ragged-row message
    numbers rows."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            rows = [row for row in csv.reader(fh) if row]  # drops blank lines
    except (OSError, UnicodeDecodeError, csv.Error) as e:
        raise _CliInputError(f"cannot read data: {e}") from None
    if not rows:
        raise _CliInputError("data file is empty")
    header, rows = [h.strip() for h in rows[0]], rows[1:]
    _check_header(header, vertices)
    for k, row in enumerate(rows, 1):
        if len(row) != len(header):
            raise _CliInputError(f"data row {k} has {len(row)} fields, the header has {len(header)}")
    try:
        np.array(rows, dtype=float)
    except ValueError as e:
        raise _CliInputError(f"data values must be decimals: {e}") from None
    if fault is not None:
        # numpy counts the non-blank body rows from 0, the ragged-row message from 1
        text = re.sub(r"at row (\d+), (column \d+\.)$",
                      lambda m: f"at data row {int(m[1]) + 1}, {m[2]}", str(fault))
        raise _CliInputError(f"data values must be decimals: {text}")
    raise _CliInputError("data values must be finite and non-empty")


def _cmd_graph(args) -> int:
    g = _load_graph(args.graph, strict=False)
    if args.action == "validate":
        viol = rule_violations(g)
        payload = {
            "valid": not viol,
            "n_vertices": g.n_vertices,
            "violations": [{"rule": r, "vertices": list(vs)} for r, vs in viol],
        }
        _emit(payload, args.out)
        return _OK if not viol else _INVALID_GRAPH
    try:
        if args.action == "buckets":
            dec = bucket_decomposition(g)
            payload = {
                "buckets": [list(b) for b in dec.buckets],
                "external_parents": [list(p) for p in dec.external_parents],
            }
        elif args.action == "saturate":
            payload = graph_to_dict(saturated_mpdag(g))
        else:  # cpdag
            payload = graph_to_dict(cpdag_from_dag(g))
    except GraphValidationError as e:
        raise _InvalidGraph(str(e)) from None
    _emit(payload, args.out)
    return _OK


def _cmd_id(args) -> int:
    g = _load_graph(args.graph, strict=True)
    try:
        plan = build_plan(g, args.treat, args.outcome)
    except NotIdentifiedError as e:
        _emit(
            {"identified": False, "reason": str(e), "blocking_path": list(e.path)},
            args.out,
        )
        return _NOT_IDENTIFIED
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
    data = _read_data_csv(args.data, g.vertices)
    est = estimate_total_effect(
        g,
        args.treat,
        args.outcome,
        data=data,
        columns=g.vertices,
        center=args.center,
        n_boot=args.bootstrap,
        level=args.level,
        seed=args.seed,
    )
    _emit(est.to_dict(), args.out)
    return _OK


def _cmd_simulate(args) -> int:
    report = run_simulation(
        n_vertices=args.nodes,
        treat_size=args.treat_size,
        n=args.n,
        reps=args.reps,
        seed=args.seed,
        rescale=args.rescale,
        family=args.family,
    )
    if args.out:
        report.write_csv(args.out)
        with open(args.out + ".summary.json", "w", encoding="utf-8") as fh:
            fh.write(report.summary_json() + "\n")
    print(report.summary_json())
    return _OK


@functools.cache
def _build_parser() -> _Parser:
    """The parser of :func:`main`, built on its first call (not at import)
    and reused, since parsing keeps no state.  It binds the ``_cmd_*``
    functions when built: replacing one takes ``_build_parser.cache_clear()``."""
    parser = _Parser(prog="causal-effects", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    pg = sub.add_parser("graph", help="graph-level operations")
    pg.add_argument("action", choices=["validate", "buckets", "saturate", "cpdag"])
    pg.add_argument("--graph", required=True, help="graph JSON file")
    pg.add_argument("--out", help="write JSON here instead of stdout")
    pg.set_defaults(func=_cmd_graph)

    pi = sub.add_parser("id", help="decide identifiability and print the plan")
    pi.add_argument("--graph", required=True)
    pi.add_argument("--treat", required=True, type=_labels, help="comma-separated treatment labels")
    pi.add_argument("--outcome", required=True)
    pi.add_argument("--out")
    pi.set_defaults(func=_cmd_id)

    pe = sub.add_parser("estimate", help="estimate a total effect from CSV data")
    pe.add_argument("--graph", required=True)
    pe.add_argument("--data", required=True, help="CSV with vertex-labelled columns")
    pe.add_argument("--treat", required=True, type=_labels)
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
    ps.add_argument("--family", choices=ERROR_FAMILIES + ("mixed",))
    ps.add_argument("--out", help="per-replication CSV path")
    ps.set_defaults(func=_cmd_simulate)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as e:  # argparse exits only after --help
        return e.code or _OK
    except Exception as e:
        for types, code, prefix in _FAILURES:
            if isinstance(e, types):
                print(f"{prefix}{e}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())

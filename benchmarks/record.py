"""Record the expected outputs of the ``identify``, ``bootstrap`` and
``simulate`` pools into ``expected/`` from the current code.

    python3 benchmarks/record.py

Run it only when the program's correct output is meant to change; the
benchmark's output checks compare against these files.  Before writing, the
identify pool is cross-checked against independent references: each plan's
``d_set`` against the brute-force ancestor oracle of ``tests/oracles.py``,
each possible-descendant set against directed reachability (lower bound) and
reachability over directed and undirected edges (upper bound), and each
identified plan against the generating DAG's true effect.  The exhaustive
path oracles of ``tests/oracles.py`` enumerate every simple path, which is
out of reach on p=100 graphs, so they are not used here.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import workloads  # noqa: E402
from tests.oracles import ancestors_oracle  # noqa: E402


def _reach(g, start: str, undirected: bool) -> set[str]:
    seen = {g.index(start)}
    stack = list(seen)
    while stack:
        v = stack.pop()
        for w in g._ch[v] | (g._nb[v] if undirected else set()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return {g.vertices[i] for i in seen}


def record_identify(workdir: str) -> dict:
    wl = workloads.Identify(0, workdir)
    per_session = wl.params["treatments"]
    sessions = []
    for k, session in enumerate(wl.sessions):
        outs = [wl.run(item) for item in wl.items[k * per_session:(k + 1) * per_session]]
        g = outs[0][0]
        for t, (_, pd, _) in zip(session["treatments"], outs):
            if not _reach(g, t, False) <= set(pd) <= _reach(g, t, True):
                raise SystemExit(f"session {session['key']}: possible descendants of {t} "
                                 "fall outside the reachability bounds")
        for t, y, plan in (p for _, _, plans in outs for p in plans):
            if plan is not None and set(plan.d_set) != ancestors_oracle(g, y, removed=[t]):
                raise SystemExit(f"session {session['key']}: d_set of {t}->{y} differs "
                                 "from the ancestor oracle")
        sessions.append({"input_digest": session["digest"], **wl.summarize(outs)})
    # the truth check of every identified plan runs inside ``check``
    wl.__dict__["expected"] = {"sessions": sessions}
    for item in wl.items:
        wl.check(item, wl.run(item))
    return {"params": wl.params, "sessions": sessions}


def record_bootstrap(workdir: str) -> dict:
    wl = workloads.Bootstrap(0, workdir)
    results = []
    for item in wl.items:
        res = wl.summarize(wl._result(wl.run(item)))
        results.append({"input_digest": item["digest"], **res})
    return {"params": wl.params, "results": results}


def record_simulate(workdir: str) -> dict:
    wl = workloads.Simulate(0, workdir)
    chunks = [wl.run(item).records for item in wl.items]
    for rec in (r for chunk in chunks for r in chunk):
        if rec.get("adj_pop_avar_ratio", 1.0) < 1.0 - 1e-9:
            raise SystemExit(f"replicate {rec['rep']}: adjustment beats the efficiency bound")
    return {"params": wl.params, "chunks": chunks}


def main() -> None:
    workdir = os.path.join(ROOT, ".bench_out", "record")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(workloads.EXPECTED_DIR, exist_ok=True)
    for name, fn in (("identify", record_identify), ("bootstrap", record_bootstrap),
                     ("simulate", record_simulate)):
        data = fn(workdir)
        path = os.path.join(workloads.EXPECTED_DIR, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")
    shutil.rmtree(workdir)


if __name__ == "__main__":
    main()

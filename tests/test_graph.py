from __future__ import annotations

import json
import time

import numpy as np
import pytest

from causaleffects import (
    GraphValidationError,
    InconsistentKnowledgeError,
    Mpdag,
    Pdag,
    ancestors_in_subgraph,
    bucket_decomposition,
    build_plan,
    construct_mpdag,
    cpdag_from_dag,
    exists_proper_possibly_causal_undirected_start,
    graph_from_dict,
    graph_to_dict,
    is_identified,
    load_graph,
    meek_closure,
    possible_descendants,
    proper_undirected_start_path,
    random_dag,
    rng_from_seed,
    rule_violations,
    saturated_mpdag,
    save_graph,
)

from .conftest import random_mpdag
from . import oracles


# ---------------------------------------------------------------------------
# construction and validation


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(vertices=("a", "a"), directed=(), undirected=()),
        dict(vertices=("a", "b"), directed=(("a", "a"),), undirected=()),
        dict(vertices=("a", "b"), directed=(("a", "b"), ("b", "a")), undirected=()),
        dict(vertices=("a", "b"), directed=(("a", "b"),), undirected=(("a", "b"),)),
        dict(vertices=("a", "b"), directed=(("a", "c"),), undirected=()),
        dict(vertices=("a", "b", "c"), directed=(("a", "b"), ("b", "c"), ("c", "a"))),
        dict(vertices=("a", 1), directed=(), undirected=()),
    ],
)
def test_pdag_rejects_bad_input(kwargs):
    with pytest.raises(GraphValidationError):
        Pdag(**kwargs)


def test_undirected_cycles_are_fine():
    g = Pdag(("a", "b", "c"), undirected=(("a", "b"), ("b", "c"), ("c", "a")))
    assert g.undirected_neighbors_of("a") == {"b", "c"}


def test_edge_queries(three_bucket_graph):
    g = three_bucket_graph
    assert g.n_vertices == 6
    assert g.has_directed("1", "2") and not g.has_directed("2", "1")
    assert g.has_undirected("3", "4") and g.has_undirected("4", "3")
    assert g.adjacent("1", "4") and not g.adjacent("2", "5")
    assert g.parents_of("5") == {"4"}
    assert g.children_of("1") == {"2", "3", "4"}
    assert g.undirected_neighbors_of("3") == {"2", "4"}
    assert not g.is_dag
    assert g.directed_edges == (("1", "2"), ("1", "3"), ("1", "4"), ("4", "5"), ("4", "6"))


def test_graph_equality_ignores_edge_listing_order(three_bucket_graph):
    h = Pdag(
        three_bucket_graph.vertices,
        directed=tuple(reversed(three_bucket_graph.directed_edges)),
        undirected=(("5", "6"), ("4", "3"), ("3", "2")),
    )
    assert h == Pdag(three_bucket_graph.vertices, three_bucket_graph.directed_edges, three_bucket_graph.undirected_edges)
    assert hash(h) == hash(three_bucket_graph)


def test_mpdag_rejects_open_rule():
    # a -> b - c with a, c non-adjacent is not closed (b -> c is forced)
    with pytest.raises(GraphValidationError, match="R1"):
        Mpdag(("a", "b", "c"), directed=(("a", "b"),), undirected=(("b", "c"),))


# One malformed edge entry of each kind, and the refusal it gets from every
# builder (the entry's field name precedes the first three).
_BAD_ENTRIES = {
    "short": (("a",), "entries must be \\[u, v\\] pairs"),
    "long": (("a", "b", "c"), "entries must be \\[u, v\\] pairs"),
    "non-string": (("a", 1), "endpoints must be string labels"),
    "unhashable": ((["a"], "b"), "endpoints must be string labels"),
    "array row": (np.array(["a", "b"]), "entries must be \\[u, v\\] pairs"),
    "unknown": (("a", "q"), "unknown vertex label 'q'"),
}
_OPEN = Mpdag(("a", "b", "c"), directed=(("b", "c"),), undirected=(("a", "b"),))
_EDGE_BUILDERS = {
    "Pdag directed": ("directed", lambda e: Pdag(_OPEN.vertices, [e])),
    "Pdag undirected": ("undirected", lambda e: Pdag(_OPEN.vertices, (), [e])),
    "Mpdag": ("directed", lambda e: Mpdag(_OPEN.vertices, [("b", "c"), e])),
    "graph_from_dict": ("undirected", lambda e: graph_from_dict(
        {"vertices": list(_OPEN.vertices), "directed": [], "undirected": [e]})),
    "construct_mpdag": ("knowledge", lambda e: construct_mpdag(_OPEN, [("a", "b"), e])),
}


@pytest.mark.parametrize("builder", list(_EDGE_BUILDERS))
@pytest.mark.parametrize("entry", list(_BAD_ENTRIES))
def test_every_builder_reads_edge_entries_by_one_rule(builder, entry):
    """Library constructors refuse a malformed entry with the message that
    JSON input gets, never a raw ValueError or TypeError."""
    kind, build = _EDGE_BUILDERS[builder]
    e, message = _BAD_ENTRIES[entry]
    if entry != "unknown":
        message = f"'{kind}' {message}"
    with pytest.raises(GraphValidationError, match=f"^{message}$"):
        build(e)
    build(["a", "b"] if builder != "Mpdag" else ["a", "c"])  # a list is a pair


_BAD_LABELS = {"short": ("a",), "long": ("a", "b"), "non-string": 1, "unhashable": ["a"]}
_LABEL_QUERIES = {
    "index": lambda v: _OPEN.index(v),
    "parents_of": lambda v: _OPEN.parents_of(v),
    "possible_descendants": lambda v: possible_descendants(_OPEN, [v]),
    "ancestors_in_subgraph outcome": lambda v: ancestors_in_subgraph(_OPEN, v),
    "ancestors_in_subgraph removed": lambda v: ancestors_in_subgraph(_OPEN, "c", [v]),
    "proper_undirected_start_path treatment": lambda v: proper_undirected_start_path(
        _OPEN, [v], "c"),
    "proper_undirected_start_path outcome": lambda v: proper_undirected_start_path(
        _OPEN, ["a"], v),
    "build_plan treatment": lambda v: build_plan(_OPEN, [v], "c"),
    "build_plan outcome": lambda v: build_plan(_OPEN, ["b"], v),
}


@pytest.mark.parametrize("query", list(_LABEL_QUERIES))
@pytest.mark.parametrize("label", list(_BAD_LABELS))
def test_every_label_lookup_refuses_a_non_vertex(query, label):
    """A tuple, a number or an unhashable list is no vertex label: each
    lookup raises GraphValidationError, not TypeError."""
    with pytest.raises(GraphValidationError, match="^unknown vertex label"):
        _LABEL_QUERIES[query](_BAD_LABELS[label])


# ---------------------------------------------------------------------------
# orientation rules


def _closure_edges(vertices, directed, undirected):
    g = meek_closure(Pdag(vertices, directed, undirected))
    return set(g.directed_edges), {frozenset(e) for e in g.undirected_edges}


def test_rule_one_orients_chain_tail():
    d, u = _closure_edges(("a", "b", "c"), (("a", "b"),), (("b", "c"),))
    assert ("b", "c") in d and not u


def test_rule_two_closes_directed_path():
    d, u = _closure_edges(("a", "b", "c"), (("a", "b"), ("b", "c")), (("a", "c"),))
    assert ("a", "c") in d and not u


def test_rule_three_orients_into_collider():
    d, u = _closure_edges(
        ("a", "b", "c", "d"),
        (("a", "b"), ("c", "b")),
        (("d", "a"), ("d", "b"), ("d", "c")),
    )
    assert ("d", "b") in d
    assert u == {frozenset(("d", "a")), frozenset(("d", "c"))}


def test_rule_four_orients_around_directed_path():
    d, u = _closure_edges(
        ("a", "b", "c", "d"),
        (("a", "b"), ("b", "c")),
        (("d", "a"), ("d", "b"), ("d", "c")),
    )
    assert ("d", "c") in d
    assert u == {frozenset(("d", "a")), frozenset(("d", "b"))}


def test_rules_do_not_fire_when_shielded():
    # same patterns but with a, c adjacent: nothing to orient
    g = meek_closure(
        Pdag(("a", "b", "c"), (("a", "b"), ("a", "c")), (("b", "c"),))
    )
    assert g.has_undirected("b", "c")


def _assert_closures_agree(vertices, directed, undirected):
    got = meek_closure(Pdag(vertices, directed, undirected))
    want_d, want_u = oracles.naive_meek_closure(
        vertices, set(directed), {frozenset(e) for e in undirected}
    )
    assert set(got.directed_edges) == want_d
    assert {frozenset(e) for e in got.undirected_edges} == want_u
    return got


def test_closure_matches_naive_fixpoint():
    """Worklist closure equals the one-orientation-per-scan fixpoint on
    v-structure patterns, on CPDAGs with fresh knowledge orientations, and
    on random PDAGs with arbitrary directed edges that some DAG extends.
    The worklist orients every instance it finds at an edge before looking
    further, which is exact only because, on such graphs, the closure does
    not depend on the order in which the rules fire."""
    rng = rng_from_seed(7, 1)
    for p in (3, 4, 5, 6, 7):
        for _ in range(12):
            dag = random_dag(p, min(2.5, p - 1), rng)
            dag_dir = set(dag.directed_edges)

            # skeleton plus collider orientations, not yet closed
            colliders = oracles.unshielded_colliders(dag.vertices, dag_dir, set())
            vstruct = {(a, b) for a, b, c in colliders} | {
                (c, b) for a, b, c in colliders
            }
            vstruct_pairs = {frozenset(e) for e in vstruct}
            und = [
                tuple(sorted(e))
                for e in {frozenset(d) for d in dag_dir}
                if e not in vstruct_pairs
            ]
            closed = _assert_closures_agree(dag.vertices, sorted(vstruct), sorted(und))
            assert closed == cpdag_from_dag(dag)

            # CPDAG plus a batch of unclosed knowledge orientations
            cpdag = cpdag_from_dag(dag)
            extra = [
                (u, v) if (u, v) in dag_dir else (v, u)
                for u, v in cpdag.undirected_edges
                if rng.random() < 0.4
            ]
            oriented = {frozenset(e) for e in extra}
            rest = [e for e in cpdag.undirected_edges if frozenset(e) not in oriented]
            _assert_closures_agree(
                dag.vertices, list(cpdag.directed_edges) + extra, rest
            )

    kept = 0
    for _ in range(400):
        p = int(rng.integers(3, 8))
        labels = tuple(f"v{i}" for i in range(p))
        directed, undirected = [], []
        for i in range(p):
            for j in range(i + 1, p):
                if rng.random() < 0.45:
                    pair = (labels[i], labels[j])[:: rng.choice((1, -1))]
                    (directed if rng.random() < 0.4 else undirected).append(pair)
        try:
            g = Pdag(labels, directed, undirected)
        except GraphValidationError:
            continue  # a directed cycle
        if oracles.consistent_extensions(g):
            _assert_closures_agree(labels, directed, undirected)
            kept += 1
    assert kept > 200


def test_closure_idempotent_and_monotone(rng):
    for _ in range(25):
        g, _ = random_mpdag(rng, int(rng.integers(3, 8)))
        again = meek_closure(g)
        assert again == g
        assert set(g.directed_edges) >= set()
        assert rule_violations(g) == []


def test_closure_refuses_a_directed_cycle_it_creates():
    """No DAG extends these graphs: closing them orients a -> d -> b -> c
    after c -> a, a directed cycle, which is refused."""
    g = Pdag(("a", "b", "c", "d"), (("c", "a"), ("a", "d")), (("b", "c"), ("b", "d")))
    with pytest.raises(GraphValidationError, match="directed part contains a cycle"):
        meek_closure(g)
    square = Mpdag(("a", "b", "c", "d"), (), (("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")))
    with pytest.raises(GraphValidationError, match="directed part contains a cycle"):
        construct_mpdag(square, [("c", "a")])


def test_producers_leave_their_input_alone(rng):
    """The producers close a copy: the input's edges and adjacency sets are
    unchanged, and the result shares no adjacency set with the input."""
    changed = 0
    for _ in range(10):
        dag = random_dag(7, 2.5, rng)
        cpdag = cpdag_from_dag(dag)
        dag_dir = set(dag.directed_edges)
        known = [
            (u, v) if (u, v) in dag_dir else (v, u)
            for u, v in cpdag.undirected_edges
            if rng.random() < 0.5
        ]
        oriented = {frozenset(e) for e in known}
        unclosed = Pdag(
            dag.vertices,
            list(cpdag.directed_edges) + known,
            [e for e in cpdag.undirected_edges if frozenset(e) not in oriented],
        )
        plain = Pdag(cpdag.vertices, cpdag.directed_edges, cpdag.undirected_edges)
        for make, g in (
            (meek_closure, unclosed),
            (cpdag_from_dag, dag),
            (lambda g: construct_mpdag(g, known), cpdag),
            (lambda g: construct_mpdag(g, known), plain),
        ):
            before = [[set(s) for s in sets] for sets in (g._pa, g._ch, g._nb)]
            edges = (g.directed_edges, g.undirected_edges)
            out = make(g)
            assert [g._pa, g._ch, g._nb] == before
            assert (g.directed_edges, g.undirected_edges) == edges
            ids = {id(s) for sets in (g._pa, g._ch, g._nb) for s in sets}
            assert not ids & {id(s) for sets in (out._pa, out._ch, out._nb) for s in sets}
            changed += out != g
    assert changed >= 10


def test_rule_violations_reports_pattern():
    g = Pdag(("a", "b", "c"), (("a", "b"),), (("b", "c"),))
    viol = rule_violations(g)
    assert ("R1", ("a", "b", "c")) in viol


def test_rule_violations_do_not_depend_on_edge_order():
    """The same unclosed graph, its edges listed in shuffled orders and
    directions, names the same first violation and the same "+N more"."""
    labels = tuple(f"v{i}" for i in range(10))
    directed = [("v1", "v4"), ("v1", "v2"), ("v9", "v5"), ("v4", "v5"), ("v4", "v6"),
                ("v7", "v8"), ("v2", "v6")]
    undirected = [("v0", "v2"), ("v0", "v3"), ("v1", "v5"), ("v9", "v3"), ("v2", "v3"),
                  ("v2", "v8"), ("v5", "v8")]
    want = rule_violations(Pdag(labels, directed, undirected))
    assert len(want) > 1
    with pytest.raises(GraphValidationError) as first:
        Mpdag(labels, directed, undirected)
    rng = np.random.default_rng(3)
    for _ in range(30):
        d = [directed[i] for i in rng.permutation(len(directed))]
        u = [e if rng.random() < 0.5 else e[::-1]
             for e in (undirected[i] for i in rng.permutation(len(undirected)))]
        assert rule_violations(Pdag(labels, d, u)) == want
        with pytest.raises(GraphValidationError) as exc:
            Mpdag(labels, d, u)
        assert str(exc.value) == str(first.value)


# ---------------------------------------------------------------------------
# background knowledge


def test_construct_mpdag_chains_knowledge():
    g = Pdag(("a", "b", "c"), undirected=(("a", "b"), ("b", "c")))
    out = construct_mpdag(g, [("a", "b")])
    assert set(out.directed_edges) == {("a", "b"), ("b", "c")}


def test_construct_mpdag_noop_on_known_edge():
    g = Pdag(("a", "b"), directed=(("a", "b"),))
    assert construct_mpdag(g, [("a", "b")]) == meek_closure(g)


@pytest.mark.parametrize("pair", [("b", "a"), ("a", "c")])
def test_construct_mpdag_rejects_contradiction(pair):
    g = Pdag(("a", "b", "c"), directed=(("a", "b"),))
    with pytest.raises(InconsistentKnowledgeError):
        construct_mpdag(g, [pair])


def test_construct_mpdag_order_invariant(rng):
    """Consistent knowledge gives the same MPDAG in any insertion order."""
    for _ in range(10):
        dag = random_dag(6, 2.5, rng)
        cpdag = cpdag_from_dag(dag)
        dag_dir = set(dag.directed_edges)
        known = [
            (u, v) if (u, v) in dag_dir else (v, u)
            for u, v in cpdag.undirected_edges
            if rng.random() < 0.5
        ]
        if len(known) < 2:
            continue
        base = construct_mpdag(cpdag, known)
        for _ in range(6):
            perm = [known[i] for i in rng.permutation(len(known))]
            assert construct_mpdag(cpdag, perm) == base


# ---------------------------------------------------------------------------
# CPDAGs


def test_cpdag_single_edge_loses_orientation():
    d = Pdag(("a", "y"), directed=(("a", "y"),))
    assert cpdag_from_dag(d).has_undirected("a", "y")


def test_cpdag_keeps_collider():
    d = Pdag(("a", "b", "c"), directed=(("a", "b"), ("c", "b")))
    c = cpdag_from_dag(d)
    assert set(c.directed_edges) == {("a", "b"), ("c", "b")}


def test_cpdag_rejects_partially_directed_input(three_bucket_graph):
    with pytest.raises(GraphValidationError):
        cpdag_from_dag(three_bucket_graph)


def test_cpdag_extensions_equal_equivalence_class(rng):
    """The DAGs represented by the CPDAG are exactly the Markov class."""
    for _ in range(15):
        dag = random_dag(5, 2.0, rng)
        cpdag = cpdag_from_dag(dag)
        exts = set(oracles.consistent_extensions(cpdag))
        mec = set(
            oracles.markov_equivalence_class(dag.vertices, set(dag.directed_edges))
        )
        assert exts == mec
        assert frozenset(dag.directed_edges) in exts


# ---------------------------------------------------------------------------
# bucket decomposition


def test_buckets_running_example(three_bucket_graph):
    b = bucket_decomposition(three_bucket_graph)
    assert b.buckets == (("1",), ("2", "3", "4"), ("5", "6"))
    assert b.external_parents == ((), ("1",), ("4",))
    assert b.vertex_order == ("1", "2", "3", "4", "5", "6")
    assert len(b) == 3
    assert b.bucket_of("3") == 1
    assert b.prefix(2) == ("1", "2", "3", "4")


def test_buckets_of_dag_are_singletons_in_causal_order(rng):
    for _ in range(10):
        dag = random_dag(6, 2.5, rng)
        b = bucket_decomposition(dag)
        assert all(len(bk) == 1 for bk in b.buckets)
        order = {v: k for k, (v,) in enumerate(b.buckets)}
        for u, v in dag.directed_edges:
            assert order[u] < order[v]


def test_buckets_respect_cross_edges(rng):
    """Directed edges between buckets point from earlier to later; edges
    within a bucket (which are legal, e.g. a shielded a -> b inside an
    undirected triangle) stay inside it."""
    for _ in range(20):
        g, _ = random_mpdag(rng, int(rng.integers(3, 9)))
        b = bucket_decomposition(g)
        for u, v in g.directed_edges:
            assert b.bucket_of(u) <= b.bucket_of(v)
        for u, v in g.undirected_edges:
            assert b.bucket_of(u) == b.bucket_of(v)
        # external parents are shared by every member of the bucket
        for k, bk in enumerate(b.buckets):
            for v in bk:
                assert g.parents_of(v) - set(bk) == set(b.external_parents[k])


def test_bucket_tie_break_is_deterministic():
    g = Mpdag(("a", "b", "c", "d"), undirected=(("a", "b"), ("c", "d")))
    b = bucket_decomposition(g)
    # both components are peelable at every step; ties resolve to vertex order
    assert b.buckets == (("a", "b"), ("c", "d"))
    assert b.external_parents == ((), ())

    # ties on two levels, placed from the sink end by decreasing leading
    # vertex: {b} and {d, f} are ready first, so {d, f} is placed, then {b};
    # that makes {a, e} ready beside {c}, so {c} is placed, then {a, e}
    g = Mpdag(
        ("a", "b", "c", "d", "e", "f"),
        directed=(("c", "b"), ("a", "d"), ("a", "f"), ("e", "d"), ("e", "f")),
        undirected=(("a", "e"), ("d", "f")),
    )
    b = bucket_decomposition(g)
    assert b.buckets == (("a", "e"), ("c",), ("b",), ("d", "f"))
    assert b.external_parents == ((), (), ("c",), ("a", "e"))


def _refused_twice_alike(g) -> str:
    """The message of ``g``'s refused decomposition, which a second call
    repeats: a refusal is not remembered as a decomposition."""
    with pytest.raises(GraphValidationError) as first:
        bucket_decomposition(g)
    with pytest.raises(GraphValidationError) as second:
        bucket_decomposition(g)
    assert str(second.value) == str(first.value)
    return str(first.value)


def test_bucket_unpeelable_raises():
    g = Pdag(("a", "b", "c"), directed=(("a", "c"), ("c", "b")), undirected=(("a", "b"),))
    assert "no bucket" in _refused_twice_alike(g)


def test_bucket_restrictive_property_raises():
    # a -> b - c is not rule-closed; the component {b, c} has unequal
    # external parent sets, which the decomposition refuses
    g = Pdag(("a", "b", "c"), directed=(("a", "b"),), undirected=(("b", "c"),))
    assert "restrictive parent property" in _refused_twice_alike(g)


def test_bucket_decomposition_is_computed_once_per_graph(three_bucket_graph):
    g = three_bucket_graph
    dec = bucket_decomposition(g)
    assert bucket_decomposition(g) is dec
    first, second = build_plan(g, ("1",), "5"), build_plan(g, ("4",), "6")
    assert first.buckets is second.buckets is dec


def _fresh_buckets(g):
    return bucket_decomposition(Pdag(g.vertices, g.directed_edges, g.undirected_edges))


def test_producers_decompose_their_own_result(rng):
    """A producer's result is a new graph: its decomposition is its own,
    not the one kept on its input, and the input keeps the one it had."""
    chain = Mpdag(("a", "b", "c"), undirected=(("a", "b"), ("b", "c")))
    # R3 orients d -> b, which splits b from the bucket {a, b, c, d}
    collider = Pdag(("a", "b", "c", "d"), directed=(("a", "b"), ("c", "b")),
                    undirected=(("a", "d"), ("b", "d"), ("c", "d")))
    dag = Pdag(("a", "b", "c"), directed=(("a", "b"), ("b", "c")))
    cases = [(chain, lambda g: construct_mpdag(g, [("a", "b")])),
             (collider, meek_closure), (dag, cpdag_from_dag), (chain, saturated_mpdag)]
    for _ in range(30):
        g, d = random_mpdag(rng, int(rng.integers(3, 9)), orient_frac=0.0)
        known = [e if e in d.directed_edges else e[::-1] for e in g.undirected_edges[:1]]
        cases += [(g, lambda g, known=known: construct_mpdag(g, known)),
                  (g, meek_closure), (d, cpdag_from_dag), (g, saturated_mpdag)]
    split = 0
    for g, make in cases:
        before = bucket_decomposition(g)
        out = bucket_decomposition(make(g))
        assert out == _fresh_buckets(make(g))
        assert bucket_decomposition(g) is before
        split += len(out) != len(before)
    assert split >= 30  # enough results whose buckets differ from the input's


def test_directed_edge_into_bucket_hits_every_member(rng):
    """If i -> j with i outside j's undirected component, then i -> k for
    every k in that component."""
    for _ in range(20):
        g, _ = random_mpdag(rng, int(rng.integers(3, 9)))
        comp = {}
        for v in g.vertices:
            stack, seen = [v], {v}
            while stack:
                w = stack.pop()
                for x in g.undirected_neighbors_of(w):
                    if x not in seen:
                        seen.add(x)
                        stack.append(x)
            comp[v] = frozenset(seen)
        for u, v in g.directed_edges:
            if u in comp[v]:
                continue
            for k in comp[v]:
                assert g.has_directed(u, k)


# ---------------------------------------------------------------------------
# reachability


def test_ancestors_running_example(three_bucket_graph):
    assert ancestors_in_subgraph(three_bucket_graph, "5") == {"1", "4", "5"}
    assert ancestors_in_subgraph(three_bucket_graph, "5", removed=("1",)) == {"4", "5"}
    assert ancestors_in_subgraph(three_bucket_graph, "5", removed=("4",)) == {"5"}


def test_reachability_refuses_an_outcome_it_cannot_reach(three_bucket_graph):
    with pytest.raises(GraphValidationError, match="among the removed vertices"):
        ancestors_in_subgraph(three_bucket_graph, "5", removed=("4", "5"))


def test_possible_descendants_running_example(three_bucket_graph):
    assert possible_descendants(three_bucket_graph, ("4",)) == {"2", "3", "4", "5", "6"}
    assert possible_descendants(three_bucket_graph, ("5",)) == {"5", "6"}
    assert possible_descendants(three_bucket_graph, ("1",)) == set(three_bucket_graph.vertices)


def test_possible_descendants_needs_whole_path_possibly_causal():
    # the walk c - b - a exists but a -> c is a back edge into the start,
    # so a is not a possible descendant of c
    g = Pdag(("a", "b", "c"), directed=(("a", "c"),), undirected=(("a", "b"), ("b", "c")))
    assert possible_descendants(g, ("c",)) == {"b", "c"}


def test_reachability_matches_path_enumeration(rng):
    for _ in range(25):
        g, _ = random_mpdag(rng, int(rng.integers(3, 8)))
        labels = g.vertices
        y = labels[int(rng.integers(len(labels)))]
        s = labels[int(rng.integers(len(labels)))]
        assert ancestors_in_subgraph(g, y) == oracles.ancestors_oracle(g, y)
        drop = {v for v in labels if v != y and rng.random() < 0.3}
        assert ancestors_in_subgraph(g, y, removed=drop) == oracles.ancestors_oracle(
            g, y, removed=drop
        )
        assert possible_descendants(g, (s,)) == oracles.possible_descendants_oracle(
            g, (s,)
        )
    # denser graphs (more undirected triangles, more shielded triples) and
    # multi-source queries, with and without background knowledge
    for _ in range(60):
        p = int(rng.integers(4, 9))
        g, _ = random_mpdag(rng, p, orient_frac=float(rng.choice([0.0, 0.5])), degree=5.0)
        labels = g.vertices
        k = int(rng.integers(1, 4))
        srcs = tuple(rng.choice(labels, size=k, replace=False))
        assert possible_descendants(g, srcs) == oracles.possible_descendants_oracle(
            g, srcs
        )


def test_proper_undirected_start_running_example(three_bucket_graph):
    f = exists_proper_possibly_causal_undirected_start
    assert not f(three_bucket_graph, ("1",), "5")
    assert f(three_bucket_graph, ("3",), "5")
    assert f(three_bucket_graph, ("3",), "6")
    assert not f(three_bucket_graph, ("3", "4"), "6")  # 4 blocks the 3 - 4 start
    assert f(three_bucket_graph, ("5",), "6")


def test_proper_undirected_start_matches_enumeration(rng):
    hits = 0
    for trial in range(100):
        g, _ = random_mpdag(rng, int(rng.integers(3, 8)), degree=2.5 if trial < 40 else 5.0)
        labels = list(g.vertices)
        y = labels[int(rng.integers(len(labels)))]
        rest = [v for v in labels if v != y]
        k = int(rng.integers(1, min(3, len(rest)) + 1))
        a = list(rng.choice(rest, size=k, replace=False))
        got = exists_proper_possibly_causal_undirected_start(g, a, y)
        want = oracles.proper_undirected_start_oracle(g, a, y)
        assert got == want
        path = proper_undirected_start_path(g, a, y)
        assert (path is not None) == want
        if want:
            # the witness is a simple, proper path from A to y that starts
            # undirected, follows edges forward and is possibly causal
            assert len(set(path)) == len(path)
            assert path[0] in a and not set(path[1:]) & set(a) and path[-1] == y
            assert g.has_undirected(path[0], path[1])
            assert all(
                g.has_directed(u, v) or g.has_undirected(u, v)
                for u, v in zip(path, path[1:])
            )
            assert oracles.possibly_causal(g, path)
        hits += want
    assert 0 < hits < 100  # the case split actually exercised both branches


def test_path_searches_finish_on_a_large_clique():
    """K_25 undirected clique feeding a directed chain: there are about 24!
    simple paths through the clique, so enumeration cannot finish; the
    state search answers in milliseconds."""
    clique = [f"k{i:02d}" for i in range(25)]
    chain = [f"c{i}" for i in range(10)]
    g = Mpdag(
        clique + chain,
        directed=[(k, "c0") for k in clique] + list(zip(chain, chain[1:])),
        undirected=[(u, v) for i, u in enumerate(clique) for v in clique[i + 1:]],
    )
    t0 = time.perf_counter()
    assert possible_descendants(g, ("k00",)) == set(g.vertices)
    assert possible_descendants(g, ("c3",)) == set(chain[3:])
    assert not is_identified(g, ("k00",), "c9")
    assert is_identified(g, clique, "c9")
    path = proper_undirected_start_path(g, ("k00",), "c9")
    assert path == ("k00", "k01", *chain)
    assert time.perf_counter() - t0 < 5.0


def test_path_searches_reject_unclosed_graph():
    # a -> b - c with a, c non-adjacent is not rule-closed (R1 forces b -> c)
    g = Pdag(("a", "b", "c"), directed=(("a", "b"),), undirected=(("b", "c"),))
    with pytest.raises(GraphValidationError, match="R1"):
        possible_descendants(g, ("a",))
    with pytest.raises(GraphValidationError, match="R1"):
        exists_proper_possibly_causal_undirected_start(g, ("b",), "c")
    with pytest.raises(GraphValidationError, match="R1"):
        is_identified(g, ("b",), "c")


# ---------------------------------------------------------------------------
# saturation


def test_saturate_running_example(three_bucket_graph):
    s = saturated_mpdag(three_bucket_graph)
    added = set(s.directed_edges) - set(three_bucket_graph.directed_edges)
    assert added == {
        ("1", "5"), ("1", "6"), ("2", "5"), ("2", "6"), ("3", "5"), ("3", "6"),
    }
    assert set(s.undirected_edges) == set(three_bucket_graph.undirected_edges)


def test_saturate_keeps_buckets_and_fills_parents(rng):
    for _ in range(15):
        g, _ = random_mpdag(rng, int(rng.integers(3, 8)))
        b = bucket_decomposition(g)
        s = saturated_mpdag(g)
        sb = bucket_decomposition(s)
        assert sb.buckets == b.buckets
        for k in range(len(sb)):
            assert set(sb.external_parents[k]) == set(sb.prefix(k))
        assert rule_violations(s) == []


# ---------------------------------------------------------------------------
# serialization


def test_graph_json_roundtrip(three_bucket_graph, tmp_path):
    path = tmp_path / "g.json"
    save_graph(three_bucket_graph, path)
    back = load_graph(path, strict=True)
    assert isinstance(back, Mpdag)
    assert back == three_bucket_graph
    raw = json.loads(path.read_text())
    assert set(raw) == {"vertices", "directed", "undirected"}


def test_load_graph_ignores_a_byte_order_mark(three_bucket_graph, tmp_path):
    path = tmp_path / "g.json"
    save_graph(three_bucket_graph, path)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert load_graph(path, strict=True) == three_bucket_graph


def test_graph_from_dict_rejects_bad_schema():
    ok = graph_to_dict(Pdag(("a", "b"), undirected=(("a", "b"),)))
    for bad in (
        {k: v for k, v in ok.items() if k != "undirected"},
        {**ok, "extra": 1},
        {**ok, "directed": [["a"]]},
        {**ok, "vertices": "ab"},
        {**ok, "vertices": {"a": 0, "b": 1}},
        {**ok, "directed": None},
        {**ok, "undirected": 3},
        {**ok, "undirected": [[["a"], "b"]]},
        {**ok, "directed": [["a", 2]]},
    ):
        with pytest.raises(GraphValidationError):
            graph_from_dict(bad)


_GRAPH_JSON = {"vertices": ["a", "b", "c"], "directed": [["b", "c"]], "undirected": [["a", "b"]]}


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: [d], "graph JSON must be an object"),
        (lambda d: {k: v for k, v in d.items() if k != "directed"},
         "graph JSON is missing the 'directed' field"),
        (lambda d: {**d, "z": 1, "y": 2}, "unknown graph JSON fields: ['y', 'z']"),
        (lambda d: {**d, "vertices": "abc"}, "'vertices' must be an array of labels"),
        (lambda d: {**d, "directed": None}, "'directed' must be an array of [u, v] pairs"),
        (lambda d: {**d, "undirected": 3}, "'undirected' must be an array of [u, v] pairs"),
        (lambda d: {**d, "directed": ["bc"]}, "'directed' entries must be [u, v] pairs"),
        (lambda d: {**d, "undirected": [[1, "b"]]}, "'undirected' endpoints must be string labels"),
        (lambda d: {**d, "vertices": ["a", "b", "c", 1]}, "vertex labels must be strings"),
        (lambda d: {**d, "vertices": ["a", "a", "b", "c"]}, "duplicate vertex labels"),
        (lambda d: {**d, "directed": [["c", "c"]]}, "self loop at 'c'"),
        (lambda d: {**d, "undirected": [["a", "b"], ["b", "a"]]},
         "more than one edge between 'b' and 'a'"),
        # two faults: vertices are checked before edges, directed before undirected
        (lambda d: {**d, "vertices": ["a", "a", "b", "c"], "directed": [["b"]]},
         "duplicate vertex labels"),
        (lambda d: {**d, "directed": [["b", "q"]], "undirected": [["a"]]},
         "unknown vertex label 'q'"),
    ],
)
def test_graph_from_dict_names_the_fault(edit, message):
    graph_from_dict(_GRAPH_JSON, strict=True)
    with pytest.raises(GraphValidationError) as exc:
        graph_from_dict(edit(_GRAPH_JSON))
    assert str(exc.value) == message


def test_graph_from_dict_strict_requires_closure():
    d = {"vertices": ["a", "b", "c"], "directed": [["a", "b"]], "undirected": [["b", "c"]]}
    graph_from_dict(d)  # lax: fine as a plain partially directed graph
    with pytest.raises(GraphValidationError):
        graph_from_dict(d, strict=True)

"""Partially directed acyclic graphs and their orientation machinery.

A :class:`Pdag` holds a graph whose edges are either directed or undirected,
with no directed cycle.  A :class:`Mpdag` is a Pdag that is additionally
closed under the four orientation rules R1-R4 (checked at construction).
DAGs and CPDAGs are both valid Mpdags, so every operation below applies to
them unchanged.

Vertices carry stable string labels.  All public functions speak labels;
dense integer indices are an internal detail.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field, replace
from itertools import combinations
from typing import Iterable, Sequence

from .errors import (GraphValidationError, InconsistentKnowledgeError, _check_fields,
                     _flag, _label_map, _read_json, _sequence, _unknown_label,
                     _write_json)

__all__ = [
    "Pdag",
    "Mpdag",
    "BucketDecomposition",
    "meek_closure",
    "rule_violations",
    "construct_mpdag",
    "cpdag_from_dag",
    "bucket_decomposition",
    "ancestors_in_subgraph",
    "possible_descendants",
    "exists_proper_possibly_causal_undirected_start",
    "proper_undirected_start_path",
    "saturated_mpdag",
    "graph_to_dict",
    "graph_from_dict",
    "load_graph",
    "save_graph",
]


class Pdag:
    """Partially directed acyclic graph over labelled vertices.

    Parameters
    ----------
    vertices:
        Sequence of unique string labels.
    directed:
        Iterable of (tail, head) label pairs, one per directed edge.
    undirected:
        Iterable of label pairs, one per undirected edge (order irrelevant).

    Each argument is read once, as :func:`~causaleffects.errors._sequence`
    reads it.  The labels' positions are kept in ``_idx``, a
    :func:`~causaleffects.errors._label_map`, which refuses a repeated
    label.  Each edge is a list or tuple of two string labels of ``vertices``
    (:meth:`_ends`, which :func:`construct_mpdag` shares).  Every vertex
    pair may carry at most one edge, self loops are rejected, and the
    directed part must be acyclic.  Vertices are checked before edges, and
    directed edges before undirected ones.  A graph is never changed once
    a public function has returned it, so its bucket decomposition is kept
    on it (``_buckets``) after the first :func:`bucket_decomposition`.
    """

    __slots__ = ("vertices", "_idx", "_pa", "_ch", "_nb", "_buckets")

    def __init__(
        self,
        vertices: Sequence[str],
        directed: Iterable[tuple[str, str]] = (),
        undirected: Iterable[tuple[str, str]] = (),
    ):
        vertices = _sequence(vertices, "vertices")
        if any(not isinstance(v, str) for v in vertices):
            raise GraphValidationError("vertex labels must be strings")
        self.vertices = vertices
        self._idx = _label_map(vertices)
        p = len(vertices)
        self._pa: list[set[int]] = [set() for _ in range(p)]
        self._ch: list[set[int]] = [set() for _ in range(p)]
        self._nb: list[set[int]] = [set() for _ in range(p)]
        self._buckets: BucketDecomposition | None = None
        for kind, edges, out, into in (("directed", directed, self._ch, self._pa),
                                       ("undirected", undirected, self._nb, self._nb)):
            for e in _sequence(edges, kind):
                i, j = self._ends(e, kind)
                if i == j:
                    raise GraphValidationError(f"self loop at {vertices[i]!r}")
                if self._adj(i, j):
                    raise GraphValidationError(
                        f"more than one edge between {vertices[i]!r} and {vertices[j]!r}")
                out[i].add(j)
                into[j].add(i)
        self._check_acyclic()

    # -- index-level helpers -------------------------------------------------

    def _ends(self, e, kind: str) -> tuple[int, int]:
        """The vertex indices of the edge entry ``e`` listed under ``kind``:
        a list or tuple of two string labels of this graph, else
        :class:`GraphValidationError`.  Every builder reads its entries here."""
        if not (isinstance(e, (list, tuple)) and len(e) == 2):
            raise GraphValidationError(f"{kind!r} entries must be [u, v] pairs")
        u, v = e
        if not (isinstance(u, str) and isinstance(v, str)):
            raise GraphValidationError(f"{kind!r} endpoints must be string labels")
        try:  # string labels: only a missing one fails
            return self._idx[u], self._idx[v]
        except KeyError as err:
            raise _unknown_label(err.args[0]) from None

    def _adj(self, i: int, j: int) -> bool:
        return j in self._ch[i] or i in self._ch[j] or j in self._nb[i]

    def _orient(self, i: int, j: int, queue: deque) -> None:
        """Direct the edge between vertices i and j as i -> j and queue it;
        a no-op when it already is, an error when it points j -> i."""
        if j in self._ch[i]:
            return
        if j in self._pa[i]:
            raise GraphValidationError(
                "orientation rules conflict: edge forced in both directions "
                f"between vertex indices {i} and {j}"
            )
        self._nb[i].discard(j)
        self._nb[j].discard(i)
        self._ch[i].add(j)
        self._pa[j].add(i)
        queue.append((i, j))

    def _check_acyclic(self) -> None:
        indeg = [len(s) for s in self._pa]
        queue = deque(i for i, d in enumerate(indeg) if d == 0)
        seen = 0
        while queue:
            i = queue.popleft()
            seen += 1
            for j in self._ch[i]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    queue.append(j)
        if seen != len(self.vertices):
            raise GraphValidationError("directed part contains a cycle")

    # -- label-level queries -------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def index(self, label: str) -> int:
        try:
            return self._idx[label]
        except (KeyError, TypeError):  # an unhashable label is no vertex either
            raise _unknown_label(label) from None

    @property
    def directed_edges(self) -> tuple[tuple[str, str], ...]:
        lab = self.vertices
        out = [(lab[i], lab[j]) for i in range(len(lab)) for j in sorted(self._ch[i])]
        return tuple(sorted(out))

    @property
    def undirected_edges(self) -> tuple[tuple[str, str], ...]:
        lab = self.vertices
        out = [
            (lab[i], lab[j])
            for i in range(len(lab))
            for j in sorted(self._nb[i])
            if i < j
        ]
        return tuple(sorted(out))

    @property
    def is_dag(self) -> bool:
        return all(not s for s in self._nb)

    def has_directed(self, u: str, v: str) -> bool:
        return self.index(v) in self._ch[self.index(u)]

    def has_undirected(self, u: str, v: str) -> bool:
        return self.index(v) in self._nb[self.index(u)]

    def adjacent(self, u: str, v: str) -> bool:
        return self._adj(self.index(u), self.index(v))

    def parents_of(self, v: str) -> frozenset[str]:
        return frozenset(self.vertices[i] for i in self._pa[self.index(v)])

    def children_of(self, v: str) -> frozenset[str]:
        return frozenset(self.vertices[i] for i in self._ch[self.index(v)])

    def undirected_neighbors_of(self, v: str) -> frozenset[str]:
        return frozenset(self.vertices[i] for i in self._nb[self.index(v)])

    def __eq__(self, other):
        if not isinstance(other, Pdag):
            return NotImplemented
        return (
            self.vertices == other.vertices
            and self._ch == other._ch
            and self._nb == other._nb
        )

    def __hash__(self):
        return hash((self.vertices, self.directed_edges, self.undirected_edges))

    def __repr__(self):
        return (
            f"{type(self).__name__}(|V|={self.n_vertices}, "
            f"directed={len(self.directed_edges)}, undirected={len(self.undirected_edges)})"
        )


class Mpdag(Pdag):
    """Pdag that is closed under the orientation rules R1-R4.

    Construction verifies closure and raises :class:`GraphValidationError`
    naming the violated rule otherwise.
    """

    def __init__(self, vertices, directed=(), undirected=()):
        super().__init__(vertices, directed, undirected)
        _check_closed(self)


# -- orientation rules -------------------------------------------------------


def _check_closed(g: Pdag) -> None:
    viol = rule_violations(g)
    if viol:
        rule, vs = viol[0]
        raise GraphValidationError(
            f"graph is not rule-closed: {rule} applies at {vs}"
            + (f" (+{len(viol) - 1} more)" if len(viol) > 1 else "")
        )


def _copy(g: Pdag) -> Mpdag:
    """An unchecked :class:`Mpdag` with copies of ``g``'s adjacency sets;
    the labels are shared, ``g``'s bucket decomposition is not (callers
    change the copy).  Callers close it in place or have checked ``g``."""
    m = object.__new__(Mpdag)
    m.vertices, m._idx = g.vertices, g._idx
    m._pa = [set(s) for s in g._pa]
    m._ch = [set(s) for s in g._ch]
    m._nb = [set(s) for s in g._nb]
    m._buckets = None
    return m


def _rule_instances(
    g: Pdag, b: int, out: list, src: int | None = None, dst: int | None = None
) -> None:
    """Append to ``out`` every instance of R1-R4 centred at vertex ``b`` as
    ``(vertices, rule, (i, j))``, where i -> j is the edge the instance
    orients.  Each rule's premise holds i - j, so every instance is a
    violation of closure.

    The centre is the head of R1's and R3's directed edges and the middle
    of R2's and R4's directed path.  ``src`` keeps only instances whose
    directed edge into ``b`` starts there (for R3, either edge), ``dst``
    only those whose directed edge out of ``b`` ends there, so R1 and R3
    have none.  ``g`` is only read.  Unrestricted, it tests adjacency at
    most |pa(b)| (|nb(b)| + |pa(b)| + |ch(b)|) times.
    """
    pa, ch, nb, adj = g._pa, g._ch, g._nb, g._adj
    nb_b = nb[b]
    for a in pa[b] if src is None else (src,):
        nb_a = nb[a]
        if not (nb_a or nb_b):  # every rule needs an undirected edge at a or b
            continue
        # R3 and R4 need an undirected neighbour d of both a and b
        shared = nb_a and nb_b and not nb_a.isdisjoint(nb_b)
        if dst is None:
            # R1: a -> b - c, a and c non-adjacent  =>  b -> c
            for c in nb_b:
                if not adj(a, c):
                    out.append(((a, b, c), "R1", (b, c)))
            # R3: a -> b <- c, d - a, d - b, d - c, a and c non-adjacent
            #     =>  d -> b; unrestricted, each pair {a, c} once as a < c;
            #     the far parents c are listed once per a
            if shared:
                far = {c for c in pa[b] if (a < c if src is None else a != c) and not adj(a, c)}
                for d in nb_b if far else ():
                    if d in nb_a:
                        for c in pa[b] & nb[d]:
                            if c in far:
                                out.append(((a, b, c, d), "R3", (d, b)))
        for c in ch[b] if dst is None else (dst,):
            # R2: a -> b -> c, a - c  =>  a -> c
            if c in nb_a:
                out.append(((a, b, c), "R2", (a, c)))
                continue
            # R4: a -> b -> c, d - a, d - b, d - c, a and c non-adjacent  =>  d -> c
            if shared and not adj(a, c):
                for d in nb[c]:
                    if d in nb_a and d in nb_b:
                        out.append(((a, b, c, d), "R4", (d, c)))


def _close(m: Mpdag, queue: deque) -> None:
    """Drive R1-R4 to a fixpoint.

    The queue holds directed edges not yet examined.  Orienting only adds
    directed edges (queued here) and removes undirected ones, so a rule
    instance starts to apply only when its last directed edge is added.
    Each popped edge a -> b is therefore looked up as the edge into the
    centre b and as the edge out of the centre a, and what that finds is
    oriented.  On a graph that represents a DAG the closure does not depend
    on the order in which the rules fire (Meek 1995).
    """
    found: list = []
    while queue:
        a, b = queue.popleft()
        _rule_instances(m, b, found, src=a)
        _rule_instances(m, a, found, dst=b)
        for _, _, (i, j) in found:
            m._orient(i, j, queue)
        found.clear()


def meek_closure(g: Pdag) -> Mpdag:
    """Close ``g`` under R1-R4 and return the result; ``g`` is unchanged.

    Orientation rules only direct existing undirected edges, so the skeleton
    is unchanged.  A closure that creates a directed cycle (possible only
    when no DAG extends ``g``) raises :class:`GraphValidationError`.
    """
    m = _copy(g)
    queue = deque((i, j) for i in range(g.n_vertices) for j in m._ch[i])
    _close(m, queue)
    m._check_acyclic()
    return m


def rule_violations(g: Pdag) -> list[tuple[str, tuple[str, ...]]]:
    """All places where an orientation rule fires but its conclusion is absent.

    Returns ``(rule_name, vertex_labels)`` tuples ordered by the vertices'
    indices, so the same graph gives the same list however its edges were
    listed; empty when ``g`` is closed.  Used by validation and by the
    ``graph validate`` command to report which rule a non-maximal graph
    violates.
    """
    out: list = []
    for b in range(g.n_vertices):
        _rule_instances(g, b, out)
    if not out:
        return out
    out.sort()  # the sets above iterate in an order that depends on edge insertion
    lab = g.vertices
    return [(rule, tuple(lab[i] for i in vs)) for vs, rule, _ in out]


def construct_mpdag(g: Pdag, knowledge: Iterable[tuple[str, str]]) -> Mpdag:
    """Embed background knowledge edges into ``g`` and re-close.

    Each knowledge pair (x, y) asserts the direction x -> y.  Pairs are
    processed in order: a pair whose edge is already directed x -> y is a
    no-op, an undirected x - y is oriented and the rules are re-closed, and
    anything else (edge absent, or directed y -> x) raises
    :class:`InconsistentKnowledgeError`.  The final graph is independent of
    the processing order.  A pair is read as :class:`Pdag` reads an edge: a
    list or tuple of two vertex labels, else :class:`GraphValidationError`.
    """
    m = _copy(_rule_checked(g))
    for e in _sequence(knowledge, "knowledge"):
        i, j = m._ends(e, "knowledge")
        if j in m._ch[i]:
            continue
        if j in m._nb[i]:
            queue: deque = deque()
            m._orient(i, j, queue)
            _close(m, queue)
        else:
            reason = "oriented against it" if j in m._pa[i] else "not adjacent"
            raise InconsistentKnowledgeError(
                f"knowledge edge {m.vertices[i]!r} -> {m.vertices[j]!r} cannot be embedded: "
                f"{reason}"
            )
    m._check_acyclic()
    return m


def cpdag_from_dag(d: Pdag) -> Mpdag:
    """CPDAG of a DAG: skeleton plus the orientations shared by its
    Markov equivalence class (unshielded colliders, closed under the rules)."""
    if not d.is_dag:
        raise GraphValidationError("input must be a DAG (no undirected edges)")
    p = d.n_vertices
    m = _copy(d)
    for pa, ch, nb in zip(m._pa, m._ch, m._nb):  # the skeleton, all undirected
        nb.update(pa, ch)
        pa.clear()
        ch.clear()
    queue: deque = deque()
    for b in range(p):
        for a, c in combinations(sorted(d._pa[b]), 2):
            if not d._adj(a, c):
                m._orient(a, b, queue)
                m._orient(c, b, queue)
    _close(m, queue)
    m._check_acyclic()
    return m


# -- bucket decomposition ----------------------------------------------------


@dataclass(frozen=True)
class BucketDecomposition:
    """Ordered partition of the vertices into buckets.

    Buckets are the connected components of the undirected part, ordered so
    that every directed edge between two buckets points from the earlier to
    the later one.  ``external_parents[k]`` holds the parents of bucket k
    that lie outside it; for a valid Mpdag every member of a bucket has
    exactly this set as its out-of-bucket parents (restrictive property).
    """

    vertex_order: tuple[str, ...]
    buckets: tuple[tuple[str, ...], ...]
    external_parents: tuple[tuple[str, ...], ...]
    _bucket_index: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        index = {}
        for k, bucket in enumerate(self.buckets):
            for v in bucket:
                index[v] = k
        object.__setattr__(self, "_bucket_index", index)

    def __len__(self) -> int:
        return len(self.buckets)

    def bucket_of(self, label: str) -> int:
        try:
            return self._bucket_index[label]
        except (KeyError, TypeError):
            raise _unknown_label(label) from None

    def prefix(self, k: int) -> tuple[str, ...]:
        """Labels of buckets 0..k-1, concatenated in order."""
        return tuple(v for bucket in self.buckets[:k] for v in bucket)

    def _saturated(self) -> BucketDecomposition:
        """The same buckets, each with all earlier ones (its :meth:`prefix`)
        as external parents: the decomposition of the saturated graph."""
        prefixes, flat = [], ()
        for bucket in self.buckets:
            prefixes.append(flat)
            flat += bucket
        return replace(self, external_parents=tuple(prefixes))


def bucket_decomposition(g: Pdag) -> BucketDecomposition:
    """Decompose ``g`` into its ordered buckets.

    Orders the components of the undirected part by Kahn's algorithm on
    their quotient graph, run from the sink end: a component is placed,
    in front of those already placed, once every directed edge leaving it
    ends in a placed component.  Among components ready at the same time
    the one with the largest leading vertex position goes first (a
    max-heap), so tied components appear in vertex order in the result.
    O(|V| + |E| + c log c) for c components.  Raises if some components
    can never be placed (only possible for graphs that are not valid
    Mpdags) or if the restrictive parent property fails.

    The buckets depend on the graph alone, and a graph is never changed
    once returned, so the decomposition is computed once per graph: later
    calls return the same object.  A refused graph is not remembered and
    raises again.
    """
    if g._buckets is not None:
        return g._buckets
    p = g.n_vertices
    pa, ch, nb = g._pa, g._ch, g._nb
    # each component is named by its leading (smallest) vertex
    lead = list(range(p))
    members: dict[int, list[int]] = {}
    for s in range(p):
        if lead[s] != s or not nb[s]:
            continue
        mem = [s]
        stack = [s]
        while stack:
            for j in nb[stack.pop()]:
                if lead[j] != s:
                    lead[j] = s
                    mem.append(j)
                    stack.append(j)
        members[s] = sorted(mem)

    out_deg = [0] * p
    for i in range(p):
        c = lead[i]
        if nb[i]:
            out_deg[c] += sum(1 for j in ch[i] if lead[j] != c)
        else:
            out_deg[c] = len(ch[i])
    heads = [c for c in range(p) if lead[c] == c]
    heap = [-c for c in heads if out_deg[c] == 0]
    heapq.heapify(heap)
    order: list[int] = []
    while heap:
        c = -heapq.heappop(heap)
        order.append(c)
        for j in members.get(c, (c,)):
            for i in pa[j]:
                d = lead[i]
                if d != c:
                    out_deg[d] -= 1
                    if out_deg[d] == 0:
                        heapq.heappush(heap, -d)
    if len(order) < len(heads):
        raise GraphValidationError(
            "no bucket can be peeled: directed edges run in both directions "
            "between undirected components (graph is not a valid Mpdag)"
        )
    order.reverse()

    lab = g.vertices
    buckets = []
    ext_parents = []
    for c in order:
        mem = members.get(c)
        if mem is None:
            buckets.append((lab[c],))
            ext_parents.append(tuple([lab[i] for i in sorted(pa[c])]))
            continue
        bucket = set(mem)
        ext = set().union(*(pa[i] for i in mem)) - bucket
        for i in mem:
            if pa[i] - bucket != ext:
                raise GraphValidationError(
                    f"restrictive parent property fails in bucket "
                    f"{tuple(lab[v] for v in mem)}: vertex {lab[i]!r} "
                    "does not share the bucket's external parents"
                )
        buckets.append(tuple([lab[i] for i in mem]))
        ext_parents.append(tuple([lab[i] for i in sorted(ext)]))
    g._buckets = BucketDecomposition(lab, tuple(buckets), tuple(ext_parents))
    return g._buckets


# -- reachability and path queries -------------------------------------------


def ancestors_in_subgraph(g: Pdag, y: str, removed: Iterable[str] = ()) -> frozenset[str]:
    """Vertices with a directed path to ``y`` (including ``y``) in the graph
    induced on the vertices outside ``removed``.  Undirected edges do not
    contribute."""
    gone = {g.index(v) for v in _sequence(removed, "removed")}
    t = g.index(y)
    if t in gone:
        raise GraphValidationError(f"outcome {y!r} is among the removed vertices")
    seen = {t}
    stack = [t]
    while stack:
        j = stack.pop()
        for i in g._pa[j]:
            if i not in gone and i not in seen:
                seen.add(i)
                stack.append(i)
    return frozenset(g.vertices[i] for i in seen)


def _check_treatment(treatment: Iterable[str], outcome: str) -> tuple[str, ...]:
    """``treatment`` as a tuple once it forms a query with ``outcome``: a
    non-empty set of distinct labels without the outcome.  The rules that
    need no graph; :func:`_check_query` adds the labels'."""
    treatment = _sequence(treatment, "treatment")
    if not treatment:
        raise GraphValidationError("treatment set is empty")
    try:
        distinct = len(set(treatment)) == len(treatment)
    except TypeError:  # an unhashable entry, which no vertex label is
        raise GraphValidationError(f"unknown vertex label in treatment {treatment!r}") from None
    if not distinct:
        raise GraphValidationError("treatment labels must be distinct")
    if outcome in treatment:
        raise GraphValidationError("outcome cannot be part of the treatment set")
    return treatment


def _check_query(g: Pdag, treatment: Iterable[str], outcome: str):
    """The one check of a (treatment, outcome) query on ``g``: the rules of
    :func:`_check_treatment`, and every label a vertex of ``g``.  Returns
    the treatment's vertex indices and the outcome's; raises
    :class:`GraphValidationError` otherwise."""
    treatment = _check_treatment(treatment, outcome)
    return [g.index(v) for v in treatment], g.index(outcome)


def _rule_checked(g: Pdag) -> Pdag:
    """``g`` itself, once it is known to be rule-closed.

    The path searches below are exact only on rule-closed graphs.  An
    :class:`Mpdag` was checked at construction, and a DAG has no undirected
    edge for a rule to orient; any other plain :class:`Pdag` gets the rule
    check here, which raises :class:`GraphValidationError` naming the first
    violated rule."""
    if not isinstance(g, Mpdag) and not g.is_dag:
        _check_closed(g)
    return g


def _unshielded_search(g: Pdag, starts, blocked=(), target: int = -1):
    """Breadth-first search for unshielded possibly causal paths.

    The states are (previous, current) vertex pairs; a start state has the
    sentinel ``p`` as its previous vertex.  From (u, v) the search moves to
    every w with v -> w or v - w that is not blocked, not u and not adjacent
    to u.  Each state is expanded once, so the search takes O(sum of squared
    degrees) time.

    Returns ``(parent, hit)``: ``parent`` maps every visited state to the
    state it was reached from (None for a start state), and ``hit`` is the
    first state whose current vertex is ``target``, or None.  The search
    stops at the hit.
    """
    p = g.n_vertices
    pa, ch, nb = g._pa, g._ch, g._nb
    near: dict[int, set[int]] = {p: set()}  # adjacent vertices and the vertex itself
    parent: dict[tuple[int, int], tuple[int, int] | None] = {}
    queue: deque[tuple[int, int]] = deque()
    for s in starts:
        state = (p, s)
        if s not in blocked and state not in parent:
            parent[state] = None
            if s == target:
                return parent, state
            queue.append(state)
    while queue:
        state = queue.popleft()
        u, v = state
        stop = near.get(u)
        if stop is None:
            stop = near[u] = pa[u] | ch[u] | nb[u] | {u}
        for w in (ch[v] | nb[v]) - stop:
            nxt = (v, w)
            if nxt in parent or w in blocked:
                continue
            parent[nxt] = state
            if w == target:
                return parent, nxt
            queue.append(nxt)
    return parent, None


def possible_descendants(g: Pdag, sources: Iterable[str]) -> frozenset[str]:
    """All vertices reachable from ``sources`` by a possibly causal path
    (the sources included).

    A path <V0, ..., Vk> is possibly causal in an Mpdag when no edge
    Vj -> Vi with i < j joins two of its vertices.  By Lemma B.1 of
    Perkovic, Kalisch & Maathuis (UAI 2017), every possibly causal path has
    a subsequence that is an unshielded possibly causal path between the
    same end points; conversely an unshielded path with no edge
    Vi <- Vi+1 is possibly causal (see
    :func:`proper_undirected_start_path`).  So reachability over unshielded
    forward-or-undirected steps decides the query: one multi-source
    breadth-first search over (previous, current) states, O(sum of squared
    degrees), in place of enumerating simple paths.

    A plain :class:`Pdag` is checked for rule closure first and raises
    :class:`GraphValidationError` when it is not closed.
    """
    g = _rule_checked(g)
    parent, _ = _unshielded_search(g, [g.index(s) for s in _sequence(sources, "sources")])
    return frozenset(g.vertices[v] for _, v in parent)


def proper_undirected_start_path(
    g: Pdag, treatment: Iterable[str], outcome: str
) -> tuple[str, ...] | None:
    """One proper possibly causal path from ``treatment`` to ``outcome``
    whose first edge is undirected, as vertex labels, or None if there is
    none.  Proper means only the first vertex lies in the treatment set.

    For each X in the treatment set A the search starts at the undirected
    neighbours V1 of X outside A and blocks A, Pa(X) and X itself; the
    unshielded condition is not applied across X - V1.

    Why this is exact on an Mpdag G:

    * Completeness.  Let q = <X, V1, ..., Y> be such a path.  Its subpath
      <V1, ..., Y> is possibly causal, so by Lemma B.1 of Perkovic, Kalisch
      & Maathuis (UAI 2017) a subsequence of it is an unshielded possibly
      causal path from V1 to Y.  Its vertices lie on q, hence outside A
      (q is proper), differ from X, and are no parents of X (an edge
      Vi -> X would point back along q).  The search therefore reaches Y
      from V1.
    * Soundness.  Let r = <V1, ..., Y> be the walk the search found: every
      step is -> or -, and every consecutive triple is unshielded.  Take a
      DAG represented by G that contains the first edge of r pointing
      forward (every undirected edge of an Mpdag points each way in some
      represented DAG; Meek 1995).  If V(i-1) -> Vi in that DAG, then
      Vi -> V(i+1) too: either G already directs it so, or it is undirected
      in G and V(i+1) -> Vi would make V(i-1) -> Vi <- V(i+1) an unshielded
      collider absent from G.  So r is a directed walk in a DAG: a simple
      path with no edge Vj -> Vi for i < j in that DAG, nor in G, whose
      directed edges the DAG contains.  Prepending X keeps it simple and
      possibly causal, since X is blocked and no parent of X is on r,
      proper since A is blocked, and its first edge X - V1 is undirected.
      The same argument, without X, shows that any unshielded path with no
      edge Vi <- V(i+1) is possibly causal.

    Both steps need G to represent at least one DAG; a rule-closed graph
    that represents none (an undirected chordless 4-cycle, say) is outside
    their scope.

    The identification criterion of Perkovic (UAI 2020) asks whether such a
    path exists; the returned path is the witness.  One breadth-first
    search per treatment vertex, O(sum of squared degrees) each.

    A malformed query (see :func:`_check_query`) raises
    :class:`GraphValidationError` before the graph's rule check.
    """
    a_idx, t = _check_query(g, treatment, outcome)
    g = _rule_checked(g)
    a_set = set(a_idx)
    for x in a_idx:
        blocked = a_set | g._pa[x]
        parent, hit = _unshielded_search(g, sorted(g._nb[x] - a_set), blocked, t)
        if hit is None:
            continue
        path = []
        while hit is not None:
            path.append(hit[1])
            hit = parent[hit]
        path.append(x)
        return tuple(g.vertices[i] for i in reversed(path))
    return None


def exists_proper_possibly_causal_undirected_start(
    g: Pdag, treatment: Iterable[str], outcome: str
) -> bool:
    """Is there a proper possibly causal path from ``treatment`` to
    ``outcome`` whose first edge is undirected?

    Proper means only the first vertex lies in the treatment set.  Decided
    by :func:`proper_undirected_start_path`, in polynomial time.
    """
    return proper_undirected_start_path(g, treatment, outcome) is not None


def saturated_mpdag(g: Pdag) -> Mpdag:
    """Add directed edges so every bucket's external parents become the
    entire union of earlier buckets.  Buckets and their order are unchanged,
    and the result is again rule-closed."""
    dec = bucket_decomposition(g)
    directed = set(g.directed_edges)
    for bucket, prefix in zip(dec.buckets, dec._saturated().external_parents):
        for u in prefix:
            for v in bucket:
                if not g.adjacent(u, v):
                    directed.add((u, v))
    return Mpdag(g.vertices, sorted(directed), g.undirected_edges)


# -- JSON input/output --------------------------------------------------------


def graph_to_dict(g: Pdag) -> dict:
    return {
        "vertices": list(g.vertices),
        "directed": [list(e) for e in g.directed_edges],
        "undirected": [list(e) for e in g.undirected_edges],
    }


def graph_from_dict(d: dict, strict: bool = False) -> Pdag:
    """Build a graph from the JSON structure
    ``{"vertices": [...], "directed": [[u, v], ...], "undirected": [[u, v], ...]}``.

    With ``strict=True`` the graph must additionally be rule-closed and an
    :class:`Mpdag` is returned; the error message names the violated rule.
    ``strict`` must be a bool (:class:`GraphValidationError`).  Only the
    JSON shape is checked here; :class:`Pdag` checks the entries.
    """
    strict = _flag(strict, "strict")
    _check_fields(d, "graph JSON", ("vertices", "directed", "undirected"))
    for key, of in (("vertices", "labels"), ("directed", "[u, v] pairs"),
                    ("undirected", "[u, v] pairs")):
        if not isinstance(d[key], list):
            raise GraphValidationError(f"{key!r} must be an array of {of}")
    cls = Mpdag if strict else Pdag
    return cls(d["vertices"], d["directed"], d["undirected"])


def load_graph(path, strict: bool = False) -> Pdag:
    """:func:`graph_from_dict` of a JSON file; a byte-order mark is ignored,
    and an object that repeats a field is refused (:func:`_unique_fields`)."""
    return graph_from_dict(_read_json(path), strict=strict)


def save_graph(g: Pdag, path) -> None:
    _write_json(graph_to_dict(g), path)

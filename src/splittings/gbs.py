"""Generalized Baumslag-Solitar graphs of groups.

A LabeledGraph is a finite connected graph with a nonzero integer at each
edge end: lam at the origin, mu at the terminus. Each vertex carries an
infinite cyclic group <a_v>, each edge a letter x_e with the relation

    x_e a_{t(e)}^{mu(e)} x_e^{-1} = a_{o(e)}^{lam(e)}.

Group elements are closed edge-path words (GroupWord) from a base vertex,
alternating vertex powers and edge crossings. Britton reduction removes
pinches Cross(e,+) Pow(k*mu) Cross(e,-) -> Pow(k*lam) (and the mirrored
rule); cyclic reduction also removes pinches across the wrap, changing the
base point. The translation length of an element on the Bass-Serre tree is
the crossing count of its cyclically reduced form: a Britton-reduced word
of n crossings whose wrap pinches k times has length n - 2k. The
ball_displacement_oracle recomputes it from explicit tree geometry and
serves as the independent check of the Britton engine.

validate_graph attaches a GraphIndex (moves by edge id, spanning-tree
parents, and a route table that make_word fills at the base) to the graph
it returns, and nothing else sets one, so crossing lookups are dict reads,
a letter is routed through the tree once per index in O(depth) and
reductions cost O(n) in word items. A move holds a crossing with its
reverse, its departure and arrival vertices and labels; every word walker
reads crossings through the moves. A word keeps its linear pass and the
cyclic pass's (k, p) for the graph index it was first reduced on
(GroupWord.reduced), so later length questions read it.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence, Union

from .errors import (
    Disconnected,
    IdentityViolation,
    InvalidPath,
    NotHyperbolic,
    SemanticError,
    ZeroLabel,
    check_ids,
    clipped,
    clipped_name,
    int_text,
    require_nonnegative,
)
from .report import Report, digest

# the length bound of the word searches when the caller names none
DEFAULT_SEARCH_BUDGET = 8


# -- graphs -------------------------------------------------------------------

@dataclass(frozen=True)
class Edge:
    id: str
    origin: str
    terminus: str
    lam: int  # label at the origin end
    mu: int   # label at the terminus end

    def is_loop(self) -> bool:
        return self.origin == self.terminus


@dataclass(frozen=True)
class LabeledGraph:
    """A GBS graph as given: vertices, labelled edges, and optionally a base
    vertex and spanning-tree edge ids. `index` is set only by validate_graph,
    on the graph it returns; no constructor argument sets it, so a graph
    built directly or through dataclasses.replace is unindexed and is
    validated again. Like GroupWord.reduced, it is invisible to equality,
    hashing and repr."""

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    base: Optional[str] = None
    spanning_tree: Optional[tuple[str, ...]] = None
    name: str = ""
    index: Optional[GraphIndex] = field(
        default=None, init=False, compare=False, repr=False, hash=False
    )

    def edge(self, eid: str) -> Edge:
        for e in validate_graph(self).edges:
            if e.id == eid:
                return e
        raise SemanticError(f"no edge named {clipped_name(eid)}")


@dataclass(frozen=True, eq=False)
class GraphIndex:
    """Lookup tables of a validated graph, built once by validate_graph and
    attached only to the graph it returns; moves is its only edge table. A
    move is the tuple (crossing, reverse crossing, departure, arrival,
    departure label, arrival label); the walkers push only these crossing
    objects, so they compare crossings with `is`. moves[e] is the
    (forward, backward) pair of edge e, and departing[v] lists the moves
    leaving v in edge order (the forward move of an edge before its
    backward one). The spanning tree is rooted at the base: parent[v] =
    (parent vertex, crossing from v up to it, crossing from it down to v)
    for every other vertex. routes is make_word's route table, filled on
    first use: the items of each distinct letter routed at the base, keyed
    by (kind, name, exponent, type of exponent), one route per distinct
    exponent. Its lists are shared by every word that spells the letter and
    never mutated, and they live as long as the index."""

    moves: dict[str, tuple[Move, Move]]
    departing: dict[str, tuple[Move, ...]]
    parent: dict[str, tuple[str, Cross, Cross]]
    routes: dict[tuple, list[Item]] = field(default_factory=dict)


def graph(vertices: Iterable[str], edges: Iterable[tuple], name: str = "") -> LabeledGraph:
    """Convenience constructor; edges are (id, origin, terminus, lam, mu)."""
    es = []
    t = edges  # named when the edges cannot be iterated
    try:
        for t in edges:
            es.append(Edge(*t))
    except TypeError:  # not an (id, origin, terminus, lam, mu) tuple
        raise SemanticError(
            f"malformed edge {clipped(repr(t), str)}; edges are"
            " (id, origin, terminus, lam, mu) tuples"
        ) from None
    return validate_graph(LabeledGraph(tuple(vertices), tuple(es), name=name))


def bs(m: int, n: int) -> LabeledGraph:
    """The Baumslag-Solitar group BS(m,n) = <a,t | t a^m t^-1 = a^n> as a
    one-loop graph; the forward crossing of the loop is the letter t."""
    return graph(("v",), (("e", "v", "v", n, m),), name=f"bs{m}_{n}")


def _is_vertex(departing: dict[str, Any], v) -> bool:
    """Whether v is a key of departing, a table keyed by vertex; an
    unhashable v names no vertex."""
    try:
        return v in departing
    except TypeError:
        return False


def _breadth_first(base: str, departing: dict[str, list[Move]]) -> dict[str, Optional[Move]]:
    """Vertices reachable from base along the departing moves, in
    breadth-first order, each with the move that first reached it."""
    reached: dict[str, Optional[Move]] = {base: None}
    queue = deque((base,))
    while queue:
        for m in departing[queue.popleft()]:
            b = m[3]
            if b not in reached:
                reached[b] = m
                queue.append(b)
    return reached


def validate_graph(g: LabeledGraph) -> LabeledGraph:
    """Verify connectivity and nonzero integer labels; fix a base vertex and a
    spanning tree deterministically when absent, check a given one, and
    attach the graph's index to the graph returned. No other code sets an
    index, so an indexed graph passed these checks and is returned
    unchanged."""
    if g.index is not None:
        return g
    if not g.vertices:
        raise Disconnected("empty graph")
    for e in g.edges:
        if not isinstance(e, Edge):
            raise SemanticError(f"edge {clipped_name(e)} is not an Edge")
    check_ids(g.vertices, [e.id for e in g.edges], "")
    moves: dict[str, tuple[Move, Move]] = {}
    departing: dict[str, list[Move]] = {v: [] for v in g.vertices}
    for e in g.edges:
        for x in (e.lam, e.mu):
            if type(x) is not int:  # bool is an int subclass, so it fails too
                raise SemanticError(
                    f"edge {clipped(e.id, str)} carries the label {clipped(repr(x), str)};"
                    " labels are nonzero integers"
                )
        if e.lam == 0 or e.mu == 0:
            raise ZeroLabel(f"edge {clipped(e.id, str)} carries a zero label")
        if e.origin not in departing or e.terminus not in departing:
            raise SemanticError(f"edge {clipped(e.id, str)} attached to an unknown vertex")
        fwd, bwd = Cross(e.id, +1), Cross(e.id, -1)
        forward = (fwd, bwd, e.origin, e.terminus, e.lam, e.mu)
        backward = (bwd, fwd, e.terminus, e.origin, e.mu, e.lam)
        moves[e.id] = (forward, backward)
        departing[e.origin].append(forward)
        departing[e.terminus].append(backward)
    base = g.base if g.base is not None else min(g.vertices)
    if not _is_vertex(departing, base):
        raise SemanticError(f"base {clipped_name(base)} is not a vertex")
    # breadth-first spanning tree, edges taken in listed order
    reached = _breadth_first(base, departing)
    if len(reached) != len(g.vertices):
        raise Disconnected("graph is not connected")
    if g.spanning_tree is None:
        tree = tuple(sorted({m[0].edge for m in reached.values() if m is not None}))
    else:
        try:
            tree = tuple(g.spanning_tree)
        except TypeError:
            raise SemanticError(
                f"spanning tree {clipped_name(g.spanning_tree)} is not a sequence of edge ids"
            ) from None
        for eid in tree:
            if not isinstance(eid, str) or eid not in moves:
                raise SemanticError(f"spanning tree names unknown edge {clipped_name(eid)}")
        if len(set(tree)) != len(tree):
            raise SemanticError("spanning tree lists an edge twice")
        # V-1 edges that reach every vertex cannot close a cycle
        if len(tree) != len(g.vertices) - 1:
            raise SemanticError(
                f"spanning tree has {len(tree)} edges; a spanning tree of"
                f" {len(g.vertices)} vertices has {len(g.vertices) - 1}"
            )
        usable = set(tree)
        reached = _breadth_first(
            base, {v: [m for m in ms if m[0].edge in usable] for v, ms in departing.items()}
        )
        if len(reached) != len(g.vertices):
            missing = next(v for v in g.vertices if v not in reached)
            raise SemanticError(f"spanning tree does not reach vertex {clipped_name(missing)}")
    parent = {v: (m[2], m[1], m[0]) for v, m in reached.items() if m is not None}
    indexed = LabeledGraph(tuple(g.vertices), tuple(g.edges), base, tree, g.name)
    index = GraphIndex(moves, {v: tuple(ms) for v, ms in departing.items()}, parent)
    object.__setattr__(indexed, "index", index)
    return indexed


# -- words ---------------------------------------------------------------------

@dataclass(frozen=True)
class Pow:
    vertex: str
    n: int


@dataclass(frozen=True)
class Cross:
    edge: str
    sign: int  # +1 origin->terminus, -1 terminus->origin


Item = Union[Pow, Cross]
# (crossing, reverse crossing, departure, arrival, departure label, arrival label)
Move = tuple[Cross, Cross, str, str, int, int]


@dataclass(frozen=True)
class GroupWord:
    """A closed edge path at base. The first length question on an indexed
    graph stores the word's reduction in `reduced`, which later questions on
    that same index reuse; like LabeledGraph.index it is invisible to
    equality, hashing and repr, and no constructor argument sets it.

    >>> g = bs(2, 3)
    >>> w = make_word(g, [("t", "e", 1), ("a", "v", 1)])
    >>> translation_length(g, w)
    1
    >>> w.reduced[0] is g.index
    True
    """

    base: str
    items: tuple[Item, ...] = ()
    # (graph index, linear pass, (k, p) of the cyclic pass), set by _reduce
    reduced: Optional[tuple] = field(
        default=None, init=False, compare=False, repr=False, hash=False
    )


def _move(g: LabeledGraph, c: Cross) -> Move:
    """The move of a crossing of an edge of the indexed graph g; reads the
    index without validating again."""
    return g.index.moves[c.edge][c.sign < 0]


def validate_word(g: LabeledGraph, w: GroupWord) -> GroupWord:
    """Check path-consistency: each item departs from the vertex where the
    previous one ends, and the path closes up at the base. This is the
    word's reduction (see _reduce) with its output discarded."""
    _reduce(g, w)
    return w


def _check_bases(b1: str, b2: str) -> None:
    if b1 != b2:
        raise InvalidPath("concatenated words must share a base vertex")


def concat(w1: GroupWord, w2: GroupWord) -> GroupWord:
    _check_bases(w1.base, w2.base)
    return GroupWord(w1.base, w1.items + w2.items)


def inverse(w: GroupWord) -> GroupWord:
    items = []
    for item in reversed(w.items):
        if isinstance(item, Pow):
            items.append(Pow(item.vertex, -item.n))
        else:
            items.append(Cross(item.edge, -item.sign))
    return GroupWord(w.base, tuple(items))


def power(w: GroupWord, n: int) -> GroupWord:
    if not isinstance(n, int):
        raise SemanticError(f"power exponent must be an integer, got {clipped(repr(n), str)}")
    if n < 0:
        return power(inverse(w), -n)
    return GroupWord(w.base, w.items * n)


# surface letters: ("a", vertex, exponent) and ("t", edge, +-1)

def _letter_route(g: LabeledGraph, kind, name, k) -> list[Item]:
    """The items of one surface letter as a closed path at the base: down
    the spanning tree from the base to the letter's start, its power or
    crossing, and up the tree from its end back to the base. A list, not a
    tuple: CPython 3.11 keeps freed 20-item tuples on a free list it never
    reuses, and a route is freed with its index."""
    if not isinstance(k, int):
        raise InvalidPath(f"exponent must be an integer, got {clipped(repr(k), str)}")
    parent = g.index.parent
    if kind == "a" and name in g.index.departing:
        if k == 0:
            return []
        start = end = name
        letter: Item = Pow(name, k)
    elif kind == "t" and name in g.index.moves:
        if k not in (+1, -1):
            raise InvalidPath(f"crossing exponent must be +-1, got {k}")
        _, _, start, end, _, _ = g.index.moves[name][k < 0]
        letter = Cross(name, k)
    elif kind not in ("a", "t"):
        raise InvalidPath(f"unknown letter kind {clipped_name(kind)}")
    else:
        raise InvalidPath(
            f"unknown {'vertex' if kind == 'a' else 'edge'} {clipped_name(name)}"
            f" in letter {kind}[{clipped(str(name), str)}]"
        )
    route: list[Item] = []
    while start in parent:
        start, _, down = parent[start]
        route.append(down)
    route.reverse()
    route.append(letter)
    while end in parent:
        end, up, _ = parent[end]
        route.append(up)
    return route


def make_word(g: LabeledGraph, letters: Iterable[tuple]) -> GroupWord:
    """Build a closed word at the graph's base from surface letters, routing
    each letter through the spanning tree: a[v]^n conjugates a vertex power
    to the base, t[e] crosses e between tree connectors. Each distinct
    letter, exponent included, is routed once per graph index, into
    GraphIndex.routes, which keeps its route for the life of the index;
    every later copy in any word shares those items. The type of the
    exponent is part of the key, so letters that are equal but print
    differently (exponent True and 1) keep their own items. For a word at
    another vertex v, validate the graph with that base:
    validate_graph(dataclasses.replace(g, base=v)) keeps g's spanning tree."""
    g = validate_graph(g)
    items: list[Item] = []
    routes = g.index.routes
    letter = letters  # named when the letters cannot be iterated
    try:
        for letter in letters:
            kind, name, k = letter
            key = (kind, name, k, type(k))
            route = routes.get(key)
            if route is None:
                route = routes[key] = _letter_route(g, kind, name, k)
            items += route
    except (TypeError, ValueError):  # not a (kind, name, exponent) triple
        raise InvalidPath(
            f"malformed letter {clipped(repr(letter), str)}; letters are"
            " (kind, name, exponent) triples"
        ) from None
    return GroupWord(g.base, tuple(items))


# -- Britton reduction -----------------------------------------------------------

@dataclass(frozen=True)
class NormalForm:
    """word: Britton-reduced form of the input (same group element).
    cyclic_word: cyclically reduced representative of its conjugacy class
    (base point may differ). crossing_sequence: edge-orbit ids of one period
    of the cyclic form, empty iff the element is elliptic."""

    word: GroupWord
    cyclic_word: GroupWord
    cyclically_reduced: bool
    crossing_sequence: tuple[str, ...]


def _linear_reduce(g: LabeledGraph, w: GroupWord) -> list[tuple[Optional[Cross], int, str]]:
    """Stack pass yielding [(crossing or None, following power, vertex)].
    Once a crossing is buried under a later one its preceding power is
    frozen and pinch-free, so the output is Britton-reduced. The top entry
    (c, p, v) lives in locals and only buried entries are on the stack. Its
    vertex is where the path stands, so the pass also checks the path as it
    walks: the base is a vertex, each item departs from the current vertex,
    and the path closes up at the base. It pushes the index's own crossings,
    so a pinch is the top crossing being the reverse of the item's."""
    moves = g.index.moves
    if not _is_vertex(g.index.departing, w.base):
        raise InvalidPath(f"base {clipped_name(w.base)} is not a vertex")
    out: list[tuple[Optional[Cross], int, str]] = []
    c, p, v = None, 0, w.base
    item = None
    try:
        for item in w.items:
            if type(item) is Pow:
                if item.vertex != v:
                    raise InvalidPath(
                        f"power at {clipped_name(item.vertex)} but path is at {clipped_name(v)}"
                    )
                p += item.n
                continue
            pair = moves.get(item.edge)
            if pair is None:
                raise SemanticError(f"no edge named {clipped_name(item.edge)}")
            if item.sign == 1:
                own, rev, dep, arr, d, a = pair[0]
            elif item.sign == -1:
                own, rev, dep, arr, d, a = pair[1]
            else:
                raise _malformed(item)
            if dep != v:
                raise InvalidPath(
                    f"crossing of {clipped_name(item.edge)} departs {clipped_name(dep)}"
                    f" but path is at {clipped_name(v)}"
                )
            if c is rev and p % d == 0:
                carry = p // d * a
                c, p, v = out.pop()
                p += carry
            else:
                out.append((c, p, v))
                c, p, v = own, 0, arr
    except (AttributeError, TypeError):  # not a Pow or Cross of int exponent or sign
        raise _malformed(item) from None
    if v != w.base:
        raise InvalidPath(f"path ends at {clipped_name(v)}, not at base {clipped_name(w.base)}")
    out.append((c, p, v))
    return out


def _malformed(item) -> InvalidPath:
    return InvalidPath(
        f"malformed word item {clipped(repr(item), str)}; items are"
        " Pow(vertex, int) or Cross(edge, +-1)"
    )


def _cyclic_reduce(g: LabeledGraph, linear) -> tuple[int, int]:
    """Cyclic pinch removal on the linear pass's crossing entries, read in
    place; returns (k, p). The linear pass left no pinch inside the list,
    so only the wrap adjacency (last, first) can pinch, and removing that
    pair exposes the next wrap: k wrap pinches drop the first k and the
    last k crossing entries. The cyclic word crosses the window
    linear[1 + k:len(linear) - k], starting at the vertex of its last
    entry, and ends with the merged wrap power p in place of that entry's
    power. When no crossing is left, p is the whole element, a power at the
    vertex of linear[k]."""
    n, k, carry = len(linear) - 1, 0, linear[0][1]
    while n - 2 * k >= 2:
        c, q, _ = linear[n - k]
        cj, qj, _ = linear[1 + k]
        _, rev, _, _, d, a = _move(g, cj)
        if c is not rev or (q + carry) % d != 0:
            break
        carry = (q + carry) // d * a + qj
        k += 1
    return k, carry + (linear[n - k][1] if n > 2 * k else 0)


def _reduce(g: LabeledGraph, w: GroupWord):
    """The reduction core shared by every length consumer: the indexed
    graph, the linear pass, and the cyclic pass's (k, p) over it. The
    passes run once per word and graph index: the first successful call
    stores them on the word, and a later call reuses them only when the
    stored index is this graph's index object (a re-indexed or relabelled
    graph misses). A word that fails its checks stores nothing, so it
    fails the same way on every call. Callers must not mutate the returned
    list."""
    g = validate_graph(g)
    memo = w.reduced
    if memo is not None and memo[0] is g.index:
        return g, memo[1], memo[2]
    linear = _linear_reduce(g, w)
    cyclic = _cyclic_reduce(g, linear)
    object.__setattr__(w, "reduced", (g.index, linear, cyclic))
    return g, linear, cyclic


def _word_from(base: str, power: int, entries) -> GroupWord:
    """The word at base of a power there followed by (crossing, power,
    vertex) entries: the normal-form words of both passes."""
    items: list[Item] = [Pow(base, power)] if power else []
    for c, p, v in entries:
        items.append(c)
        if p != 0:
            items.append(Pow(v, p))
    return GroupWord(base, tuple(items))


def britton_reduce(g: LabeledGraph, w: GroupWord) -> NormalForm:
    """Britton-reduce w, then cyclically reduce it. Terminates because every
    pinch removes two crossings."""
    _, linear, (k, p) = _reduce(g, w)
    entries = linear[1 + k:len(linear) - k]
    # the cyclic word's base: the last entry's vertex, or linear[k]'s when
    # no entry is left (then len(linear) - 1 == 2k)
    v = linear[-1 - k][2]
    if entries:
        entries[-1] = (entries[-1][0], p, v)
        p = 0
    return NormalForm(
        word=_word_from(w.base, linear[0][1], linear[1:]),
        cyclic_word=_word_from(v, p, entries),
        cyclically_reduced=(k == 0),
        crossing_sequence=tuple([c.edge for c, _, _ in entries]),
    )


def crossing_sequence(g: LabeledGraph, w: GroupWord) -> list[str]:
    """The edge ids of britton_reduce(g, w).crossing_sequence, as a list,
    without building the words of the normal form. Length queries run this
    once per word; a list rather than a tuple because CPython 3.11 keeps
    freed 20-item tuples on a free list it never reuses."""
    _, linear, (k, _) = _reduce(g, w)
    return [c.edge for c, _, _ in linear[1 + k:len(linear) - k]]


def translation_length(g: LabeledGraph, w: GroupWord) -> int:
    """Crossing count of the cyclically reduced form; 0 iff elliptic."""
    _, linear, (k, _) = _reduce(g, w)
    return len(linear) - 1 - 2 * k


def is_elliptic(g: LabeledGraph, w: GroupWord) -> bool:
    return translation_length(g, w) == 0


# -- products of stored passes -----------------------------------------------------
#
# The length of a product is read from its factors' linear passes, never by
# reducing the concatenated items again. A composed entry list is
# Britton-reduced and crosses the same edges as the linear pass of the
# concatenation, but its vertex powers may differ from that pass's, so only
# its length is read: it is never stored on a word or made into a NormalForm.

def _product_entries(g: LabeledGraph, x, y) -> list[tuple[Optional[Cross], int, str]]:
    """The entries of the product of two linear passes x and y at one base
    (InvalidPath otherwise): y's entries pushed onto x's stack. y is
    pinch-free within itself, so only the junction pinches, and once one of
    y's crossings stays the rest of y stays too; the result is
    x[:i] + [merged entry] + y[j:], built by slicing."""
    _check_bases(x[0][2], y[0][2])
    i = len(x) - 1
    c, p, v = x[i]
    p += y[0][1]
    j = 1
    while j < len(y):
        cj, q, _ = y[j]
        _, rev, _, _, d, a = _move(g, cj)
        # x[0] has no crossing, so the stack never empties
        if c is not rev or p % d != 0:
            break
        carry = p // d * a
        i -= 1
        c, p, v = x[i]
        p += carry + q
        j += 1
    return x[:i] + [(c, p, v)] + y[j:]


def _inverse_entries(g: LabeledGraph, x) -> list[tuple[Optional[Cross], int, str]]:
    """The entries of the inverse of a linear pass x: the crossings in
    reverse order, each replaced by its reverse from the moves and followed
    by the negated power that preceded it in x. The inverse of a
    Britton-reduced word is Britton-reduced."""
    out = [(None, -x[-1][1], x[-1][2])]
    for i in range(len(x) - 1, 0, -1):
        _, p, v = x[i - 1]
        out.append((_move(g, x[i][0])[1], -p, v))
    return out


def _composed_length(g: LabeledGraph, entries) -> int:
    """The translation length of the element of a composed entry list: its
    crossing count less two per wrap pinch of _cyclic_reduce."""
    k, _ = _cyclic_reduce(g, entries)
    return len(entries) - 1 - 2 * k


# -- length-function identities ----------------------------------------------------

@dataclass(frozen=True)
class AxisGap:
    kind: str  # "meet" | "disjoint"
    gap: Optional[int] = None


def axis_gap(g: LabeledGraph, w1: GroupWord, w2: GroupWord) -> AxisGap:
    """Decide from lengths alone whether the axes of two hyperbolic elements
    meet, and if not, the distance between them: disjoint axes force
    l(w1 w2) = l(w1^-1 w2) = l(w1) + l(w2) + 2d, while meeting axes force
    max of the two products to be exactly l(w1) + l(w2). Any other outcome
    is an internal bug, reported as IdentityViolation. Each input is
    reduced once (its path checks); the products' lengths are composed from
    the inputs' stored linear passes (_product_entries), so each costs its
    junction pinches and two list slices, not a reduction of the
    concatenated items. An elliptic input raises NotHyperbolic before words
    at different bases raise InvalidPath."""
    g = validate_graph(g)
    l1 = translation_length(g, w1)
    l2 = translation_length(g, w2)
    if l1 == 0 or l2 == 0:
        raise NotHyperbolic("axis_gap needs hyperbolic inputs")
    _, x, _ = _reduce(g, w1)
    _, y, _ = _reduce(g, w2)
    a = _composed_length(g, _product_entries(g, x, y))
    b = _composed_length(g, _product_entries(g, _inverse_entries(g, x), y))
    s = l1 + l2
    if a == b and a > s and (a - s) % 2 == 0:
        return AxisGap("disjoint", (a - s) // 2)
    if max(a, b) == s:
        return AxisGap("meet")
    raise IdentityViolation(
        f"axis dichotomy failed: l={l1},{l2} product={a} inverse-product={b}"
    )


def _elements(g: LabeledGraph, max_len: int) -> Iterator[tuple[GroupWord, list[str]]]:
    """The walk shared by the word searches: each group element other than
    the identity spelled by a freely reduced letter string of length
    1..max_len, once, with its cyclic crossing ids. Strings go shortest
    first, in alphabet order (a[v]^+-1 per vertex, then t[e]^+-1 per edge),
    and the first string to reach an element yields its word. Elements are
    keyed by their coset normal form, the state of _normalize_steps, which
    two words share exactly when they are equal. A string whose element
    was reached before extends only to elements reached before, so only
    first strings are extended: a child resumes its parent's state over its
    letter's route and skips the inverse of the parent's last letter."""
    g = validate_graph(g)
    alphabet = [("a", v, k) for v in g.vertices for k in (1, -1)]
    alphabet += [("t", e.id, k) for e in g.edges for k in (1, -1)]
    # letter i and its inverse i ^ 1 sit side by side
    routes = [make_word(g, (x,)).items for x in alphabet]
    identity: tuple = ((), 0)
    seen = {identity}
    # (word items, element key, index of the inverse of the last letter)
    frontier: list[tuple[tuple[Item, ...], tuple, int]] = [((), identity, -1)]
    for _ in range(max_len):
        nxt = []
        for items, (steps, pending), back in frontier:
            for i, route in enumerate(routes):
                if i == back:
                    continue
                child_steps, child_pending, _ = _normalize_steps(g, route, steps, pending)
                key = (tuple(child_steps), child_pending)
                if key in seen:
                    continue
                seen.add(key)
                w = GroupWord(g.base, items + route)
                yield w, crossing_sequence(g, w)
                nxt.append((w.items, key, i ^ 1))
        frontier = nxt


@dataclass(frozen=True)
class SearchOutcome:
    """Why a word search stopped, for one question. stop is "found"
    (witness holds what the question returned, elements_tried counts the
    elements up to and including the one that answered), "exhausted"
    (every element up to the bound was tried, elements_tried of them, and
    none answered) or "proved_none" (no witness exists at any bound;
    nothing was tried)."""

    stop: str
    witness: Any
    elements_tried: int


def _search(
    g: LabeledGraph, L: int, questions: dict[Any, Callable[[GroupWord, list[str]], Any]]
) -> dict[Any, SearchOutcome]:
    """The one driver of the word searches: walk _elements(g, L) once and
    ask each question of each element, with its crossing ids, until the
    question returns something other than None. The walk stops as soon as
    every question has answered. One outcome per key, in the order given."""
    outcomes: dict[Any, Optional[SearchOutcome]] = dict.fromkeys(questions)
    pending = dict(questions)
    tried = 0
    if pending:
        for w, seq in _elements(g, L):
            tried += 1
            for key, ask in list(pending.items()):
                witness = ask(w, seq)
                if witness is not None:
                    outcomes[key] = SearchOutcome("found", witness, tried)
                    del pending[key]
            if not pending:
                break
    for key in pending:
        outcomes[key] = SearchOutcome("exhausted", None, tried)
    return outcomes


def irreducibility_search(g: LabeledGraph, L: int = DEFAULT_SEARCH_BUDGET) -> SearchOutcome:
    """Search the group elements spelled by letter words of length <= L,
    each once (a word spelling an element already tried is skipped), for
    hyperbolic w1, w2 whose commutator is hyperbolic. An elementary group
    (Z, Z^2, the Klein bottle group, BS(1,n)) has none: its action on the
    Bass-Serre tree fixes a point or an end, or preserves a line, so the
    commutator of two hyperbolic elements is elliptic (Culler-Morgan
    1987). Hyperbolicity depends only on the deformation space, which
    classify_elementary reads off the reduced graph, so such a graph is
    answered without a walk. On any other graph a witness certifies
    irreducibility, and finding none only exhausts the budget. On every
    generic graph tried a witness lies among the elements of length <= 2,
    so for L >= 2 the search acts as a decision (measured, not proved).
    Each hyperbolic element joins a pool with its linear pass and that
    pass's inverse, and a commutator's length is composed from the pool's
    passes (_product_entries), never by reducing the concatenated words.

    >>> irreducibility_search(bs(1, 2), 6)
    SearchOutcome(stop='proved_none', witness=None, elements_tried=0)
    >>> out = irreducibility_search(bs(2, 3), 6)
    >>> out.stop, out.witness is not None
    ('found', True)
    """
    require_nonnegative("search length bound L", L)
    g = validate_graph(g)
    if classify_elementary(g).kind != "generic":
        return SearchOutcome("proved_none", None, 0)
    # (element, its linear pass, the entries of its inverse)
    pool: list[tuple[GroupWord, list, list]] = []

    def hyperbolic_commutator(w: GroupWord, seq: list[str]):
        if not seq:
            return None
        _, x, _ = _reduce(g, w)
        x_inv = _inverse_entries(g, x)
        for w1, y, y_inv in pool:
            # y x y^-1 x^-1
            comm = _product_entries(g, _product_entries(g, y, x), y_inv)
            comm = _product_entries(g, comm, x_inv)
            if _composed_length(g, comm) != 0:
                return w1, w
        pool.append((w, x, x_inv))
        return None

    return _search(g, L, {"witness": hyperbolic_commutator})["witness"]


def irreducibility_witness(
    g: LabeledGraph, L: int = DEFAULT_SEARCH_BUDGET
) -> Optional[tuple[GroupWord, GroupWord]]:
    """The witness of irreducibility_search(g, L): hyperbolic w1, w2 whose
    commutator is hyperbolic, among the group elements spelled by letter
    words of length <= L. A witness certifies irreducibility; None means
    the graph is elementary or the budget ran out (a semi-decision)."""
    return irreducibility_search(g, L).witness


def modular_homomorphism(g: LabeledGraph, w: GroupWord) -> Fraction:
    """Product of lam/mu over forward crossings and mu/lam over backward
    ones; a homomorphism to the nonzero rationals, trivial on vertex
    powers. Read off the crossings the linear pass keeps: a pinch removes
    lam/mu together with mu/lam. The crossings are summed to a net
    exponent per edge first, so each edge costs two powers and the product
    is linear in the word's length."""
    g, linear, _ = _reduce(g, w)
    net: dict[str, int] = {}
    for c, _, _ in linear[1:]:
        net[c.edge] = net.get(c.edge, 0) + c.sign
    num = den = 1
    for eid, n in net.items():
        if n:
            _, _, _, _, d, a = g.index.moves[eid][n < 0]
            num *= d ** abs(n)
            den *= a ** abs(n)
    return Fraction(num, den)


# -- reduction moves and classification ----------------------------------------------

def is_reduced(g: LabeledGraph) -> bool:
    """No non-loop edge carries a +-1 label (such an edge gives an
    elementary collapse; loop ends lie in one vertex orbit and never
    obstruct reducedness)."""
    g = validate_graph(g)
    return all(
        abs(e.lam) >= 2 and abs(e.mu) >= 2 for e in g.edges if not e.is_loop()
    )


def reduce(g: LabeledGraph) -> LabeledGraph:
    """Collapse non-loop edges with a +-1 label until none remains. The end
    with the unit label is absorbed into the other endpoint; every label at
    an absorbed end is rescaled by lam*mu of the collapsed edge."""
    g = validate_graph(g)
    vertices = list(g.vertices)
    edges = list(g.edges)
    base = g.base
    while True:
        target = None
        for e in edges:
            if not e.is_loop() and (abs(e.lam) == 1 or abs(e.mu) == 1):
                target = e
                break
        if target is None:
            break
        factor = target.lam * target.mu
        if abs(target.lam) == 1:
            absorbed, survivor = target.origin, target.terminus
        else:
            absorbed, survivor = target.terminus, target.origin
        new_edges = []
        for e in edges:
            if e.id == target.id:
                continue
            o, t, lam, mu = e.origin, e.terminus, e.lam, e.mu
            if o == absorbed:
                o, lam = survivor, lam * factor
            if t == absorbed:
                t, mu = survivor, mu * factor
            new_edges.append(Edge(e.id, o, t, lam, mu))
        edges = new_edges
        vertices.remove(absorbed)
        if base == absorbed:
            base = survivor
    return validate_graph(
        LabeledGraph(tuple(vertices), tuple(edges), base, None, g.name)
    )


@dataclass(frozen=True)
class Classification:
    kind: str  # "Z" | "Z2" | "Klein" | "BS1n" | "generic" | "unknown"
    n: Optional[int] = None

    def label(self) -> str:
        return f"BS(1,{self.n})" if self.kind == "BS1n" else self.kind


def classify_elementary(g: LabeledGraph) -> Classification:
    """Classify after reducing. A reduced loop with a unit end label
    presents BS(1, lam*mu) (n=1 gives Z^2, n=-1 the Klein bottle group);
    a reduced segment with both labels +-2 is the Klein bottle amalgam;
    everything else is generic."""
    return _classify(reduce(g))


def _classify(r: LabeledGraph) -> Classification:
    """classify_elementary of a graph that reduce returned."""
    if not r.edges:
        return Classification("Z")
    if len(r.edges) == 1:
        e = r.edges[0]
        if e.is_loop():
            if abs(e.lam) == 1 or abs(e.mu) == 1:
                n = e.lam * e.mu
                if n == 1:
                    return Classification("Z2")
                if n == -1:
                    return Classification("Klein")
                return Classification("BS1n", n)
            return Classification("generic")
        if abs(e.lam) == 2 and abs(e.mu) == 2:
            return Classification("Klein")
        return Classification("generic")
    return Classification("generic")


# Miller-Rabin with the first 13 primes as bases is exact below
# PRIME_TEST_LIMIT (Sorenson and Webster, Math. Comp. 86 (2017)).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Miller-Rabin over _PRIME_BASES for 41 < n < PRIME_TEST_LIMIT."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _is_prime_power(n: int) -> bool:
    """Whether |n| = p^k for a prime p and k >= 1. A prime factor <= 41
    settles it by division. Otherwise every prime factor exceeds 41, so n
    is reduced to its least perfect-power root (exponents k with
    43^k <= n) and the root is tested for primality; such an n at or over
    PRIME_TEST_LIMIT raises SemanticError."""
    n = abs(n)
    if n < 2:
        return False
    for p in _PRIME_BASES:
        if n % p == 0:
            while n % p == 0:
                n //= p
            return n == 1
    if n >= PRIME_TEST_LIMIT:
        raise SemanticError(
            f"cannot decide whether {n} is a prime power: it is over the cap"
            f" PRIME_TEST_LIMIT = {PRIME_TEST_LIMIT} of the deterministic"
            " primality test"
        )
    # n < 2^82, so a float k-th root (k >= 2) is within 2^-11 of an
    # integer root
    k = 2
    while 43 ** k <= n:
        r = round(n ** (1 / k))
        if r ** k == n:
            n = r
        else:
            k += 1
    return _is_prime(n)


def _graph_digest(g: LabeledGraph) -> str:
    body = ";".join(
        f"{e.id}:{e.origin}({e.lam})--{e.terminus}({e.mu})" for e in g.edges
    )
    return digest(",".join(g.vertices) + "|" + body)


# divisibility_criterion compares every pair of edge-end labels at a
# vertex. With distinct prime labels (no pair divides, so every pair is
# compared) one vertex of 1,000 ends takes 0.05 s and one of 2,000 ends
# 0.22 s (py3.11 on a 2-core Xeon); a loop has both its ends there.
DIVISIBILITY_MAX_ENDS = 1_000


def divisibility_criterion(g: LabeledGraph) -> dict[str, Optional[tuple[int, int]]]:
    """Per vertex: None when no incident end label divides another (equal
    labels divide each other), else one offending pair (a, b) with a | b.
    A vertex with more than DIVISIBILITY_MAX_ENDS edge ends raises
    SemanticError before its pairs are compared."""
    g = validate_graph(g)
    out: dict[str, Optional[tuple[int, int]]] = {}
    for v in g.vertices:
        labels = [abs(m[4]) for m in g.index.departing[v]]
        if len(labels) > DIVISIBILITY_MAX_ENDS:
            raise SemanticError(
                f"vertex {clipped_name(v)} has {len(labels)} edge ends, over the cap"
                f" DIVISIBILITY_MAX_ENDS = {DIVISIBILITY_MAX_ENDS}; the divisibility"
                " criterion compares every pair of labels at a vertex"
            )
        hit = None
        for i in range(len(labels)):
            for j in range(len(labels)):
                if i != j and labels[j] % labels[i] == 0:
                    hit = (labels[i], labels[j])
                    break
            if hit:
                break
        out[v] = hit
    return out


def jsj_report(g: LabeledGraph) -> Report:
    """Known conclusions about the cyclic JSJ and compatibility JSJ of the
    group presented by g, from its elementary classification and the
    per-vertex label divisibility criterion of the reduced graph."""
    g = validate_graph(g)
    rep = Report(operation="gbs.jsj_report", graph_digest=_graph_digest(g))
    reduced = reduce(g)
    cls = _classify(reduced)
    rep.add("classify_elementary", "classification", cls.label())
    rep.values["edges_after_reduction"] = str(len(reduced.edges))
    if cls.kind in ("Z", "Z2", "Klein"):
        rep.add("jsj_report", "jsj", "trivial JSJ")
        rep.add("jsj_report", "summary", f"elementary ({cls.label()}); trivial JSJ")
        return rep
    if cls.kind == "BS1n":
        n = cls.n or 0
        rep.add("jsj_report", "jsj", "JSJ space nontrivial")
        if _is_prime_power(n):
            rep.add("jsj_report", "compatibility", "D_co = JSJ space")
            rep.add(
                "jsj_report", "summary", f"{cls.label()}: D_co = JSJ space"
            )
        else:
            rep.add("jsj_report", "compatibility", "D_co trivial")
            rep.add("jsj_report", "summary", f"{cls.label()}: D_co trivial")
        return rep
    # generic: the input tree's deformation space is the JSJ space
    rep.add(
        "jsj_report",
        "jsj",
        "nontrivial; the deformation space of the input tree is the JSJ space",
    )
    crit = divisibility_criterion(reduced)
    holds = all(hit is None for hit in crit.values())
    for v, hit in sorted(crit.items()):
        rep.add(
            "jsj_report",
            f"divisibility[{v}]",
            "ok" if hit is None else f"fails ({hit[0]} divides {hit[1]})",
        )
    if holds:
        rep.add("jsj_report", "divisibility", "holds at every vertex")
        rep.add("jsj_report", "conclusion", "unique reduced JSJ tree; T_co = T_J")
        rep.add("jsj_report", "summary", "rigid; T_co = T_J")
    else:
        rep.add("jsj_report", "divisibility", "fails at some vertex")
        rep.add("jsj_report", "summary", "divisibility criterion fails; no rigidity claim")
    if len(reduced.edges) == 1 and reduced.edges[0].is_loop():
        e = reduced.edges[0]
        a, b = abs(e.lam), abs(e.mu)
        if a != b and (b % a == 0 or a % b == 0) and min(a, b) >= 2:
            rep.add(
                "jsj_report",
                "out_note",
                "one loop label divides the other; Out(G) is not finitely"
                " generated for such loops (e.g. BS(2,4))",
                informational=True,
            )
    return rep


# -- the coset tree and the displacement oracle ------------------------------------

Step = tuple[Cross, int]


def _normalize_steps(
    g: LabeledGraph, items: Iterable[Item], steps: Iterable[Step] = (), pending: int = 0
) -> tuple[list[Step], int, int]:
    """Left-to-right normalization of a path word into the canonical coset
    path of its endpoint vertex: each step (crossing, r) records the coset
    exponent r in [0, |departure label|) and quotients carry across the
    edge; a zero-coset step onto the reversed previous edge backtracks.
    Resumes from a state (steps, pending power) and returns the new state
    with the deepest step count reached on the way. Steps hold the index's
    own crossings (as must the steps of a resumed state), so a backtrack is
    the last step's crossing being the reverse of the item's."""
    moves = g.index.moves
    steps = list(steps)
    reach = len(steps)
    for item in items:
        if isinstance(item, Pow):
            pending += item.n
            continue
        own, rev, _, _, d, a = moves[item.edge][item.sign < 0]
        r = pending % abs(d)
        q = (pending - r) // d
        if r == 0 and steps and steps[-1][0] is rev:
            _, prev_r = steps.pop()
            pending = prev_r + q * a
        else:
            steps.append((own, r))
            pending = q * a
            if len(steps) > reach:
                reach = len(steps)
    return steps, pending, reach


State = tuple[list[Step], int]

# the ball oracle walks at most this many vertices of the coset ball
ORACLE_MAX_VERTICES = 512


def _ball_walk(
    g: LabeledGraph, base: str, radius: int, max_vertices: int, roots: Sequence[State]
) -> Iterator[tuple[tuple[Step, ...], list[tuple[list[Step], int, int]]]]:
    """Breadth-first walk of the radius-R ball around the base coset,
    truncated at max_vertices. Each vertex x comes with one state per root
    state s: the state (steps, pending) of _normalize_steps for the path of s
    followed by the coset path of x, and the length of the common prefix of
    steps and x, so d(x, s x) = |x| + |steps| - 2 common. A child
    x + ((c, r),) resumes each of its parent's states over Pow(tip, r) and c:
    pending += r, then one push or one pop, and at most one step comparison
    updates the common prefix. The moves are the index's, and the roots
    come from _normalize_steps, so every crossing is the index's own object
    and crossings compare by identity."""
    departing = g.index.departing
    states = [(steps, pending, 0) for steps, pending in roots]
    yield (), states
    count = 1
    # (vertex, tip vertex, crossing back to the parent, states)
    frontier = [((), base, None, states)]
    for k in range(radius):  # k = |parent|
        nxt = []
        for p, tip, back, states in frontier:
            for c, rev, _, arrival, d, a in departing[tip]:
                ad = abs(d)
                # (back, 0) is the parent vertex
                for r in range(1 if c is back else 0, ad):
                    child_states = []
                    for steps, pending, common in states:
                        m = len(steps)
                        pending += r
                        rr = pending % ad
                        q = (pending - rr) // d
                        if rr == 0 and m and steps[-1][0] is rev:
                            pending = steps[-1][1] + q * a
                            steps = steps[:-1]
                            if common >= m - 1:
                                common = m - 1
                            elif common == k:
                                common += steps[k] == (c, r)
                        else:
                            if common == k:
                                common += r == rr if m == k else steps[k] == (c, r)
                            elif common == m:
                                common += p[m] == (c, rr)
                            steps = steps + [(c, rr)]
                            pending = q * a
                        child_states.append((steps, pending, common))
                    child = p + ((c, r),)
                    yield child, child_states
                    count += 1
                    if count >= max_vertices:
                        return
                    nxt.append((child, arrival, rev, child_states))
        frontier = nxt
        if not frontier:
            break


@dataclass(frozen=True)
class OracleResult:
    value: int
    valid: bool
    radius: int
    reach: int
    vertices_used: int
    reason: str = ""


def ball_displacement_oracle(g: LabeledGraph, w: GroupWord, radius: int) -> OracleResult:
    """Independent translation-length computation from tree geometry:
    max(d(x, w^2 x) - d(x, w x), 0) equals the translation length at every
    vertex x. w and w^2 are normalized once; the breadth-first walk of the
    (truncated) ball carries the states of w x and w^2 x with their common
    prefixes with x, each resumed from its parent's by one push or pop, and
    stops at ORACLE_MAX_VERTICES vertices. The
    value is read at the base, and a vertex that disagrees raises
    IdentityViolation as soon as it is made. The validity flag is set when
    the radius exceeds the word's reach plus the computed value."""
    require_nonnegative("oracle radius", radius)
    g = validate_graph(g)
    validate_word(g, w)
    w_steps, w_pending, reach = _normalize_steps(g, w.items)
    ww_steps, ww_pending, _ = _normalize_steps(g, w.items, w_steps, w_pending)
    roots = ((w_steps, w_pending), (ww_steps, ww_pending))
    value: Optional[int] = None
    used = 0
    walk = _ball_walk(g, w.base, radius, ORACLE_MAX_VERTICES, roots)
    for x, ((wx, _, c1), (wwx, _, c2)) in walk:
        used += 1
        # d(x, u x) = |x| + |ux| - 2 common, and |x| cancels
        f = max(len(wwx) - 2 * c2 - len(wx) + 2 * c1, 0)
        if value is None:
            value = f
        elif f != value:
            raise IdentityViolation(
                f"displacement {f} at ball vertex {len(x)} steps out"
                f" disagrees with {value} at the base"
            )
    assert value is not None
    valid = radius > reach + value
    reason = "" if valid else (
        f"radius {radius} does not exceed reach {reach} + value {value}"
    )
    return OracleResult(value, valid, radius, reach, used, reason)


# -- seeded word sampling ------------------------------------------------------------

def sample_words(
    g: LabeledGraph, count: int, max_len: int, seed: int
) -> list[GroupWord]:
    """count random words of 1..max_len surface letters each: vertex powers
    with exponents in [-3, 3] minus zero, or edge crossings."""
    return list(iter_sample_words(g, count, max_len, seed))


def iter_sample_words(
    g: LabeledGraph, count: int, max_len: int, seed: int
) -> Iterator[GroupWord]:
    """The words of sample_words, each drawn when it is read, so a reader
    that keeps only what it needs of a word holds one word at a time. The
    bounds, the graph and the seed are checked at the call, before the
    first word is read."""
    require_nonnegative("sampled word count", count)
    if not isinstance(max_len, int):
        raise SemanticError(
            f"sampled words need an integer length bound, got {clipped(repr(max_len), str)}"
        )
    if max_len < 1:
        raise SemanticError(f"sampled words need a length bound >= 1, got {int_text(max_len)}")
    g = validate_graph(g)
    try:
        rng = random.Random(seed)
    except TypeError:  # random takes None, int, float, str, bytes or bytearray
        raise SemanticError(
            "sampled words need a seed that is None, a number, a string or bytes,"
            f" got {clipped(repr(seed), str)}"
        ) from None
    return (make_word(g, _random_letters(g, rng, max_len)) for _ in range(count))


def _random_letters(g: LabeledGraph, rng: random.Random, max_len: int) -> list[tuple]:
    """The surface letters of one sampled word, drawn from rng."""
    letters = []
    for _ in range(rng.randint(1, max_len)):
        if g.edges and rng.random() < 0.5:
            e = rng.choice(g.edges)
            letters.append(("t", e.id, rng.choice((1, -1))))
        else:
            v = rng.choice(g.vertices)
            n = rng.choice((-3, -2, -1, 1, 2, 3))
            letters.append(("a", v, n))
    return letters

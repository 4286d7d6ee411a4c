"""Quotient of the (collapsed) tree of cylinders from finite local data.

The skeleton is the quotient graph of a tree action, with free-text group
labels. The atlas partitions the edge ends at each vertex orbit into local
classes: two tree edges at a common vertex lift are co-cylindrical exactly
when their ends lie in the same class (the orbit-homogeneity hypothesis),
and the plural flag records whether one lift of the vertex meets at least
two cylinders through edges of that class.

The quotient of the tree of cylinders is then bipartite: V0 vertices are
the vertex orbits lying in at least two cylinders (two or more classes, or
any plural class), V1 vertices are the cylinder orbits (carrying the
user-asserted stabilizer labels), with one edge per local class at a V0
vertex. Vertex orbits not in V0 are absorbed into their unique cylinder.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Hashable, Iterable, Optional

from .errors import Disconnected, MissingFlag, SemanticError, UnclassedEnd, clipped, clipped_name

End = tuple[str, str]  # (edge orbit id, "o" | "t")

# tree_of_cylinders_quotient names cylinder orbits Y1, Y2, ... next to the
# vertex orbit ids, so a vertex orbit may not take such a name
_CYLINDER_ID = re.compile(r"Y[0-9]+")


@dataclass(frozen=True)
class SkeletonVertex:
    id: str
    group: str = ""


@dataclass(frozen=True)
class SkeletonEdge:
    id: str
    origin: str
    terminus: str
    group: str = ""


@dataclass(frozen=True)
class SkeletonGraph:
    vertices: tuple[SkeletonVertex, ...]
    edges: tuple[SkeletonEdge, ...]
    name: str = ""

    def vertex_ids(self) -> list[str]:
        return [v.id for v in self.vertices]


@dataclass(frozen=True)
class LocalClass:
    vertex: str
    name: str
    ends: tuple[End, ...]
    plural: Optional[bool] = None
    in_A: Optional[bool] = None

    def key(self) -> tuple[str, str]:
        return (self.vertex, self.name)


@dataclass(frozen=True)
class CylinderAtlas:
    classes: tuple[LocalClass, ...]
    # (edge orbit id, label): stabilizer label asserted for the cylinder
    # orbit containing that edge
    stabilizers: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class QEdge:
    v0: str
    local_class: str
    cyl: str
    in_A: Optional[bool] = None


@dataclass(frozen=True)
class QuotientGraph:
    """Bipartite quotient: v1 entries are (cylinder orbit id, stabilizer
    label); absorbed lists the non-V0 vertex orbits and the cylinder that
    swallowed them."""

    v0: tuple[str, ...]
    v1: tuple[tuple[str, str], ...]
    edges: tuple[QEdge, ...]
    absorbed: tuple[tuple[str, str], ...] = ()


def _components(nodes: Iterable[Hashable], links: Iterable[tuple]) -> dict:
    """Union-find: map each node to the least node of its component, where
    components are the classes of the equivalence generated by links."""
    parent = {n: n for n in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in links:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    return {n: find(n) for n in parent}


def validate_atlas(s: SkeletonGraph, a: CylinderAtlas) -> list[str]:
    """Structural checks plus the hypothesis manifest: the statements the
    user asserts and the computation cannot verify."""
    vids = s.vertex_ids()
    if len(set(vids)) != len(vids):
        raise SemanticError("duplicate vertex orbit id")
    for v in vids:
        if _CYLINDER_ID.fullmatch(v):
            raise SemanticError(
                f"vertex orbit id {clipped_name(v)} is reserved: cylinder orbits are"
                " named Y1, Y2, ..."
            )
    if len({e.id for e in s.edges}) != len(s.edges):
        raise SemanticError("duplicate edge orbit id")
    ends_at: dict[str, list[End]] = {v: [] for v in vids}
    for e in s.edges:
        if e.origin not in ends_at or e.terminus not in ends_at:
            raise SemanticError(
                f"edge {clipped(str(e.id), str)} attached to an unknown vertex orbit"
            )
        ends_at[e.origin].append((e.id, "o"))
        ends_at[e.terminus].append((e.id, "t"))
    root = _components(vids, ((e.origin, e.terminus) for e in s.edges))
    if len(set(root.values())) > 1:
        raise Disconnected("skeleton is not connected")
    keys = [c.key() for c in a.classes]
    if len(set(keys)) != len(keys):
        raise SemanticError("duplicate local class id at a vertex orbit")
    vertex_of = {end: v for v, ends in ends_at.items() for end in ends}
    classed: dict[End, tuple[str, str]] = {}
    for c in a.classes:
        if c.vertex not in ends_at:
            raise SemanticError(f"class at unknown vertex orbit {clipped_name(c.vertex)}")
        if not c.ends:
            raise SemanticError(f"class {clipped(f'{c.vertex}.{c.name}', str)} has no ends")
        for end in c.ends:
            if vertex_of.get(end) != c.vertex:
                raise SemanticError(
                    f"end {clipped_name(end)} is not incident to vertex orbit"
                    f" {clipped_name(c.vertex)}"
                )
            if end in classed:
                raise SemanticError(f"end {clipped_name(end)} classed twice")
            classed[end] = c.key()
        if c.plural is None:
            raise MissingFlag(f"class {clipped_name(c.key())} has no plural flag")
    for v, ends in ends_at.items():
        for end in ends:
            if end not in classed:
                raise UnclassedEnd(
                    f"end {clipped_name(end)} at {clipped_name(v)} belongs to no local class"
                )
    known_edges = {e.id for e in s.edges}
    for eid, _ in a.stabilizers:
        if eid not in known_edges:
            raise SemanticError(f"stabilizer label for unknown edge orbit {clipped_name(eid)}")
    if not s.edges:
        return []  # no relation encoded, nothing to assume
    return [
        "the encoded relation is admissible; in particular every cylinder"
        " is a subtree (the betweenness axiom is not machine-checkable)",
        "orbit homogeneity: whether two edges at a common vertex lift are"
        " co-cylindrical depends only on their orbits and the local class",
        "cylinder stabilizer labels are user-asserted group data, not"
        " computed from the skeleton",
    ]


def cylinder_orbits(s: SkeletonGraph, a: CylinderAtlas) -> list[tuple[str, ...]]:
    """Partition of edge orbits into cylinder orbits: the components of
    "some ends lie in one local class"."""
    root = _components(
        (e.id for e in s.edges),
        ((c.ends[0][0], eid) for c in a.classes for eid, _ in c.ends[1:]),
    )
    groups: dict[str, list[str]] = {}
    for e in s.edges:
        groups.setdefault(root[e.id], []).append(e.id)
    return [tuple(sorted(groups[r])) for r in sorted(groups)]


def _cylinder_ids(partition: list[tuple[str, ...]]) -> dict[str, str]:
    """Map each edge orbit to its cylinder orbit id Y1, Y2, ..."""
    out = {}
    for i, part in enumerate(partition, start=1):
        for eid in part:
            out[eid] = f"Y{i}"
    return out


def tree_of_cylinders_quotient(s: SkeletonGraph, a: CylinderAtlas) -> QuotientGraph:
    validate_atlas(s, a)
    return _quotient(s, a)


def _quotient(s: SkeletonGraph, a: CylinderAtlas) -> QuotientGraph:
    """tree_of_cylinders_quotient for an atlas already validated."""
    partition = cylinder_orbits(s, a)
    cyl_of = _cylinder_ids(partition)
    labels: dict[str, str] = {}
    for eid, label in a.stabilizers:
        y = cyl_of[eid]
        if y in labels and labels[y] != label:
            raise SemanticError(
                f"conflicting stabilizer labels for cylinder orbit {y}"
            )
        labels[y] = label
    classes_at: dict[str, list[LocalClass]] = {v: [] for v in s.vertex_ids()}
    for c in a.classes:
        classes_at[c.vertex].append(c)
    v0 = []
    edges = []
    absorbed = []
    for v in s.vertex_ids():
        cs = classes_at[v]
        if len(cs) >= 2 or any(c.plural for c in cs):
            v0.append(v)
            for c in cs:
                y = cyl_of[c.ends[0][0]]
                edges.append(QEdge(v, c.name, y, c.in_A))
        elif cs:
            absorbed.append((v, cyl_of[cs[0].ends[0][0]]))
    v1 = [(f"Y{i}", labels.get(f"Y{i}", "?")) for i in range(1, len(partition) + 1)]
    return QuotientGraph(tuple(v0), tuple(v1), tuple(edges), tuple(absorbed))


def collapse_non_A(q: QuotientGraph) -> QuotientGraph:
    """Contract the quotient edges whose stabilizer is not in the admitted
    family, as the atlas flags carried on the edges say; a merged vertex is
    V1 when any member was."""
    keep: list[QEdge] = []
    contracted = []
    for e in q.edges:
        if e.in_A is None:
            raise MissingFlag(
                f"edge {clipped(f'({e.v0}, {e.local_class})', str)} has no in_A flag"
            )
        if e.in_A:
            keep.append(e)
        else:
            contracted.append((("V0", e.v0), ("V1", e.cyl)))
    nodes = [("V0", v) for v in q.v0] + [("V1", y) for y, _ in q.v1]
    root = _components(nodes, contracted)
    members: dict[tuple, list[tuple]] = {}
    for n in nodes:
        members.setdefault(root[n], []).append(n)
    labels = dict(q.v1)
    new_id: dict[tuple, str] = {}
    v0: set[str] = set()
    v1: dict[str, set[str]] = {}
    for mem in members.values():
        nid = "+".join(sorted(name for _, name in mem))
        stabs = {labels[name] for kind, name in mem if kind == "V1"}
        if stabs:
            v1.setdefault(nid, set()).update(stabs)
        else:
            v0.add(nid)
        for n in mem:
            new_id[n] = nid
    edges = tuple(
        QEdge(new_id[("V0", e.v0)], e.local_class, new_id[("V1", e.cyl)], True)
        for e in keep
    )
    return QuotientGraph(
        tuple(sorted(v0)),
        tuple((nid, ",".join(sorted(v1[nid]))) for nid in sorted(v1)),
        edges,
        (),
    )

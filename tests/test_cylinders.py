import random
from collections import deque
from dataclasses import replace

import pytest

from splittings import cylinders as cyl
from splittings.errors import (
    Disconnected,
    MissingFlag,
    SemanticError,
    UnclassedEnd,
)


def torus_cycle():
    verts = tuple(
        cyl.SkeletonVertex(f"u{i}", "punctured-torus") for i in range(1, 5)
    )
    edges = (
        cyl.SkeletonEdge("e1", "u1", "u2", "Z^2"),
        cyl.SkeletonEdge("e2", "u2", "u3", "Z^2"),
        cyl.SkeletonEdge("e3", "u3", "u4", "Z^2"),
        cyl.SkeletonEdge("e4", "u4", "u1", "Z^2"),
    )
    s = cyl.SkeletonGraph(verts, edges, "torus-cycle")
    ends = {
        1: (("e4", "t"), ("e1", "o")),
        2: (("e1", "t"), ("e2", "o")),
        3: (("e2", "t"), ("e3", "o")),
        4: (("e3", "t"), ("e4", "o")),
    }
    classes = tuple(
        cyl.LocalClass(f"u{i}", "a", ends[i], plural=True, in_A=True)
        for i in range(1, 5)
    )
    atlas = cyl.CylinderAtlas(classes, (("e1", "Z^2"),))
    return s, atlas


def tripods():
    verts = (cyl.SkeletonVertex("c", "Z"),) + tuple(
        cyl.SkeletonVertex(f"v{i}", "punctured-torus") for i in range(1, 4)
    )
    edges = tuple(
        cyl.SkeletonEdge(f"e{i}", "c", f"v{i}", "Z") for i in range(1, 4)
    )
    s = cyl.SkeletonGraph(verts, edges, "tripods")
    classes = (
        cyl.LocalClass(
            "c", "a", (("e1", "o"), ("e2", "o"), ("e3", "o")), False, True
        ),
        cyl.LocalClass("v1", "a", (("e1", "t"),), True, True),
        cyl.LocalClass("v2", "a", (("e2", "t"),), True, True),
        cyl.LocalClass("v3", "a", (("e3", "t"),), True, True),
    )
    atlas = cyl.CylinderAtlas(classes, (("e2", "Z"),))
    return s, atlas


class TestValidateAtlas:
    def test_torus_cycle_ok(self):
        s, a = torus_cycle()
        manifest = cyl.validate_atlas(s, a)
        assert len(manifest) == 3

    def test_empty_graph_ok(self):
        manifest = cyl.validate_atlas(
            cyl.SkeletonGraph((), ()), cyl.CylinderAtlas(())
        )
        assert manifest == []

    def test_unclassed_end(self):
        s, a = torus_cycle()
        broken = cyl.CylinderAtlas(a.classes[:3], a.stabilizers)
        with pytest.raises(UnclassedEnd):
            cyl.validate_atlas(s, broken)

    def test_missing_plural_flag(self):
        s, a = torus_cycle()
        c0 = a.classes[0]
        broken = cyl.CylinderAtlas(
            (cyl.LocalClass(c0.vertex, c0.name, c0.ends, None, True),)
            + a.classes[1:],
            a.stabilizers,
        )
        with pytest.raises(MissingFlag):
            cyl.validate_atlas(s, broken)

    def test_end_in_two_classes(self):
        s, a = torus_cycle()
        dup = a.classes + (
            cyl.LocalClass("u1", "b", (("e1", "o"),), True, True),
        )
        with pytest.raises(SemanticError):
            cyl.validate_atlas(s, cyl.CylinderAtlas(dup, a.stabilizers))

    def test_disconnected_skeleton(self):
        s = cyl.SkeletonGraph(
            (cyl.SkeletonVertex("a"), cyl.SkeletonVertex("b")), ()
        )
        with pytest.raises(Disconnected):
            cyl.validate_atlas(s, cyl.CylinderAtlas(()))

    def test_class_without_ends(self):
        s, a = tripods()
        empty = cyl.LocalClass("c", "b", (), True, True)
        with pytest.raises(SemanticError, match="class c.b has no ends"):
            cyl.validate_atlas(s, cyl.CylinderAtlas(a.classes + (empty,)))

    def test_long_unknown_class_vertex_clipped(self):
        s, a = tripods()
        stray = cyl.LocalClass("q" * 300, "a", (("e1", "o"),), True, True)
        with pytest.raises(SemanticError) as info:
            cyl.validate_atlas(s, cyl.CylinderAtlas(a.classes + (stray,)))
        assert str(info.value) == f"class at unknown vertex orbit {'q' * 20!r}... (300 chars)"

    def test_cylinder_style_vertex_id_is_reserved(self):
        # the quotient names cylinder orbits Y1, Y2, ...; a vertex Y1 with two
        # plural classes would print as an edge Y1 -[p]- Y1
        s = cyl.SkeletonGraph(
            (cyl.SkeletonVertex("Y1"), cyl.SkeletonVertex("v")),
            (cyl.SkeletonEdge("a", "Y1", "v"), cyl.SkeletonEdge("b", "Y1", "v")),
        )
        a = cyl.CylinderAtlas(
            (
                cyl.LocalClass("Y1", "p", (("a", "o"),), True, True),
                cyl.LocalClass("Y1", "q", (("b", "o"),), True, True),
                cyl.LocalClass("v", "a", (("a", "t"), ("b", "t")), False, True),
            )
        )
        with pytest.raises(SemanticError, match="'Y1' is reserved"):
            cyl.validate_atlas(s, a)
        renamed = cyl.SkeletonGraph(
            (cyl.SkeletonVertex("Y"), cyl.SkeletonVertex("v")),
            tuple(cyl.SkeletonEdge(e.id, "Y", "v") for e in s.edges),
        )
        classes = tuple(
            cyl.LocalClass("Y" if c.vertex == "Y1" else c.vertex, c.name, c.ends, c.plural, c.in_A)
            for c in a.classes
        )
        cyl.validate_atlas(renamed, cyl.CylinderAtlas(classes))

    @pytest.mark.parametrize("bad", [None, 1, ("v",), b"v"], ids=repr)
    @pytest.mark.parametrize("kind", ["vertex", "edge"])
    def test_id_not_a_string(self, kind, bad):
        if kind == "vertex":
            s = cyl.SkeletonGraph((cyl.SkeletonVertex(bad),), ())
            a = cyl.CylinderAtlas(())
        else:
            s = cyl.SkeletonGraph((cyl.SkeletonVertex("v"),), (cyl.SkeletonEdge(bad, "v", "v"),))
            ends = ((bad, "o"), (bad, "t"))
            a = cyl.CylinderAtlas((cyl.LocalClass("v", "a", ends, True, True),))
        with pytest.raises(SemanticError) as info:
            cyl.validate_atlas(s, a)
        assert str(info.value) == f"{kind} orbit id {bad!r} is not a string"

    def test_unknown_stabilizer_edge(self):
        s, a = torus_cycle()
        with pytest.raises(SemanticError):
            cyl.validate_atlas(
                s, cyl.CylinderAtlas(a.classes, (("nope", "Z"),))
            )


class TestCylinderOrbits:
    def test_torus_cycle_single_orbit(self):
        s, a = torus_cycle()
        assert cyl.cylinder_orbits(s, a) == [("e1", "e2", "e3", "e4")]

    def test_tripods_single_orbit(self):
        s, a = tripods()
        assert cyl.cylinder_orbits(s, a) == [("e1", "e2", "e3")]

    def test_singleton_classes_split(self):
        verts = (cyl.SkeletonVertex("u"), cyl.SkeletonVertex("v"))
        edges = (
            cyl.SkeletonEdge("e1", "u", "v"),
            cyl.SkeletonEdge("e2", "u", "v"),
        )
        s = cyl.SkeletonGraph(verts, edges)
        classes = (
            cyl.LocalClass("u", "a", (("e1", "o"),), False, True),
            cyl.LocalClass("u", "b", (("e2", "o"),), False, True),
            cyl.LocalClass("v", "a", (("e1", "t"),), False, True),
            cyl.LocalClass("v", "b", (("e2", "t"),), False, True),
        )
        a = cyl.CylinderAtlas(classes)
        assert cyl.cylinder_orbits(s, a) == [("e1",), ("e2",)]


class TestQuotient:
    def test_torus_cycle_star(self):
        s, a = torus_cycle()
        q = cyl.tree_of_cylinders_quotient(s, a)
        assert q.v0 == ("u1", "u2", "u3", "u4")
        assert q.v1 == (("Y1", "Z^2"),)
        assert len(q.edges) == 4
        assert {e.v0 for e in q.edges} == {"u1", "u2", "u3", "u4"}
        assert all(e.cyl == "Y1" for e in q.edges)
        assert q.absorbed == ()

    def test_tripods_star_equals_input_shape(self):
        s, a = tripods()
        q = cyl.tree_of_cylinders_quotient(s, a)
        assert q.v0 == ("v1", "v2", "v3")
        assert q.v1 == (("Y1", "Z"),)
        assert len(q.edges) == 3
        assert q.absorbed == (("c", "Y1"),)

    def test_single_edge_orbit_single_point(self):
        s = cyl.SkeletonGraph(
            (cyl.SkeletonVertex("u"), cyl.SkeletonVertex("v")),
            (cyl.SkeletonEdge("f", "u", "v", "Z"),),
        )
        classes = (
            cyl.LocalClass("u", "a", (("f", "o"),), False, True),
            cyl.LocalClass("v", "a", (("f", "t"),), False, True),
        )
        q = cyl.tree_of_cylinders_quotient(s, cyl.CylinderAtlas(classes))
        assert q.v0 == ()
        assert len(q.v1) == 1
        assert q.edges == ()
        assert set(q.absorbed) == {("u", "Y1"), ("v", "Y1")}

    def test_conflicting_stabilizer_labels(self):
        s, a = torus_cycle()
        bad = cyl.CylinderAtlas(a.classes, (("e1", "Z^2"), ("e2", "Z")))
        with pytest.raises(SemanticError):
            cyl.tree_of_cylinders_quotient(s, bad)

    def test_relabeling_invariance(self):
        s, a = torus_cycle()
        q1 = cyl.tree_of_cylinders_quotient(s, a)

        def ren(x):
            return x.replace("u", "w").replace("e", "g")

        s2 = cyl.SkeletonGraph(
            tuple(cyl.SkeletonVertex(ren(v.id), v.group) for v in s.vertices),
            tuple(
                cyl.SkeletonEdge(ren(e.id), ren(e.origin), ren(e.terminus), e.group)
                for e in s.edges
            ),
            s.name,
        )
        a2 = cyl.CylinderAtlas(
            tuple(
                cyl.LocalClass(
                    ren(c.vertex),
                    c.name,
                    tuple((ren(e), side) for e, side in c.ends),
                    c.plural,
                    c.in_A,
                )
                for c in a.classes
            ),
            tuple((ren(e), lab) for e, lab in a.stabilizers),
        )
        q2 = cyl.tree_of_cylinders_quotient(s2, a2)
        assert tuple(ren(v) for v in q1.v0) == q2.v0
        assert q1.v1 == q2.v1
        assert len(q1.edges) == len(q2.edges)


class TestCollapse:
    def test_all_true_unchanged(self):
        s, a = torus_cycle()
        q = cyl.tree_of_cylinders_quotient(s, a)
        c = cyl.collapse_non_A(q)
        assert c.v0 == q.v0 and c.v1 == q.v1 and len(c.edges) == len(q.edges)

    def test_one_false_edge_merges_leaf(self):
        s, a = torus_cycle()
        q = cyl.tree_of_cylinders_quotient(s, a)
        edges = tuple(
            replace(e, in_A=False) if (e.v0, e.local_class) == ("u1", "a") else e
            for e in q.edges
        )
        c = cyl.collapse_non_A(replace(q, edges=edges))
        assert len(c.edges) == 3
        merged = [yid for yid, _ in c.v1 if "u1" in yid and "Y1" in yid]
        assert len(merged) == 1
        assert "u1" not in c.v0

    def test_all_false_single_vertex(self):
        s, a = torus_cycle()
        q = cyl.tree_of_cylinders_quotient(s, a)
        edges = tuple(replace(e, in_A=False) for e in q.edges)
        c = cyl.collapse_non_A(replace(q, edges=edges))
        assert c.edges == ()
        assert len(c.v0) + len(c.v1) == 1

    def test_missing_flag(self):
        s, a = torus_cycle()
        q = cyl.tree_of_cylinders_quotient(s, a)
        stripped = cyl.QuotientGraph(
            q.v0,
            q.v1,
            tuple(
                cyl.QEdge(e.v0, e.local_class, e.cyl, None) for e in q.edges
            ),
            q.absorbed,
        )
        with pytest.raises(MissingFlag):
            cyl.collapse_non_A(stripped)


class TestBipartite:
    def test_edges_join_v0_to_v1(self):
        for s, a in (torus_cycle(), tripods()):
            q = cyl.tree_of_cylinders_quotient(s, a)
            v1_ids = {yid for yid, _ in q.v1}
            for e in q.edges:
                assert e.v0 in q.v0
                assert e.cyl in v1_ids

    def test_every_edge_orbit_in_exactly_one_cylinder(self):
        for s, a in (torus_cycle(), tripods()):
            orbits = cyl.cylinder_orbits(s, a)
            seen = [e for orbit in orbits for e in orbit]
            assert sorted(seen) == sorted(e.id for e in s.edges)


def chained_cycles(rng):
    """A random atlas: a chain of edge cycles, each after the first starting
    at a vertex of the previous one, and sometimes a second chain apart from
    the first. Edge ids are shuffled so that the least id of a cylinder is
    not its first edge; the ends at each vertex are split into random local
    classes with random plural and in_A flags."""
    numbers = rng.sample(range(1000), 200)
    vertices, edges = [], []
    for _ in range(rng.choice((1, 1, 1, 2))):
        shared = None
        for _ in range(rng.randint(1, 12)):
            n = rng.randint(1, 5)
            cycle = [shared] if shared is not None else []
            while len(cycle) < n:
                cycle.append(f"x{len(vertices)}")
                vertices.append(cycle[-1])
            for i in range(n):
                eid = f"e{numbers[len(edges)]}"
                edges.append(cyl.SkeletonEdge(eid, cycle[i], cycle[(i + 1) % n], "Z"))
            shared = rng.choice(cycle)
    ends_at = {v: [] for v in vertices}
    for e in edges:
        ends_at[e.origin].append((e.id, "o"))
        ends_at[e.terminus].append((e.id, "t"))
    classes = []
    for v, ends in ends_at.items():
        rng.shuffle(ends)
        while ends:
            k = rng.randint(1, len(ends))
            plural, in_a = rng.random() < 0.4, rng.random() < 0.7
            classes.append(
                cyl.LocalClass(v, f"c{len(classes)}", tuple(ends[:k]), plural, in_a)
            )
            del ends[:k]
    s = cyl.SkeletonGraph(
        tuple(cyl.SkeletonVertex(v, "F2") for v in vertices), tuple(edges)
    )
    return s, cyl.CylinderAtlas(tuple(classes))


def bfs_components(nodes, links):
    """Components by breadth-first search, each a sorted tuple, listed in
    the order of their least members."""
    adjacent = {n: [] for n in nodes}
    for x, y in links:
        adjacent[x].append(y)
        adjacent[y].append(x)
    seen, comps = set(), []
    for n in nodes:
        if n in seen:
            continue
        seen.add(n)
        comp, queue = [n], deque([n])
        while queue:
            for y in adjacent[queue.popleft()]:
                if y not in seen:
                    seen.add(y)
                    comp.append(y)
                    queue.append(y)
        comps.append(tuple(sorted(comp)))
    return sorted(comps)


class TestRandomAtlases:
    """validate_atlas, cylinder_orbits and collapse_non_A against a
    breadth-first search written separately from the module's union-find."""

    @pytest.mark.parametrize("seed", range(40))
    def test_against_bfs(self, seed):
        s, a = chained_cycles(random.Random(seed))
        skeleton = bfs_components(
            [v.id for v in s.vertices], [(e.origin, e.terminus) for e in s.edges]
        )
        class_links = [
            (x[0], y[0]) for c in a.classes for x, y in zip(c.ends, c.ends[1:])
        ]
        orbits = bfs_components([e.id for e in s.edges], class_links)
        assert cyl.cylinder_orbits(s, a) == orbits
        if len(skeleton) > 1:
            with pytest.raises(Disconnected):
                cyl.validate_atlas(s, a)
            return
        q = cyl.tree_of_cylinders_quotient(s, a)
        assert len(q.v1) == len(orbits)
        # the V0 rule: a vertex orbit is in V0 exactly when it has two or
        # more classes or a plural class; a V0 vertex has one edge per
        # class, to the cylinder of every end of that class; any other
        # vertex orbit is absorbed into its one class's cylinder
        cylinder_of = {e: f"Y{i}" for i, orbit in enumerate(orbits, 1) for e in orbit}
        classes_at = {v.id: [] for v in s.vertices}
        for k in a.classes:
            (y,) = {cylinder_of[eid] for eid, _ in k.ends}
            classes_at[k.vertex].append((k, y))
        v0, q_edges, absorbed = set(), set(), set()
        for v, ks in classes_at.items():
            if len(ks) >= 2 or any(k.plural for k, _ in ks):
                v0.add(v)
                q_edges |= {(v, k.name, y, k.in_A) for k, y in ks}
            else:
                ((_, y),) = ks
                absorbed.add((v, y))
        assert set(q.v0) == v0 and len(q.v0) == len(v0)
        assert {(e.v0, e.local_class, e.cyl, e.in_A) for e in q.edges} == q_edges
        assert len(q.edges) == len(q_edges)
        assert set(q.absorbed) == absorbed and len(q.absorbed) == len(absorbed)
        nodes = [("V0", v) for v in q.v0] + [("V1", y) for y, _ in q.v1]
        merged = bfs_components(
            nodes, [(("V0", e.v0), ("V1", e.cyl)) for e in q.edges if not e.in_A]
        )
        v0_ids, v1_ids = [], []
        for comp in merged:
            nid = "+".join(sorted(name for _, name in comp))
            (v1_ids if any(k == "V1" for k, _ in comp) else v0_ids).append(nid)
        c = cyl.collapse_non_A(q)
        assert list(c.v0) == sorted(v0_ids)
        assert [y for y, _ in c.v1] == sorted(v1_ids)
        assert len(c.edges) == sum(1 for e in q.edges if e.in_A)

"""Acceptance battery: one test per criterion, so `pytest -v` prints one
pass/fail line for each. Frozen expected values were computed by hand or by
an independently coded oracle before being asserted here."""

import io
import itertools
import json
import time
from fractions import Fraction

import splittings as sp
from splittings import cli_io, cylinders as cyl, tree_arithmetic as ta
from splittings.orbifold import B, M, BoundaryCircle, Orbifold2

from conftest import INPUTS, make_m3


def W(g, *letters):
    return sp.make_word(g, letters)


def test_criterion_1_euler_characteristics():
    start = time.monotonic()
    turnover = sp.validate(Orbifold2(True, 0, (2, 3, 7)))
    assert sp.euler_characteristic(turnover) == Fraction(-1, 42)
    pants = sp.validate(Orbifold2(True, 0, (), (BoundaryCircle.plain(),) * 3))
    assert sp.euler_characteristic(pants) == Fraction(-1)
    disc = sp.validate(
        Orbifold2(
            True,
            0,
            (),
            (
                BoundaryCircle.mixed(
                    (M, M, B, M, M, B), (2, None, None, 2, None, None)
                ),
            ),
        )
    )
    assert sp.euler_characteristic(disc) == Fraction(-1, 2)
    assert sp.is_hyperbolic(disc)
    assert time.monotonic() - start < 1.0


def _small_oracle(o):
    """Independent re-statement of the four-family list, coded separately
    from the library's matcher."""
    mixed = [c for c in o.circles if not c.is_plain()]
    plain = [c for c in o.circles if c.is_plain()]
    cones = len(o.cone_points)
    if not o.orientable or o.genus != 0:
        return (False, None)
    if not mixed:
        if len(plain) + cones == 3:
            return (True, 1)
        return (False, None)
    if len(mixed) != 1:
        return (False, None)
    (c,) = mixed
    arcs = sum(1 for t in c.word if t == M)
    segs = sum(1 for t in c.word if t == B)
    if arcs == 1 and segs == 1 and cones == 1 and not plain:
        return (True, 2)
    if arcs == 1 and segs == 1 and cones == 0 and len(plain) == 1:
        return (True, 3)
    if arcs == 3 and segs <= 3 and cones == 0 and not plain:
        return (True, 4)
    return (False, None)


def test_criterion_2_small_classifier_matches_pattern_set():
    start = time.monotonic()
    orbs = sp.enumerate_orbifolds(6)
    checked = smalls = 0
    for o in orbs:
        if not sp.is_hyperbolic(o):
            continue
        verdict = sp.is_small(o)
        expect_small, expect_family = _small_oracle(o)
        assert verdict.small == expect_small, o
        assert verdict.family == expect_family, o
        checked += 1
        smalls += verdict.small
    assert checked > 1000
    assert smalls > 0
    # spot values
    pants = sp.validate(Orbifold2(True, 0, (), (BoundaryCircle.plain(),) * 3))
    assert sp.is_small(pants).small
    four_cones = sp.validate(Orbifold2(True, 0, (2, 2, 2, 3)))
    assert not sp.is_small(four_cones).small
    disc_cone = sp.validate(
        Orbifold2(True, 0, (3,), (BoundaryCircle.mixed((M, B), (None, None)),))
    )
    v = sp.is_small(disc_cone)
    assert v.small and v.family == 2
    assert time.monotonic() - start < 30.0


def _mcg_oracle(o):
    """Independent re-statement of has_finite_mcg's five patterns, coded
    separately from the library's matcher: a pattern is the surface, the
    number of non-simple circles and the number of features (cones and
    simple circles, a simple circle being plain or one closed mirror)."""
    if o.orientable and o.genus == 0:
        surface = "S2"
    elif not o.orientable and o.genus == 1:
        surface = "P2"
    else:
        return (False, None)
    nonsimple = [c for c in o.circles if c.kind == "mixed" and c.word != (M,)]
    features = len(o.cone_points) + len(o.circles) - len(nonsimple)
    family = {
        ("S2", 0, 3): "S2_3",
        ("S2", 1, 1): "S2_2",
        ("S2", 1, 0): "S2_1",
        ("P2", 0, 2): "P2_2",
        ("P2", 1, 0): "P2_1",
    }.get((surface, len(nonsimple), features))
    return (family is not None, family)


def test_criterion_2_mcg_classifier_matches_pattern_set():
    families = set()
    for o in sp.enumerate_orbifolds(6):
        if not sp.is_hyperbolic(o):
            continue
        verdict = sp.has_finite_mcg(o)
        assert (verdict.finite, verdict.family) == _mcg_oracle(o), o
        families.add(verdict.family)
    assert families == {None, "S2_3", "S2_2", "S2_1", "P2_2", "P2_1"}


def test_criterion_3_oracle_agreement():
    start = time.monotonic()
    graphs = (
        sp.validate_graph(sp.bs(1, 2)),
        sp.validate_graph(sp.bs(2, 3)),
        make_m3(),
    )
    for g in graphs:
        words = sp.sample_words(g, 200, 8, seed=20260814)
        assert len(words) == 200
        valid = 0
        for w in words:
            ell = sp.translation_length(g, w)
            res = sp.ball_displacement_oracle(g, w, 12)
            if res.valid:
                assert res.value == ell
                valid += 1
        assert valid > 100  # the check must not pass vacuously
    assert time.monotonic() - start < 60.0


def test_criterion_4_axis_dichotomy():
    for g in (sp.validate_graph(sp.bs(2, 3)), make_m3()):
        pool = [
            w
            for w in sp.sample_words(g, 3000, 6, seed=11)
            if not sp.is_elliptic(g, w)
        ]
        pairs = 0
        i = 0
        while pairs < 500:
            w1, w2 = pool[2 * i], pool[2 * i + 1]
            i += 1
            r = sp.axis_gap(g, w1, w2)  # raises IdentityViolation on failure
            assert r.kind in ("meet", "disjoint")
            pairs += 1
        assert pairs == 500
    m3 = make_m3()
    r = sp.axis_gap(m3, W(m3, ("t", "e", 1)), W(m3, ("t", "ep", 1)))
    assert r.kind == "disjoint" and r.gap == 1


def test_criterion_5_lattice_modularity_and_laws():
    m = ta.master(make_m3())
    subsets = [
        ta.collapse(m, s)
        for r in range(4)
        for s in itertools.combinations(m.orbits, r)
    ]
    words = sp.sample_words(m.graph, 100, 6, seed=5)
    pairs = list(itertools.combinations(subsets, 2))
    assert len(pairs) == 28
    assert ta.verify_modularity(m, subsets, words) == []
    for a, b in itertools.product(subsets, repeat=2):
        assert ta.gcd(a, b).kept == ta.gcd(b, a).kept
        assert ta.lcm(a, b).kept == ta.lcm(b, a).kept
        assert ta.gcd(a, ta.lcm(a, b)).kept == a.kept
        assert ta.lcm(a, ta.gcd(a, b)).kept == a.kept
        assert ta.refines(ta.lcm(a, b), a)
        assert ta.refines(a, ta.gcd(a, b))
        assert ta.refines(a, b) == (b.kept <= a.kept)
    for a, b, c in itertools.product(subsets, repeat=3):
        assert ta.gcd(ta.gcd(a, b), c).kept == ta.gcd(a, ta.gcd(b, c)).kept
        assert ta.lcm(ta.lcm(a, b), c).kept == ta.lcm(a, ta.lcm(b, c)).kept


def test_criterion_6_squarefree_witnesses():
    m = ta.master(make_m3())
    wit = ta.squarefree_witnesses(m, ta.collapse(m, m.orbits), 4)
    assert len(wit) == 3
    for pair, w in wit.items():
        assert w is not None, pair
        k1, k2 = tuple(pair)
        assert ta.length_in_collapse(m, k1, w) != ta.length_in_collapse(
            m, k2, w
        )


def _assert_star(q, leaves, center_label):
    assert len(q.v1) == 1
    (yid, label) = q.v1[0]
    assert label == center_label
    assert sorted(q.v0) == sorted(leaves)
    assert len(q.edges) == len(leaves)
    assert {e.v0 for e in q.edges} == set(leaves)
    assert all(e.cyl == yid for e in q.edges)


def test_criterion_7_tree_of_cylinders_quotients():
    start = time.monotonic()
    d = cli_io.parse((INPUTS / "torus_cycle.txt").read_text())
    q = cyl.tree_of_cylinders_quotient(d.payload.skeleton, d.payload.atlas)
    _assert_star(q, ["u1", "u2", "u3", "u4"], "Z^2")
    d2 = cli_io.parse((INPUTS / "tripods.txt").read_text())
    q2 = cyl.tree_of_cylinders_quotient(d2.payload.skeleton, d2.payload.atlas)
    _assert_star(q2, ["v1", "v2", "v3"], "Z")
    # the tripod quotient has the input's shape: a 3-star either way
    skel = d2.payload.skeleton
    degrees = sorted(
        sum(1 for e in skel.edges if v.id in (e.origin, e.terminus))
        for v in skel.vertices
    )
    assert degrees == [1, 1, 1, 3]
    assert time.monotonic() - start < 1.0


def test_criterion_8_gbs_report_verdicts():
    rep = sp.jsj_report(sp.bs(1, 1))
    assert rep.verdict("classification") == "Z2"
    assert rep.verdict("jsj") == "trivial JSJ"

    assert sp.jsj_report(sp.bs(1, -1)).verdict("classification") == "Klein"
    seg = sp.graph(("u", "v"), (("f", "u", "v", 2, 2),))
    assert sp.jsj_report(seg).verdict("classification") == "Klein"

    rep23 = sp.jsj_report(sp.bs(2, 3))
    assert rep23.verdict("divisibility") == "holds at every vertex"
    assert rep23.verdict("conclusion") == "unique reduced JSJ tree; T_co = T_J"

    assert sp.jsj_report(sp.bs(1, 4)).verdict("compatibility") == "D_co = JSJ space"
    assert sp.jsj_report(sp.bs(1, 6)).verdict("compatibility") == "D_co trivial"


def _report_battery():
    commands = [
        ("gbs", "report", str(INPUTS / "bs23.txt"), "--json"),
        ("gbs", "report", str(INPUTS / "bs14.txt"), "--json"),
        ("gbs", "report", str(INPUTS / "bs16.txt"), "--json"),
        ("gbs", "report", str(INPUTS / "bs24.txt"), "--json"),
        (
            "gbs", "length", str(INPUTS / "bs23.txt"),
            "--word", "atat", "--oracle", "10", "--json",
        ),
        ("orbifold", "analyze", str(INPUTS / "pants.txt"), "--json"),
        ("orbifold", "analyze", str(INPUTS / "mirror_disc.txt"), "--json"),
        ("orbifold", "analyze", str(INPUTS / "turnover.txt"), "--json"),
        ("orbifold", "enumerate", "--budget", "3", "--json"),
        (
            "lattice", "verify", str(INPUTS / "m3.txt"),
            "--words", "50", "--maxlen", "6", "--seed", "13", "--json",
        ),
        ("cylinders", "quotient", str(INPUTS / "torus_cycle.txt"), "--json"),
        ("cylinders", "quotient", str(INPUTS / "tripods.txt"), "--json"),
        ("export", "dot", str(INPUTS / "torus_cycle.txt")),
    ]
    outputs = []
    for argv in commands:
        out = io.StringIO()
        code = cli_io.run(list(argv), stdout=out, stderr=io.StringIO())
        assert code == 0, argv
        outputs.append(out.getvalue().encode("utf-8"))
    return outputs


def test_criterion_9_global_determinism():
    first = _report_battery()
    second = _report_battery()
    assert first == second
    for blob in first[:-1]:
        json.loads(blob.decode("utf-8"))  # each report is valid JSON

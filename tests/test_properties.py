import dataclasses
import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

import splittings as sp
from splittings import cli_io, cylinders as cyl, gbs, tree_arithmetic as ta
from splittings.gbs import Cross, Edge, Pow
from splittings.orbifold import B, M, BoundaryCircle, Orbifold2

from conftest import make_m3, tree_distance

M3 = make_m3()
BS23 = sp.validate_graph(sp.bs(2, 3))
BS12 = sp.validate_graph(sp.bs(1, 2))
MASTER = ta.master(M3)
SUBSETS = [
    ta.collapse(MASTER, s)
    for r in range(4)
    for s in itertools.combinations(MASTER.orbits, r)
]


def letters_for(g):
    alphabet = []
    for v in g.vertices:
        for n in (-3, -2, -1, 1, 2, 3):
            alphabet.append(("a", v, n))
    for e in g.edges:
        alphabet.append(("t", e.id, 1))
        alphabet.append(("t", e.id, -1))
    return st.lists(st.sampled_from(alphabet), min_size=0, max_size=7)


def words_for(g):
    return letters_for(g).map(lambda ls: sp.make_word(g, tuple(ls)))


# -- translation length ------------------------------------------------------

@given(words_for(M3))
def test_length_is_nonnegative_int(w):
    ell = sp.translation_length(M3, w)
    assert isinstance(ell, int) and ell >= 0


@given(words_for(M3), words_for(M3))
def test_conjugacy_invariance(w, c):
    conj = sp.concat(sp.concat(c, w), sp.inverse(c))
    assert sp.translation_length(M3, conj) == sp.translation_length(M3, w)


@given(words_for(BS23), st.integers(min_value=-4, max_value=4))
def test_power_law(w, n):
    ell = sp.translation_length(BS23, w)
    assert sp.translation_length(BS23, sp.power(w, n)) == abs(n) * ell


@given(words_for(M3))
def test_inverse_preserves_length(w):
    assert sp.translation_length(M3, sp.inverse(w)) == sp.translation_length(
        M3, w
    )


# -- random connected GBS graphs ---------------------------------------------

LABELS = st.sampled_from((-4, -3, -2, -1, 1, 2, 3, 4, 6))


@st.composite
def gbs_graphs(draw):
    """Connected graphs on 1-5 vertices: a random tree plus up to 3 extra
    edges (loops and parallel edges allowed), in shuffled order so the
    default spanning tree varies, with a random base vertex."""
    vs = [f"v{i}" for i in range(draw(st.integers(1, 5)))]
    edges = []
    for i in range(1, len(vs)):
        a, b = vs[draw(st.integers(0, i - 1))], vs[i]
        if draw(st.booleans()):
            a, b = b, a
        edges.append(Edge(f"s{i}", a, b, draw(LABELS), draw(LABELS)))
    for k in range(draw(st.integers(0, 3))):
        a, b = draw(st.sampled_from(vs)), draw(st.sampled_from(vs))
        edges.append(Edge(f"x{k}", a, b, draw(LABELS), draw(LABELS)))
    edges = draw(st.permutations(edges))
    base = draw(st.sampled_from(vs))
    return sp.validate_graph(sp.LabeledGraph(tuple(vs), tuple(edges), base))


@st.composite
def graph_with_words(draw, count):
    g = draw(gbs_graphs())
    return g, [sp.make_word(g, tuple(draw(letters_for(g)))) for _ in range(count)]


@given(gbs_graphs())
def test_move_table_matches_edges(g):
    moves = g.index.moves
    assert list(moves) == [e.id for e in g.edges]
    for e in g.edges:
        forward, backward = moves[e.id]
        assert forward[0] == Cross(e.id, 1) and backward[0] == Cross(e.id, -1)
        assert forward[2:] == (e.origin, e.terminus, e.lam, e.mu)
        assert backward[2:] == (e.terminus, e.origin, e.mu, e.lam)
        # each move's reverse is the other move's own crossing object
        assert forward[1] is backward[0] and backward[1] is forward[0]
    for v in g.vertices:
        leaving = [m for e in g.edges for m in moves[e.id] if m[2] == v]
        departing = g.index.departing[v]
        assert len(departing) == len(leaving)
        assert all(a is b for a, b in zip(departing, leaving))


def routed_word(g, letters, base=None):
    # make_word without its per-call memo: every letter routed through the
    # spanning tree anew
    b = base if base is not None else g.base
    items = []
    for kind, name, k in letters:
        if kind == "a":
            if name not in g.vertices:
                raise sp.InvalidPath(f"unknown vertex {name!r} in letter a[{name}]")
            if k == 0:
                continue
            items += gbs.tree_path(g, b, name) + [Pow(name, k)]
            items += gbs.tree_path(g, name, b)
        else:
            if name not in {e.id for e in g.edges}:
                raise sp.InvalidPath(f"unknown edge {name!r} in letter t[{name}]")
            if k not in (1, -1):
                raise sp.InvalidPath(f"crossing exponent must be +-1, got {k}")
            e = g.edge(name)
            start, end = (e.origin, e.terminus) if k > 0 else (e.terminus, e.origin)
            items += gbs.tree_path(g, b, start) + [Cross(e.id, k)]
            items += gbs.tree_path(g, end, b)
    return sp.validate_word(g, sp.GroupWord(b, tuple(items)))


@given(gbs_graphs(), st.data())
def test_make_word_matches_routing_each_letter(g, data):
    # a few distinct letters drawn into a long list, so most letters repeat;
    # each exponent 1 comes with a twin of exponent True, which equals 1 but
    # prints differently, so it must not share the items of the 1
    alphabet = [("a", v, n) for v in g.vertices for n in (-2, -1, 0, 1, 2)]
    alphabet += [("t", e.id, k) for e in g.edges for k in (1, -1)]
    pool = data.draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=4))
    pool += [(kind, name, True) for kind, name, k in pool if k == 1]
    letters = data.draw(st.lists(st.sampled_from(pool), max_size=12))
    base = data.draw(st.sampled_from((None,) + g.vertices))
    w = sp.make_word(g, letters, base)
    ref = routed_word(g, letters, base)
    assert w == ref and repr(w) == repr(ref)


@pytest.mark.parametrize(
    "letters",
    [
        (("t", "e", 1), ("t", "e", 2), ("a", "zz", 1), ("t", "e", 2)),
        (("a", "u", 1), ("a", "zz", 1), ("a", "u", 1), ("a", "zz", 1)),
        (("t", "f", -1), ("t", "f", 1), ("t", "nope", 1), ("a", "zz", 2)),
    ],
)
def test_make_word_repeated_bad_letter(letters):
    # the error is the reference construction's, from the first bad letter
    with pytest.raises(sp.InvalidPath) as expected:
        routed_word(M3, letters)
    with pytest.raises(sp.InvalidPath) as got:
        sp.make_word(M3, letters)
    assert str(got.value) == str(expected.value)


def reference_validate(g, w):
    # the path check as a walk of its own, the way validate_word ran it
    # before it rode on the linear Britton pass
    if w.base not in g.vertices:
        raise sp.InvalidPath(f"base {w.base!r} is not a vertex")
    edges = {e.id: e for e in g.edges}
    cur = w.base
    for item in w.items:
        if isinstance(item, Pow):
            if item.vertex != cur:
                raise sp.InvalidPath(f"power at {item.vertex!r} but path is at {cur!r}")
            continue
        e = edges.get(item.edge)
        if e is None:
            raise sp.SemanticError(f"no edge named {item.edge!r}")
        dep, arr = (e.origin, e.terminus) if item.sign > 0 else (e.terminus, e.origin)
        if dep != cur:
            raise sp.InvalidPath(
                f"crossing of {item.edge!r} departs {dep!r} but path is at {cur!r}"
            )
        cur = arr
    if cur != w.base:
        raise sp.InvalidPath(f"path ends at {cur!r}, not at base {w.base!r}")
    return w


def corruptions(g, w, data):
    """One corrupted copy of w per kind: a power moved to a drawn vertex, an
    inserted crossing of a known or an unknown edge, a deleted item, a
    foreign base, and a truncated tail."""
    items = list(w.items)
    vertex = st.sampled_from(g.vertices + ("zz",))
    out = []
    powers = [i for i, x in enumerate(items) if isinstance(x, Pow)]
    if powers:
        i = data.draw(st.sampled_from(powers))
        out.append(items[:i] + [Pow(data.draw(vertex), items[i].n)] + items[i + 1:])
    eid = data.draw(st.sampled_from(tuple(e.id for e in g.edges) + ("nope",)))
    i = data.draw(st.integers(0, len(items)))
    out.append(items[:i] + [Cross(eid, data.draw(st.sampled_from((1, -1))))] + items[i:])
    if items:
        i = data.draw(st.integers(0, len(items) - 1))
        out.append(items[:i] + items[i + 1:])
        out.append(items[:data.draw(st.integers(0, len(items) - 1))])
    words = [sp.GroupWord(w.base, tuple(x)) for x in out]
    return words + [sp.GroupWord(data.draw(vertex), w.items)]


def word_consumers(g):
    m = ta.master(g)
    some = ta.collapse(m, m.orbits[:1])
    every = ta.collapse(m, m.orbits)
    return (
        lambda w: sp.validate_word(g, w),
        lambda w: sp.translation_length(g, w),
        lambda w: sp.crossing_sequence(g, w),
        lambda w: sp.britton_reduce(g, w),
        lambda w: sp.modular_homomorphism(g, w),
        lambda w: sp.ball_displacement_oracle(g, w, 1),
        lambda w: ta.length_in_collapse(m, some, w),
        lambda w: ta.elliptic_in_lcm(m, w, [some, every]),
    )


@given(gbs_graphs(), st.data())
def test_word_errors_match_reference_validator(g, data):
    # every make_word result is a valid path; every consumer of a corrupted
    # word raises the reference's error, same type and message, or all of
    # them succeed when the reference does
    letters = data.draw(letters_for(g))
    base = data.draw(st.sampled_from((None,) + g.vertices))
    w = sp.make_word(g, letters, base)
    reference_validate(g, w)
    consumers = word_consumers(g)
    for bad in corruptions(g, w, data):
        try:
            reference_validate(g, bad)
        except sp.SplittingsError as exc:
            expected = (type(exc), str(exc))
        else:
            expected = None
        for consume in consumers:
            try:
                consume(bad)
            except sp.SplittingsError as exc:
                assert (type(exc), str(exc)) == expected
            else:
                assert expected is None


def outcome(consume, w):
    # a consumer's result, or the type and message of its error
    try:
        return consume(w)
    except sp.SplittingsError as exc:
        return (type(exc), str(exc))


@given(gbs_graphs(), st.data())
def test_reduction_memo_misses_on_a_relabelled_graph(g, data):
    # a word reduced on g, asked again on a graph with the same vertices and
    # edge ids but other labels, answers as a fresh copy of itself does
    edges = tuple(
        Edge(
            e.id, e.origin, e.terminus,
            data.draw(LABELS.filter(lambda x, old=e.lam: x != old)),
            data.draw(LABELS.filter(lambda x, old=e.mu: x != old)),
        )
        for e in g.edges
    )
    relabelled = sp.validate_graph(
        sp.LabeledGraph(g.vertices, edges, g.base, g.spanning_tree)
    )
    w = sp.make_word(g, data.draw(letters_for(g)))
    for consume in word_consumers(g):
        consume(w)
    assert w.reduced[0] is g.index
    for consume in word_consumers(relabelled):
        assert consume(w) == consume(sp.GroupWord(w.base, w.items))


@given(gbs_graphs(), st.data())
def test_word_errors_repeat_on_every_call(g, data):
    # no failed reduction is stored, so a second call fails as the first did
    w = sp.make_word(g, data.draw(letters_for(g)))
    consumers = word_consumers(g)
    for bad in corruptions(g, w, data):
        for consume in consumers:
            first = outcome(consume, bad)
            assert outcome(consume, bad) == first


def test_each_word_is_reduced_once_per_graph_index(monkeypatch):
    calls = []
    linear_reduce = gbs._linear_reduce

    def counting(g, w):
        calls.append(w)
        return linear_reduce(g, w)

    monkeypatch.setattr(gbs, "_linear_reduce", counting)
    w = sp.make_word(M3, (("t", "e", 1), ("a", "u", 2), ("t", "ep", -1)))
    for consume in word_consumers(M3):
        consume(w)
    assert len(calls) == 1
    reindexed = sp.validate_graph(dataclasses.replace(M3, index=None))
    assert reindexed.index is not M3.index
    for consume in word_consumers(reindexed):
        consume(w)
    assert len(calls) == 2
    # the stored reduction cannot be forged through the constructor
    with pytest.raises(TypeError):
        sp.GroupWord(w.base, w.items, w.reduced)


@pytest.mark.parametrize("sign", [2, 0, -3])
@pytest.mark.parametrize("g", [BS23, M3], ids=["bs23", "m3"])
def test_crossing_sign_other_than_unit_is_malformed(g, sign):
    e = g.edges[0]
    bad = Cross(e.id, sign)
    loop = (Cross(e.id, 1), Pow(e.terminus, 1), Cross(e.id, -1))
    message = (
        f"malformed word item {bad!r}; items are Pow(vertex, int) or Cross(edge, +-1)"
    )
    # leading, and after a valid closed loop at the base
    for items in ((bad, Cross(e.id, -1)), loop + (bad,)):
        w = sp.GroupWord(e.origin, items)
        for consume in word_consumers(g):
            assert outcome(consume, w) == (sp.InvalidPath, message)


def reference_linear_reduce(g, w):
    # the linear pass as a plain stack, its top entry read from and written
    # back to the list at every item
    edges = {e.id: e for e in g.edges}
    if w.base not in g.vertices:
        raise sp.InvalidPath(f"base {w.base!r} is not a vertex")
    out = [(None, 0, w.base)]
    for item in w.items:
        c, p, v = out[-1]
        if isinstance(item, Pow):
            if item.vertex != v:
                raise sp.InvalidPath(f"power at {item.vertex!r} but path is at {v!r}")
            out[-1] = (c, p + item.n, v)
            continue
        e = edges.get(item.edge)
        if e is None:
            raise sp.SemanticError(f"no edge named {item.edge!r}")
        if item.sign > 0:
            dep, arr, d, a = e.origin, e.terminus, e.lam, e.mu
        else:
            dep, arr, d, a = e.terminus, e.origin, e.mu, e.lam
        if dep != v:
            raise sp.InvalidPath(
                f"crossing of {item.edge!r} departs {dep!r} but path is at {v!r}"
            )
        if c is not None and c.edge == item.edge and c.sign == -item.sign and p % d == 0:
            out.pop()
            c2, p2, v2 = out[-1]
            out[-1] = (c2, p2 + p // d * a, v2)
        else:
            out.append((item, 0, arr))
    if out[-1][2] != w.base:
        raise sp.InvalidPath(f"path ends at {out[-1][2]!r}, not at base {w.base!r}")
    return out


@given(graph_with_words(2), st.integers(1, 4), st.integers(-2, 2), st.data())
def test_linear_pass_matches_stack_reference(gw, n, j, data):
    # pinch-heavy words too: w w^-1 cancels completely, and t^n a^k t^-n
    # with k = j mu^n pinches n times over a loop
    g, (w, c) = gw
    words = [w, sp.concat(w, sp.inverse(w)), sp.concat(sp.concat(c, w), sp.inverse(c))]
    if g.edges:
        e = data.draw(st.sampled_from(g.edges))
        t = (("t", e.id, 1),) * n
        a = (("a", e.terminus, j * e.mu ** n),)
        words.append(sp.make_word(g, t + a + (("t", e.id, -1),) * n))
    for u in words:
        assert gbs._linear_reduce(g, u) == reference_linear_reduce(g, u)


@given(graph_with_words(2))
def test_conjugacy_invariance_on_random_graphs(gw):
    # the modular map lands in the abelian group Q*, so it is a class
    # function too
    g, (w, c) = gw
    conj = sp.concat(sp.concat(c, w), sp.inverse(c))
    assert sp.translation_length(g, conj) == sp.translation_length(g, w)
    q = sp.modular_homomorphism
    assert q(g, conj) == q(g, w)


@given(gbs_graphs())
def test_validate_returns_indexed_graph(g):
    assert sp.validate_graph(g) is g


@given(gbs_graphs(), st.data())
def test_tree_paths_cancel(g, data):
    u = data.draw(st.sampled_from(g.vertices))
    v = data.draw(st.sampled_from(g.vertices))
    there = gbs.tree_path(g, u, v)
    back = gbs.tree_path(g, v, u)
    assert {c.edge for c in there} <= set(g.spanning_tree)
    assert back == [Cross(c.edge, -c.sign) for c in reversed(there)]
    loop = sp.GroupWord(u, tuple(there + back))
    assert sp.britton_reduce(g, loop).word.items == ()


@given(graph_with_words(2))
def test_length_core_matches_normal_form(gw):
    g, (w, c) = gw
    nf = sp.britton_reduce(g, w)
    ell = sp.translation_length(g, w)
    assert ell == len(nf.crossing_sequence)
    assert tuple(sp.crossing_sequence(g, w)) == nf.crossing_sequence
    conj = sp.concat(sp.concat(c, w), sp.inverse(c))
    assert sp.translation_length(g, conj) == ell


@given(graph_with_words(2), st.data())
def test_element_key_is_exact(gw, data):
    # the element key of gbs._elements: the coset normal form.
    # Words share it exactly when w1 w2^-1 Britton-reduces to nothing; a
    # relator r = t a^mu t^-1 a^-lam of a random edge gives equal pairs.
    g, (w1, w2) = gw
    relator = ()
    if g.edges:
        e = data.draw(st.sampled_from(g.edges))
        relator = (("t", e.id, 1), ("a", e.terminus, e.mu),
                   ("t", e.id, -1), ("a", e.origin, -e.lam))
    r = sp.make_word(g, relator)

    def key(w):
        steps, pending, _ = gbs._normalize_steps(g, w.items)
        return tuple(steps), pending

    for u in (w2, sp.concat(r, w1), sp.concat(w1, r)):
        identity = sp.britton_reduce(g, sp.concat(w1, sp.inverse(u))).word.items == ()
        assert (key(w1) == key(u)) == identity
    assert key(sp.concat(r, w1)) == key(w1)


def reference_elements(g, max_len):
    # the string walk that gbs._elements replaced: every freely reduced
    # letter string of each length is built and normalized from scratch
    alphabet = [("a", v, k) for v in g.vertices for k in (1, -1)]
    alphabet += [("t", e.id, k) for e in g.edges for k in (1, -1)]
    seen = set()
    level = [()]
    for _ in range(max_len):
        level = [
            s + (x,)
            for s in level
            for x in alphabet
            if not s or s[-1] != (x[0], x[1], -x[2])
        ]
        for letters in level:
            w = sp.make_word(g, letters)
            steps, pending, _ = gbs._normalize_steps(g, w.items)
            key = (tuple(steps), pending)
            if key not in seen:
                seen.add(key)
                yield w, sp.crossing_sequence(g, w)


def assert_walk_matches_reference(g, max_len):
    # the reference reaches the identity too; Britton reduction to the
    # empty word, not the walk's key, says which yield that is
    expected = [
        (w, seq)
        for w, seq in reference_elements(g, max_len)
        if sp.britton_reduce(g, w).word.items != ()
    ]
    assert list(gbs._elements(g, max_len)) == expected


@given(gbs_graphs(), st.integers(0, 3))
def test_element_walk_matches_string_walk(g, L):
    assert_walk_matches_reference(g, L)


@pytest.mark.parametrize(
    "g, L", [(sp.validate_graph(sp.bs(1, 1)), 7), (BS23, 6), (M3, 4)],
    ids=["bs11-L7", "bs23-L6", "m3-L4"],
)
def test_element_walk_matches_string_walk_deeper(g, L):
    assert_walk_matches_reference(g, L)


@given(graph_with_words(2))
def test_cyclic_form_has_no_pinch(gw):
    # checked on the cyclic word itself, independently of the reduction:
    # no cyclic adjacency c, a^p, c^-1 with p divisible by the label
    g, (w, c) = gw
    conj = sp.concat(sp.concat(c, w), sp.inverse(c))
    pairs = []
    for item in sp.britton_reduce(g, conj).cyclic_word.items:
        if isinstance(item, Cross):
            pairs.append([item, 0])
        elif pairs:
            pairs[-1][1] += item.n
    for i, (ci, p) in enumerate(pairs):
        cj = pairs[(i + 1) % len(pairs)][0]
        e = g.edge(cj.edge)
        d = e.lam if cj.sign > 0 else e.mu
        assert not (cj == Cross(ci.edge, -ci.sign) and p % d == 0)


@given(graph_with_words(2))
def test_cyclic_word_is_a_fixed_point(gw):
    # the cyclic word is a closed path at its own base, its length is the
    # crossing count, and reducing it again gives it back unchanged
    g, (w, c) = gw
    conj = sp.concat(sp.concat(c, w), sp.inverse(c))
    nf = sp.britton_reduce(g, conj)
    cyclic = nf.cyclic_word
    sp.validate_word(g, cyclic)
    assert sp.translation_length(g, cyclic) == len(nf.crossing_sequence)
    again = sp.britton_reduce(g, cyclic)
    assert again.word == again.cyclic_word == cyclic
    assert again.cyclically_reduced
    assert again.crossing_sequence == nf.crossing_sequence


HYPERBOLIC_POOL = [
    w
    for w in sp.sample_words(BS23, 400, 6, seed=97)
    if not sp.is_elliptic(BS23, w)
][:80]


@given(st.sampled_from(HYPERBOLIC_POOL), st.sampled_from(HYPERBOLIC_POOL))
def test_axis_dichotomy(w1, w2):
    r = sp.axis_gap(BS23, w1, w2)  # IdentityViolation would fail the test
    l1 = sp.translation_length(BS23, w1)
    l2 = sp.translation_length(BS23, w2)
    lp = sp.translation_length(BS23, sp.concat(w1, w2))
    lm = sp.translation_length(BS23, sp.concat(sp.inverse(w1), w2))
    if r.kind == "meet":
        assert max(lp, lm) == l1 + l2
    else:
        assert lp == lm == l1 + l2 + 2 * r.gap


@given(graph_with_words(2))
def test_axis_dichotomy_on_random_graphs(gw):
    g, (w1, w2) = gw
    assume(not sp.is_elliptic(g, w1) and not sp.is_elliptic(g, w2))
    r = sp.axis_gap(g, w1, w2)  # IdentityViolation would fail the test
    l1 = sp.translation_length(g, w1)
    l2 = sp.translation_length(g, w2)
    lp = sp.translation_length(g, sp.concat(w1, w2))
    lm = sp.translation_length(g, sp.concat(sp.inverse(w1), w2))
    if r.kind == "meet":
        assert max(lp, lm) == l1 + l2
    else:
        assert lp == lm == l1 + l2 + 2 * r.gap


@given(words_for(BS12))
def test_oracle_agrees_when_valid(w):
    res = sp.ball_displacement_oracle(BS12, w, 8)
    if res.valid:
        assert res.value == sp.translation_length(BS12, w)


@given(graph_with_words(1))
def test_oracle_agrees_on_random_graphs(gw):
    g, (w,) = gw
    res = sp.ball_displacement_oracle(g, w, 8)
    if res.valid:
        assert res.value == sp.translation_length(g, w)


@given(graph_with_words(1))
def test_ball_states_match_full_paths(gw):
    # the walk resumes each vertex's states from its parent's; here every
    # vertex's whole coset path is normalized again from the root states,
    # with its items built from the steps: a^r at the departure vertex when
    # r != 0, then the crossing
    g, (w,) = gw
    roots = (
        tuple(gbs._normalize_steps(g, w.items)[:2]),
        tuple(gbs._normalize_steps(g, w.items + w.items)[:2]),
    )
    seen = set()
    for x, states in gbs._ball_walk(g, w.base, 4, 300, roots):
        assert x not in seen
        seen.add(x)
        items = []
        for c, r in x:
            e = g.edge(c.edge)
            if r:
                items.append(Pow(e.origin if c.sign > 0 else e.terminus, r))
            items.append(c)
        assert gbs._normalize_steps(g, items)[:2] == (list(x), 0)
        assert [(steps, pending) for steps, pending, _ in states] == [
            gbs._normalize_steps(g, items, steps, pending)[:2]
            for steps, pending in roots
        ]


@given(graph_with_words(1))
def test_ball_walk_carries_distances(gw):
    # each state carries its common prefix with the vertex, updated from
    # the parent's; here d(x, u x) for u = w, w^2, w^-1, w^-2 is recomputed
    # from the whole coset paths of the vertex and of the state (the
    # inverses walk the other way along an axis, where a state's path can
    # be a proper prefix of the vertex's)
    g, (w,) = gw
    roots = [
        tuple(gbs._normalize_steps(g, u.items * n)[:2])
        for u in (w, sp.inverse(w)) for n in (1, 2)
    ]
    for x, states in gbs._ball_walk(g, w.base, 4, 300, roots):
        for steps, _, common in states:
            assert len(x) + len(steps) - 2 * common == tree_distance(x, steps)


# -- modular homomorphism ----------------------------------------------------

@given(words_for(M3), words_for(M3))
def test_modular_multiplicative(w1, w2):
    q = sp.modular_homomorphism
    assert q(M3, sp.concat(w1, w2)) == q(M3, w1) * q(M3, w2)


@given(words_for(M3))
def test_modular_inverse(w):
    q = sp.modular_homomorphism
    assert q(M3, sp.inverse(w)) == 1 / q(M3, w)


# -- collapse lattice --------------------------------------------------------

@given(st.sampled_from(SUBSETS), st.sampled_from(SUBSETS), words_for(M3))
def test_modularity(k1, k2, w):
    lu = ta.length_in_collapse(MASTER, ta.lcm(k1, k2), w)
    li = ta.length_in_collapse(MASTER, ta.gcd(k1, k2), w)
    l1 = ta.length_in_collapse(MASTER, k1, w)
    l2 = ta.length_in_collapse(MASTER, k2, w)
    assert lu + li == l1 + l2


@given(graph_with_words(3))
def test_no_modularity_failure_on_random_graphs(gw):
    # every collapse of a random master, including the empty one, so each
    # Britton length is also checked alone against its coset-path length
    g, words = gw
    m = ta.master(g)
    collapses = [
        ta.collapse(m, kept)
        for r in range(len(m.orbits) + 1)
        for kept in itertools.combinations(m.orbits, r)
    ]
    assert ta.verify_modularity(m, collapses, words) == []


@given(st.sampled_from(SUBSETS), words_for(M3))
def test_collapse_never_longer_than_master(k, w):
    full = ta.collapse(MASTER, MASTER.orbits)
    assert ta.length_in_collapse(MASTER, k, w) <= ta.length_in_collapse(
        MASTER, full, w
    )


@given(st.sampled_from(SUBSETS))
def test_prime_factor_count(k):
    assert len(ta.prime_factors(k)) == len(k.kept)


@given(st.sampled_from(SUBSETS), st.sampled_from(SUBSETS))
def test_lcm_is_least_upper_bound(k1, k2):
    up = ta.lcm(k1, k2)
    assert ta.refines(up, k1) and ta.refines(up, k2)
    for other in SUBSETS:
        if ta.refines(other, k1) and ta.refines(other, k2):
            assert ta.refines(other, up)


@given(words_for(M3), st.sampled_from(SUBSETS), st.sampled_from(SUBSETS))
def test_elliptic_in_lcm_equivalence(w, k1, k2):
    res = ta.elliptic_in_lcm(MASTER, w, [k1, k2])
    assert res == (
        ta.length_in_collapse(MASTER, k1, w) == 0
        and ta.length_in_collapse(MASTER, k2, w) == 0
    )


# -- orbifolds ---------------------------------------------------------------

def circles_strategy():
    def build(tokens, orders):
        word = tuple(tokens)
        n = len(word)
        corners = []
        it = iter(orders)
        for i in range(n):
            if word[i] == M and word[(i + 1) % n] == M and n > 1:
                corners.append(2 + next(it) % 8)
            else:
                corners.append(None)
        return BoundaryCircle.mixed(word, tuple(corners))

    mixed = st.builds(
        build,
        st.lists(st.sampled_from([M, B]), min_size=1, max_size=6).filter(
            lambda t: M in t
        ),
        st.lists(st.integers(min_value=0, max_value=7), min_size=8, max_size=8),
    )
    return st.one_of(st.just(BoundaryCircle.plain()), mixed)


def orbifolds_strategy():
    return st.builds(
        lambda orientable, genus, cones, circles: sp.validate(
            Orbifold2(
                orientable,
                genus if orientable else max(1, genus),
                tuple(cones),
                tuple(circles),
            )
        ),
        st.booleans(),
        st.integers(min_value=0, max_value=2),
        st.lists(st.integers(min_value=2, max_value=9), max_size=3),
        st.lists(circles_strategy(), max_size=3),
    )


@given(orbifolds_strategy(), st.integers(min_value=2, max_value=12))
def test_cone_decrement(o, q):
    coned = sp.validate(
        Orbifold2(o.orientable, o.genus, o.cone_points + (q,), o.circles)
    )
    assert sp.euler_characteristic(coned) == sp.euler_characteristic(
        o
    ) - (1 - Fraction(1, q))


@given(orbifolds_strategy())
def test_hyperbolic_iff_negative(o):
    assert sp.is_hyperbolic(o) == (sp.euler_characteristic(o) < 0)


@given(orbifolds_strategy(), st.integers(min_value=0, max_value=11))
def test_verdicts_invariant_under_rotation(o, k):
    rotated = []
    for c in o.circles:
        if c.is_plain() or len(c.word) < 2:
            rotated.append(c)
            continue
        n = len(c.word)
        r = k % n
        word = tuple(c.word[(i + r) % n] for i in range(n))
        corners = tuple(c.corners[(i + r) % n] for i in range(n))
        rotated.append(BoundaryCircle.mixed(word, corners))
    o2 = sp.validate(
        Orbifold2(o.orientable, o.genus, o.cone_points, tuple(rotated))
    )
    assert o2 == o
    assert sp.euler_characteristic(o2) == sp.euler_characteristic(o)
    if sp.is_hyperbolic(o):
        assert sp.is_small(o2) == sp.is_small(o)
        assert sp.has_finite_mcg(o2) == sp.has_finite_mcg(o)


@given(orbifolds_strategy())
def test_verdicts_invariant_under_reflection(o):
    reflected = []
    for c in o.circles:
        if c.is_plain() or len(c.word) < 2:
            reflected.append(c)
            continue
        n = len(c.word)
        word = tuple(reversed(c.word))
        corners = tuple(c.corners[(n - 2 - j) % n] for j in range(n))
        reflected.append(BoundaryCircle.mixed(word, corners))
    o2 = sp.validate(
        Orbifold2(o.orientable, o.genus, o.cone_points, tuple(reflected))
    )
    assert o2 == o


# -- reduce ------------------------------------------------------------------

@given(st.integers(min_value=-4, max_value=4).filter(lambda x: x != 0),
       st.integers(min_value=-4, max_value=4).filter(lambda x: x != 0),
       st.integers(min_value=-3, max_value=3).filter(lambda x: x != 0))
def test_reduce_preserves_surviving_loop_modulus(lam, mu, unit_mu):
    g = sp.validate_graph(
        sp.graph(
            ("u", "v"),
            (("e", "u", "u", lam, mu), ("f", "u", "v", 1, unit_mu)),
        )
    )
    r = sp.reduce(g)
    assert sp.is_reduced(r)
    before = Fraction(g.edge("e").lam, g.edge("e").mu)
    after = Fraction(r.edge("e").lam, r.edge("e").mu)
    assert before == after


# -- documents ---------------------------------------------------------------

IDS = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True)
# printable text without blanks at either end, as a stripped line keeps it;
# an edge's group also holds no comma, which ends it
TEXT = st.from_regex(r"[!-~]([ -~]{0,10}[!-~])?", fullmatch=True) | st.just("")
GROUP = st.from_regex(r"[!-+\--~]([ -+\--~]{0,10}[!-+\--~])?", fullmatch=True) | st.just("")
COMMENTS = st.lists(TEXT, max_size=2).map(tuple)


@st.composite
def spanning_trees(draw, g):
    """The edge ids of a random spanning tree of g, in the order drawn."""
    root = {v: v for v in g.vertices}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    tree = []
    for e in draw(st.permutations(g.edges)):
        a, b = find(e.origin), find(e.terminus)
        if a != b:
            root[a] = b
            tree.append(e.id)
    return tuple(tree)


@st.composite
def graph_documents(draw, kind):
    """A [gbs] or [master] document on a random graph with a random spanning
    tree, words and, in a master, keeps."""
    g, name = draw(gbs_graphs()), draw(TEXT)
    g = sp.validate_graph(
        sp.LabeledGraph(g.vertices, g.edges, g.base, draw(spanning_trees(g)), name)
    )
    words = draw(st.lists(st.tuples(IDS, letters_for(g).map(tuple)), max_size=3))
    keeps = []
    if kind == "master" and g.edges:
        edge_ids = st.sampled_from([e.id for e in g.edges])
        keeps = draw(st.lists(st.tuples(IDS, st.lists(edge_ids, max_size=3).map(tuple)), max_size=3))
    spec = cli_io.GbsSpec(g, tuple(words), tuple(keeps))
    return cli_io.Document(kind, spec, name, draw(COMMENTS))


@st.composite
def atlas_documents(draw, text=TEXT, group=GROUP):
    """An [atlas] document on a connected skeleton, the ends at each vertex
    orbit split at random into classes with random flags, and random
    stabilizer labels; vertex groups and stabilizer labels are drawn from
    text and edge groups from group."""
    vs = [f"v{i}" for i in range(draw(st.integers(1, 4)))]
    links = [(vs[draw(st.integers(0, i - 1))], vs[i]) for i in range(1, len(vs))]
    links += draw(st.lists(st.tuples(st.sampled_from(vs), st.sampled_from(vs)), max_size=2))
    edges = [
        cyl.SkeletonEdge(f"e{i}", o, t, draw(group))
        for i, (o, t) in enumerate(draw(st.permutations(links)))
    ]
    ends = {v: [] for v in vs}
    for e in edges:
        ends[e.origin].append((e.id, "o"))
        ends[e.terminus].append((e.id, "t"))
    classes = []
    for v in vs:
        part = draw(st.lists(st.integers(0, 2), min_size=len(ends[v]), max_size=len(ends[v])))
        for k in sorted(set(part)):
            members = tuple(end for end, p in zip(ends[v], part) if p == k)
            plural, in_a = draw(st.booleans()), draw(st.sampled_from((True, False, None)))
            classes.append(cyl.LocalClass(v, "abc"[k], members, plural, in_a))
    stabilizers = []
    if edges:
        edge_ids = st.sampled_from([e.id for e in edges])
        stabilizers = draw(st.lists(st.tuples(edge_ids, text), max_size=2))
    name = draw(TEXT)
    vertices = tuple(cyl.SkeletonVertex(v, draw(text)) for v in vs)
    skeleton = cyl.SkeletonGraph(vertices, tuple(edges), name)
    atlas = cyl.CylinderAtlas(tuple(draw(st.permutations(classes))), tuple(stabilizers))
    spec = cli_io.AtlasSpec(skeleton, atlas, tuple(cyl.validate_atlas(skeleton, atlas)))
    return cli_io.Document("atlas", spec, name, draw(COMMENTS))


DOCUMENTS = {
    "gbs": graph_documents("gbs"),
    "master": graph_documents("master"),
    "orbifold": st.builds(
        lambda o, name, comments: cli_io.Document("orbifold", o, name, comments),
        orbifolds_strategy(),
        TEXT,
        COMMENTS,
    ),
    "atlas": atlas_documents(),
}


@pytest.mark.parametrize("kind", DOCUMENTS)
@given(st.data())
def test_document_round_trip(kind, data):
    d = data.draw(DOCUMENTS[kind])
    text = cli_io.serialize(d)
    assert cli_io.parse(text) == d
    assert cli_io.serialize(cli_io.parse(text)) == text


# labels rich in what a quoted DOT string escapes, and in text that looks
# like an escape: a backslash before "n" or before a quote
DOT_LABELS = TEXT | st.text(st.sampled_from('"\\n Z'), max_size=8)
DOT_STRING = re.compile(r'"((?:[^"\\]|\\.)*)"')


def read_dot_strings(dot):
    """Every quoted string of DOT text, in order, read back: an escaped
    backslash or quote is the character itself and an escaped n separates
    a node's id from its label."""
    escapes = {"\\": "\\", '"': '"', "n": "\n"}
    return [
        re.sub(r"\\(.)", lambda m: escapes[m[1]], quoted)
        for quoted in DOT_STRING.findall(dot)
    ]


def labelled(node, label):
    return f"{node}\n{label}" if label else node


@given(atlas_documents(text=DOT_LABELS, group=DOT_LABELS))
def test_dot_labels_read_back(d):
    s, a = d.payload.skeleton, d.payload.atlas
    expected = []
    for v in s.vertices:
        expected += [v.id, labelled(v.id, v.group)]
    for e in s.edges:
        expected += [e.origin, e.terminus] + ([e.group] if e.group else [])
    assert read_dot_strings(cli_io.export_dot(s)) == expected
    # one stabilizer label per cylinder orbit, as the quotient asks
    orbit_of = {eid: part for part in cyl.cylinder_orbits(s, a) for eid in part}
    labels = {orbit_of[eid]: (eid, label) for eid, label in a.stabilizers}
    q = cyl.tree_of_cylinders_quotient(s, dataclasses.replace(a, stabilizers=tuple(labels.values())))
    expected = list(q.v0)
    for yid, label in q.v1:
        expected += [yid, labelled(yid, label)]
    for e in q.edges:
        expected += [e.v0, e.cyl, e.local_class]
    assert read_dot_strings(cli_io.export_dot(q)) == expected

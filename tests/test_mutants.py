"""Standing mutants: each case replaces one function with a known-bad
variant and asserts that a named self-check of the package catches it, so
that check is shown able to fail."""

import functools
import io
import itertools
from collections import Counter

import pytest

import splittings as sp
from splittings import cli_io, gbs, tree_arithmetic as ta
from splittings.errors import IdentityViolation

import test_properties as props
from conftest import INPUTS, make_m3

M3 = make_m3()
BS23 = sp.validate_graph(sp.bs(2, 3))


def W(g, *letters):
    return sp.make_word(g, letters)


@pytest.mark.parametrize(
    "g, w1, w2",
    [
        (BS23, (("t", "e", 1),), (("t", "e", 1),)),
        (BS23, (("t", "e", 1),), (("a", "v", 1), ("t", "e", 1), ("a", "v", -1))),
        (M3, (("t", "e", 1),), (("t", "ep", 1),)),
        (M3, (("t", "e", 1), ("t", "ep", 1)), (("t", "ep", -1),)),
    ],
    ids=["bs23-same", "bs23-meet", "m3-disjoint", "m3-mixed"],
)
def test_axis_gap_catches_a_length_off_by_one_on_products(monkeypatch, g, w1, w2):
    # the two inputs keep their lengths; each product, composed from the
    # inputs' stored passes, reads one too long, which neither the meeting
    # nor the disjoint case of the dichotomy allows
    u1, u2 = W(g, *w1), W(g, *w2)
    sp.axis_gap(g, u1, u2)  # the true lengths pass
    true_length = gbs._composed_length

    def off_by_one(graph, entries):
        return true_length(graph, entries) + 1

    monkeypatch.setattr(gbs, "_composed_length", off_by_one)
    with pytest.raises(IdentityViolation, match="axis dichotomy failed"):
        gbs.axis_gap(g, u1, u2)


def test_route_check_catches_a_route_table_shared_by_all_graphs(monkeypatch):
    # every graph index gets the one dict, as a module-level table would be:
    # the second triangle of the check reads the first one's tree routes
    props.test_route_table_belongs_to_its_graph()
    shared: dict = {}
    monkeypatch.setattr(gbs, "GraphIndex", functools.partial(gbs.GraphIndex, routes=shared))
    with pytest.raises(AssertionError):
        props.test_route_table_belongs_to_its_graph()
    assert shared


def test_cyclic_reference_catches_a_pass_that_stops_after_one_wrap_pinch(monkeypatch):
    # t t (t a) t^-1 t^-1 on BS(2,3): the linear pass keeps all five
    # crossings, and the wrap pinches twice before t a is left
    u = W(BS23, ("t", "e", 1), ("t", "e", 1), ("t", "e", 1), ("a", "v", 1),
          ("t", "e", -1), ("t", "e", -1))
    linear = gbs._linear_reduce(BS23, u)
    entries, _, _ = props.reference_cyclic_reduce(BS23, linear)
    assert gbs._cyclic_reduce(BS23, linear)[0] == 2
    assert len(entries) == 1 == sp.translation_length(BS23, sp.GroupWord(u.base, u.items))

    def one_pinch(g, linear):
        n, k, carry = len(linear) - 1, 0, linear[0][1]
        if n >= 2:
            c, q, _ = linear[n]
            cj, qj, _ = linear[1]
            _, rev, _, _, d, a = gbs._move(g, cj)
            if c is rev and (q + carry) % d == 0:
                k, carry = 1, (q + carry) // d * a + qj
        return k, carry + (linear[n - k][1] if n > 2 * k else 0)

    monkeypatch.setattr(gbs, "_cyclic_reduce", one_pinch)
    fresh = sp.GroupWord(u.base, u.items)
    assert sp.translation_length(BS23, fresh) != len(entries)
    assert sp.crossing_sequence(BS23, fresh) != [c.edge for c, _, _ in entries]


def faulty_search(count_after_asking=False, keep_walking=False):
    # gbs._search with one of two faults: the element count taken after
    # the questions are asked, or the walk read on once every question has
    # answered
    def search(g, L, questions):
        outcomes = dict.fromkeys(questions)
        pending = dict(questions)
        tried = 0
        if pending:
            for w, seq in gbs._elements(g, L):
                tried += not count_after_asking
                for key, ask in list(pending.items()):
                    witness = ask(w, seq)
                    if witness is not None:
                        outcomes[key] = sp.SearchOutcome("found", witness, tried)
                        del pending[key]
                tried += count_after_asking
                if not pending and not keep_walking:
                    break
        for key in pending:
            outcomes[key] = sp.SearchOutcome("exhausted", None, tried)
        return outcomes

    return search


@pytest.mark.parametrize(
    "mutant", [{"count_after_asking": True}, {"keep_walking": True}],
    ids=["counts after asking", "keeps walking"],
)
def test_search_reference_catches_a_faulty_search(monkeypatch, mutant):
    # on M3 at L = 3 every pair of prime factors is separated within the
    # first few elements, long before the walk ends
    check = props.test_squarefree_search_matches_reference.hypothesis.inner_test
    check(M3, 3)
    monkeypatch.setattr(gbs, "_search", faulty_search(**mutant))
    with pytest.raises(AssertionError):
        check(M3, 3)


def elements_keyed_by_items(g, max_len):
    # gbs._elements with each element keyed by its word's items, not by its
    # coset normal form, so words that spell one element are all yielded
    g = sp.validate_graph(g)
    alphabet = [("a", v, k) for v in g.vertices for k in (1, -1)]
    alphabet += [("t", e.id, k) for e in g.edges for k in (1, -1)]
    routes = [sp.make_word(g, (x,)).items for x in alphabet]
    seen = {()}
    frontier = [((), -1)]
    for _ in range(max_len):
        nxt = []
        for items, back in frontier:
            for i, route in enumerate(routes):
                child = items + route
                if i == back or child in seen:
                    continue
                seen.add(child)
                w = sp.GroupWord(g.base, child)
                yield w, sp.crossing_sequence(g, w)
                nxt.append((child, i ^ 1))
        frontier = nxt


def test_element_walk_reference_catches_elements_keyed_by_items(monkeypatch):
    # t[f] crosses the tree edge f and back, so it spells the identity,
    # and t[f] a[u] spells a[u]
    check = props.test_element_walk_matches_string_walk.hypothesis.inner_test
    check(M3, 2)
    monkeypatch.setattr(gbs, "_elements", elements_keyed_by_items)
    with pytest.raises(AssertionError):
        check(M3, 2)


def britton_column_skewed(m, collapses, words):
    # verify_modularity with the first word's count of the first orbit one
    # too high in every Britton column
    counts, shifts = [], []
    for w in words:
        counts.append(Counter(gbs.crossing_sequence(m.graph, w)))
        steps, pending, _ = gbs._normalize_steps(m.graph, w.items)
        twice, _, _ = gbs._normalize_steps(m.graph, w.items, steps, pending)
        shift = Counter(c.edge for c, _ in twice)
        shift.subtract(c.edge for c, _ in steps)
        shifts.append(shift)
    counts[0][m.orbits[0]] += 1
    exact: dict = {}
    failed = []
    for (i, K1), (j, K2) in itertools.combinations(enumerate(collapses), 2):
        for kept in (K1.kept | K2.kept, K1.kept & K2.kept):
            ok = exact.get(kept)
            if ok is None:
                britton = [sum(n for e, n in c.items() if e in kept) for c in counts]
                ok = exact[kept] = ta._coset_lengths(shifts, kept) == britton
            if not ok:
                failed.append((i, j))
                break
    return failed


def test_lattice_verify_catches_a_skewed_britton_column(monkeypatch):
    # the lcm of K1 and K2 on inputs/m3.txt keeps every orbit, the first too
    path = str(INPUTS / "m3.txt")
    assert cli_io.run(["lattice", "verify", path], stdout=io.StringIO(),
                      stderr=io.StringIO()) == 0
    monkeypatch.setattr(ta, "verify_modularity", britton_column_skewed)
    out, err = io.StringIO(), io.StringIO()
    assert cli_io.run(["lattice", "verify", path], stdout=out, stderr=err) == 2
    assert "pair K1,K2: FAILED" in out.getvalue() and "identity violation" in err.getvalue()

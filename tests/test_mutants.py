"""Standing mutants: each case replaces one function with a known-bad
variant and asserts that a named self-check of the package catches it, so
that check is shown able to fail."""

import functools

import pytest

import splittings as sp
from splittings import gbs
from splittings.errors import IdentityViolation

import test_properties as props
from conftest import make_m3

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

"""Standing mutants: each case replaces one function with a known-bad
variant and asserts that a named self-check of the package catches it, so
that check is shown able to fail."""

import pytest

import splittings as sp
from splittings import gbs
from splittings.errors import IdentityViolation

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

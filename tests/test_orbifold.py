import hashlib
import io
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

import splittings as sp
from splittings import cli_io, orbifold
from splittings.errors import (
    ConeOrderTooSmall,
    CornerOrderTooSmall,
    EmptyMixedWord,
    InvalidCircle,
    InvalidOrbifold,
    NotHyperbolic,
    SemanticError,
)
from splittings.orbifold import B, M, BoundaryCircle, Orbifold2
from splittings.report import rational_str

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def orb(orientable=True, genus=0, cones=(), circles=()):
    return sp.validate(Orbifold2(orientable, genus, tuple(cones), tuple(circles)))


def mixed(word, corners=None):
    if corners is None:
        corners = (None,) * len(word)
    return BoundaryCircle.mixed(tuple(word), tuple(corners))


class TestValidation:
    def test_cone_order_too_small(self):
        with pytest.raises(ConeOrderTooSmall):
            orb(cones=(1,))

    def test_corner_order_too_small(self):
        with pytest.raises(CornerOrderTooSmall):
            orb(circles=(mixed((M, M), (1, 2)),))

    def test_empty_mixed_word(self):
        with pytest.raises(EmptyMixedWord):
            orb(circles=(mixed(()),))

    def test_negative_genus(self):
        with pytest.raises(InvalidOrbifold):
            orb(genus=-1)

    def test_nonorientable_needs_genus(self):
        with pytest.raises(InvalidOrbifold):
            orb(orientable=False, genus=0)

    @pytest.mark.parametrize("orientable, genus", [(True, -1), (False, -1), (False, 0)])
    def test_euler_characteristic_checks_the_surface(self, orientable, genus):
        # an unvalidated surface that cannot exist has no chi; the error is
        # validate's, type and message
        o = Orbifold2(orientable, genus, (2, 3))
        with pytest.raises(InvalidOrbifold) as expected:
            sp.validate(o)
        with pytest.raises(InvalidOrbifold) as got:
            sp.euler_characteristic(o)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize(
        "o, error",
        [
            (Orbifold2(True, 1.5, ()), InvalidOrbifold),
            (Orbifold2(False, "1", ()), InvalidOrbifold),
            (Orbifold2(True, 0, (2, "3", 7)), InvalidOrbifold),
            (Orbifold2(True, 0, (), (mixed((M, M), ("2", 3)),)), InvalidCircle),
            (Orbifold2(True, 0, (), (mixed((M, M, B), (2.0, None, None)),)), InvalidCircle),
        ],
    )
    def test_numbers_must_be_integers(self, o, error):
        with pytest.raises(error, match="is not an integer"):
            sp.validate(o)

    @pytest.mark.parametrize("o", [Orbifold2(True, 0.5, ()), Orbifold2(True, 0, (2, "3"))])
    def test_euler_characteristic_needs_integers(self, o):
        with pytest.raises(InvalidOrbifold, match="is not an integer"):
            sp.euler_characteristic(o)

    @pytest.mark.parametrize(
        "c, error",
        [
            (BoundaryCircle("weird"), InvalidCircle),
            (mixed((M, M), ("x", 3)), InvalidCircle),
            (mixed((M, M, B), (2.0, None, None)), InvalidCircle),
            (mixed((M, M)), InvalidCircle),
            (mixed(()), EmptyMixedWord),
        ],
        ids=["unknown-kind", "str-corner", "float-corner", "no-corner", "empty-word"],
    )
    def test_euler_characteristic_checks_the_circles(self, c, error):
        # an unvalidated circle has no share of chi; the error is
        # validate's, type and message
        o = Orbifold2(True, 0, (), (c,))
        with pytest.raises(error) as expected:
            sp.validate(o)
        with pytest.raises(error) as got:
            sp.euler_characteristic(o)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize(
        "c",
        [mixed((B, B)), mixed((M, B, B)), mixed((B, M, M, B), (None, 3, None, None))],
        ids=["all-boundary", "boundary-run", "rotated"],
    )
    def test_euler_characteristic_of_unnormalized_circles(self, c):
        # a valid circle keeps its share of chi through normalization
        o = Orbifold2(False, 1, (2,), (c,))
        assert sp.euler_characteristic(o) == sp.euler_characteristic(sp.validate(o))

    def test_mirror_adjacency_needs_corner(self):
        with pytest.raises(InvalidCircle):
            orb(circles=(mixed((M, M)),))

    def test_corner_must_sit_at_mirror_adjacency(self):
        with pytest.raises(InvalidCircle):
            orb(circles=(mixed((M, B), (2, None)),))

    def test_closed_mirror_has_no_self_corner(self):
        with pytest.raises(InvalidCircle):
            orb(circles=(mixed((M,), (2,)),))

    @pytest.mark.parametrize(
        "circle, message",
        [
            (BoundaryCircle("plain", (M,)), "plain circle carries a word or corners"),
            (BoundaryCircle("plain", (), (2,)), "plain circle carries a word or corners"),
            (BoundaryCircle("weird"), "unknown circle kind 'weird'"),
            (BoundaryCircle("mixed", (M, M), (2,)), "corners and word lengths differ"),
            (mixed((M, "X")), "unknown boundary token 'X'"),
            (mixed((B, B), (None, 3)), "corner order on a boundary segment"),
            # a long name is clipped
            (BoundaryCircle("k" * 100), "unknown circle kind 'kkkkkkkkkkkkkkkkkkkk'... (100 chars)"),
            (mixed((M, "t" * 100)), "unknown boundary token 'tttttttttttttttttttt'... (100 chars)"),
            (mixed((M, ("x",) * 30)), "unknown boundary token ('x', 'x', 'x', 'x',... (150 chars)"),
        ],
        ids=[
            "plain-word", "plain-corner", "kind", "lengths", "token", "boundary-corner",
            "long-kind", "long-token", "foreign-token",
        ],
    )
    def test_circle_checks(self, circle, message):
        with pytest.raises(InvalidCircle) as got:
            orb(circles=(circle,))
        assert str(got.value) == message

    def test_orders_past_the_digit_limit_fail_as_package_errors(self):
        # such an integer has no decimal text; the message names its size
        huge = -(10**5000)
        text = f"<negative integer of {huge.bit_length()} bits>"
        with pytest.raises(ConeOrderTooSmall) as got:
            orb(cones=(2, huge))
        assert str(got.value) == f"cone order {text} < 2"
        with pytest.raises(CornerOrderTooSmall) as got:
            orb(circles=(mixed((M, M), (2, huge)),))
        assert str(got.value) == f"corner order {text} < 2"

    def test_adjacent_boundary_segments_merge(self):
        o = orb(circles=(mixed((B, B, M)),))
        (c,) = o.circles
        assert c.word == (B, M)

    def test_all_boundary_circle_becomes_plain(self):
        o = orb(circles=(mixed((B, B)),))
        (c,) = o.circles
        assert c.is_plain()

    @pytest.mark.parametrize(
        "circle",
        [mixed((B,)), mixed((B, B, B)), BoundaryCircle("plain", (), (None,))],
        ids=["B", "BBB", "plain-with-empty-corner"],
    )
    def test_every_plain_circle_validates_to_one_value(self, circle):
        assert orb(circles=(circle,)).circles == (BoundaryCircle.plain(),)

    def test_canonical_form_is_rotation_invariant(self):
        a = orb(circles=(mixed((M, M, B), (2, None, None)),))
        b = orb(circles=(mixed((M, B, M), (None, None, 2)),))
        assert a == b

    def test_canonical_form_is_reflection_invariant(self):
        word = (M, M, B, M, M, B)
        corners = (2, None, None, 3, None, None)
        n = len(word)
        rword = tuple(reversed(word))
        rcorners = tuple(corners[(n - 2 - j) % n] for j in range(n))
        assert orb(circles=(mixed(word, corners),)) == orb(
            circles=(mixed(rword, rcorners),)
        )

    def test_cones_sorted(self):
        assert orb(cones=(7, 2, 3)).cone_points == (2, 3, 7)


class TestEulerCharacteristic:
    def test_triangle_group_2_3_7(self, turnover):
        assert sp.euler_characteristic(turnover) == Fraction(-1, 42)

    def test_pair_of_pants(self, pants):
        assert sp.euler_characteristic(pants) == Fraction(-1)

    def test_mirror_disc(self, mirror_disc):
        assert sp.euler_characteristic(mirror_disc) == Fraction(-1, 2)
        assert sp.is_hyperbolic(mirror_disc)

    def test_sphere_2_2_2_not_hyperbolic(self):
        o = orb(cones=(2, 2, 2))
        assert sp.euler_characteristic(o) == Fraction(1, 2)
        assert not sp.is_hyperbolic(o)

    def test_torus_flat(self):
        assert sp.euler_characteristic(orb(genus=1)) == 0

    def test_klein_bottle_flat(self):
        assert sp.euler_characteristic(orb(orientable=False, genus=2)) == 0

    def test_cone_decrement(self):
        base = orb(genus=1)
        coned = orb(genus=1, cones=(5,))
        assert sp.euler_characteristic(coned) == sp.euler_characteristic(
            base
        ) - Fraction(4, 5)

    def test_closed_mirror_costs_nothing(self):
        # a circular mirror replaces a plain circle at equal chi
        a = orb(genus=1, circles=(BoundaryCircle.plain(),))
        b = orb(genus=1, circles=(mixed((M,)),))
        assert sp.euler_characteristic(a) == sp.euler_characteristic(b)


class TestBoundaryComponents:
    def test_pants_boundary(self, pants):
        comps = sp.boundary_components(pants)
        assert comps == [{"kind": "circle", "group": "Z"}] * 3

    def test_mirror_disc_boundary(self, mirror_disc):
        comps = sp.boundary_components(mirror_disc)
        assert comps == [{"kind": "segment", "group": "D_infinity"}] * 2

    def test_closed_orbifold_has_none(self, turnover):
        assert sp.boundary_components(turnover) == []


class TestSmall:
    def test_pants_family_1(self, pants):
        v = sp.is_small(pants)
        assert v.small and v.family == 1

    def test_sphere_three_cones_family_1(self, turnover):
        assert sp.is_small(turnover).family == 1

    def test_disc_two_cones_family_1(self):
        v = sp.is_small(orb(cones=(3, 4), circles=(BoundaryCircle.plain(),)))
        assert v.small and v.family == 1

    def test_annulus_one_cone_family_1(self):
        v = sp.is_small(orb(cones=(2,), circles=(BoundaryCircle.plain(),) * 2))
        assert v.small and v.family == 1

    def test_mirror_boundary_disc_with_cone_family_2(self):
        v = sp.is_small(orb(cones=(3,), circles=(mixed((M, B)),)))
        assert v.small and v.family == 2

    def test_annulus_with_mirror_family_3(self):
        v = sp.is_small(
            orb(circles=(mixed((M, B)), BoundaryCircle.plain()))
        )
        assert v.small and v.family == 3

    def test_three_mirror_disc_family_4(self):
        c = mixed((M, M, M), (2, 3, 7))
        v = sp.is_small(orb(circles=(c,)))
        assert v.small and v.family == 4

    def test_three_mirror_disc_with_segments_family_4(self):
        c = mixed((M, B, M, B, M, B))
        v = sp.is_small(orb(circles=(c,)))
        assert v.small and v.family == 4

    def test_sphere_four_cones_not_small(self):
        assert not sp.is_small(orb(cones=(2, 2, 2, 3))).small

    def test_punctured_torus_not_small(self):
        assert not sp.is_small(orb(genus=1, circles=(BoundaryCircle.plain(),))).small

    def test_four_boundary_sphere_not_small(self):
        assert not sp.is_small(orb(circles=(BoundaryCircle.plain(),) * 4)).small

    def test_not_hyperbolic_raises(self):
        with pytest.raises(NotHyperbolic):
            sp.is_small(orb(cones=(2, 2, 2)))


class TestFiniteMcg:
    def test_not_hyperbolic_raises(self):
        with pytest.raises(NotHyperbolic, match="mapping-class-group classification"):
            sp.has_finite_mcg(orb(cones=(2, 2, 2)))

    def test_pants(self, pants):
        v = sp.has_finite_mcg(pants)
        assert v.finite and v.family == "S2_3"

    def test_twice_punctured_projective_plane(self):
        v = sp.has_finite_mcg(
            orb(orientable=False, genus=1, circles=(BoundaryCircle.plain(),) * 2)
        )
        assert v.finite and v.family == "P2_2"

    def test_projective_plane_two_cones(self):
        v = sp.has_finite_mcg(orb(orientable=False, genus=1, cones=(3, 5)))
        assert v.finite and v.family == "P2_2"

    def test_once_punctured_torus_infinite(self):
        v = sp.has_finite_mcg(orb(genus=1, circles=(BoundaryCircle.plain(),)))
        assert not v.finite
        assert v.note is not None

    def test_mirror_disc_is_s2_1(self, mirror_disc):
        v = sp.has_finite_mcg(mirror_disc)
        assert v.finite and v.family == "S2_1"

    def test_disc_with_cone_not_s2_1(self):
        # S2_1 requires no conical point
        v = sp.has_finite_mcg(orb(cones=(3,), circles=(mixed((M, B)),)))
        assert v.finite and v.family == "S2_2"

    def test_annulus_nonsimple_plus_circular_mirror_s2_2(self):
        v = sp.has_finite_mcg(orb(circles=(mixed((M, B)), mixed((M,)))))
        assert v.finite and v.family == "S2_2"

    def test_moebius_nonsimple_boundary_p2_1(self):
        v = sp.has_finite_mcg(
            orb(orientable=False, genus=1, circles=(mixed((M, B)),))
        )
        assert v.finite and v.family == "P2_1"

    def test_moebius_nonsimple_with_cone_infinite(self):
        v = sp.has_finite_mcg(
            orb(orientable=False, genus=1, cones=(3,), circles=(mixed((M, B)),))
        )
        assert not v.finite

    def test_sphere_with_three_circular_mirrors(self):
        v = sp.has_finite_mcg(orb(circles=(mixed((M,)),) * 3))
        assert v.finite and v.family == "S2_3"

    def test_two_nonsimple_circles_infinite(self):
        v = sp.has_finite_mcg(orb(circles=(mixed((M, B)), mixed((M, B)))))
        assert not v.finite


class TestEnumerate:
    def test_budget_zero_empty(self):
        assert sp.enumerate_orbifolds(0) == []

    def test_budget_one(self):
        # hand count: sphere+cone(q) is cost 2, so only plain-circle sphere,
        # torus, projective plane fit in budget 1... the sphere alone has no
        # feature and is excluded.
        got = sp.enumerate_orbifolds(1)
        shapes = {(o.orientable, o.genus, o.cone_points, o.circles) for o in got}
        disc = (True, 0, (), (BoundaryCircle.plain(),))
        torus = (True, 1, (), ())
        proj = (False, 1, (), ())
        assert shapes == {disc, torus, proj}

    def test_budget_three_count_frozen(self):
        # oracle: hand enumeration by genus, 2026-08: orientable genus 0
        # splits 3 (cost1) + 7 (cost2) + 17 (cost3) = 27, genus 1 gives 11,
        # genus 2 gives 4, genus 3 gives 1; non-orientable mirrors genus 1-3
        # with 11 + 4 + 1.
        orbs = sp.enumerate_orbifolds(3)
        assert len(orbs) == 59
        by_genus = {}
        for o in orbs:
            key = (o.orientable, o.genus)
            by_genus[key] = by_genus.get(key, 0) + 1
        assert by_genus == {
            (True, 0): 27,
            (True, 1): 11,
            (True, 2): 4,
            (True, 3): 1,
            (False, 1): 11,
            (False, 2): 4,
            (False, 3): 1,
        }

    def test_no_duplicates(self):
        orbs = sp.enumerate_orbifolds(4)
        assert len(orbs) == len(set(orbs))

    def test_feature_bound_respected(self):
        for o in sp.enumerate_orbifolds(4):
            assert 1 <= sp.feature_count(o) <= 4
            for q in o.cone_points:
                assert q <= 4
            for c in o.circles:
                for r in c.corner_orders():
                    assert r <= 4

    def test_deterministic(self):
        assert sp.enumerate_orbifolds(4) == sp.enumerate_orbifolds(4)

    def test_all_validated(self):
        for o in sp.enumerate_orbifolds(3):
            assert sp.validate(o) == o

    def test_no_duplicates_budget_5(self):
        orbs = sp.enumerate_orbifolds(5)
        assert len(orbs) == len(set(orbs)) == 1445

    def test_all_validated_budget_5(self):
        for o in sp.enumerate_orbifolds(5):
            assert sp.validate(o) == o


# -- independent census count ---------------------------------------------------
#
# A mixed circle of length n >= 2 is a closed walk of n steps on the states
# (M, B) with transfer matrix T = [[b - 1, 1], [1, 0]]: an M-M step carries one
# of the b - 1 corner orders, and B-B is forbidden. Burnside's lemma over the
# dihedral group of order 2n counts the circles up to rotation and reflection;
# the closed mirror (M) is the only circle of length 1. Rows then come from the
# multiset (Euler) transform of shapes by cost, times cone multisets and genus
# choices (Flajolet-Sedgewick, Analytic Combinatorics, I.2).


def _mat_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
        for i in range(2)
    )


def _mat_pow(t, k):
    out = ((1, 0), (0, 1))
    for _ in range(k):
        out = _mat_mul(out, t)
    return out


def _burnside_shapes(budget):
    """Mixed circles by word length 1 .. budget - 1, corner orders <= budget."""
    t = ((budget - 1, 1), (1, 0))
    st = range(2)
    counts = {}
    for n in range(1, budget):
        if n == 1:
            counts[n] = 1
            continue
        fixed = sum(
            _mat_pow(t, math.gcd(n, k))[0][0] + _mat_pow(t, math.gcd(n, k))[1][1]
            for k in range(n)
        )
        if n % 2:
            p = _mat_pow(t, (n - 1) // 2)
            fixed += n * sum(p[s][x] * t[x][x] for s in st for x in st)
        else:
            p, q = _mat_pow(t, n // 2), _mat_pow(t, n // 2 - 1)
            fixed += n // 2 * (
                sum(p[s][x] for s in st for x in st)
                + sum(t[s][s] * q[s][x] * t[x][x] for s in st for x in st)
            )
        assert fixed % (2 * n) == 0
        counts[n] = fixed // (2 * n)
    return counts


def _multisets_by_cost(types_by_cost, top):
    """Coefficients 0..top of prod_c (1 - x^c)^(-types_by_cost[c])."""
    series = [1] + [0] * top
    for cost, types in types_by_cost.items():
        if not types:
            continue
        out = [0] * (top + 1)
        for m, a in enumerate(series):
            for j in range((top - m) // cost + 1):
                out[m + cost * j] += a * math.comb(types + j - 1, j)
        series = out
    return series


def _census_rows(budget):
    shapes = {1: 1}
    shapes.update({n + 1: k for n, k in _burnside_shapes(budget).items()})
    circles = _multisets_by_cost(shapes, budget)
    cones = _multisets_by_cost({1: max(0, budget - 1)}, budget)  # orders 2..budget
    genus = [1] + [2] * budget  # orientable genus g, or g >= 1 cross-caps
    total = sum(
        genus[g] * cones[k] * circles[m]
        for g in range(budget + 1)
        for k in range(budget + 1 - g)
        for m in range(budget + 1 - g - k)
    )
    return total - 1  # the sphere has no feature


CENSUS = [0, 3, 14, 59, 271, 1445, 9259, 73818, 755625]


class TestCensusCount:
    @pytest.mark.parametrize("budget", range(2, 8))
    def test_shapes_per_length_match_burnside(self, budget):
        shapes = orbifold._circle_shapes(budget)
        got = Counter(len(c.word) for c in shapes if not c.is_plain())
        assert dict(got) == _burnside_shapes(budget)
        assert sum(c.is_plain() for c in shapes) == 1

    def test_budget_7_shapes_by_length(self):
        counts = _burnside_shapes(7)
        assert [counts[n] for n in range(1, 7)] == [1, 22, 62, 253, 1020, 5000]

    def test_row_counts_closed_form(self):
        assert [_census_rows(b) for b in range(9)] == CENSUS

    @pytest.mark.parametrize("budget", range(7))
    def test_enumeration_matches_count(self, budget):
        assert len(sp.enumerate_orbifolds(budget)) == _census_rows(budget)


class TestCanonicalShapes:
    @pytest.mark.parametrize("budget", range(7))
    def test_shapes_are_the_validated_words(self, budget):
        # every decorated M/B word of length < budget, canonicalized by
        # validate over all rotations and reflections
        expect = {BoundaryCircle.plain()} if budget >= 1 else set()
        for length in range(1, budget):
            for word in itertools.product((M, B), repeat=length):
                mm = [
                    i
                    for i in range(length)
                    if length >= 2 and word[i] == word[(i + 1) % length] == M
                ]
                for orders in itertools.product(range(2, budget + 1), repeat=len(mm)):
                    corners = [None] * length
                    for i, r in zip(mm, orders):
                        corners[i] = r
                    (c,) = orb(circles=(mixed(word, corners),)).circles
                    expect.add(c)
        got = orbifold._circle_shapes(budget)
        assert len(got) == len(set(got))
        assert set(got) == expect
        assert got == sorted(got, key=BoundaryCircle.sort_key)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_dihedral_maps_act_on_circles(self, n):
        # the image of each map is the same circle read from another start
        # or the other way round; mirror-mirror corners follow their arcs
        word = tuple(M if i % 3 else B for i in range(n))
        corners = tuple(range(10, 10 + n))
        images = [
            (tuple(word[j] for j in p), tuple(corners[j] for j in q))
            for p, q in orbifold._dihedral_maps(n)
        ]
        assert len(images) == 2 * n and images[0] == (word, corners)
        for w, c in images:
            pairs = {(frozenset((w[i], w[(i + 1) % n])), c[i]) for i in range(n)}
            assert pairs == {
                (frozenset((word[i], word[(i + 1) % n])), corners[i]) for i in range(n)
            }


def _whole_document_census(budget, as_json):
    """The census output as the CLI wrote it before it streamed: one dict
    per row with chi from euler_characteristic and the public verdicts, and
    one json.dumps of the whole document."""
    rows = []
    for o in sp.enumerate_orbifolds(budget):
        chi = sp.euler_characteristic(o)
        row = {
            "orientable": o.orientable,
            "genus": o.genus,
            "cone": list(o.cone_points),
            "circles": [cli_io._circle_text(c) for c in o.circles],
            "chi": rational_str(chi),
            "hyperbolic": chi < 0,
        }
        if chi < 0:
            sv, mv = sp.is_small(o), sp.has_finite_mcg(o)
            row["small"] = sv.small
            row["small_family"] = sv.family
            row["finite_mcg"] = mv.finite
            row["mcg_family"] = mv.family
        rows.append(row)
    if as_json:
        obj = {
            "operation": "orbifold.enumerate",
            "tool": {"name": "splittings", "version": sp.__version__},
            "input_digest": hashlib.sha256(f"budget={budget}".encode()).hexdigest(),
            "seed": None,
            "budget": budget,
            "count": len(rows),
            "orbifolds": rows,
        }
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"
    lines = [f"count = {len(rows)}\n"]
    for row in rows:
        desc = "orientable" if row["orientable"] else "non-orientable"
        parts = [f"{desc} genus={row['genus']}"]
        if row["cone"]:
            parts.append("cone=" + ",".join(map(str, row["cone"])))
        for c in row["circles"]:
            parts.append(f"circle[{c}]")
        flags = f"chi={row['chi']}"
        if row["hyperbolic"]:
            flags += f" small={str(row['small']).lower()}"
            flags += f" finite_mcg={str(row['finite_mcg']).lower()}"
        lines.append(" ".join(parts) + " | " + flags + "\n")
    return "".join(lines)


class TestCensusRows:
    @pytest.mark.parametrize("budget", range(6))
    def test_rows_match_reference_invariants(self, budget):
        # chi against the Fraction reference, verdicts against the public
        # classifiers, each computed per row from the orbifold alone
        census = sp.census(budget, lambda small, mcg: (small, mcg))
        rows = list(census.rows)
        assert census.count == len(rows) == len(sp.enumerate_orbifolds(budget))
        for orientable, genus, i, j, n, d, verdict in rows:
            o = Orbifold2(orientable, genus, census.cones[i], census.circles[j])
            assert sp.validate(o) == o
            chi = sp.euler_characteristic(o)
            assert (n, d) == (chi.numerator, chi.denominator)
            if chi < 0:
                assert verdict == (sp.is_small(o), sp.has_finite_mcg(o))
            else:
                assert verdict is None


def _run_census(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli_io.run(["orbifold", "enumerate", *argv], stdout=out, stderr=err)
    assert code == 0, err.getvalue()
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


class TestCensusOutput:
    # sha256 of the command output, computed before the census was rewritten
    @pytest.mark.parametrize(
        "argv, digest",
        [
            (("--budget", "5"), "d127536e975be34b0a557a2086756679f5964e5cb2a0acc42f1162585bdd5d87"),
            (("--budget", "5", "--json"), "047d2b76e0b9098c1df48dd8d18ad74b1d227f258398e9baa23bd9de3b011618"),
            (("--budget", "6"), "74147e922acd3331524209cb9914cf5070b6e789753874e4e0748b522615b776"),
            (("--budget", "6", "--json"), "83c7a3d700a4019376cc95b0e7a1c88a53854e792f4066d7a8cb8ad8d39eadcd"),
            (("--budget", "7"), "ebd63a57ab91866298fb722e441987b34e24243f620adbf10c79e8c58fb7be28"),
            (("--budget", "7", "--json"), "4c207b7dd70995cb885f72ceccabe80ef8571b6a7546a2d20ee663352cce8d22"),
        ],
        ids=["5-text", "5-json", "6-text", "6-json", "7-text", "7-json"],
    )
    def test_output_digest_pinned(self, argv, digest):
        assert _run_census(*argv) == digest

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    @pytest.mark.parametrize("seed", [None, "-3", "42"])
    @pytest.mark.parametrize("budget", range(6))
    def test_output_matches_whole_document_path(self, budget, seed, as_json):
        # the census samples nothing, so a seed is refused before any row
        argv = ["orbifold", "enumerate", "--budget", str(budget)]
        argv += ["--seed", seed] * (seed is not None) + ["--json"] * as_json
        out, err = io.StringIO(), io.StringIO()
        code = cli_io.run(argv, stdout=out, stderr=err)
        if seed is not None:
            assert code == 1 and out.getvalue() == ""
            assert f"unrecognized arguments: --seed {seed}" in err.getvalue()
            return
        assert code == 0
        assert out.getvalue() == _whole_document_census(budget, as_json)

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc"
    )
    def test_budget_7_json_memory(self):
        # The child reads its own peak after the run. Not ru_maxrss: Linux
        # carries it across exec from the forking process, here the test
        # runner, and RUSAGE_CHILDREN also holds other tests' children.
        # VmHWM is the peak of the child's own address space.
        child = (
            "import sys\n"
            "from splittings import cli_io\n"
            "code = cli_io.run(['orbifold', 'enumerate', '--budget', '7', '--json'])\n"
            "with open('/proc/self/status') as fh:\n"
            "    peak = next(l.split()[1] for l in fh if l.startswith('VmHWM:'))\n"
            "sys.stderr.write(f'{code} {peak}')\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", child],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
        code, peak_kib = map(int, proc.stderr.split())
        assert code == 0
        assert peak_kib < 100 * 1024

    def test_over_cap_raises_before_work(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("census work started")

        monkeypatch.setattr(orbifold, "_circle_shapes", no_work)
        cap = orbifold.CENSUS_MAX_BUDGET
        with pytest.raises(SemanticError, match=f"CENSUS_MAX_BUDGET = {cap}"):
            sp.enumerate_orbifolds(cap + 1)

    @pytest.mark.parametrize(
        "budget", [-1, -(10**5000), 10**5000], ids=["-1", "-10^5000", "10^5000"]
    )
    def test_out_of_range_budget_raises_before_work(self, monkeypatch, budget):
        # 10^5000 is past the interpreter's limit on digits for str()
        def no_work(*args):
            raise AssertionError("census work started")

        monkeypatch.setattr(orbifold, "_circle_shapes", no_work)
        with pytest.raises(SemanticError) as exc:
            sp.enumerate_orbifolds(budget)
        assert len(str(exc.value).encode()) < 300

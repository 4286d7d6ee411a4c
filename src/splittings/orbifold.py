"""Compact 2-orbifolds with cone points, mirrors, and corner reflectors.

An orbifold is described by its underlying compact surface (orientability,
genus, number of boundary circles), a multiset of cone orders, and a pattern
on each boundary circle: either the whole circle is boundary ("plain"), or it
is a cyclic word of mirror arcs (M) and boundary segments (B), with a corner
reflector of order r >= 2 at every adjacency of two mirror arcs. A circle
consisting of a single M is a closed smooth mirror and has no junctions.

Everything is exact: the Euler characteristic is a Fraction and hyperbolicity
is the strict inequality chi < 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .errors import (
    ConeOrderTooSmall,
    CornerOrderTooSmall,
    EmptyMixedWord,
    InvalidCircle,
    InvalidOrbifold,
    NotHyperbolic,
)

M = "M"
B = "B"


@dataclass(frozen=True)
class BoundaryCircle:
    """A boundary circle of the underlying surface.

    kind "plain": a full boundary circle, word and corners empty.
    kind "mixed": word is a nonempty cyclic tuple over {"M", "B"}; corners[i]
    is the corner order at the adjacency between word[i] and word[(i+1) % n],
    an int >= 2 exactly at M-M adjacencies and None elsewhere. A length-1
    word ("M",) is a closed mirror circle with corners (None,).
    """

    kind: str
    word: tuple[str, ...] = ()
    corners: tuple[Optional[int], ...] = ()

    @staticmethod
    def plain() -> "BoundaryCircle":
        return BoundaryCircle("plain")

    @staticmethod
    def mixed(word, corners=None) -> "BoundaryCircle":
        word = tuple(word)
        if corners is None:
            corners = (None,) * len(word)
        return BoundaryCircle("mixed", word, tuple(corners))

    def is_plain(self) -> bool:
        return self.kind == "plain"

    def is_closed_mirror(self) -> bool:
        return self.kind == "mixed" and self.word == (M,)

    def is_simple(self) -> bool:
        """No mirror at all, or a single closed mirror."""
        return self.is_plain() or self.is_closed_mirror()

    def mirror_arcs(self) -> int:
        return sum(1 for x in self.word if x == M)

    def boundary_segments(self) -> int:
        return sum(1 for x in self.word if x == B)

    def adjacencies(self) -> Iterator[tuple[str, str, Optional[int]]]:
        """Cyclic adjacencies (token, next token, corner order); none for a
        length-1 word (a closed mirror has zero junctions)."""
        n = len(self.word)
        if self.kind != "mixed" or n <= 1:
            return
        for i in range(n):
            yield self.word[i], self.word[(i + 1) % n], self.corners[i]

    def corner_orders(self) -> list[int]:
        return [r for _, _, r in self.adjacencies() if r is not None]

    def junctions(self) -> int:
        """Number of mirror-boundary junctions on this circle."""
        return sum(1 for a, b, _ in self.adjacencies() if a != b)

    def sort_key(self):
        return (
            0 if self.kind == "plain" else 1,
            self.word,
            tuple(0 if r is None else r for r in self.corners),
        )


@dataclass(frozen=True)
class Orbifold2:
    """orientable: of the underlying surface; genus counts handles if
    orientable, cross-caps otherwise; cone_points is a multiset of orders."""

    orientable: bool
    genus: int
    cone_points: tuple[int, ...] = ()
    circles: tuple[BoundaryCircle, ...] = ()


# -- normalization -----------------------------------------------------------

def _merge_boundary_runs(word, corners):
    """Merge cyclically adjacent B tokens. Mirrors are never merged."""
    n = len(word)
    if M not in word:
        return None  # all boundary: the circle is plain
    start = word.index(M)
    out: list[tuple[str, Optional[int]]] = []
    for i in range(n):
        tok = word[(start + i) % n]
        cor = corners[(start + i) % n]
        if tok == B and out and out[-1][0] == B:
            continue
        out.append((tok, cor))
    return tuple(t for t, _ in out), tuple(c for _, c in out)


def _rotations_and_reflections(word, corners):
    n = len(word)
    for k in range(n):
        yield (
            tuple(word[(i + k) % n] for i in range(n)),
            tuple(corners[(i + k) % n] for i in range(n)),
        )
    rword = tuple(reversed(word))
    rcorners = tuple(corners[(n - 2 - j) % n] for j in range(n))
    for k in range(n):
        yield (
            tuple(rword[(i + k) % n] for i in range(n)),
            tuple(rcorners[(i + k) % n] for i in range(n)),
        )


def _canonical_mixed(word, corners) -> BoundaryCircle:
    def key(wc):
        w, c = wc
        return (w, tuple(0 if r is None else r for r in c))

    w, c = min(_rotations_and_reflections(word, corners), key=key)
    return BoundaryCircle("mixed", w, c)


def _validate_circle(c: BoundaryCircle) -> Optional[BoundaryCircle]:
    """Normalized circle, or None when the circle reduces to plain."""
    if c.kind == "plain":
        if c.word or any(r is not None for r in c.corners):
            raise InvalidCircle("plain circle carries a word or corners")
        return c
    if c.kind != "mixed":
        raise InvalidCircle(f"unknown circle kind {c.kind!r}")
    if not c.word:
        raise EmptyMixedWord("mixed circle with empty word")
    if len(c.corners) != len(c.word):
        raise InvalidCircle("corners and word lengths differ")
    for tok in c.word:
        if tok not in (M, B):
            raise InvalidCircle(f"unknown boundary token {tok!r}")
    merged = _merge_boundary_runs(c.word, c.corners)
    if merged is None:
        if any(r is not None for r in c.corners):
            raise InvalidCircle("corner order on a boundary segment")
        return None
    word, corners = merged
    if len(word) == 1:
        # single closed mirror: zero junctions, no self-corner
        if corners[0] is not None:
            raise InvalidCircle("self-corner on a closed mirror circle")
        return BoundaryCircle("mixed", word, corners)
    n = len(word)
    for i in range(n):
        a, b, r = word[i], word[(i + 1) % n], corners[i]
        if a == M and b == M:
            if r is None:
                raise InvalidCircle("mirror-mirror adjacency without a corner order")
            if r < 2:
                raise CornerOrderTooSmall(f"corner order {r} < 2")
        elif r is not None:
            raise InvalidCircle("corner order at a non mirror-mirror adjacency")
    return _canonical_mixed(word, corners)


def validate(o: Orbifold2) -> Orbifold2:
    """Check invariants and return the normalized orbifold: cones sorted,
    boundary runs merged, mixed words in canonical rotation/reflection,
    circles sorted."""
    if o.genus < 0:
        raise InvalidOrbifold("negative genus")
    if not o.orientable and o.genus < 1:
        raise InvalidOrbifold("a non-orientable surface needs at least one cross-cap")
    for q in o.cone_points:
        if q < 2:
            raise ConeOrderTooSmall(f"cone order {q} < 2")
    circles = []
    for c in o.circles:
        nc = _validate_circle(c)
        circles.append(BoundaryCircle.plain() if nc is None else nc)
    circles.sort(key=BoundaryCircle.sort_key)
    return Orbifold2(
        o.orientable, o.genus, tuple(sorted(o.cone_points)), tuple(circles)
    )


# -- invariants ----------------------------------------------------------------

def euler_characteristic(o: Orbifold2) -> Fraction:
    """Exact orbifold Euler characteristic.

    chi(surface) minus (1 - 1/q) per cone, minus (1 - 1/r)/2 per corner
    reflector, minus 1/4 per mirror-boundary junction; chi(surface) is
    2 - 2*genus - b for orientable, 2 - genus - b otherwise, with b the
    number of boundary circles.

    >>> euler_characteristic(validate(Orbifold2(True, 0, (2, 3, 7))))
    Fraction(-1, 42)
    """
    b = len(o.circles)
    if o.orientable:
        chi = Fraction(2 - 2 * o.genus - b)
    else:
        chi = Fraction(2 - o.genus - b)
    for q in o.cone_points:
        chi -= 1 - Fraction(1, q)
    for c in o.circles:
        for r in c.corner_orders():
            chi -= Fraction(1, 2) * (1 - Fraction(1, r))
        chi -= Fraction(1, 4) * c.junctions()
    return chi


def is_hyperbolic(o: Orbifold2) -> bool:
    return euler_characteristic(o) < 0


def boundary_components(o: Orbifold2) -> list[dict]:
    """One entry per plain circle (group Z) and per boundary segment of a
    mixed circle (group D_infinity). Mirror arcs are not boundary."""
    out = []
    for c in o.circles:
        if c.is_plain():
            out.append({"kind": "circle", "group": "Z"})
        else:
            for _ in range(c.boundary_segments()):
                out.append({"kind": "segment", "group": "D_infinity"})
    return out


# -- classification -------------------------------------------------------------

@dataclass(frozen=True)
class SmallVerdict:
    small: bool
    family: Optional[int] = None


@dataclass(frozen=True)
class McgVerdict:
    finite: bool
    family: Optional[str] = None
    note: Optional[str] = None


def _is_mb(c: BoundaryCircle) -> bool:
    """One mirror arc and one boundary segment."""
    return c.kind == "mixed" and sorted(c.word) == [B, M]


def is_small(o: Orbifold2) -> SmallVerdict:
    """Whether the orbifold contains no essential simple closed geodesic.

    Families: (1) mirror-free planar with boundary circles + cones = 3;
    (2) disc whose circle is one mirror arc and one boundary segment, with
    exactly one cone; (3) annulus, one circle mixed as in (2) and the other
    plain, no cone; (4) disc bounded by three mirror arcs and at most three
    boundary segments, no cone.
    """
    if not is_hyperbolic(o):
        raise NotHyperbolic("small-orbifold classification needs chi < 0")
    if not (o.orientable and o.genus == 0):
        return SmallVerdict(False)
    b = len(o.circles)
    ncones = len(o.cone_points)
    if all(c.is_plain() for c in o.circles):
        if b + ncones == 3:
            return SmallVerdict(True, 1)
        return SmallVerdict(False)
    if b == 1 and _is_mb(o.circles[0]) and ncones == 1:
        return SmallVerdict(True, 2)
    if (
        b == 2
        and ncones == 0
        and any(c.is_plain() for c in o.circles)
        and any(_is_mb(c) for c in o.circles)
    ):
        return SmallVerdict(True, 3)
    if b == 1 and ncones == 0 and o.circles[0].mirror_arcs() == 3:
        return SmallVerdict(True, 4)
    return SmallVerdict(False)


_MCG_NOTE = "not in the finite-mapping-class-group list; reported infinite"


def has_finite_mcg(o: Orbifold2) -> McgVerdict:
    """Whether the interior carries no 2-sided essential geodesic, so the
    mapping class group is finite.

    Patterns, with "simple" meaning a plain circle or a single closed
    mirror: (S2,3) sphere with 3 features from {cone, simple circle};
    (S2,2) one non-simple circle plus one feature from {cone, simple
    circle}; (S2,1) disc with non-simple boundary, no cone; (P2,2)
    projective plane with 2 features from {cone, simple circle}; (P2,1)
    Moebius band with non-simple boundary, no cone.
    """
    if not is_hyperbolic(o):
        raise NotHyperbolic("mapping-class-group classification needs chi < 0")
    nonsimple = [c for c in o.circles if not c.is_simple()]
    simple = [c for c in o.circles if c.is_simple()]
    ncones = len(o.cone_points)
    if o.orientable and o.genus == 0:
        if not nonsimple and len(o.circles) + ncones == 3:
            return McgVerdict(True, "S2_3")
        if len(nonsimple) == 1 and len(simple) + ncones == 1:
            return McgVerdict(True, "S2_2")
        if len(nonsimple) == 1 and not simple and ncones == 0:
            return McgVerdict(True, "S2_1")
    if not o.orientable and o.genus == 1:
        if not nonsimple and len(o.circles) + ncones == 2:
            return McgVerdict(True, "P2_2")
        if len(nonsimple) == 1 and not simple and ncones == 0:
            return McgVerdict(True, "P2_1")
    return McgVerdict(False, None, _MCG_NOTE)


# -- enumeration ----------------------------------------------------------------

def feature_count(o: Orbifold2) -> int:
    """genus + circles + cones + mirror arcs + boundary segments."""
    return (
        o.genus
        + len(o.circles)
        + len(o.cone_points)
        + sum(len(c.word) for c in o.circles)
    )


def _circle_shapes(max_cost: int, budget: int) -> list[BoundaryCircle]:
    """All normalized circles of cost (1 + word length) <= max_cost, with
    corner orders in [2, budget]."""
    shapes = []
    if max_cost >= 1:
        shapes.append(BoundaryCircle.plain())
    seen = set()
    for length in range(1, max(0, max_cost - 1) + 1):
        for word in itertools.product((M, B), repeat=length):
            if B in word and M not in word:
                continue
            if length >= 2 and any(
                word[i] == B and word[(i + 1) % length] == B for i in range(length)
            ):
                continue
            mm = [
                i
                for i in range(length)
                if length >= 2 and word[i] == M and word[(i + 1) % length] == M
            ]
            order_choices = (
                itertools.product(range(2, budget + 1), repeat=len(mm))
                if mm
                else [()]
            )
            for orders in order_choices:
                corners: list[Optional[int]] = [None] * length
                for i, r in zip(mm, orders):
                    corners[i] = r
                circle = _canonical_mixed(word, tuple(corners))
                if circle not in seen:
                    seen.add(circle)
                    shapes.append(circle)
    shapes.sort(key=BoundaryCircle.sort_key)
    return shapes


def _circle_multisets(shapes, costs, max_cost, start=0):
    yield ()
    for i in range(start, len(shapes)):
        if costs[i] > max_cost:
            continue
        for rest in _circle_multisets(shapes, costs, max_cost - costs[i], i):
            yield (shapes[i],) + rest


def enumerate_orbifolds(budget: int) -> list[Orbifold2]:
    """All normalized orbifolds with 1 <= feature count <= budget and cone
    and corner orders <= budget, duplicate-free up to the cyclic and
    reflective symmetry of mixed boundary words. Rows are built already in
    validate's normal form (cones and circle multisets come out sorted, and
    _circle_shapes yields each canonical circle once), so each appears once."""
    out = []
    shapes = _circle_shapes(budget, budget)
    costs = [1 + len(c.word) for c in shapes]
    orders = list(range(2, budget + 1))
    for orientable in (True, False):
        genus_min = 0 if orientable else 1
        for genus in range(genus_min, budget + 1):
            rem_g = budget - genus
            for ncones in range(0, rem_g + 1):
                cone_sets = (
                    itertools.combinations_with_replacement(orders, ncones)
                    if ncones
                    else [()]
                )
                for cones in cone_sets:
                    rem = rem_g - ncones
                    for circles in _circle_multisets(shapes, costs, rem):
                        o = Orbifold2(orientable, genus, tuple(cones), circles)
                        if feature_count(o) >= 1:
                            out.append(o)
    out.sort(
        key=lambda o: (
            feature_count(o),
            not o.orientable,
            o.genus,
            o.cone_points,
            tuple(c.sort_key() for c in o.circles),
        )
    )
    return out

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
import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Iterator, NamedTuple, Optional

from .errors import (
    ConeOrderTooSmall,
    CornerOrderTooSmall,
    EmptyMixedWord,
    InvalidCircle,
    InvalidOrbifold,
    NotHyperbolic,
    SemanticError,
    clipped,
    clipped_name,
    int_text,
    require_nonnegative,
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

    def _has_adjacencies(self) -> bool:
        """A length-1 word has none: a closed mirror has zero junctions."""
        return self.kind == "mixed" and len(self.word) > 1

    def corner_orders(self) -> list[int]:
        if not self._has_adjacencies():
            return []
        return [r for r in self.corners if r is not None]

    def junctions(self) -> int:
        """Number of mirror-boundary junctions on this circle."""
        if not self._has_adjacencies():
            return 0
        w = self.word
        return sum(1 for i in range(len(w)) if w[i - 1] != w[i])

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


def _dihedral_maps(n: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Index maps (p, q) of the n rotations and then the n reflections of a
    length-n circle, the identity first: the image of (word, corners) is
    word[p[i]] and corners[q[i]], corner i sitting between word[i] and
    word[(i + 1) % n]."""
    rotations = [tuple((i + k) % n for i in range(n)) for k in range(n)]
    reflections = [
        (
            tuple(n - 1 - (i + k) % n for i in range(n)),
            tuple((n - 2 - (i + k) % n) % n for i in range(n)),
        )
        for k in range(n)
    ]
    return tuple([(r, r) for r in rotations] + reflections)


def _canonical_mixed(word, corners) -> BoundaryCircle:
    """The least dihedral image of a mixed circle, by sort_key."""
    images = (
        BoundaryCircle("mixed", tuple(word[j] for j in p), tuple(corners[j] for j in q))
        for p, q in _dihedral_maps(len(word))
    )
    return min(images, key=BoundaryCircle.sort_key)


def _validate_circle(c: BoundaryCircle) -> BoundaryCircle:
    """Normalized circle; an all-boundary mixed word is a plain circle."""
    if c.kind == "plain":
        if c.word or any(r is not None for r in c.corners):
            raise InvalidCircle("plain circle carries a word or corners")
        return BoundaryCircle.plain()
    if c.kind != "mixed":
        raise InvalidCircle(f"unknown circle kind {clipped_name(c.kind)}")
    if not c.word:
        raise EmptyMixedWord("mixed circle with empty word")
    if len(c.corners) != len(c.word):
        raise InvalidCircle("corners and word lengths differ")
    for tok in c.word:
        if tok not in (M, B):
            raise InvalidCircle(f"unknown boundary token {clipped_name(tok)}")
    merged = _merge_boundary_runs(c.word, c.corners)
    if merged is None:
        if any(r is not None for r in c.corners):
            raise InvalidCircle("corner order on a boundary segment")
        return BoundaryCircle.plain()
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
            if not isinstance(r, int):
                raise InvalidCircle(f"corner order {clipped(repr(r), str)} is not an integer")
            if r < 2:
                raise CornerOrderTooSmall(f"corner order {int_text(r)} < 2")
        elif r is not None:
            raise InvalidCircle("corner order at a non mirror-mirror adjacency")
    return _canonical_mixed(word, corners)


def _check_surface(o: Orbifold2) -> None:
    """The genus and cone orders are integers, and the underlying surface
    exists: the genus is not negative, and a non-orientable surface has at
    least one cross-cap."""
    if not isinstance(o.genus, int):
        raise InvalidOrbifold(f"genus {clipped(repr(o.genus), str)} is not an integer")
    for q in o.cone_points:
        if not isinstance(q, int):
            raise InvalidOrbifold(f"cone order {clipped(repr(q), str)} is not an integer")
    if o.genus < 0:
        raise InvalidOrbifold("negative genus")
    if not o.orientable and o.genus < 1:
        raise InvalidOrbifold("a non-orientable surface needs at least one cross-cap")


def validate(o: Orbifold2) -> Orbifold2:
    """Check invariants and return the normalized orbifold: cones sorted,
    boundary runs merged, mixed words in canonical rotation/reflection,
    circles sorted."""
    _check_surface(o)
    for q in o.cone_points:
        if q < 2:
            raise ConeOrderTooSmall(f"cone order {int_text(q)} < 2")
    circles = sorted(map(_validate_circle, o.circles), key=BoundaryCircle.sort_key)
    return Orbifold2(
        o.orientable, o.genus, tuple(sorted(o.cone_points)), tuple(circles)
    )


# -- invariants ----------------------------------------------------------------

def euler_characteristic(o: Orbifold2) -> Fraction:
    """Exact orbifold Euler characteristic.

    chi(surface) minus (1 - 1/q) per cone, minus (1 - 1/r)/2 per corner
    reflector, minus 1/4 per mirror-boundary junction; chi(surface) is
    2 - 2*genus - b for orientable, 2 - genus - b otherwise, with b the
    number of boundary circles. The sum is taken in integers from the
    census's terms and made a Fraction once. A surface that cannot
    exist (negative genus, or no cross-cap on a non-orientable one) raises
    InvalidOrbifold, and a circle that validate rejects raises as there.

    >>> euler_characteristic(validate(Orbifold2(True, 0, (2, 3, 7))))
    Fraction(-1, 42)
    """
    _check_surface(o)
    quarters = 4 * (_surface_chi(o.orientable, o.genus) - len(o.cone_points))
    dens = list(o.cone_points)
    for c in o.circles:
        q, d = _circle_chi(_validate_circle(c))
        quarters += q
        dens += d
    return Fraction(*_chi_part(quarters, dens))


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


def _circle_counts(circles) -> tuple[int, int, int, int, int]:
    """What the classifiers read of a circle multiset: the number of
    circles, of plain circles, of simple circles and of MB circles (one
    mirror arc and one boundary segment), and the mirror arcs of a lone
    circle (0 unless there is exactly one circle)."""
    return (
        len(circles),
        sum(c.is_plain() for c in circles),
        sum(c.is_simple() for c in circles),
        sum(c.kind == "mixed" and sorted(c.word) == [B, M] for c in circles),
        circles[0].mirror_arcs() if len(circles) == 1 else 0,
    )


def _shape(orientable: bool, genus: int, cones, counts) -> tuple:
    """The one input of _small and _mcg: ("S2" or "P2", number of cones,
    *counts) on the orientable genus-0 and the non-orientable genus-1
    surface, and () on any other, where both verdicts are negative."""
    if orientable and genus == 0:
        return ("S2", len(cones), *counts)
    if not orientable and genus == 1:
        return ("P2", len(cones), *counts)
    return ()


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
    return _small(_shape(o.orientable, o.genus, o.cone_points, _circle_counts(o.circles)))


def _small(shape: tuple) -> SmallVerdict:
    """is_small for the shape of an orbifold known to be hyperbolic."""
    if not shape or shape[0] != "S2":
        return SmallVerdict(False)
    _, ncones, b, plain, _, mb, arcs = shape
    if plain == b and b + ncones == 3:
        return SmallVerdict(True, 1)
    if b == 1 and mb == 1 and ncones == 1:
        return SmallVerdict(True, 2)
    if b == 2 and ncones == 0 and plain and mb:
        return SmallVerdict(True, 3)
    if b == 1 and ncones == 0 and arcs == 3:
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
    return _mcg(_shape(o.orientable, o.genus, o.cone_points, _circle_counts(o.circles)))


def _mcg(shape: tuple) -> McgVerdict:
    """has_finite_mcg for the shape of an orbifold known to be hyperbolic."""
    if shape:
        surface, ncones, b, _, simple, _, _ = shape
        nonsimple = b - simple
        if surface == "S2":
            if not nonsimple and b + ncones == 3:
                return McgVerdict(True, "S2_3")
            if nonsimple == 1 and simple + ncones == 1:
                return McgVerdict(True, "S2_2")
            if nonsimple == 1 and not simple and ncones == 0:
                return McgVerdict(True, "S2_1")
        elif not nonsimple and b + ncones == 2:
            return McgVerdict(True, "P2_2")
        elif nonsimple == 1 and not simple and ncones == 0:
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


# The census grows 10-13x per budget step. `orbifold enumerate --budget N
# --json` to a pipe takes about 0.37 s at N = 6, 1.2 s at N = 7 and, for the
# 755,625 rows of N = 8, 9-10.5 s with 165 MiB peak memory (py3.11 on a
# 2-core Xeon); budget 9 is 10,006,598 rows.
CENSUS_MAX_BUDGET = 8


def _circle_shapes(budget: int) -> list[BoundaryCircle]:
    """All normalized circles of cost (1 + word length) <= budget, with
    corner orders in [2, budget], sorted by sort_key.

    Each circle is generated once, already canonical: a word is kept only
    when it is the least of its dihedral images, and a corner assignment only
    when it is <= its image under every map that fixes the word. The least
    image of the decorated word is then the word itself, so nothing is
    canonicalized or deduplicated afterwards."""
    shapes = []
    if budget >= 1:
        shapes.append(BoundaryCircle.plain())
    orders = range(2, budget + 1)
    for length in range(1, budget):
        maps = _dihedral_maps(length)
        for word in itertools.product((B, M), repeat=length):
            if M not in word or any(word[i - 1] == word[i] == B for i in range(length)):
                continue
            images = [tuple(word[j] for j in p) for p, _ in maps]
            if min(images) != word:
                continue
            mm = [
                i
                for i in range(length)
                if length >= 2 and word[i] == word[(i + 1) % length] == M
            ]
            slot = {i: k for k, i in enumerate(mm)}
            # a map fixing the word carries mirror-mirror corners to
            # mirror-mirror corners; keep it as a permutation of the orders
            stabilizer = {
                tuple(slot[q[i]] for i in mm)
                for (_, q), image in zip(maps, images)
                if image == word
            }
            stabilizer.discard(tuple(range(len(mm))))
            # a non-identity permutation moves at least 2 slots, so each
            # itemgetter returns a tuple
            images_of = [itemgetter(*perm) for perm in stabilizer]
            for assigned in itertools.product(orders, repeat=len(mm)):
                for image_of in images_of:
                    if image_of(assigned) < assigned:
                        break
                else:
                    corners: list[Optional[int]] = [None] * length
                    for i, r in zip(mm, assigned):
                        corners[i] = r
                    shapes.append(BoundaryCircle("mixed", word, tuple(corners)))
    shapes.sort(key=BoundaryCircle.sort_key)
    return shapes


def _circle_multisets(costs, by_cost, max_cost, start=0):
    """Multisets of shape indices >= start of total cost <= max_cost, as
    increasing index tuples, yielded in lexicographic order. by_cost[r]
    lists in increasing order the indices of the shapes of cost <= r, so
    the walk never visits a shape that does not fit."""
    yield ()
    fits = by_cost[max_cost]
    for k in range(bisect_left(fits, start), len(fits)):
        i = fits[k]
        for rest in _circle_multisets(costs, by_cost, max_cost - costs[i], i):
            yield (i,) + rest


def _surface_chi(orientable: bool, genus: int) -> int:
    """chi of the closed underlying surface."""
    return 2 - 2 * genus if orientable else 2 - genus


def _circle_chi(c: BoundaryCircle) -> tuple[int, list[int]]:
    """A circle's share of chi as (quarters, dens), read as _chi_part reads
    them: -1 per circle, -(1 - 1/r)/2 per corner reflector and -1/4 per
    junction, so 1/(2r) in dens per corner."""
    orders = c.corner_orders()
    return -4 - 2 * len(orders) - c.junctions(), [2 * r for r in orders]


def _chi_part(quarters: int, dens) -> tuple[int, int]:
    """quarters / 4 + sum(1 / x for x in dens) as a reduced pair (n, d)
    with d > 0."""
    d = math.lcm(4, *dens)
    n = quarters * (d // 4) + sum(d // x for x in dens)
    g = math.gcd(n, d)
    return n // g, d // g


class Census(NamedTuple):
    """The census at one budget. Each row is (orientable, genus, i, j, n, d,
    verdict): the orbifold has cone multiset cones[i] and circle multiset
    circles[j], chi = n / d in lowest terms with d > 0, and verdict is None
    unless n < 0 and the census was asked to classify."""

    count: int
    cones: list[tuple[int, ...]]
    circles: list[tuple[BoundaryCircle, ...]]
    rows: Iterator[tuple]


def census(
    budget: int,
    classify: Optional[Callable[[SmallVerdict, McgVerdict], object]] = None,
) -> Census:
    """The census rows of enumerate_orbifolds, in its order, made one at a
    time; the row count is known before any row is made. With classify
    given, a hyperbolic row's verdict is classify(small, mcg) for the
    verdicts of is_small and has_finite_mcg on the row's orbifold. Both
    read only the row's shape, so the verdict is computed once per shape;
    the circle counts in the shape are taken once per circle multiset. chi is
    the surface term plus a cone part and a circle part, each computed once
    per multiset, so a row costs one lcm and one gcd.

    Negative budgets and budgets above CENSUS_MAX_BUDGET raise
    SemanticError before any work."""
    require_nonnegative("census budget", budget)
    if budget > CENSUS_MAX_BUDGET:
        raise SemanticError(
            f"census budget {int_text(budget)} is over the cap CENSUS_MAX_BUDGET ="
            f" {CENSUS_MAX_BUDGET}; the census grows 10-13x per budget step"
        )
    shapes = _circle_shapes(budget)
    costs = [1 + len(c.word) for c in shapes]
    by_cost = [[i for i, c in enumerate(costs) if c <= r] for r in range(budget + 1)]
    shares = [_circle_chi(c) for c in shapes]
    quarters = [q for q, _ in shares]
    dens = [d for _, d in shares]
    circle_sets: list[tuple[BoundaryCircle, ...]] = []
    # the circle multisets of each total cost, as (index, chi part)
    circles_of_cost: list[list[tuple[int, int, int]]] = [[] for _ in range(budget + 1)]
    for j, picks in enumerate(_circle_multisets(costs, by_cost, budget)):
        circle_sets.append(tuple(map(shapes.__getitem__, picks)))
        part = _chi_part(
            sum(map(quarters.__getitem__, picks)), [x for i in picks for x in dens[i]]
        )
        circles_of_cost[sum(map(costs.__getitem__, picks))].append((j, *part))
    circle_counts = [_circle_counts(q) for q in circle_sets] if classify else []
    cone_sets = sorted(
        cones
        for n in range(budget + 1)
        for cones in itertools.combinations_with_replacement(range(2, budget + 1), n)
    )
    cone_parts = [_chi_part(-4 * len(cones), cones) for cones in cone_sets]

    def blocks():
        for features in range(1, budget + 1):
            for orientable in (True, False):
                for genus in range(0 if orientable else 1, features + 1):
                    for i, cones in enumerate(cone_sets):
                        rem = features - genus - len(cones)
                        if rem >= 0:
                            yield orientable, genus, i, circles_of_cost[rem]

    def rows():
        verdicts: dict[tuple, object] = {}
        for orientable, genus, i, circles in blocks():
            cones = cone_sets[i]
            cn, cd = cone_parts[i]
            bn = cn + _surface_chi(orientable, genus) * cd
            for j, qn, qd in circles:
                d = math.lcm(cd, qd)
                n = bn * (d // cd) + qn * (d // qd)
                g = math.gcd(n, d)
                verdict = None
                if n < 0 and classify is not None:
                    key = _shape(orientable, genus, cones, circle_counts[j])
                    verdict = verdicts.get(key)
                    if verdict is None:
                        verdict = verdicts[key] = classify(_small(key), _mcg(key))
                yield orientable, genus, i, j, n // g, d // g, verdict

    count = sum(len(circles) for *_, circles in blocks())
    return Census(count, cone_sets, circle_sets, rows())


def enumerate_orbifolds(budget: int) -> list[Orbifold2]:
    """All normalized orbifolds with 1 <= feature count <= budget and cone
    and corner orders <= budget, duplicate-free up to the cyclic and
    reflective symmetry of mixed boundary words, sorted by feature count,
    orientability, genus, cones and circles.

    Rows are built already in validate's normal form and each appears once:
    _circle_shapes generates each canonical circle once, and cones and circle
    multisets are generated as sorted multisets. They are also built in
    sorted order, so nothing is sorted or deduplicated at the end. Negative
    budgets and budgets above CENSUS_MAX_BUDGET raise SemanticError before
    any work."""
    _, cones, circles, rows = census(budget)
    return [
        Orbifold2(orientable, genus, cones[i], circles[j])
        for orientable, genus, i, j, *_ in rows
    ]

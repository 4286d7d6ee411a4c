"""Arithmetic of trees on the collapse lattice of one master splitting.

Every tree considered here is a collapse of a fixed master graph of groups,
named by the subset of edge orbits it keeps, so any two are compatible by
construction. Prime factors are the one-edge collapses; refinement is
containment of kept sets; gcd and lcm are intersection and union. Length
functions filter the master's crossing sequences, so they add over prime
factors; verify_modularity checks them against lengths on coset paths.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from . import gbs
from .errors import SemanticError, clipped, clipped_name, require_nonnegative
from .gbs import GroupWord, LabeledGraph


@dataclass(frozen=True)
class MasterSplitting:
    graph: LabeledGraph
    orbits: tuple[str, ...]


@dataclass(frozen=True)
class CollapseTree:
    """The collapse of the master keeping exactly these edge orbits; the
    empty set is the trivial tree."""

    kept: frozenset[str]


def master(g: LabeledGraph) -> MasterSplitting:
    g = gbs.validate_graph(g)
    return MasterSplitting(g, tuple(e.id for e in g.edges))


def collapse(m: MasterSplitting, kept: Iterable[str]) -> CollapseTree:
    if isinstance(kept, str):  # one string is not a set of its characters
        raise SemanticError(f"kept set {clipped(kept)} is a string, not a set of orbit ids")
    kept = frozenset(kept)
    unknown = kept - set(m.orbits)
    if unknown:
        # strings first, in order: ids of mixed types do not compare
        names = sorted(unknown, key=lambda x: (not isinstance(x, str), str(x)))
        raise SemanticError(f"unknown edge orbits {clipped_name(names)}")
    return CollapseTree(kept)


def prime_factors(K: CollapseTree) -> set[CollapseTree]:
    """The one-edge collapses of K."""
    return {CollapseTree(frozenset((e,))) for e in K.kept}


def refines(K1: CollapseTree, K2: CollapseTree) -> bool:
    """K1 refines K2 when every prime factor of K2 is one of K1."""
    return K2.kept <= K1.kept


def gcd(K1: CollapseTree, K2: CollapseTree) -> CollapseTree:
    return CollapseTree(K1.kept & K2.kept)


def lcm(K1: CollapseTree, K2: CollapseTree) -> CollapseTree:
    return CollapseTree(K1.kept | K2.kept)


def length_in_collapse(m: MasterSplitting, K: CollapseTree, w: GroupWord) -> int:
    """Translation length of w in the collapse: crossings of the master's
    cyclically reduced form that survive into K."""
    seq = gbs.crossing_sequence(m.graph, w)
    return sum(1 for eid in seq if eid in K.kept)


def _coset_lengths(shifts: list[Counter], kept: frozenset[str]) -> list[int]:
    """Per word, the length in the collapse keeping these orbits."""
    return [max(sum(n for e, n in s.items() if e in kept), 0) for s in shifts]


def verify_modularity(
    m: MasterSplitting, collapses: Sequence[CollapseTree], words: Iterable[GroupWord]
) -> list[tuple[int, int]]:
    """The index pairs i < j, in itertools.combinations order, whose lcm or
    gcd has a Britton length other than its coset-path length on some word;
    Britton lengths add over kept orbits, so that is l_i + l_j = l_lcm +
    l_gcd, decided once per kept set. As d(x, wx) = l(w) + 2 d(x, axis) for
    a tree isometry (Culler-Morgan), l = max(k(w^2) - k(w), 0) at the base,
    where k(u) counts kept-orbit steps on u's normalized coset path. Each
    word is reduced once. A failure is a bug, never a counterexample."""
    seqs, shifts = [], []
    for w in words:
        seqs.append(gbs.crossing_sequence(m.graph, w))
        steps, pending, _ = gbs._normalize_steps(m.graph, w.items)
        twice, _, _ = gbs._normalize_steps(m.graph, w.items, steps, pending)
        shift = Counter(c.edge for c, _ in twice)
        shift.subtract(c.edge for c, _ in steps)
        shifts.append(shift)
    exact: dict[frozenset[str], bool] = {}
    failed = []
    for (i, K1), (j, K2) in itertools.combinations(enumerate(collapses), 2):
        for kept in (K1.kept | K2.kept, K1.kept & K2.kept):
            ok = exact.get(kept)
            if ok is None:
                britton = [sum(map(kept.__contains__, seq)) for seq in seqs]
                ok = exact[kept] = _coset_lengths(shifts, kept) == britton
            if not ok:
                failed.append((i, j))
                break
    return failed


def squarefree_search(
    m: MasterSplitting, K: CollapseTree, L: int = gbs.DEFAULT_SEARCH_BUDGET
) -> dict[frozenset[CollapseTree], gbs.SearchOutcome]:
    """For each unordered pair of distinct prime factors of K, search the
    group elements spelled by letter words of length <= L, each once, for
    one separating their length functions, and say why the search stopped:
    "found" (witness is the first separating word, at element
    elements_tried of the walk) or "exhausted" (none of the elements_tried
    elements up to L separates the pair, a semi-decision). One walk serves
    every pair and stops once each pair is separated. Distinct prime
    factors can guarantee a witness only on a reduced master. On other
    masters two prime factors may share a length function, and their pair
    exhausts at every L. Two shapes show it: on a pendant path of (1,1)
    edges both one-edge collapses are trivial splittings, so both lengths
    are 0; and on a 2-cycle u-v whose two edges both carry a unit label at
    v, every reduced path through v alternates the two edges, so their
    crossing counts agree on every word."""
    require_nonnegative("search length bound L", L)
    primes = sorted(prime_factors(K), key=lambda p: sorted(p.kept))

    def separates(e1: str, e2: str):
        return lambda w, seq: w if seq.count(e1) != seq.count(e2) else None

    questions = {
        frozenset((p1, p2)): separates(*p1.kept, *p2.kept)
        for i, p1 in enumerate(primes)
        for p2 in primes[i + 1:]
    }
    return gbs._search(m.graph, L, questions)


def squarefree_witnesses(
    m: MasterSplitting, K: CollapseTree, L: int = gbs.DEFAULT_SEARCH_BUDGET
) -> dict[frozenset[CollapseTree], Optional[GroupWord]]:
    """The witnesses of squarefree_search(m, K, L): per pair of distinct
    prime factors of K, the first word separating their length functions,
    or None when none of length <= L does (a semi-decision)."""
    return {pair: o.witness for pair, o in squarefree_search(m, K, L).items()}


def elliptic_in_lcm(
    m: MasterSplitting, w: GroupWord, Ks: list[CollapseTree]
) -> bool:
    """Whether w is elliptic in the lcm of the given collapses."""
    if not Ks:
        raise SemanticError("elliptic_in_lcm needs at least one collapse")
    return length_in_collapse(m, functools.reduce(lcm, Ks), w) == 0

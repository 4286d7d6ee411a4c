import itertools

import pytest

import splittings as sp
from splittings import gbs, tree_arithmetic as ta
from splittings.errors import SemanticError


def W(g, *letters):
    return sp.make_word(g, letters)


@pytest.fixture
def m(m3):
    return ta.master(m3)


def K(m, *ids):
    return ta.collapse(m, ids)


class TestLattice:
    def test_orbits(self, m):
        assert m.orbits == ("e", "ep", "f")

    def test_collapse_unknown_orbit(self, m):
        with pytest.raises(SemanticError):
            K(m, "zz")

    @pytest.mark.parametrize(
        "kept, shown",
        [
            (["zz", "e", "ab"], "['ab', 'zz']"),
            ([None, "zz"], "['zz', None]"),
            ([None, "e", 1, "zz", b"e", ("e",)], "['zz', ('e',), 1, None, b'e']"),
        ],
    )
    def test_collapse_names_unknown_ids(self, m, kept, shown):
        # strings in their order, then ids of other types: those do not compare
        with pytest.raises(SemanticError) as info:
            ta.collapse(m, kept)
        assert str(info.value) == f"unknown edge orbits {shown}"

    @pytest.mark.parametrize("kept", ["e", "ee", "ef", ""])
    def test_collapse_refuses_a_string(self, m, kept):
        # read as its characters, "ee" would keep {e} and "ef" {e, f}
        with pytest.raises(SemanticError, match="is a string"):
            ta.collapse(m, kept)

    def test_prime_factors(self, m):
        primes = ta.prime_factors(K(m, "e", "ep", "f"))
        assert {frozenset(p.kept) for p in primes} == {
            frozenset({"e"}),
            frozenset({"ep"}),
            frozenset({"f"}),
        }

    def test_prime_factors_of_trivial(self, m):
        assert ta.prime_factors(K(m)) == set()

    def test_refines(self, m):
        assert ta.refines(K(m, "e", "f"), K(m, "f"))
        assert not ta.refines(K(m, "f"), K(m, "e", "f"))
        assert ta.refines(K(m, "f"), K(m, "f"))

    def test_gcd_lcm(self, m):
        k1, k2 = K(m, "e", "f"), K(m, "ep", "f")
        assert ta.gcd(k1, k2).kept == frozenset({"f"})
        assert ta.lcm(k1, k2).kept == frozenset({"e", "ep", "f"})

    def test_lattice_laws_exhaustive(self, m):
        subsets = [
            K(m, *s)
            for r in range(4)
            for s in itertools.combinations(m.orbits, r)
        ]
        for a, b in itertools.product(subsets, repeat=2):
            assert ta.gcd(a, b).kept == ta.gcd(b, a).kept
            assert ta.lcm(a, b).kept == ta.lcm(b, a).kept
            assert ta.gcd(a, ta.lcm(a, b)).kept == a.kept
            assert ta.lcm(a, ta.gcd(a, b)).kept == a.kept
            assert ta.refines(ta.lcm(a, b), a)
            assert ta.refines(a, ta.gcd(a, b))
        for a, b, c in itertools.product(subsets, repeat=3):
            assert ta.gcd(ta.gcd(a, b), c).kept == ta.gcd(a, ta.gcd(b, c)).kept
            assert ta.lcm(ta.lcm(a, b), c).kept == ta.lcm(a, ta.lcm(b, c)).kept


class TestLengths:
    def test_master_length(self, m):
        w = W(m.graph, ("t", "e", 1), ("t", "ep", 1))
        assert ta.length_in_collapse(m, K(m, "e", "ep", "f"), w) == 4

    def test_one_edge_lengths(self, m):
        w = W(m.graph, ("t", "e", 1), ("t", "ep", 1))
        assert ta.length_in_collapse(m, K(m, "e"), w) == 1
        assert ta.length_in_collapse(m, K(m, "ep"), w) == 1
        assert ta.length_in_collapse(m, K(m, "f"), w) == 2

    def test_trivial_collapse_kills_everything(self, m):
        w = W(m.graph, ("t", "e", 1), ("t", "ep", 1))
        assert ta.length_in_collapse(m, K(m), w) == 0

    def test_monotone_under_refinement(self, m):
        # keeping more orbits never shortens
        words = sp.sample_words(m.graph, 40, 6, 17)
        subsets = [
            K(m, *s)
            for r in range(4)
            for s in itertools.combinations(m.orbits, r)
        ]
        for k1 in subsets:
            for k2 in subsets:
                if not ta.refines(k1, k2):
                    continue
                for w in words:
                    assert ta.length_in_collapse(
                        m, k1, w
                    ) >= ta.length_in_collapse(m, k2, w)

    def test_modularity_m3_pair(self, m):
        w = W(m.graph, ("t", "e", 1), ("t", "ep", 1))
        assert ta.verify_modularity(m, [K(m, "e", "f"), K(m, "ep", "f")], [w]) == []

    def test_modularity_all_pairs(self, m):
        words = sp.sample_words(m.graph, 60, 6, 23)
        subsets = [
            K(m, *s)
            for r in range(4)
            for s in itertools.combinations(m.orbits, r)
        ]
        assert ta.verify_modularity(m, subsets, words) == []

    def test_modularity_fails_when_lcm_and_gcd_errors_cancel(self, m, monkeypatch):
        # +1 on the lcm {e, f} and -1 on the gcd {} cancel in l_lcm + l_gcd,
        # but each is a kept set whose coset-path length is wrong
        coset_lengths = ta._coset_lengths
        skew = {frozenset({"e", "f"}): 1, frozenset(): -1}

        def skewed(shifts, kept):
            return [n + skew.get(kept, 0) for n in coset_lengths(shifts, kept)]

        monkeypatch.setattr(ta, "_coset_lengths", skewed)
        words = sp.sample_words(m.graph, 10, 6, 0)
        assert ta.verify_modularity(m, [K(m, "e"), K(m, "f")], words) == [(0, 1)]


class TestSquarefree:
    def test_m3_small_budget(self, m):
        wit = ta.squarefree_witnesses(m, K(m, "e", "ep", "f"), 2)
        pair_ef = frozenset(
            (ta.CollapseTree(frozenset({"e"})), ta.CollapseTree(frozenset({"f"})))
        )
        w = wit[pair_ef]
        assert w is not None
        assert ta.length_in_collapse(m, K(m, "e"), w) != ta.length_in_collapse(
            m, K(m, "f"), w
        )

    def test_single_factor_empty(self, m):
        assert ta.squarefree_witnesses(m, K(m, "e"), 4) == {}

    def test_zero_budget_all_unwitnessed(self, m):
        wit = ta.squarefree_witnesses(m, K(m, "e", "ep", "f"), 0)
        assert len(wit) == 3
        assert all(w is None for w in wit.values())

    def test_all_pairs_witnessed_at_4(self, m):
        wit = ta.squarefree_witnesses(m, K(m, "e", "ep", "f"), 4)
        assert len(wit) == 3
        for pair, w in wit.items():
            assert w is not None
            k1, k2 = sorted(pair, key=lambda k: sorted(k.kept))
            assert ta.length_in_collapse(m, k1, w) != ta.length_in_collapse(
                m, k2, w
            )

    def test_pendant_unit_path_is_inseparable(self):
        # M3 plus a pendant path of two (1,1) edges: the master is not
        # reduced, both one-edge collapses on the path are trivial
        # splittings, so no word separates {g1} from {g2} at any L; every
        # other pair of prime factors separates
        g = sp.graph(
            ("u", "v", "w1", "w2"),
            (("e", "u", "u", 2, 3), ("ep", "v", "v", 2, 3), ("f", "u", "v", 2, 2),
             ("g1", "v", "w1", 1, 1), ("g2", "w1", "w2", 1, 1)),
        )
        m = ta.master(g)
        for w in sp.sample_words(g, 60, 8, 5):
            assert ta.length_in_collapse(m, K(m, "g1"), w) == 0
            assert ta.length_in_collapse(m, K(m, "g2"), w) == 0
        wit = ta.squarefree_witnesses(m, K(m, *m.orbits), 4)
        assert len(wit) == 10
        for pair, w in wit.items():
            k1, k2 = sorted(pair, key=lambda k: sorted(k.kept))
            if (k1.kept, k2.kept) == ({"g1"}, {"g2"}):
                assert w is None
            else:
                assert ta.length_in_collapse(m, k1, w) != ta.length_in_collapse(m, k2, w)
        # the inseparable pair walks every element up to L; the others stop
        total = sum(1 for _ in gbs._elements(g, 4))
        for pair, out in ta.squarefree_search(m, K(m, *m.orbits), 4).items():
            if {k.kept for k in pair} == {frozenset({"g1"}), frozenset({"g2"})}:
                assert out == sp.SearchOutcome("exhausted", None, total)
            else:
                assert out.stop == "found" and out.witness == wit[pair]


class TestEllipticInLcm:
    def test_agrees_on_samples(self, m):
        ks = [K(m, "e"), K(m, "ep", "f")]
        for w in sp.sample_words(m.graph, 40, 6, 31):
            res = ta.elliptic_in_lcm(m, w, ks)
            assert res == all(
                ta.length_in_collapse(m, k, w) == 0 for k in ks
            )

    def test_vertex_power_elliptic_everywhere(self, m):
        w = W(m.graph, ("a", "u", 5))
        assert ta.elliptic_in_lcm(m, w, [K(m, "e"), K(m, "f")])

    def test_empty_list_rejected(self, m):
        with pytest.raises(SemanticError):
            ta.elliptic_in_lcm(m, W(m.graph, ("a", "u", 1)), [])

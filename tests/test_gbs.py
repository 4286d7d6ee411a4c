from fractions import Fraction

import pytest

import splittings as sp
from splittings.errors import (
    Disconnected,
    InvalidPath,
    NotHyperbolic,
    SemanticError,
    SplittingsError,
    ZeroLabel,
)
from splittings import gbs, tree_arithmetic as ta
from splittings.gbs import Cross, GroupWord, Pow

from conftest import make_m3


# a 300-character vertex name and how error messages show it
LONG = "z" * 300
LONG_SHOWN = f"{'z' * 20!r}... (300 chars)"


def W(g, *letters):
    return sp.make_word(g, letters)


class TestValidateGraph:
    def test_loop_ok(self):
        g = sp.validate_graph(sp.bs(2, 4))
        assert g.base == "v"
        assert g.spanning_tree == ()

    def test_segment_ok(self):
        g = sp.validate_graph(sp.graph(("u", "v"), (("f", "u", "v", 2, 2),)))
        assert g.spanning_tree == ("f",)

    def test_zero_label(self):
        with pytest.raises(ZeroLabel):
            sp.validate_graph(sp.graph(("v",), (("e", "v", "v", 0, 2),)))

    @pytest.mark.parametrize("label", ["2", 2.0, True, None])
    def test_label_not_an_integer(self, label):
        for labels in ((label, 2), (3, label)):
            g = sp.LabeledGraph(("v",), (sp.Edge("e", "v", "v", *labels),))
            with pytest.raises(SemanticError, match="labels are nonzero integers"):
                sp.validate_graph(g)
            with pytest.raises(SemanticError, match="labels are nonzero integers"):
                sp.jsj_report(g)

    @pytest.mark.parametrize("bad", [None, 1, ("v",), b"v"], ids=repr)
    @pytest.mark.parametrize("kind", ["vertex", "edge"])
    def test_id_not_a_string(self, kind, bad):
        if kind == "vertex":
            g = sp.LabeledGraph((bad,), ())
        else:
            g = sp.LabeledGraph(("v",), (sp.Edge(bad, "v", "v", 2, 3),))
        with pytest.raises(SemanticError) as info:
            sp.validate_graph(g)
        assert str(info.value) == f"{kind} id {bad!r} is not a string"

    def test_long_base_clipped(self):
        g = sp.LabeledGraph(("v",), (sp.Edge("e", "v", "v", 1, 2),), base=LONG)
        with pytest.raises(SemanticError) as info:
            sp.validate_graph(g)
        assert str(info.value) == f"base {LONG_SHOWN} is not a vertex"

    def test_disconnected(self):
        with pytest.raises(Disconnected):
            sp.validate_graph(
                sp.graph(("u", "v"), (("e", "u", "u", 2, 3),))
            )

    def test_empty(self):
        with pytest.raises(Disconnected):
            sp.validate_graph(sp.graph((), ()))

    def test_duplicate_edge_id(self):
        with pytest.raises(SemanticError):
            sp.validate_graph(
                sp.graph(("v",), (("e", "v", "v", 1, 2), ("e", "v", "v", 2, 3)))
            )


class TestGraphIndex:
    def test_indexed_graph_returned_unchanged(self, m3):
        assert m3.index is not None
        assert sp.validate_graph(m3) is m3

    def test_index_invisible_to_equality_hash_repr(self, m3):
        bare = sp.LabeledGraph(m3.vertices, m3.edges, m3.base, m3.spanning_tree, m3.name)
        assert bare.index is None
        assert bare == m3 and hash(bare) == hash(m3)
        assert repr(bare) == repr(m3)

    def test_departing_in_edge_order(self, m3):
        assert tuple(m[0] for m in m3.index.departing["u"]) == (
            Cross("e", 1), Cross("e", -1), Cross("f", 1),
        )

    def test_given_tree_routes_words(self):
        g = sp.validate_graph(
            sp.LabeledGraph(
                ("u", "v"),
                (gbs.Edge("f", "u", "v", 2, 3), gbs.Edge("g", "u", "v", 3, 5)),
                "u",
                ("g",),
            )
        )
        assert W(g, ("a", "v", 1)).items == (Cross("g", 1), Pow("v", 1), Cross("g", -1))

    @pytest.mark.parametrize(
        "tree, message",
        [
            (("nope",), "unknown edge 'nope'"),
            (("f", "g"), "has 2 edges"),  # a two-edge cycle
            (("f", "f"), "twice"),
            (("e",), "does not reach vertex 'v'"),  # a loop
            ((), "has 0 edges"),
        ],
    )
    def test_given_tree_must_span(self, tree, message):
        edges = (
            gbs.Edge("e", "u", "u", 2, 3),
            gbs.Edge("f", "u", "v", 2, 3),
            gbs.Edge("g", "u", "v", 3, 5),
        )
        with pytest.raises(SemanticError, match=message):
            sp.validate_graph(sp.LabeledGraph(("u", "v"), edges, None, tree))

    def test_given_tree_with_cycle_cannot_span(self):
        # V-1 edges, but two of them close a cycle and w is cut off
        edges = (
            gbs.Edge("f", "u", "v", 2, 3),
            gbs.Edge("g", "u", "v", 3, 5),
            gbs.Edge("h", "v", "w", 2, 2),
        )
        with pytest.raises(SemanticError, match="does not reach vertex 'w'"):
            sp.validate_graph(sp.LabeledGraph(("u", "v", "w"), edges, None, ("f", "g")))

    def test_tree_path_through_common_ancestor(self):
        # star rooted at c: the path between two leaves goes up, then down
        g = sp.graph(
            ("c", "x", "y"),
            (("p", "c", "x", 2, 3), ("q", "y", "c", 2, 3)),
        )
        assert gbs.tree_path(g, "x", "y") == [Cross("p", -1), Cross("q", -1)]
        assert gbs.tree_path(g, "y", "y") == []


class TestWords:
    def test_path_consistency(self, m3):
        w = W(m3, ("t", "f", 1))
        with pytest.raises(InvalidPath):
            # not a loop: base u, ends at v
            sp.validate_word(m3, sp.GroupWord("u", w.items[:1]))

    def test_make_word_routes_through_tree(self, m3):
        # t[ep] from base u must be conjugated through the tree edge f
        w = W(m3, ("t", "ep", 1))
        kinds = [type(it).__name__ for it in w.items]
        assert kinds == ["Cross", "Cross", "Cross"]
        assert w.items[0] == Cross("f", 1)
        assert w.items[-1] == Cross("f", -1)

    def test_unknown_vertex_named(self, bs23):
        with pytest.raises(InvalidPath, match="unknown vertex 'zz'"):
            W(bs23, ("a", "zz", 1))

    def test_unknown_edge_named(self, bs23):
        with pytest.raises(InvalidPath, match="unknown edge 'nope'"):
            W(bs23, ("t", "nope", 1))

    def test_unknown_base_named(self, bs23):
        with pytest.raises(InvalidPath, match="unknown vertex 'zz'"):
            sp.make_word(bs23, (("a", "v", 1),), base="zz")

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda g: sp.make_word(g, [], base=[1]), "base [1] is not a vertex"),
            (lambda g: sp.make_word(g, [("a", "v", 1)], base=[1]), "unknown vertex [1]"),
            (lambda g: sp.translation_length(g, GroupWord(["v"], ())),
             "base ['v'] is not a vertex"),
            (lambda g: gbs.tree_path(g, [1], "v"), "unknown vertex [1]"),
            (lambda g: sp.make_word(g, [], base=LONG), f"base {LONG_SHOWN} is not a vertex"),
            (lambda g: sp.make_word(g, [("a", "v", 1)], base=LONG),
             f"unknown vertex {LONG_SHOWN}"),
            (lambda g: sp.translation_length(g, GroupWord(LONG, ())),
             f"base {LONG_SHOWN} is not a vertex"),
            (lambda g: gbs.tree_path(g, "v", LONG), f"unknown vertex {LONG_SHOWN}"),
        ],
        ids=["make_word", "make_word letter", "translation_length", "tree_path",
             "long make_word", "long make_word letter", "long translation_length",
             "long tree_path"],
    )
    def test_unhashable_base_named(self, bs23, call, message):
        with pytest.raises(InvalidPath) as info:
            call(bs23)
        assert str(info.value) == message

    def test_concat_inverse_power(self, bs23):
        t = W(bs23, ("t", "e", 1))
        a = W(bs23, ("a", "v", 1))
        w = sp.concat(t, a)
        wi = sp.inverse(w)
        assert sp.is_elliptic(bs23, sp.concat(w, wi))
        p = sp.power(w, 3)
        assert sp.translation_length(bs23, p) == 3 * sp.translation_length(
            bs23, w
        )

    def test_concat_base_mismatch(self, m3):
        wu = sp.GroupWord("u", ())
        wv = sp.GroupWord("v", ())
        with pytest.raises(InvalidPath):
            sp.concat(wu, wv)


class TestBrittonReduce:
    def test_conjugate_of_elliptic(self, bs12):
        w = W(bs12, ("t", "e", -1), ("a", "v", 1), ("t", "e", 1))
        nf = sp.britton_reduce(bs12, w)
        assert nf.crossing_sequence == ()
        assert sp.is_elliptic(bs12, w)

    def test_defining_relation_pinch(self, bs23):
        w = W(bs23, ("t", "e", 1), ("a", "v", 2), ("t", "e", -1))
        nf = sp.britton_reduce(bs23, w)
        assert nf.word.items == (Pow("v", 3),)

    def test_no_pinch_same_direction(self, bs12):
        w = W(bs12, ("a", "v", 1), ("t", "e", 1), ("a", "v", 1), ("t", "e", 1))
        nf = sp.britton_reduce(bs12, w)
        assert len(nf.crossing_sequence) == 2

    def test_non_divisible_power_blocks_pinch(self, bs23):
        # mu(e) = 2 does not divide 1: the linear form keeps both crossings,
        # but the word is still a conjugate of an elliptic element
        w = W(bs23, ("t", "e", 1), ("a", "v", 1), ("t", "e", -1))
        nf = sp.britton_reduce(bs23, w)
        assert sum(isinstance(it, Cross) for it in nf.word.items) == 2
        assert not nf.cyclically_reduced
        assert nf.crossing_sequence == ()

    def test_flags(self, bs23):
        w = W(bs23, ("t", "e", 1), ("a", "v", 1))
        nf = sp.britton_reduce(bs23, w)
        assert nf.cyclically_reduced

    def test_wrap_pinch(self, bs23):
        # t^-1 a^3 t = a^2 : cyclic form of a^3 conjugated
        w = W(bs23, ("t", "e", -1), ("a", "v", 3), ("t", "e", 1))
        assert sp.is_elliptic(bs23, w)

    def test_long_conjugate_keeps_length(self, bs23):
        # t^n (t a) t^-n: n wrap pinches peel off one pair at a time
        n = 4000
        letters = (("t", "e", 1),) * (n + 1) + (("a", "v", 1),) + (("t", "e", -1),) * n
        w = W(bs23, *letters)
        ta = W(bs23, ("t", "e", 1), ("a", "v", 1))
        assert sp.translation_length(bs23, w) == sp.translation_length(bs23, ta) == 1
        nf = sp.britton_reduce(bs23, w)
        assert nf.crossing_sequence == ("e",) and not nf.cyclically_reduced

    def test_cyclic_word_of_elliptic_sits_at_its_vertex(self, m3):
        # f a[v] f^-1 at base u: the wrap pinch leaves a power at v, not at u
        nf = sp.britton_reduce(m3, W(m3, ("a", "v", 1)))
        assert nf.cyclic_word == GroupWord("v", (Pow("v", 1),))

    def test_cyclic_word_starts_where_its_first_crossing_departs(self, m3):
        # a[u] f a[v] f^-1: odd powers block the wrap, so the cyclic word
        # starts with f at u and carries the leading power at its end
        nf = sp.britton_reduce(m3, W(m3, ("a", "u", 1), ("a", "v", 1)))
        assert nf.cyclic_word == GroupWord(
            "u", (Cross("f", 1), Pow("v", 1), Cross("f", -1), Pow("u", 1))
        )
        assert nf.cyclically_reduced and nf.crossing_sequence == ("f", "f")


class TestTranslationLength:
    def test_vertex_generator_elliptic(self, bs12):
        assert sp.translation_length(bs12, W(bs12, ("a", "v", 1))) == 0

    def test_stable_letter(self, bs12):
        assert sp.translation_length(bs12, W(bs12, ("t", "e", 1))) == 1

    def test_conjugacy_invariance(self, bs12):
        w = W(bs12, ("t", "e", -1), ("a", "v", 1), ("t", "e", 1))
        assert sp.translation_length(bs12, w) == 0

    def test_empty_word_elliptic(self, bs23):
        assert sp.is_elliptic(bs23, sp.GroupWord("v", ()))

    def test_a5_elliptic(self, bs23):
        assert sp.is_elliptic(bs23, W(bs23, ("a", "v", 5)))

    def test_t_hyperbolic(self, bs23):
        assert not sp.is_elliptic(bs23, W(bs23, ("t", "e", 1)))


class TestAxisGap:
    def test_meet_via_common_fixed_vertex(self, bs23):
        t = W(bs23, ("t", "e", 1))
        s = W(bs23, ("a", "v", 1), ("t", "e", 1), ("a", "v", -1))
        r = sp.axis_gap(bs23, t, s)
        assert r.kind == "meet"

    def test_same_word_meets(self, bs23):
        t = W(bs23, ("t", "e", 1))
        assert sp.axis_gap(bs23, t, t).kind == "meet"

    def test_disjoint_on_m3(self, m3):
        te = W(m3, ("t", "e", 1))
        tep = W(m3, ("t", "ep", 1))
        r = sp.axis_gap(m3, te, tep)
        assert r.kind == "disjoint"
        assert r.gap == 1

    def test_elliptic_input_rejected(self, bs23):
        a = W(bs23, ("a", "v", 1))
        t = W(bs23, ("t", "e", 1))
        with pytest.raises(NotHyperbolic):
            sp.axis_gap(bs23, a, t)

    def test_product_lengths_match_lemma(self, m3):
        # disjoint case: both products have length l1 + l2 + 2d
        te = W(m3, ("t", "e", 1))
        tep = W(m3, ("t", "ep", 1))
        l1 = sp.translation_length(m3, te)
        l2 = sp.translation_length(m3, tep)
        lp = sp.translation_length(m3, sp.concat(te, tep))
        lm = sp.translation_length(m3, sp.concat(sp.inverse(te), tep))
        assert lp == lm == l1 + l2 + 2


class TestIrreducibility:
    def test_bs23_has_witness(self, bs23):
        wit = sp.irreducibility_witness(bs23, 6)
        assert wit is not None
        w1, w2 = wit
        comm = sp.concat(
            sp.concat(w1, w2), sp.concat(sp.inverse(w1), sp.inverse(w2))
        )
        assert not sp.is_elliptic(bs23, w1)
        assert not sp.is_elliptic(bs23, w2)
        assert not sp.is_elliptic(bs23, comm)

    def test_abelian_loop_has_none(self, bs11):
        assert sp.irreducibility_witness(bs11, 5) is None

    def test_elementary_loops_have_none_deeper(self, bs11, bs12):
        # every commutator is elliptic in Z^2 and in BS(1,2)
        assert sp.irreducibility_witness(bs11, 6) is None
        assert sp.irreducibility_witness(bs12, 5) is None

    def test_zero_budget(self, bs23):
        assert sp.irreducibility_witness(bs23, 0) is None


class TestElementSearch:
    @pytest.mark.parametrize("L", range(1, 7))
    def test_z2_elements_fill_the_l1_ball(self, bs11, L):
        # BS(1,1) = Z^2 = <a, t>: letter strings of length <= L reach the
        # 2L(L+1) nonzero points of the L^1 ball of radius L; the identity
        # (first spelled a t a^-1 t^-1) is never yielded
        yielded = list(gbs._elements(bs11, L))
        assert len(yielded) == 2 * L * (L + 1)
        points = set()
        for w, _ in yielded:
            x = sum(i.n for i in w.items if isinstance(i, Pow))
            y = sum(i.sign for i in w.items if isinstance(i, Cross))
            assert abs(x) + abs(y) <= L
            points.add((x, y))
        assert len(points) == len(yielded)

    def test_first_spelling_wins(self, bs11):
        words = [w for w, _ in gbs._elements(bs11, 2)]
        assert words[:4] == [
            W(bs11, ("a", "v", 1)),
            W(bs11, ("a", "v", -1)),
            W(bs11, ("t", "e", 1)),
            W(bs11, ("t", "e", -1)),
        ]
        # t a is a t in Z^2, so only a t is yielded
        assert W(bs11, ("a", "v", 1), ("t", "e", 1)) in words
        assert W(bs11, ("t", "e", 1), ("a", "v", 1)) not in words

    def test_crossing_ids_are_the_length_core(self, m3):
        for w, seq in gbs._elements(m3, 3):
            assert seq == sp.crossing_sequence(m3, w)


class TestModularHomomorphism:
    def test_bs24_stable_letter(self):
        g = sp.validate_graph(sp.bs(2, 4))
        assert sp.modular_homomorphism(g, W(g, ("t", "e", 1))) == 2

    def test_vertex_power_trivial(self, bs23):
        assert sp.modular_homomorphism(bs23, W(bs23, ("a", "v", 7))) == 1

    def test_unimodular_loop(self, bs11):
        assert sp.modular_homomorphism(bs11, W(bs11, ("t", "e", 1))) == 1

    def test_inverse_crossing(self, bs23):
        assert sp.modular_homomorphism(bs23, W(bs23, ("t", "e", -1))) == Fraction(
            2, 3
        )

    def test_sign(self):
        g = sp.validate_graph(sp.bs(1, -1))
        assert sp.modular_homomorphism(g, W(g, ("t", "e", 1))) == -1


class TestReduce:
    def test_loop_already_reduced(self):
        g = sp.validate_graph(sp.bs(2, 4))
        assert sp.is_reduced(g)
        assert sp.reduce(g).edges == g.edges

    def test_unit_loop_is_reduced(self, bs11):
        # loops are exempt from the unit-label rule
        assert sp.is_reduced(bs11)

    def test_segment_1_3_collapses_to_point(self):
        g = sp.validate_graph(sp.graph(("u", "v"), (("f", "u", "v", 1, 3),)))
        assert not sp.is_reduced(g)
        r = sp.reduce(g)
        assert len(r.vertices) == 1 and r.edges == ()

    def test_segment_2_2_reduced(self):
        g = sp.validate_graph(sp.graph(("u", "v"), (("f", "u", "v", 2, 2),)))
        assert sp.is_reduced(g)

    def test_collapse_rescales_loop(self):
        # loop (2,3) at u, segment u(1)--v(2): absorbing u rescales the loop
        # by lam*mu = 2
        g = sp.validate_graph(
            sp.graph(("u", "v"), (("e", "u", "u", 2, 3), ("f", "u", "v", 1, 2)))
        )
        r = sp.reduce(g)
        assert r.vertices == ("v",)
        (e,) = r.edges
        assert (e.lam, e.mu) == (4, 6)

    def test_collapse_preserves_loop_modulus(self):
        g = sp.validate_graph(
            sp.graph(("u", "v"), (("e", "u", "u", 2, 3), ("f", "u", "v", 1, 2)))
        )
        r = sp.reduce(g)
        q_before = Fraction(g.edge("e").lam, g.edge("e").mu)
        q_after = Fraction(r.edge("e").lam, r.edge("e").mu)
        assert q_before == q_after

    def test_collapse_preserves_vertex_ellipticity(self):
        g = sp.validate_graph(
            sp.graph(("u", "v"), (("e", "u", "u", 2, 3), ("f", "u", "v", 1, 2)))
        )
        r = sp.reduce(g)
        # a_u = a_v^2 after the collapse; both sides elliptic
        assert sp.is_elliptic(g, W(g, ("a", "u", 1)))
        assert sp.is_elliptic(r, W(r, ("a", "v", 2)))


class TestClassify:
    @pytest.mark.parametrize(
        "m,n,kind,nval",
        [
            (1, 1, "Z2", None),
            (1, -1, "Klein", None),
            (1, 4, "BS1n", 4),
            (1, 6, "BS1n", 6),
            (-1, 3, "BS1n", -3),
            (2, 3, "generic", None),
            (2, 4, "generic", None),
        ],
    )
    def test_loops(self, m, n, kind, nval):
        c = sp.classify_elementary(sp.bs(m, n))
        assert c.kind == kind
        assert c.n == nval

    def test_segment_2_2_klein(self):
        g = sp.graph(("u", "v"), (("f", "u", "v", 2, 2),))
        assert sp.classify_elementary(g).kind == "Klein"

    def test_segment_minus2_2_klein(self):
        g = sp.graph(("u", "v"), (("f", "u", "v", -2, 2),))
        assert sp.classify_elementary(g).kind == "Klein"

    def test_segment_1_3_is_z(self):
        g = sp.graph(("u", "v"), (("f", "u", "v", 1, 3),))
        assert sp.classify_elementary(g).kind == "Z"

    def test_m3_generic(self, m3):
        assert sp.classify_elementary(m3).kind == "generic"

    def test_label(self):
        assert sp.classify_elementary(sp.bs(1, 4)).label() == "BS(1,4)"


class TestDivisibility:
    def test_loop_2_3_holds(self, bs23):
        offenders = sp.divisibility_criterion(bs23)
        assert offenders == {"v": None}

    def test_loop_2_4_fails(self):
        g = sp.validate_graph(sp.bs(2, 4))
        offenders = sp.divisibility_criterion(g)
        assert offenders["v"] == (2, 4)

    def test_equal_labels_divide(self, m3):
        offenders = sp.divisibility_criterion(m3)
        assert offenders["u"] == (2, 2)
        assert offenders["v"] == (2, 2)


class TestJsjReport:
    def test_z2(self, bs11):
        rep = sp.jsj_report(bs11)
        assert rep.verdict("classification") == "Z2"
        assert rep.verdict("jsj") == "trivial JSJ"

    def test_klein_loop(self):
        rep = sp.jsj_report(sp.bs(1, -1))
        assert rep.verdict("classification") == "Klein"
        assert rep.verdict("jsj") == "trivial JSJ"

    def test_klein_segment(self):
        g = sp.graph(("u", "v"), (("f", "u", "v", 2, 2),))
        rep = sp.jsj_report(g)
        assert rep.verdict("classification") == "Klein"

    def test_rigid_bs23(self, bs23):
        rep = sp.jsj_report(bs23)
        assert rep.verdict("divisibility") == "holds at every vertex"
        assert rep.verdict("conclusion") == "unique reduced JSJ tree; T_co = T_J"
        assert rep.verdict("summary") == "rigid; T_co = T_J"

    def test_bs14_prime_power(self):
        rep = sp.jsj_report(sp.bs(1, 4))
        assert rep.verdict("jsj") == "JSJ space nontrivial"
        assert rep.verdict("compatibility") == "D_co = JSJ space"

    def test_bs16_not_prime_power(self):
        rep = sp.jsj_report(sp.bs(1, 6))
        assert rep.verdict("compatibility") == "D_co trivial"

    def test_prime_power_matches_trial_division(self):
        def by_trial_division(n):
            p = 2
            while p * p <= n:
                if n % p == 0:
                    while n % p == 0:
                        n //= p
                    return n == 1
                p += 1
            return n >= 2

        for n in range(10**5):
            assert gbs._is_prime_power(n) == by_trial_division(n), n
            assert gbs._is_prime_power(-n) == gbs._is_prime_power(n)

    def test_prime_power_beyond_trial_division(self):
        p, q = 10**9 + 7, 10**9 + 9
        assert gbs._is_prime_power(p**2) and gbs._is_prime_power(1000003**3)
        assert not gbs._is_prime_power(p * q)
        # a prime factor <= 41 settles any size, over the cap too
        assert gbs._is_prime_power(3**200)
        assert not gbs._is_prime_power(6 * 10**100)

    def test_bs24_out_note(self):
        rep = sp.jsj_report(sp.bs(2, 4))
        assert rep.verdict("divisibility") == "fails at some vertex"
        note = rep.verdict("out_note")
        assert note is not None and "not finitely generated" in note

    def test_bs23_no_out_note(self, bs23):
        assert sp.jsj_report(bs23).verdict("out_note") is None

    def test_reduction_applied_first(self):
        # segment(1,3) is Z after reduction
        g = sp.graph(("u", "v"), (("f", "u", "v", 1, 3),))
        rep = sp.jsj_report(g)
        assert rep.verdict("classification") == "Z"
        assert rep.values["edges_after_reduction"] == "0"


@pytest.mark.parametrize(
    "letters, shown",
    [
        ([5], "malformed letter 5;"),
        ([("a", "v", 1), ("t", "e")], "malformed letter ('t', 'e');"),
        ([("t", "e", 1, 1)], "malformed letter ('t', 'e', 1, 1);"),
        ([("a", ["v"], 1)], "malformed letter ('a', ['v'], 1);"),
        (None, "malformed letter None;"),
        ([("t", "e" * 50)], "malformed letter ('t', 'eeeeeeeeeeeee... (59 chars);"),
    ],
)
def test_make_word_malformed_letter(letters, shown):
    # the error names the letter that is not a (kind, name, exponent)
    # triple, clipped, or the letters when they cannot be iterated
    with pytest.raises(InvalidPath) as got:
        sp.make_word(sp.bs(2, 3), letters)
    assert str(got.value).startswith(shown)


def _squarefree(L):
    m = ta.master(make_m3())
    return ta.squarefree_witnesses(m, ta.collapse(m, ("e", "ep", "f")), L)


# each call is out of range at a public entry point; none may return or
# escape as an error outside the package's hierarchy
BAD_ARGUMENTS = [
    ("oracle radius -1", lambda: gbs.ball_displacement_oracle(
        sp.bs(2, 3), W(sp.bs(2, 3), ("t", "e", 1)), -1)),
    ("irreducibility L -1", lambda: gbs.irreducibility_witness(sp.bs(2, 3), -1)),
    ("squarefree L -1", lambda: _squarefree(-1)),
    ("sampled word count -1", lambda: gbs.sample_words(sp.bs(2, 3), -1, 4, 0)),
    ("sampled word length -10^5000", lambda: gbs.sample_words(sp.bs(2, 3), 1, -(10**5000), 0)),
    ("word item not a Pow or Cross", lambda: sp.validate_word(sp.bs(1, 2), GroupWord("v", ("x",)))),
    ("string exponent", lambda: W(sp.bs(1, 2), ("a", "v", "2"))),
    ("float crossing exponent", lambda: W(sp.bs(1, 2), ("t", "e", 1.0))),
    ("oracle radius 2.5", lambda: gbs.ball_displacement_oracle(
        sp.bs(2, 3), W(sp.bs(2, 3), ("t", "e", 1)), 2.5)),
    ("irreducibility L 1.5", lambda: gbs.irreducibility_witness(sp.bs(2, 3), 1.5)),
    ("sampled word count 2.0", lambda: gbs.sample_words(sp.bs(2, 3), 2.0, 3, 0)),
    ("census budget '3'", lambda: sp.enumerate_orbifolds("3")),
    ("sampled word length 2.5", lambda: gbs.sample_words(sp.bs(2, 3), 1, 2.5, 0)),
    ("unhashable base, no letters", lambda: sp.make_word(sp.bs(2, 3), [], base=[1])),
    ("unhashable base, one letter", lambda: sp.make_word(sp.bs(2, 3), [("a", "v", 1)], base=[1])),
    ("unhashable word base", lambda: sp.translation_length(sp.bs(2, 3), GroupWord(["v"], ()))),
    ("unhashable tree path vertex", lambda: gbs.tree_path(sp.bs(2, 3), [1], "v")),
]


@pytest.mark.parametrize("call", [c for _, c in BAD_ARGUMENTS], ids=[n for n, _ in BAD_ARGUMENTS])
def test_bad_arguments_raise_splittings_error(call):
    with pytest.raises(SplittingsError):
        call()

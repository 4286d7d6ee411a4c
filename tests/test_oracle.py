"""The ball oracle recomputes translation lengths from the displacement
definition on the coset model of the tree; these tests freeze small cases
worked by hand and then cross-check the Britton computation wholesale."""

import io

import pytest

import splittings as sp
from splittings import cli_io, gbs
from splittings.errors import IdentityViolation
from splittings.gbs import _ball_walk, _normalize_steps

from conftest import INPUTS, tree_distance


def W(g, *letters):
    return sp.make_word(g, letters)


def ball_vertices(g, base, radius, max_vertices):
    return [x for x, _ in _ball_walk(g, base, radius, max_vertices, ())]


class TestCosetModel:
    def test_base_vertex_is_empty_tuple(self, bs12):
        ball = ball_vertices(bs12, "v", 1, 64)
        assert () in ball

    def test_ball_radius_one_bs12(self, bs12):
        # neighbors of the base coset: t-edge up (1 residue) and 2 residues
        # down through the reversed edge
        ball = ball_vertices(bs12, "v", 1, 64)
        assert len(ball) == 4

    def test_distance_along_path(self, bs12):
        ball = ball_vertices(bs12, "v", 2, 64)
        far = [x for x in ball if len(x) == 2]
        assert far
        assert tree_distance((), far[0]) == 2

    def test_normalize_inverse_cancels(self, bs23):
        w = W(bs23, ("t", "e", 1), ("t", "e", -1))
        assert _normalize_steps(bs23, w.items)[0] == []


class TestOracleValues:
    def test_bs12_stable_letter(self, bs12):
        res = sp.ball_displacement_oracle(bs12, W(bs12, ("t", "e", 1)), 4)
        assert res.valid and res.value == 1

    def test_bs12_vertex_generator(self, bs12):
        res = sp.ball_displacement_oracle(bs12, W(bs12, ("a", "v", 1)), 4)
        assert res.valid and res.value == 0

    def test_bs23_two_crossings(self, bs23):
        w = W(bs23, ("a", "v", 1), ("t", "e", 1), ("a", "v", 1), ("t", "e", 1))
        res = sp.ball_displacement_oracle(bs23, w, 8)
        assert res.valid and res.value == 2

    def test_m3_product_of_loops(self, m3):
        w = sp.concat(W(m3, ("t", "e", 1)), W(m3, ("t", "ep", 1)))
        res = sp.ball_displacement_oracle(m3, w, 10)
        assert res.valid and res.value == 4

    def test_radius_too_small_flagged(self, bs12):
        w = sp.power(W(bs12, ("t", "e", 1)), 6)
        res = sp.ball_displacement_oracle(bs12, w, 2)
        assert not res.valid
        assert res.reason != ""
        # the pointwise identity still gives the right number
        assert res.value == sp.translation_length(bs12, w)

    def test_validity_needs_margin(self, bs12):
        w = W(bs12, ("t", "e", 1))
        res = sp.ball_displacement_oracle(bs12, w, 4)
        assert res.radius > res.reach + res.value

    def test_int_conversion(self, bs12):
        res = sp.ball_displacement_oracle(bs12, W(bs12, ("t", "e", 1)), 4)
        assert res.value == 1


class TestBallCheck:
    """The value is read at the base and every other ball vertex must agree,
    so a fault that shows at a single non-base vertex is caught."""

    @pytest.fixture
    def one_wrong_vertex(self, bs23, monkeypatch):
        # the walk carries each state's common prefix with the vertex, from
        # which the oracle reads d(x, w^2 x); one short prefix at one vertex
        # makes that distance 2 too long there
        target = ball_vertices(bs23, "v", 1, 64)[1]
        real = gbs._ball_walk

        def mutant(*args):
            for x, states in real(*args):
                if x == target:
                    steps, pending, common = states[1]
                    states = [states[0], (steps, pending, common - 1)]
                yield x, states

        monkeypatch.setattr(gbs, "_ball_walk", mutant)

    def test_oracle_raises(self, bs23, one_wrong_vertex):
        w = W(bs23, ("a", "v", 1), ("t", "e", 1), ("a", "v", 1), ("t", "e", 1))
        with pytest.raises(IdentityViolation):
            sp.ball_displacement_oracle(bs23, w, 4)

    def test_cli_exits_2(self, one_wrong_vertex):
        out, err = io.StringIO(), io.StringIO()
        argv = ["gbs", "length", str(INPUTS / "bs23.txt"), "--word", "atat",
                "--oracle", "10"]
        assert cli_io.run(argv, stdout=out, stderr=err) == 2
        assert "identity violation" in err.getvalue()

    def test_cli_compares_when_flag_invalid(self, monkeypatch):
        # the value read at the base is exact at any radius, so the CLI
        # compares it even when the ball did not cover the word's reach
        def wrong(g, w, radius):
            return gbs.OracleResult(3, False, radius, 4, 1, "radius too small")

        monkeypatch.setattr(gbs, "ball_displacement_oracle", wrong)
        out, err = io.StringIO(), io.StringIO()
        argv = ["gbs", "length", str(INPUTS / "bs23.txt"), "--word", "atat",
                "--oracle", "1"]
        assert cli_io.run(argv, stdout=out, stderr=err) == 2
        assert "oracle value 3 disagrees with Britton length 2" in err.getvalue()


class TestAgreement:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_seeded_words_agree(self, bs23, seed):
        for w in sp.sample_words(bs23, 40, 6, seed):
            ell = sp.translation_length(bs23, w)
            res = sp.ball_displacement_oracle(bs23, w, 10)
            if res.valid:
                assert res.value == ell

    def test_m3_agreement(self, m3):
        for w in sp.sample_words(m3, 40, 6, 3):
            ell = sp.translation_length(m3, w)
            res = sp.ball_displacement_oracle(m3, w, 10)
            if res.valid:
                assert res.value == ell


class TestSampling:
    def test_deterministic(self, bs23):
        a = sp.sample_words(bs23, 25, 8, 42)
        b = sp.sample_words(bs23, 25, 8, 42)
        assert a == b

    def test_seed_changes_stream(self, bs23):
        assert sp.sample_words(bs23, 25, 8, 1) != sp.sample_words(bs23, 25, 8, 2)

    def test_words_validate(self, m3):
        for w in sp.sample_words(m3, 30, 8, 9):
            sp.validate_word(m3, w)

import dataclasses
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time

import pytest

import splittings as sp
from splittings import cli_io, cylinders as cyl, tree_arithmetic as ta
from splittings.errors import (
    DocumentSyntaxError,
    IdentityViolation,
    SemanticError,
    SplittingsError,
    ZeroLabel,
)

from conftest import INPUTS

SRC = INPUTS.parent / "src"


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli_io.run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def assert_one_error_line(err, context):
    """An input error reports itself on exactly one stderr line, which
    starts with "error:"."""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), (context, err)


class TestParse:
    def test_gbs_loop(self):
        d = cli_io.parse("[gbs]\nedge e: v(2) -- v(4)\n")
        assert d.kind == "gbs"
        g = d.payload.graph
        assert g.vertices == ("v",)
        (e,) = g.edges
        assert (e.lam, e.mu) == (2, 4)

    def test_gbs_vertex_order_is_first_appearance(self):
        # vertex lines and edge ends list the vertices in the order they are met
        d = cli_io.parse(
            "[gbs]\nedge e: b(2) -- a(3)\nvertex c\nedge f: d(1) -- b(1)\nedge g: c(2) -- a(2)\n"
        )
        assert d.payload.graph.vertices == ("b", "a", "c", "d")

    @pytest.mark.parametrize(
        "body",
        [
            "vertex v\nvertex v\n",
            "edge e: v(2) -- v(3)\nvertex v\n",
            "vertex u\nedge e: u(1) -- v(2)\nvertex v\n",
        ],
    )
    def test_gbs_vertex_line_repeating_a_vertex(self, body):
        # an edge end lists a vertex only once, but a vertex line always lists it
        with pytest.raises(SemanticError) as info:
            cli_io.parse("[gbs]\n" + body)
        assert str(info.value) == "duplicate vertex id"

    def test_orbifold_cones(self):
        d = cli_io.parse("[orbifold]\ncone = 2,3,7\n")
        assert d.kind == "orbifold"
        assert d.payload.cone_points == (2, 3, 7)

    def test_zero_label_surfaces(self):
        with pytest.raises(ZeroLabel):
            cli_io.parse("[gbs]\nedge e: v(0) -- v(2)\n")

    def test_syntax_error_carries_line(self):
        with pytest.raises(DocumentSyntaxError) as exc:
            cli_io.parse("[gbs]\nvertex v\nedge oops\n")
        assert exc.value.line == 3

    def test_unknown_section(self):
        with pytest.raises(DocumentSyntaxError):
            cli_io.parse("[nope]\n")

    def test_content_before_header(self):
        with pytest.raises(DocumentSyntaxError):
            cli_io.parse("genus = 0\n[orbifold]\n")

    def test_comments_collected(self):
        d = cli_io.parse("# hello\n[gbs]\nedge e: v(2) -- v(3)\n")
        assert d.comments == ("hello",)

    def test_word_letters(self):
        d = cli_io.parse(
            "[gbs]\nedge e: u(2) -- u(3)\nword w = t[e] a[u]^2 t[e]^-1\n"
        )
        assert d.payload.words == (
            ("w", (("t", "e", 1), ("a", "u", 2), ("t", "e", -1))),
        )

    def test_master_keeps(self):
        text = (
            "[master]\nedge e: u(2) -- u(3)\nedge f: u(2) -- w(2)\n"
            "keep K1 = e, f\n"
        )
        d = cli_io.parse(text)
        assert d.kind == "master"
        assert d.payload.keeps == (("K1", ("e", "f")),)

    def test_keep_unknown_edge(self):
        with pytest.raises(SemanticError):
            cli_io.parse("[master]\nedge e: u(2) -- u(3)\nkeep K = zz\n")

    def test_atlas(self):
        d = cli_io.parse((INPUTS / "torus_cycle.txt").read_text())
        assert d.kind == "atlas"
        assert len(d.payload.skeleton.edges) == 4
        assert len(d.payload.atlas.classes) == 4

    def test_empty_document(self):
        d = cli_io.parse("")
        assert d.kind == "empty"
        assert cli_io.serialize(d) == ""

    def test_bad_circle_token(self):
        with pytest.raises(DocumentSyntaxError):
            cli_io.parse("[orbifold]\ncircle = M X B\n")

    @pytest.mark.parametrize("kind", ["orbifold", "gbs", "master", "atlas"])
    @pytest.mark.parametrize("line", ["name = m3", "name=m3", "name\t=  m3"])
    def test_one_name_rule(self, kind, line):
        body = "" if kind == "orbifold" else "vertex v\n"
        d = cli_io.parse(f"[{kind}]\n# c\n{line}\n{body}")
        assert (d.name, d.comments) == ("m3", ("c",))
        if kind != "orbifold":
            payload = d.payload
            graph = payload.graph if kind != "atlas" else payload.skeleton
            assert graph.name == "m3"
        text = cli_io.serialize(d)
        assert text.startswith(f"[{kind}]\n# c\nname = m3\n")
        assert text.count("name") == 1 and cli_io.parse(text) == d

    @pytest.mark.parametrize("kind", ["orbifold", "gbs", "master", "atlas"])
    def test_name_line_takes_no_second_word(self, kind):
        with pytest.raises(DocumentSyntaxError) as exc:
            cli_io.parse(f"[{kind}]\nname x = m3\n")
        assert str(exc.value) == f"line 2: unknown {kind} key 'name x'"

    def test_syntax_error_names_the_line_only(self):
        with pytest.raises(DocumentSyntaxError) as exc:
            cli_io.parse("[gbs]\nedge e: v(2) -- v(3)\nword w = zz\n")
        assert str(exc.value) == "line 3: bad word letter 'zz'"
        assert not hasattr(exc.value, "column")


LONG_INT = "1" * 5000
DIGIT_LIMIT = (
    f"'11111111111111111111'... (5000 chars) has 5000 digits, over the"
    f" interpreter's limit of {sys.get_int_max_str_digits()} digits for an integer"
)

# one malformed document per syntax-error site of the parser: the line the
# error names and its message after the "line N" prefix
SYNTAX_ERROR_CORPUS = {
    "header-twice": ("[gbs]\nvertex v\n[gbs]\n", 3, "more than one section header"),
    "header-unknown": ("# x\n[graph]\n", 2, "unknown section header '[graph]'"),
    "content-before-header": (
        "genus = 0\n[orbifold]\n", 1, "content before the section header"
    ),
    "comments-only": ("\n# note\n", 1, "comments without a section header"),
    "word-letter": (
        "[gbs]\nedge e: v(2) -- v(3)\nword w = zz\n", 3, "bad word letter 'zz'"
    ),
    "word-exponent-long": (
        f"[gbs]\nedge e: v(2) -- v(3)\nword w = a[v]^{LONG_INT}\n",
        3,
        "exponent too long in 'a[v]^111111111111111'... (5005 chars)",
    ),
    "word-crossing-exponent": (
        "[gbs]\nedge e: v(2) -- v(3)\nword w = t[e]^2\n",
        3,
        "crossing exponent must be +-1 in 't[e]^2'",
    ),
    "orbifold-no-equals": ("[orbifold]\ngenus 2\n", 2, "expected key = value"),
    "orbifold-bool": (
        "[orbifold]\norientable = yes\n", 2, "expected true or false, got 'yes'"
    ),
    "orbifold-int": ("[orbifold]\ngenus = x\n", 2, "expected an integer, got 'x'"),
    "orbifold-cone-empty": ("[orbifold]\ncone = 2, 3,\n", 2, "expected an integer, got ''"),
    "orbifold-circle-token": ("[orbifold]\ncircle = M X B\n", 2, "bad circle token 'X'"),
    "orbifold-corner-long": (f"[orbifold]\ncircle = M({LONG_INT}) B\n", 2, DIGIT_LIMIT),
    "orbifold-key": ("[orbifold]\nsize = 3\n", 2, "unknown orbifold key 'size'"),
    "orbifold-name-key": ("[orbifold]\nname x = 3\n", 2, "unknown orbifold key 'name x'"),
    "gbs-name-no-equals": ("[gbs]\nname m3\n", 2, "expected key = value"),
    "gbs-vertex-id": ("[gbs]\nvertex 1v\n", 2, "bad vertex id '1v'"),
    "gbs-edge-syntax": (
        "[gbs]\nedge e: v(2) - v(3)\n", 2, "bad edge syntax 'e: v(2) - v(3)'"
    ),
    "gbs-label-long": (f"[gbs]\nedge e: v({LONG_INT}) -- v(3)\n", 2, DIGIT_LIMIT),
    "gbs-base-no-equals": ("[gbs]\nvertex u\nbase u\n", 3, "expected key = value"),
    "gbs-tree-no-equals": ("[gbs]\nvertex u\ntree e\n", 3, "expected key = value"),
    "gbs-word-no-equals": ("[gbs]\nvertex u\nword w a[u]\n", 3, "expected key = value"),
    "gbs-word-name": ("[gbs]\nvertex u\nword = a[u]\n", 3, "bad word name ''"),
    "master-keep-name": (
        "[master]\nedge e: v(2) -- v(3)\nkeep 2K = e\n", 3, "bad keep name '2K'"
    ),
    "gbs-keep-line": (
        "[gbs]\nedge e: v(2) -- v(3)\nkeep K = e\n", 3, "unknown gbs line 'keep K = e'"
    ),
    "master-unknown-line": ("[master]\nloop e\n", 2, "unknown master line 'loop e'"),
    "atlas-vertex-id": ('[atlas]\nvertex "q": Z\n', 2, "bad vertex id '\"q\"'"),
    "atlas-edge-link": (
        "[atlas]\nvertex u\nedge f: u - u\n", 3, "bad atlas edge 'edge f: u - u'"
    ),
    "atlas-edge-id": ('[atlas]\nvertex u\nedge "f": u -- u\n', 3, "bad edge id '\"f\"'"),
    "atlas-edge-attribute": (
        "[atlas]\nvertex u\nedge f: u -- u, colour = red\n",
        3,
        "unknown edge attribute 'colour'",
    ),
    "atlas-edge-no-equals": (
        "[atlas]\nvertex u\nedge f: u -- u, group Z\n", 3, "expected key = value"
    ),
    "atlas-class-id": (
        "[atlas]\nvertex u\nclass u: f.o, plural = true\n", 3, "bad class id 'u'"
    ),
    "atlas-end-token": (
        "[atlas]\nvertex u\nclass u.a: f.x, plural = true\n", 3, "bad end token 'f.x'"
    ),
    "atlas-class-bool": (
        "[atlas]\nvertex u\nclass u.a: f.o, plural = maybe\n",
        3,
        "expected true or false, got 'maybe'",
    ),
    "atlas-class-attribute": (
        "[atlas]\nvertex u\nclass u.a: f.o, colour = red\n",
        3,
        "unknown class attribute 'colour'",
    ),
    "atlas-unknown-line": ("[atlas]\nvertex u\nstar u\n", 3, "unknown atlas line 'star u'"),
    "atlas-name-no-equals": ("[atlas]\nvertex u\nname\n", 3, "expected key = value"),
}


@pytest.mark.parametrize(
    "text, line, message", SYNTAX_ERROR_CORPUS.values(), ids=SYNTAX_ERROR_CORPUS
)
def test_syntax_error_corpus(text, line, message):
    with pytest.raises(DocumentSyntaxError) as exc:
        cli_io.parse(text)
    assert exc.value.line == line
    prefix, _, shown = str(exc.value).partition(": ")
    assert prefix.startswith(f"line {line}")
    assert shown == message


class TestRoundTrip:
    @pytest.mark.parametrize(
        "name",
        [
            "bs23.txt",
            "bs24.txt",
            "bs14.txt",
            "bs16.txt",
            "m3.txt",
            "pants.txt",
            "mirror_disc.txt",
            "turnover.txt",
            "torus_cycle.txt",
            "tripods.txt",
        ],
    )
    def test_corpus(self, name):
        text = (INPUTS / name).read_text()
        d = cli_io.parse(text)
        s1 = cli_io.serialize(d)
        d2 = cli_io.parse(s1)
        assert d2 == d
        assert cli_io.serialize(d2) == s1


class TestExportDot:
    def test_bs24_loop(self):
        d = cli_io.parse("[gbs]\nedge e: v(2) -- v(4)\n")
        dot = cli_io.export_dot(d.payload.graph)
        assert dot.count("->") == 1
        assert 'label="2,4"' in dot

    def test_quotient_star(self):
        d = cli_io.parse((INPUTS / "torus_cycle.txt").read_text())
        q = cyl.tree_of_cylinders_quotient(d.payload.skeleton, d.payload.atlas)
        dot = cli_io.export_dot(q)
        assert dot.count("--") == 4
        assert "Z^2" in dot and "shape=box" in dot

    def test_empty_graph(self):
        dot = cli_io.export_dot(sp.LabeledGraph((), (), None, None, ""))
        assert dot == "digraph G {\n}\n"

    def test_skeleton(self):
        d = cli_io.parse((INPUTS / "tripods.txt").read_text())
        dot = cli_io.export_dot(d.payload.skeleton)
        assert dot.startswith("graph G {")
        assert dot.count("--") == 3

    def test_free_text_labels_are_escaped(self):
        d = cli_io.parse(
            "[atlas]\n"
            'vertex c: Z"] ; x [label="\n'
            "vertex v: a\\b\n"
            'edge e: c -- v, group = "Z"\n'
            "class c.a: e.o, plural = false, in_A = true\n"
            "class v.a: e.t, plural = false, in_A = true\n"
            'cylinder e: Z"2\n'
        )
        assert cli_io.export_dot(d.payload.skeleton).splitlines()[1:4] == [
            '  "c" [label="c\\nZ\\"] ; x [label=\\""];',
            '  "v" [label="v\\na\\\\b"];',
            '  "c" -- "v" [label="\\"Z\\""];',
        ]
        q = cyl.tree_of_cylinders_quotient(d.payload.skeleton, d.payload.atlas)
        assert cli_io.export_dot(q).splitlines()[1] == (
            '  "Y1" [shape=box, label="Y1\\nZ\\"2"];'
        )


class TestRun:
    def test_report_contains_rigid(self):
        code, out, err = run("gbs", "report", str(INPUTS / "bs23.txt"))
        assert code == 0
        assert "rigid; T_co = T_J" in out

    def test_report_exit_1_past_the_divisibility_cap(self, tmp_path):
        # one vertex, more loops than the criterion compares; a loop has
        # both its ends at the vertex
        loops = sp.gbs.DIVISIBILITY_MAX_ENDS // 2 + 1
        path = tmp_path / "many_loops.txt"
        edges = "".join(f"edge e{i}: v(2) -- v(3)\n" for i in range(loops))
        path.write_text("[gbs]\nvertex v\n" + edges)
        code, out, err = run("gbs", "report", str(path))
        assert code == 1 and out == ""
        assert_one_error_line(err, "divisibility cap")
        assert f"vertex 'v' has {2 * loops} edge ends" in err
        assert "DIVISIBILITY_MAX_ENDS" in err

    def test_analyze_pants_json(self):
        code, out, _ = run(
            "orbifold", "analyze", str(INPUTS / "pants.txt"), "--json"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["chi"] == "-1"
        assert obj["hyperbolic"] is True
        assert obj["small"] is True

    def test_unknown_command_exit_1_with_usage(self):
        code, out, err = run("frobnicate")
        assert code == 1
        assert "usage" in err.lower()

    def test_missing_file_exit_1(self):
        code, _, err = run("gbs", "report", "/no/such/file.txt")
        assert code == 1
        assert err.strip() != ""

    def test_length_with_oracle(self):
        code, out, _ = run(
            "gbs",
            "length",
            str(INPUTS / "bs23.txt"),
            "--word",
            "atat",
            "--oracle",
            "10",
            "--json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["values"]["length"] == "2"
        assert obj["values"]["oracle_value"] == "2"
        assert obj["values"]["oracle_valid"] == "true"

    def test_length_inline_word(self):
        code, out, _ = run(
            "gbs",
            "length",
            str(INPUTS / "bs23.txt"),
            "--word",
            "t[e] a[v]^2 t[e]^-1",
            "--json",
        )
        assert code == 0
        assert json.loads(out)["values"]["length"] == "0"

    def test_lattice_verify(self):
        code, out, _ = run(
            "lattice",
            "verify",
            str(INPUTS / "m3.txt"),
            "--words",
            "30",
            "--maxlen",
            "6",
            "--seed",
            "5",
            "--json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["values"]["failures"] == "0"
        assert obj["seed"] == 5

    def test_quotient(self):
        code, out, _ = run(
            "cylinders", "quotient", str(INPUTS / "torus_cycle.txt"), "--json"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["quotient"]["v1"] == [{"id": "Y1", "stabilizer": "Z^2"}]
        assert len(obj["quotient"]["edges"]) == 4

    def test_quotient_collapse_flag(self):
        code, out, _ = run(
            "cylinders",
            "quotient",
            str(INPUTS / "torus_cycle.txt"),
            "--collapse",
            "--json",
        )
        assert code == 0
        assert "collapsed" in json.loads(out)

    def test_enumerate(self):
        code, out, _ = run(
            "orbifold", "enumerate", "--budget", "3", "--json"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["count"] == 59

    def test_export_dot_quotient(self):
        code, out, _ = run("export", "dot", str(INPUTS / "torus_cycle.txt"))
        assert code == 0
        assert "shape=box" in out

    @pytest.mark.parametrize("flag", [("--json",), ("--seed", "1")])
    def test_export_dot_has_no_json_or_seed(self, flag):
        # DOT output is the same whatever the flags, so there are none to ignore
        code, out, err = run("export", "dot", str(INPUTS / "bs23.txt"), *flag)
        assert code == 1 and out == ""
        assert "unrecognized arguments" in err and "usage:" in err

    @pytest.mark.parametrize(
        "name, flags, message",
        [
            ("bs23.txt", ("--skeleton",), "--skeleton applies to an atlas, not a 'gbs' document"),
            ("bs23.txt", ("--collapse",), "--collapse applies to an atlas, not a 'gbs' document"),
            ("m3.txt", ("--skeleton",), "--skeleton applies to an atlas, not a 'master' document"),
            ("m3.txt", ("--collapse",), "--collapse applies to an atlas, not a 'master' document"),
            (
                "tripods.txt", ("--skeleton", "--collapse"),
                "--collapse applies to the cylinder quotient, not to --skeleton",
            ),
        ],
        ids=["gbs-skeleton", "gbs-collapse", "master-skeleton", "master-collapse", "atlas-both"],
    )
    def test_export_dot_refuses_flags_it_would_ignore(self, name, flags, message):
        # as with --json and --seed: a flag that changes nothing is refused
        code, out, err = run("export", "dot", str(INPUTS / name), *flags)
        assert (code, out, err) == (1, "", f"error: export dot {message}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("orbifold", "analyze", "m3.txt"), "expected an orbifold document, got 'master'"),
            (
                ("gbs", "length", "pants.txt", "--word", "t"),
                "expected a gbs or master document, got 'orbifold'",
            ),
            (("gbs", "report", "tripods.txt"), "expected a gbs or master document, got 'atlas'"),
            (("lattice", "verify", "bs23.txt"), "expected a master document, got 'gbs'"),
            (("cylinders", "quotient", "pants.txt"), "expected an atlas document, got 'orbifold'"),
            (("export", "dot", "pants.txt"), "no graph to export in an 'orbifold' document"),
            (("export", "dot", None), "no graph to export in an 'empty' document"),
        ],
        ids=[
            "orbifold-analyze", "gbs-length", "gbs-report", "lattice-verify",
            "cylinders-quotient", "export-dot", "export-dot-empty",
        ],
    )
    def test_each_command_refuses_other_document_kinds(self, argv, message, tmp_path):
        # the article fits the kind: "an orbifold", "an atlas", "a gbs"
        if argv[2] is None:
            path = tmp_path / "empty.txt"
            path.write_text("", encoding="utf-8")
        else:
            path = INPUTS / argv[2]
        code, out, err = run(*argv[:2], str(path), *argv[3:])
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("orbifold", "analyze", "pants.txt"),
            ("orbifold", "enumerate", "--budget", "1"),
            ("gbs", "length", "bs23.txt", "--word", "t"),
            ("gbs", "report", "bs23.txt"),
            ("cylinders", "quotient", "tripods.txt"),
        ],
        ids=lambda argv: " ".join(argv[:2]),
    )
    def test_seed_only_where_words_are_sampled(self, argv):
        # only lattice verify samples words; the other commands have no
        # seed to take
        argv = [str(INPUTS / a) if a.endswith(".txt") else a for a in argv]
        code, out, err = run(*argv, "--seed", "1")
        assert code == 1 and out == ""
        assert "unrecognized arguments: --seed 1" in err and "usage:" in err

    def test_export_dot_orbifold_rejected(self):
        code, _, err = run("export", "dot", str(INPUTS / "pants.txt"))
        assert code == 1
        assert "error" in err

    def test_identity_violation_exit_2(self, monkeypatch, tmp_path):
        def boom(g):
            raise IdentityViolation("forced")

        monkeypatch.setattr(sp.gbs, "jsj_report", boom)
        code, _, err = run("gbs", "report", str(INPUTS / "bs23.txt"))
        assert code == 2
        assert "bug" in err

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"\xff\xfe[gbs]\n", "byte 0xff at offset 0 is not UTF-8 (invalid start byte)"),
            (b"[gbs]\nvertex v\xc3\n",
             "byte 0xc3 at offset 14 is not UTF-8 (invalid continuation byte)"),
            (b"#" * 20000 + b"\n[gbs]\nvertex \xe9",
             "byte 0xe9 at offset 20014 is not UTF-8 (unexpected end of data)"),
        ],
        ids=["start", "line 2", "past 20000 bytes"],
    )
    def test_non_utf8_file_exit_1(self, data, message, tmp_path):
        p = tmp_path / "bytes.txt"
        p.write_bytes(data)
        assert run("gbs", "report", str(p)) == (1, "", f"error: {message}\n")

    def test_syntax_error_exit_1(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("[gbs]\nedge broken\n")
        code, _, err = run("gbs", "report", str(p))
        assert code == 1
        assert "line 2" in err


class TestCommandPath:
    """run reads and parses each command's file once; the command only
    computes from the parsed document."""

    @pytest.mark.parametrize(
        "argv, reads",
        [
            (("orbifold", "analyze", "pants.txt"), 1),
            (("orbifold", "enumerate", "--budget", "2"), 0),
            (("gbs", "length", "bs23.txt", "--word", "atat", "--oracle", "4"), 1),
            (("gbs", "report", "bs23.txt"), 1),
            (("lattice", "verify", "m3.txt", "--words", "5"), 1),
            (("cylinders", "quotient", "torus_cycle.txt", "--collapse"), 1),
            (("export", "dot", "torus_cycle.txt", "--collapse"), 1),
        ],
        ids=lambda a: " ".join(a[:2]) if isinstance(a, tuple) else None,
    )
    def test_one_read_and_one_parse(self, argv, reads, monkeypatch):
        argv = [str(INPUTS / a) if a.endswith(".txt") else a for a in argv]
        opened, parsed = [], []
        real_open, real_parse = open, cli_io.parse

        def counted_open(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)

        def counted_parse(text):
            parsed.append(text)
            return real_parse(text)

        monkeypatch.setattr("builtins.open", counted_open)
        monkeypatch.setattr(cli_io, "parse", counted_parse)
        code, out, err = run(*argv)
        monkeypatch.undo()
        assert (code, err) == (0, "") and out
        assert len([f for f in opened if str(f) in argv]) == reads
        assert len(parsed) == reads

    def test_census_rows_stream(self):
        writes = []

        class Sink(io.StringIO):
            def write(self, text):
                writes.append(text)
                return super().write(text)

        assert cli_io.run(["orbifold", "enumerate", "--budget", "3"], stdout=Sink()) == 0
        # the count line, one write per row as it is made (59), the empty tail
        assert len(writes) == 1 + 59 + 1
        assert all(w.count("\n") == 1 for w in writes[:-1])

    def test_runs_in_one_process_are_independent(self, monkeypatch, tmp_path):
        # the parser is built once per process, so no call may leave state
        # in it that a later call reads
        oracle = sp.gbs.ball_displacement_oracle
        monkeypatch.setattr(
            sp.gbs, "ball_displacement_oracle",
            lambda g, w, r: dataclasses.replace(oracle(g, w, r), value=-1),
        )
        pants, bs23, m3 = (str(INPUTS / n) for n in ("pants.txt", "bs23.txt", "m3.txt"))
        torus, tripods = str(INPUTS / "torus_cycle.txt"), str(INPUTS / "tripods.txt")
        argvs = [
            ("orbifold", "analyze", pants),
            ("orbifold", "analyze", pants, "--json"),
            ("orbifold", "enumerate", "--budget", "2"),
            ("orbifold", "enumerate", "--budget", "2", "--json"),
            ("gbs", "length", bs23, "--word", "atat"),
            ("gbs", "length", bs23, "--word", "t[e] a[v]^2 t[e]^-1", "--json"),
            ("gbs", "report", bs23),
            ("gbs", "report", bs23, "--json"),
            ("lattice", "verify", m3, "--json"),
            ("lattice", "verify", m3, "--words", "7", "--maxlen", "3", "--seed", "4"),
            ("cylinders", "quotient", torus, "--collapse"),
            ("cylinders", "quotient", tripods, "--json"),
            ("export", "dot", torus, "--skeleton"),
            ("export", "dot", bs23),
            ("gbs", "length", bs23, "--word", "atat", "--oracle", "x"),
            ("gbs", "length", bs23),
            ("lattice", "verify", m3, "--words", str(cli_io.LATTICE_MAX_WORDS + 1)),
            ("frobnicate",),
            ("gbs", "report", str(tmp_path / "missing.txt")),
            ("gbs", "length", bs23, "--word", "atat", "--oracle", "4"),
        ]
        # each argv's first call has a parser of its own; every later call,
        # forward and then reversed, shares one parser with all the others
        first = {}
        for argv in argvs:
            cli_io._build_parser.cache_clear()
            first[argv] = run(*argv)
        assert sorted({code for code, _, _ in first.values()}) == [0, 1, 2]
        for argv in argvs + argvs[::-1]:
            assert run(*argv) == first[argv], argv
        assert cli_io._build_parser() is cli_io._build_parser()


U300, V300, E300 = "u" * 300, "v" * 300, "e" * 300


def _long_pair():
    return sp.graph((U300, V300), (("f", U300, V300, 2, 2),))


def _long_skeleton(*classes, stabilizers=()):
    s = cyl.SkeletonGraph(
        (cyl.SkeletonVertex(U300), cyl.SkeletonVertex(V300)),
        (cyl.SkeletonEdge(E300, U300, V300),),
    )
    return cyl.validate_atlas(s, cyl.CylinderAtlas(classes, stabilizers))


def _long_word(*items):
    return sp.translation_length(_long_pair(), sp.GroupWord(U300, items))


def _loop(eid, terminus="v", lam=2):
    return sp.validate_graph(sp.LabeledGraph(("v",), (sp.Edge(eid, "v", terminus, lam, 3),)))


def _skeleton(vertices, edges, *classes):
    s = cyl.SkeletonGraph(
        tuple(map(cyl.SkeletonVertex, vertices)), tuple(cyl.SkeletonEdge(*e) for e in edges)
    )
    return cyl.validate_atlas(s, cyl.CylinderAtlas(classes))


def _unflagged_edge(v, local_class):
    q = cyl.QuotientGraph((v,), (("Y1", "Z"),), (cyl.QEdge(v, local_class, "Y1", None),))
    return cyl.collapse_non_A(q)


X300 = "9" * 300  # no identifier, word letter, circle token or flag


LONG_NAME_ERRORS = {
    "graph-edge": lambda: _long_pair().edge(E300),
    "tree-unknown-edge": lambda: sp.validate_graph(
        sp.LabeledGraph(("v",), (sp.Edge("e", "v", "v", 1, 2),), spanning_tree=(E300,))
    ),
    "tree-misses-vertex": lambda: sp.validate_graph(
        sp.LabeledGraph(
            ("u", V300),
            (sp.Edge("e", "u", "u", 2, 3), sp.Edge("f", "u", V300, 2, 2)),
            spanning_tree=("e",),
        )
    ),
    "t-letter": lambda: sp.make_word(sp.bs(2, 3), [("t", E300, 1)]),
    "power-off-path": lambda: _long_word(sp.Pow(V300, 1)),
    "crossing-no-edge": lambda: _long_word(sp.Cross(E300, 1)),
    "crossing-off-path": lambda: _long_word(sp.Cross("f", -1)),
    "path-not-closed": lambda: _long_word(sp.Cross("f", 1)),
    "atlas-not-incident": lambda: _long_skeleton(
        cyl.LocalClass(U300, "a", ((E300, "t"),), True, True)
    ),
    "atlas-unclassed-end": lambda: _long_skeleton(
        cyl.LocalClass(U300, "a", ((E300, "o"),), True, True)
    ),
    "atlas-unknown-stabilizer-edge": lambda: _long_skeleton(
        cyl.LocalClass(U300, "a", ((E300, "o"),), True, True),
        cyl.LocalClass(V300, "a", ((E300, "t"),), True, True),
        stabilizers=(("x" * 300, "Z"),),
    ),
    "keep-unknown-edge": lambda: cli_io.parse(
        f"[master]\nvertex v\nedge e: v(2) -- v(3)\nkeep {'K' * 300} = {E300}\n"
    ),
    "graph-vertex-not-a-string": lambda: sp.validate_graph(sp.LabeledGraph(("v", (U300,)), ())),
    "atlas-vertex-not-a-string": lambda: _skeleton(("v", (U300,)), ()),
    "atlas-edge-not-a-string": lambda: _skeleton(("v",), (((E300,), "v", "v"),)),
    "graph-unknown-vertex": lambda: _loop(E300, terminus="w"),
    "graph-zero-label": lambda: _loop(E300, lam=0),
    "graph-label-type": lambda: _loop(E300, lam=2.0),
    "collapse-unknown-orbit": lambda: ta.collapse(ta.master(sp.bs(2, 3)), [E300]),
    "atlas-unknown-vertex-orbit": lambda: _skeleton(("u",), ((E300, "u", "w"),)),
    "atlas-reserved-id": lambda: _skeleton(("Y" + "1" * 299,), ()),
    "atlas-no-ends": lambda: _long_skeleton(cyl.LocalClass(U300, "a", (), True, True)),
    "atlas-no-plural": lambda: _long_skeleton(
        cyl.LocalClass(U300, "a", ((E300, "o"),), None, True)
    ),
    "atlas-classed-twice": lambda: _long_skeleton(
        cyl.LocalClass(U300, "a", ((E300, "o"),), True, True),
        cyl.LocalClass(U300, "b", ((E300, "o"),), True, True),
    ),
    "collapse-non-A-unflagged": lambda: _unflagged_edge(U300, "a"),
    "parse-header": lambda: cli_io.parse(f"[{X300}]\n"),
    "parse-name-key": lambda: cli_io.parse(f"[gbs]\nname {X300} = m\n"),
    "word-letter-line": lambda: cli_io.parse(f"[gbs]\nvertex v\nword w = {X300}\n"),
    "word-letter-flag": lambda: cli_io.parse_letters(X300),
    "word-exponent-long": lambda: cli_io.parse_letters("a[v]^" + "1" * 5000),
    "word-crossing-exponent": lambda: cli_io.parse_letters(f"t[{E300}]^2"),
    "orbifold-bool": lambda: cli_io.parse(f"[orbifold]\norientable = {X300}\n"),
    "orbifold-circle-token": lambda: cli_io.parse(f"[orbifold]\ncircle = M {X300}\n"),
    "orbifold-key": lambda: cli_io.parse(f"[orbifold]\n{X300} = 1\n"),
    "gbs-vertex-id": lambda: cli_io.parse(f"[gbs]\nvertex {X300}\n"),
    "gbs-edge-syntax": lambda: cli_io.parse(f"[gbs]\nedge {X300}\n"),
    "gbs-word-name": lambda: cli_io.parse(f"[gbs]\nvertex v\nword {X300} = a[v]\n"),
    "master-keep-name": lambda: cli_io.parse(f"[master]\nvertex v\nkeep {X300} = e\n"),
    "gbs-line": lambda: cli_io.parse(f"[gbs]\n{X300}\n"),
    "atlas-vertex-id": lambda: cli_io.parse(f"[atlas]\nvertex {X300}: Z\n"),
    "atlas-edge": lambda: cli_io.parse(f"[atlas]\nedge e: {X300}\n"),
    "atlas-edge-id": lambda: cli_io.parse(f"[atlas]\nedge {X300}: u -- v\n"),
    "atlas-edge-attribute": lambda: cli_io.parse(f"[atlas]\nedge e: u -- v, {X300} = 1\n"),
    "atlas-class-id": lambda: cli_io.parse(f"[atlas]\nclass {X300}: e.o\n"),
    "atlas-end-token": lambda: cli_io.parse(f"[atlas]\nclass u.a: {X300}\n"),
    "atlas-class-attribute": lambda: cli_io.parse(
        f"[atlas]\nclass u.a: e.o, {X300} = 1\n"
    ),
    "atlas-line": lambda: cli_io.parse(f"[atlas]\n{X300}\n"),
}


@pytest.mark.parametrize("call", LONG_NAME_ERRORS.values(), ids=LONG_NAME_ERRORS)
def test_long_names_clipped(call):
    with pytest.raises(SplittingsError) as info:
        call()
    assert "chars)" in str(info.value) and len(str(info.value)) <= 200


# the messages above that echo a name whole at 40 characters or fewer;
# the corpus of syntax errors pins the parser's
SHORT_NAME_ERRORS = {
    "graph-unknown-vertex": (
        lambda: _loop("e", terminus="w"), "edge e attached to an unknown vertex"
    ),
    "graph-zero-label": (lambda: _loop("e", lam=0), "edge e carries a zero label"),
    "graph-label-type": (
        lambda: _loop("e", lam=2.0), "edge e carries the label 2.0; labels are nonzero integers"
    ),
    "collapse-unknown-orbit": (
        lambda: ta.collapse(ta.master(sp.bs(2, 3)), ["zz"]), "unknown edge orbits ['zz']"
    ),
    "atlas-unknown-vertex-orbit": (
        lambda: _skeleton(("u",), (("e", "u", "w"),)),
        "edge e attached to an unknown vertex orbit",
    ),
    "atlas-reserved-id": (
        lambda: _skeleton(("Y1",), ()),
        "vertex orbit id 'Y1' is reserved: cylinder orbits are named Y1, Y2, ...",
    ),
    "atlas-no-ends": (
        lambda: _skeleton(("u",), (), cyl.LocalClass("u", "a", (), True, True)),
        "class u.a has no ends",
    ),
    "atlas-no-plural": (
        lambda: _skeleton(
            ("u",), (("e", "u", "u"),), cyl.LocalClass("u", "a", (("e", "o"),), None, True)
        ),
        "class ('u', 'a') has no plural flag",
    ),
    "atlas-classed-twice": (
        lambda: _skeleton(
            ("u",),
            (("e", "u", "u"),),
            cyl.LocalClass("u", "a", (("e", "o"),), True, True),
            cyl.LocalClass("u", "b", (("e", "o"),), True, True),
        ),
        "end ('e', 'o') classed twice",
    ),
    "collapse-non-A-unflagged": (
        lambda: _unflagged_edge("u", "a"), "edge (u, a) has no in_A flag"
    ),
}


@pytest.mark.parametrize(
    "call, message", SHORT_NAME_ERRORS.values(), ids=SHORT_NAME_ERRORS
)
def test_short_names_shown_whole(call, message):
    with pytest.raises(SplittingsError) as info:
        call()
    assert str(info.value) == message


class TestHostileInput:
    def test_keepless_lattice_over_cap_exit_1(self, tmp_path):
        n = cli_io.LATTICE_MAX_EDGES + 1
        p = tmp_path / "loops.txt"
        p.write_text("[master]\n" + "".join(
            f"edge e{i}: v(2) -- v(3)\n" for i in range(n)
        ))
        code, out, err = run("lattice", "verify", str(p))
        assert code == 1 and out == ""
        assert f"E = {n}" in err and "LATTICE_MAX_EDGES" in err and "keep" in err

    def test_report_on_large_prime_loop_is_fast(self, tmp_path):
        # 10^18 + 3 is prime; trial division would take about 10^9 steps
        p = tmp_path / "bs1big.txt"
        p.write_text("[gbs]\nvertex v\nedge e: v(1) -- v(1000000000000000003)\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            q for q in (str(SRC), env.get("PYTHONPATH")) if q
        )
        proc = subprocess.run(
            [sys.executable, "-m", "splittings", "gbs", "report", str(p)],
            env=env, capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == 0, proc.stderr
        assert "BS(1,1000000000000000003): D_co = JSJ space" in proc.stdout

    def test_report_over_prime_test_cap_exit_1(self, tmp_path):
        p = tmp_path / "mersenne89.txt"
        p.write_text(f"[gbs]\nvertex v\nedge e: v(1) -- v({2**89 - 1})\n")
        code, out, err = run("gbs", "report", str(p))
        assert code == 1 and out == ""
        cap = sp.gbs.PRIME_TEST_LIMIT
        assert err.startswith("error:") and f"PRIME_TEST_LIMIT = {cap}" in err

    def test_census_over_cap_exit_1(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("census work started")

        monkeypatch.setattr(sp.orbifold, "_circle_shapes", no_work)
        cap = sp.orbifold.CENSUS_MAX_BUDGET
        code, out, err = run("orbifold", "enumerate", "--budget", str(cap + 1))
        assert code == 1 and out == ""
        assert err.startswith("error:") and f"CENSUS_MAX_BUDGET = {cap}" in err

    @pytest.mark.parametrize("argv", [("cylinders", "quotient"), ("export", "dot")])
    def test_cylinder_style_vertex_id_exit_1(self, argv, tmp_path):
        p = tmp_path / "y1.txt"
        p.write_text(
            "[atlas]\n"
            "vertex Y1: Z\n"
            "vertex v: Z\n"
            "edge a: Y1 -- v, group = Z\n"
            "edge b: Y1 -- v, group = Z\n"
            "class Y1.p: a.o, plural = true, in_A = true\n"
            "class Y1.q: b.o, plural = true, in_A = true\n"
            "class v.a: a.t b.t, plural = false, in_A = true\n"
        )
        code, out, err = run(*argv, str(p))
        assert code == 1 and out == ""
        assert err.startswith("error:") and "'Y1' is reserved" in err

    def test_keepless_m3_under_cap(self, tmp_path):
        lines = (INPUTS / "m3.txt").read_text().splitlines(keepends=True)
        p = tmp_path / "m3_all.txt"
        p.write_text("".join(l for l in lines if not l.startswith("keep")))
        code, out, _ = run("lattice", "verify", str(p), "--json")
        assert code == 0
        values = json.loads(out)["values"]
        assert (values["collapses"], values["pairs"]) == ("8", "28")
        assert values["failures"] == "0"

    @pytest.mark.parametrize(
        "text, line",
        [
            ("[orbifold]\nname = x\ngenus = x\n", 3),
            ("[orbifold]\ncone = 2, 3,\n", 2),
            # past CPython's 4,300-digit limit on integer strings
            pytest.param(
                "[gbs]\nedge e: v(" + "1" * 5000 + ") -- v(3)\n", 2, id="long-lam"
            ),
            pytest.param(
                "[gbs]\nedge e: v(2) -- v(" + "1" * 5000 + ")\n", 2, id="long-mu"
            ),
            pytest.param(
                "[orbifold]\ncircle = M(" + "2" * 5000 + ") B\n", 2, id="long-corner"
            ),
            pytest.param(
                "[gbs]\nedge e: v(2) -- v(3)\nword w = a[v]^" + "1" * 5000 + "\n",
                3,
                id="long-exponent",
            ),
        ],
    )
    def test_bad_integer_is_syntax_error(self, text, line, tmp_path):
        with pytest.raises(DocumentSyntaxError) as exc:
            cli_io.parse(text)
        assert exc.value.line == line
        p = tmp_path / "bad.txt"
        p.write_text(text)
        code, _, err = run("orbifold", "analyze", str(p))
        assert code == 1
        assert f"line {line}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("gbs", "length", "bs23.txt", "--word", "atat", "--oracle", "-5"),
            ("lattice", "verify", "m3.txt", "--words", "-3"),
            ("lattice", "verify", "m3.txt", "--maxlen", "-1"),
            ("lattice", "verify", "m3.txt", "--maxlen", "0"),
            ("orbifold", "enumerate", "--budget", "-1"),
            ("orbifold", "enumerate", "--budget", "two"),
        ],
    )
    def test_negative_flags_exit_1(self, argv):
        argv = [str(INPUTS / a) if a.endswith(".txt") else a for a in argv]
        code, out, err = run(*argv)
        assert code == 1 and out == ""
        assert "error: argument" in err and "usage:" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("orbifold", "enumerate", "--budget"),
            ("lattice", "verify", "m3.txt", "--words"),
            ("lattice", "verify", "m3.txt", "--maxlen"),
            ("gbs", "length", "bs23.txt", "--word", "t", "--oracle"),
            ("lattice", "verify", "m3.txt", "--seed"),
        ],
        ids=["budget", "words", "maxlen", "oracle", "seed"],
    )
    @pytest.mark.parametrize("sign", ["", "-"])
    def test_flag_past_digit_limit_exits_1_briefly(self, argv, sign):
        # past CPython's 4,300-digit limit on integer strings: a valid
        # integer, refused by int(), echoed clipped with the limit named
        argv = [str(INPUTS / a) if a.endswith(".txt") else a for a in argv]
        code, out, err = run(*argv, sign + "7" * 5000)
        assert code == 1 and out == ""
        assert len(err) < 400 and "Traceback" not in err
        assert f"argument {argv[-1]}:" in err and "usage:" in err
        assert "5000 digits" in err and f"limit of {sys.get_int_max_str_digits()} digits" in err
        assert "(5000 chars)" in err or "(5001 chars)" in err

    def test_flag_below_bound_is_clipped(self):
        code, out, err = run("orbifold", "enumerate", "--budget", "-" + "1" * 1000)
        assert code == 1 and out == ""
        assert len(err) < 400
        assert "expected an integer >= 0, got '-1111" in err and "(1001 chars)" in err

    @pytest.mark.parametrize(
        "flag, cap",
        [("--words", "LATTICE_MAX_WORDS"), ("--maxlen", "LATTICE_MAX_WORD_LENGTH")],
    )
    @pytest.mark.parametrize(
        "value, shown",
        [("100000000", "'100000000'"), ("9" * 100, "'99999999999999999999'... (100 chars)")],
        ids=["large", "long"],
    )
    def test_lattice_flag_over_cap_exits_1_at_once(self, flag, cap, value, shown):
        start = time.perf_counter()
        code, out, err = run("lattice", "verify", str(INPUTS / "m3.txt"), flag, value)
        assert time.perf_counter() - start < 1
        assert code == 1 and out == ""
        assert f"argument {flag}: {shown} is over the cap {cap} = {getattr(cli_io, cap)}" in err

    def test_lattice_flags_at_cap_accepted(self):
        m3 = str(INPUTS / "m3.txt")
        for argv in (("--words", str(cli_io.LATTICE_MAX_WORDS), "--maxlen", "1"),
                     ("--words", "1", "--maxlen", str(cli_io.LATTICE_MAX_WORD_LENGTH))):
            code, out, err = run("lattice", "verify", m3, *argv)
            assert code == 0 and err == ""

    def test_census_cap_message_is_clipped(self):
        code, out, err = run("orbifold", "enumerate", "--budget", "1" * 4300)
        assert code == 1 and out == ""
        assert len(err.encode()) < 300
        assert "budget 11111111111111111111... (4300 chars) is over the cap" in err

    @pytest.mark.parametrize(
        "tree, message",
        [("nope", "unknown edge 'nope'"), ("f, g", "has 2 edges")],
    )
    def test_bad_tree_rejected_at_parse(self, tree, message, tmp_path):
        text = f"[gbs]\nedge f: u(2) -- v(3)\nedge g: u(3) -- v(5)\ntree = {tree}\n"
        with pytest.raises(SemanticError, match=message):
            cli_io.parse(text)
        p = tmp_path / "tree.txt"
        p.write_text(text)
        code, out, err = run("gbs", "length", str(p), "--word", "t[f] t[g]^-1")
        assert code == 1 and out == ""
        assert message in err

    @pytest.mark.parametrize(
        "word, message",
        [
            ("a[zz]", "unknown vertex 'zz'"),
            ("t[nope]", "unknown edge 'nope'"),
            pytest.param(
                "a[" + "z" * 300 + "]",
                f"unknown vertex {'z' * 20!r}... (300 chars) in letter a[{'z' * 20}... (300 chars)]",
                id="long-vertex",
            ),
        ],
    )
    def test_unknown_letter_names_exit_1(self, word, message):
        code, _, err = run("gbs", "length", str(INPUTS / "bs23.txt"), "--word", word)
        assert code == 1
        assert message in err
        assert len(err.encode()) < 200

    @pytest.mark.parametrize(
        "word, message",
        [
            ("zz", "bad word letter 'zz'"),
            ("t[e]^0", "crossing exponent"),
            pytest.param("a[a]^" + "1" * 5000, "exponent too long", id="long-exponent"),
        ],
    )
    def test_bad_word_flag_names_the_flag(self, word, message):
        code, out, err = run("gbs", "length", str(INPUTS / "bs23.txt"), "--word", word)
        assert code == 1 and out == ""
        assert "--word" in err and message in err
        assert "line 0" not in err

    def test_bad_document_word_keeps_its_line(self):
        with pytest.raises(DocumentSyntaxError) as exc:
            cli_io.parse("[gbs]\nedge e: v(2) -- v(3)\nword w = zz\n")
        assert exc.value.line == 3

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ('[atlas]\nvertex "q": Z\n', 2, "bad vertex id"),
            ('[atlas]\nvertex u\nedge "f": u -- u\n', 3, "bad edge id"),
        ],
    )
    def test_bad_atlas_id_is_syntax_error(self, text, line, message, tmp_path):
        with pytest.raises(DocumentSyntaxError, match=message) as exc:
            cli_io.parse(text)
        assert exc.value.line == line
        p = tmp_path / "ids.txt"
        p.write_text(text)
        code, out, err = run("export", "dot", str(p), "--skeleton")
        assert code == 1 and out == ""
        assert f"line {line}" in err and message in err

    @pytest.mark.parametrize("argv", [("cylinders", "quotient"), ("export", "dot")])
    def test_class_without_ends_exit_1(self, argv, tmp_path):
        p = tmp_path / "tripods.txt"
        p.write_text(
            (INPUTS / "tripods.txt").read_text()
            + "class c.b: , plural = true, in_A = true\n"
        )
        code, out, err = run(*argv, str(p))
        assert code == 1 and out == ""
        assert err.startswith("error:") and "c.b has no ends" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("seed, name", enumerate(["torus_cycle.txt", "tripods.txt"]))
    def test_atlas_parse_fuzz(self, seed, name, tmp_path):
        """Seeded mutations of an atlas: only a SplittingsError escapes parse,
        and every atlas command exits 0, or 1 with one error line."""
        rng = random.Random(seed)
        original = (INPUTS / name).read_text().splitlines()
        tokens = ("x", ",", ":", "=", "--", ".o", "-1", "9" * 20, "é", '"', "\\")
        p = tmp_path / name
        for _ in range(120):
            lines = list(original)
            for _ in range(rng.randint(1, 3)):
                i = rng.randrange(len(lines))
                text = lines[i]
                j = rng.randrange(len(text) + 1)
                op = rng.randrange(5)
                if op == 0:
                    lines[i] = text[:j] + text[j + 1:]
                elif op == 1:
                    lines[i] = text[:j] + text[j:j + 1] + text[j:]
                elif op == 2:
                    lines[i] = text[:j] + rng.choice(tokens) + text[j:]
                elif op == 3:
                    lines.insert(i, text)
                else:
                    # strip the end list of one class line; half the time
                    # the stripped line is a copy under a new class name,
                    # so that every end stays classed
                    classes = [n for n, t in enumerate(lines) if t.startswith("class ")]
                    k = rng.choice(classes or [i])
                    head, _, rest = lines[k].partition(":")
                    stripped = f"{head}: ,{rest.partition(',')[2]}"
                    if rng.random() < 0.5:
                        lines[k] = stripped
                    else:
                        lines.append(stripped.replace(":", "z:", 1))
            mutant = "\n".join(lines) + "\n"
            commands = [("cylinders", "quotient")]
            try:
                cli_io.parse(mutant)
            except SplittingsError:
                pass  # every command stops at the same parse error
            else:
                commands += [
                    ("cylinders", "quotient", "--collapse"),
                    ("export", "dot"),
                    ("export", "dot", "--skeleton"),
                    ("export", "dot", "--collapse"),
                ]
            p.write_text(mutant, encoding="utf-8")
            for argv in commands:
                code, _, err = run(*argv, str(p))
                assert code in (0, 1), (mutant, argv, err)
                if code == 1:
                    assert_one_error_line(err, (mutant, argv))

    @pytest.mark.parametrize(
        "seed, name",
        enumerate(["bs14.txt", "bs16.txt", "bs23.txt", "bs24.txt", "m3.txt",
                   "mirror_disc.txt", "pants.txt", "turnover.txt"]),
    )
    def test_document_parse_fuzz(self, seed, name, tmp_path):
        """Seeded mutations of a [gbs], [master] or [orbifold] document: only
        a SplittingsError escapes parse, and every command that applies to
        the document exits 0, or 1 with one error line."""
        rng = random.Random(seed)
        original = (INPUTS / name).read_text().splitlines()
        tokens = ("x", ",", ":", "=", "--", "(", ")", "^", "[", "]", "-1", "0",
                  "-" + "9" * 20, "9" * 20, "é", '"', "\\", " ")
        p = tmp_path / name
        for _ in range(80):
            lines = list(original)
            for _ in range(rng.randint(1, 3)):
                i = rng.randrange(len(lines))
                text = lines[i]
                j = rng.randrange(len(text) + 1)
                op = rng.randrange(5)
                if op == 0:
                    lines[i] = text[:j] + text[j + 1:]
                elif op == 1:
                    lines[i] = text[:j] + text[j:j + 1] + text[j:]
                elif op == 2:
                    lines[i] = text[:j] + rng.choice(tokens) + text[j:]
                elif op == 3:
                    lines.insert(i, text)
                else:
                    words = text.split(" ")
                    a, b = rng.randrange(len(words)), rng.randrange(len(words))
                    words[a], words[b] = words[b], words[a]
                    lines[i] = " ".join(words)
            mutant = "\n".join(lines) + "\n"
            try:
                doc = cli_io.parse(mutant)
            except SplittingsError:
                doc = None
            if doc is None or doc.kind == "orbifold":
                commands = [("orbifold", "analyze"), ("orbifold", "analyze", "--json")]
            else:
                word = doc.payload.words[0][0] if doc.payload.words else "t[e]"
                commands = [
                    ("gbs", "report"),
                    ("gbs", "report", "--json"),
                    ("gbs", "length", "--word", word),
                    ("gbs", "length", "--word", word, "--oracle", "6", "--json"),
                    ("export", "dot"),
                ]
                if doc.kind == "master":
                    commands.append(
                        ("lattice", "verify", "--words", "5", "--maxlen", "4")
                    )
            if doc is None:
                commands = commands[:1]  # every command stops at the parse error
            p.write_text(mutant, encoding="utf-8")
            for argv in commands:
                code, _, err = run(*argv, str(p))
                assert code in (0, 1), (mutant, argv, err)
                if code == 1:
                    assert_one_error_line(err, (mutant, argv))


# sha256 of stdout and the exit code of every command form the benchmark
# runs on inputs/ (bench/workloads.py INPUT_COMMANDS), in text, and of the
# --json forms of TestDeterminism; a change to default output must update
# these on purpose
PINNED_OUTPUT = [
    (("orbifold", "analyze", "mirror_disc.txt"),
     0, "fe06716d10107fe903bb414b4c5e688872259979f79cf67282d523de676ac26b"),
    (("orbifold", "analyze", "pants.txt"),
     0, "7efc9d4341ebf8f126d132ae088cc4c27be4da23b8ec9892a39bea3e258d7d87"),
    (("orbifold", "analyze", "turnover.txt"),
     0, "eb25733e13f5c1837e1cfa99a1f42001433af88a1faa66605e7bf8f7525566ce"),
    (("gbs", "report", "bs14.txt"),
     0, "ab78c1386988e02a3b0e5ced0a97eaafcc396498905faed3216e4e424247ab68"),
    (("gbs", "report", "bs16.txt"),
     0, "e23fae942a311deb8ea5858ff82d19e2cc109e7263f2612a19c058896170db3a"),
    (("gbs", "report", "bs23.txt"),
     0, "0f06cd43a97e2059bbec3e83ced06510f29c60ce49781cd8f3ec73cd4cbfc2ce"),
    (("gbs", "report", "bs24.txt"),
     0, "c25ff12744081a114ba114b3e0f2081aaf4db565fefb282232afe84497cd07eb"),
    (("gbs", "report", "m3.txt"),
     0, "5822ddcc2fc42da47b48bd5478c764b2ddc25b1eeaf0dd986f472bcceff33b2f"),
    (("gbs", "length", "bs14.txt", "--word", "t"),
     0, "15bdf110ab69beacd3a9ce81847c166532d6d0af3b048a2d88259f907a20b355"),
    (("gbs", "length", "bs16.txt", "--word", "t"),
     0, "2482fe17efd3632e26c5a667b91bca8b1da044d6b3ade16dc6956251505b7f84"),
    (("gbs", "length", "bs23.txt", "--word", "atat", "--oracle", "10"),
     0, "3d7da340f49a431608175f2f8c521d84bf1198ee69737a96133fcb05b14c31d3"),
    (("gbs", "length", "bs24.txt", "--word", "t", "--oracle", "8"),
     0, "7dd24b56e7d84d99c09b828b80e1535105944c56e17941896e513c9139b55006"),
    (("gbs", "length", "m3.txt", "--word", "tetep", "--oracle", "10"),
     0, "ddf09992b3021a6d14d99477765de886bd9f6f615446ceb4e59fc902bd76544e"),
    (("lattice", "verify", "m3.txt", "--words", "10", "--maxlen", "6", "--seed", "13"),
     0, "18cdd68b1461460e230f6d0a07da8fd10dbe3830333f9c0a4c17127bc4e0a139"),
    (("cylinders", "quotient", "torus_cycle.txt"),
     0, "844f91df571eff93570c028378bea1fbdd1639b76fd96f74ee52beb3fe41956b"),
    (("cylinders", "quotient", "tripods.txt"),
     0, "49af8ad5d80e3851a91b5f06e0079b5fedd67d3335204b92cc5f1ae4c0224ab9"),
    (("cylinders", "quotient", "tripods.txt", "--collapse", "--json"),
     0, "77eed2221c60c7e6a1f1b2707372b3398facc444cd87a31be746709aeb0d2d94"),
    (("export", "dot", "bs23.txt"),
     0, "c894db6d52e945cbef6342c9ac0e38bffac349a42f62179c90db613065dbfcdf"),
    (("export", "dot", "m3.txt"),
     0, "767cb67a65d1bff1710809370c44e4c1a8fba09aaa1d54833fbb36a11007322e"),
    (("export", "dot", "torus_cycle.txt"),
     0, "a789572eb5a9e5b6181c2deadacc941e066bae6822c5b4868431b5b67ecbd33a"),
    (("export", "dot", "tripods.txt", "--skeleton"),
     0, "2c62caaa6117af82e397fec90de6fee11b36aa24c5ef505e9a7277836cb7c7cb"),
    (("export", "dot", "tripods.txt", "--collapse"),
     0, "5a52b6271581424264758752ec19caba5c94b4d3833f1d92bf00fbbbd13a8a74"),
    (("gbs", "report", "bs23.txt", "--json"),
     0, "678477ced2438ea8513d6d3eea3380a7f5d65d77477337b5bf799104a152ae21"),
    (("gbs", "length", "bs23.txt", "--word", "atat", "--oracle", "8", "--json"),
     0, "1357f08737b0a8f6b8c35a9b09ce0cd29eac2bd2ab1f4f9b0155d3784b7ea7f3"),
    (("orbifold", "analyze", "mirror_disc.txt", "--json"),
     0, "371f8dd87d2023e55a0caa300baae3ad9d51f0f7e486c048df22722229c4d5bd"),
    (("lattice", "verify", "m3.txt", "--words", "25", "--maxlen", "6", "--seed", "11", "--json"),
     0, "b5f4f6b9cda63e6ece564ebf11ca41c4c89c33cdbd6184b17c0285be8a45b8e6"),
    (("cylinders", "quotient", "tripods.txt", "--json"),
     0, "5061073080e86b20d342b793778b2c29825bf069019922f53a153cb8cd4a03fb"),
]


@pytest.mark.parametrize(
    "argv, code, sha", PINNED_OUTPUT, ids=[" ".join(a) for a, _, _ in PINNED_OUTPUT]
)
def test_pinned_output(argv, code, sha):
    argv = [str(INPUTS / a) if a.endswith(".txt") else a for a in argv]
    got, out, _ = run(*argv)
    assert got == code
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha


@pytest.fixture
def keepless_m3(tmp_path):
    lines = (INPUTS / "m3.txt").read_text().splitlines(keepends=True)
    p = tmp_path / "m3_all.txt"
    p.write_text("".join(l for l in lines if not l.startswith("keep")))
    return str(p)


class TestLatticeVerifyCanFail:
    """Britton lengths are checked against coset-path lengths, so a fault on
    either side makes lattice verify fail."""

    def assert_fails(self, path):
        code, out, err = run("lattice", "verify", path)
        assert code == 2 and "identity violation" in err
        lines = out.splitlines()
        assert any(l.startswith("pair {") and l.endswith(": FAILED") for l in lines)

    def test_britton_side_drops_a_crossing(self, keepless_m3, monkeypatch):
        crossing_sequence = sp.gbs.crossing_sequence
        monkeypatch.setattr(
            sp.gbs, "crossing_sequence", lambda g, w: crossing_sequence(g, w)[:-1]
        )
        self.assert_fails(keepless_m3)

    def test_coset_side_drops_a_kept_orbit(self, keepless_m3, monkeypatch):
        coset_lengths = ta._coset_lengths
        monkeypatch.setattr(
            ta,
            "_coset_lengths",
            lambda shifts, kept: coset_lengths(shifts, frozenset(sorted(kept)[1:])),
        )
        self.assert_fails(keepless_m3)

    def test_coset_side_shifts_one_orbit_on_one_word(self, keepless_m3, monkeypatch):
        coset_lengths = ta._coset_lengths

        def shifted(shifts, kept):
            first = shifts[0].copy()
            first["f"] += 1
            return coset_lengths([first, *shifts[1:]], kept)

        monkeypatch.setattr(ta, "_coset_lengths", shifted)
        self.assert_fails(keepless_m3)

    def test_one_reduction_per_word(self, keepless_m3, monkeypatch):
        calls = []
        crossing_sequence = sp.gbs.crossing_sequence

        def counted(g, w):
            calls.append(w)
            return crossing_sequence(g, w)

        monkeypatch.setattr(sp.gbs, "crossing_sequence", counted)
        code, out, _ = run("lattice", "verify", keepless_m3, "--words", "10", "--json")
        assert code == 0 and json.loads(out)["values"]["pairs"] == "28"
        assert len(calls) == 10


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("gbs", "report", "bs23.txt", "--json"),
            ("gbs", "length", "bs23.txt", "--word", "atat", "--oracle", "8", "--json"),
            ("orbifold", "analyze", "mirror_disc.txt", "--json"),
            ("lattice", "verify", "m3.txt", "--words", "25", "--maxlen", "6",
             "--seed", "11", "--json"),
            ("cylinders", "quotient", "tripods.txt", "--json"),
        ],
    )
    def test_byte_identical(self, argv):
        argv = [str(INPUTS / a) if a.endswith(".txt") else a for a in argv]
        _, out1, _ = run(*argv)
        _, out2, _ = run(*argv)
        assert out1 == out2
        assert out1.encode("utf-8") == out2.encode("utf-8")


def _keys(obj):
    """Every key of every JSON object inside obj, with repeats."""
    if isinstance(obj, dict):
        return [k for key, value in obj.items() for k in (key, *_keys(value))]
    if isinstance(obj, list):
        return [k for value in obj for k in _keys(value)]
    return []


# each --json command on inputs/, what its input digest hashes, and its seed
ENVELOPE_CASES = [
    (("orbifold", "analyze", "pants.txt"), "pants.txt", None),
    (("orbifold", "enumerate", "--budget", "3"), "budget=3", None),
    (("gbs", "length", "bs23.txt", "--word", "atat", "--oracle", "8"), "bs23.txt", None),
    (("gbs", "report", "m3.txt"), "m3.txt", None),
    (("lattice", "verify", "m3.txt", "--words", "10", "--seed", "7"), "m3.txt", 7),
    (("lattice", "verify", "m3.txt", "--words", "10"), "m3.txt", 0),
    (("cylinders", "quotient", "tripods.txt", "--collapse"), "tripods.txt", None),
]


def test_one_version_string():
    pyproject = (INPUTS.parent / "pyproject.toml").read_text()
    (version,) = re.findall(r'^version = "([^"]*)"$', pyproject, re.MULTILINE)
    assert version == sp.__version__
    assert sp.report.TOOL_VERSION is sp.__version__


class TestEnvelope:
    """Every --json command opens with the same envelope: the operation,
    one tool object, the sha256 of its input and the seed of the words it
    sampled, null when it samples none."""

    @pytest.mark.parametrize(
        "argv, digested, seed", ENVELOPE_CASES, ids=[" ".join(a) for a, _, _ in ENVELOPE_CASES]
    )
    def test_one_envelope(self, argv, digested, seed):
        argv = [str(INPUTS / a) if a.endswith(".txt") else a for a in argv]
        code, out, _ = run(*argv, "--json")
        assert code == 0
        obj = json.loads(out)
        keys = _keys(obj)
        assert keys.count("tool") == 1
        assert obj["tool"] == {"name": "splittings", "version": sp.__version__}
        assert not {"provenance", "witnesses", "tool_version"} & set(keys)
        data = (INPUTS / digested).read_bytes() if digested.endswith(".txt") else digested.encode()
        assert obj["input_digest"] == hashlib.sha256(data).hexdigest()
        assert obj["seed"] == seed
        assert obj["operation"].startswith(argv[0] + ".")

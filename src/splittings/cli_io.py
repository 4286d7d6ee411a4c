"""Text formats, DOT export, and the command-line surface.

Documents are line-oriented with one bracketed section header:

    [orbifold]                      [gbs] or [master]
    name = pants                    name = m3
    orientable = true               vertex u
    genus = 0                       edge e: u(2) -- u(3)
    cone = 2, 3, 7                  base = u
    circle = plain                  tree = f
    circle = M(2) M B M(2) M B      word w = t[e] a[u]^2 t[e]^-1
                                    keep K1 = e, f        ([master] only)

    [atlas]
    vertex u1: punctured-torus
    edge e1: u1 -- u2, group = Z^2
    class u1.a: e4.t e1.o, plural = true, in_A = true
    cylinder e1: Z^2

Edge labels are positional: `edge e: u(2) -- v(3)` puts lam=2 at the origin
u and mu=3 at the terminus v. Exact rationals serialize as "p/q". Reports
are deterministic: same input and seed give byte-identical JSON.

Exit codes: 0 success, 1 input error, 2 internal identity violation (a
mathematical self-check failed, which is always a bug).
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from dataclasses import dataclass
from typing import Optional, Sequence, TextIO

from . import cylinders as cyl
from . import gbs, orbifold, tree_arithmetic
from .errors import (
    DocumentSyntaxError,
    IdentityViolation,
    SemanticError,
    SplittingsError,
    clipped,
)
from .report import TOOL_NAME, Report, digest, envelope, json_text, rational_str

Letters = tuple[tuple, ...]

# Without keep lines, lattice verify compares every pair of the 2^E
# collapses, about 4^E/2 pairs; a pair costs one union, one intersection
# and two memo reads, and each kept set one length check over the sampled
# words. With the default flags E = 8 takes 0.07-0.09 s, E = 9 0.3 s and
# E = 10 about 0.7 s (py3.11 on a 2-core Xeon); each edge costs ~2.5-3x.
LATTICE_MAX_EDGES = 9
# The sampled words are built and normalized before any comparison, so
# --words and --maxlen bound the work and memory with E. At both caps a
# keep-less E = 9 loop master takes 3.5 s and a 32-vertex cycle master with
# 3 keeps 5 s and 133 MiB peak RSS (same host); m3.txt takes 0.6 s.
LATTICE_MAX_WORDS = 1_000
LATTICE_MAX_WORD_LENGTH = 200


@dataclass(frozen=True)
class GbsSpec:
    """Payload of a [gbs] or [master] document; only [master] has keeps."""

    graph: gbs.LabeledGraph
    words: tuple[tuple[str, Letters], ...] = ()
    keeps: tuple[tuple[str, tuple[str, ...]], ...] = ()


@dataclass(frozen=True)
class AtlasSpec:
    """Payload of an [atlas] document, validated by parse; hypotheses is
    the manifest validate_atlas returned."""

    skeleton: cyl.SkeletonGraph
    atlas: cyl.CylinderAtlas
    hypotheses: tuple[str, ...]


@dataclass(frozen=True)
class Document:
    kind: str  # "orbifold" | "gbs" | "master" | "atlas" | "empty"
    payload: object
    name: str = ""
    comments: tuple[str, ...] = ()


_ID = r"[A-Za-z_][A-Za-z0-9_]*"
_EDGE_RE = re.compile(
    rf"({_ID})\s*:\s*({_ID})\s*\(\s*(-?\d+)\s*\)\s*--\s*({_ID})\s*\(\s*(-?\d+)\s*\)$"
)
_LETTER_RE = re.compile(rf"([at])\[({_ID})\](?:\^(-?\d+))?$")
_CIRCLE_TOKEN_RE = re.compile(r"(M|B)(?:\((\d+)\))?$")


def _err(msg: str, line: int, column: int = 1) -> DocumentSyntaxError:
    return DocumentSyntaxError(msg, line, column)


def parse_letters(text: str, line: Optional[int] = None) -> Letters:
    """Surface word syntax: a[v], a[v]^n, t[e], t[e]^-1. A bad letter is a
    syntax error at the given document line; without a line the text came
    from the --word flag, and the error names it."""

    def bad(msg: str) -> SplittingsError:
        return SemanticError(f"--word: {msg}") if line is None else _err(msg, line)

    letters = []
    for tok in text.split():
        m = _LETTER_RE.match(tok)
        if not m:
            raise bad(f"bad word letter {tok!r}")
        kind, name, exp = m.group(1), m.group(2), m.group(3)
        try:
            k = int(exp) if exp is not None else 1
        except ValueError:  # past the interpreter's limit on digits
            raise bad(f"exponent too long in {tok[:20]!r}...") from None
        if kind == "t" and k not in (1, -1):
            raise bad(f"crossing exponent must be +-1 in {tok!r}")
        if k != 0:
            letters.append((kind, name, k))
    return tuple(letters)


def letters_text(letters: Letters) -> str:
    return " ".join(
        f"{kind}[{name}]" + (f"^{k}" if k != 1 else "") for kind, name, k in letters
    )


def _split_kv(line_text: str, line: int) -> tuple[str, str]:
    if "=" not in line_text:
        raise _err("expected key = value", line)
    key, _, value = line_text.partition("=")
    return key.strip(), value.strip()


def _parse_bool(value: str, line: int) -> bool:
    if value == "true":
        return True
    if value == "false":
        return False
    raise _err(f"expected true or false, got {value!r}", line)


def _not_an_int(value: str, want: str) -> str:
    """Why int() refused value, echoing it clipped: a decimal integer past
    the interpreter's digit limit is named as such, anything else is not
    what was wanted."""
    shown = clipped(value)
    m = re.fullmatch(r"\s*[+-]?(\d+)\s*", value)
    limit = sys.get_int_max_str_digits()
    if m and limit and len(m.group(1)) > limit:
        return (
            f"{shown} has {len(m.group(1))} digits, over the interpreter's"
            f" limit of {limit} digits for an integer"
        )
    return f"expected {want}, got {shown}"


def _parse_int(value: str, line: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise _err(_not_an_int(value, "an integer"), line) from None


def _parse_circle(value: str, line: int) -> orbifold.BoundaryCircle:
    if value == "plain":
        return orbifold.BoundaryCircle.plain()
    word = []
    corners = []
    for tok in value.split():
        m = _CIRCLE_TOKEN_RE.match(tok)
        if not m:
            raise _err(f"bad circle token {tok!r}", line)
        word.append(m.group(1))
        corners.append(_parse_int(m.group(2), line) if m.group(2) else None)
    return orbifold.BoundaryCircle("mixed", tuple(word), tuple(corners))


def _parse_orbifold(body, name, comments) -> Document:
    orientable = True
    genus = 0
    cones: list[int] = []
    circles: list[orbifold.BoundaryCircle] = []
    for line, text in body:
        key, value = _split_kv(text, line)
        if key == "name":
            name = value
        elif key == "orientable":
            orientable = _parse_bool(value, line)
        elif key == "genus":
            genus = _parse_int(value, line)
        elif key == "cone":
            if value:
                cones += [_parse_int(x.strip(), line) for x in value.split(",")]
        elif key == "circle":
            circles.append(_parse_circle(value, line))
        else:
            raise _err(f"unknown orbifold key {key!r}", line)
    o = orbifold.validate(
        orbifold.Orbifold2(orientable, genus, tuple(cones), tuple(circles))
    )
    return Document("orbifold", o, name, comments)


def _parse_graph(body, kind, name, comments) -> Document:
    vertices: list[str] = []
    edges: list[gbs.Edge] = []
    words: list[tuple[str, Letters]] = []
    keeps: list[tuple[str, tuple[str, ...]]] = []
    base: Optional[str] = None
    tree: Optional[tuple[str, ...]] = None
    for line, text in body:
        head, _, rest = text.partition(" ")
        rest = rest.strip()
        if head == "name":
            _, name = _split_kv(text, line)
        elif head == "vertex":
            if not re.fullmatch(_ID, rest):
                raise _err(f"bad vertex id {rest!r}", line)
            vertices.append(rest)
        elif head == "edge":
            m = _EDGE_RE.match(rest)
            if not m:
                raise _err(f"bad edge syntax {rest!r}", line)
            eid, o, t = m.group(1), m.group(2), m.group(4)
            lam, mu = _parse_int(m.group(3), line), _parse_int(m.group(5), line)
            for v in (o, t):
                if v not in vertices:
                    vertices.append(v)
            edges.append(gbs.Edge(eid, o, t, lam, mu))
        elif head == "base":
            _, base = _split_kv(text, line)
        elif head == "tree":
            _, value = _split_kv(text, line)
            tree = tuple(x.strip() for x in value.split(",") if x.strip())
        elif head == "word":
            key, value = _split_kv(text, line)
            wname = key.split(" ", 1)[1].strip() if " " in key else ""
            if not re.fullmatch(_ID, wname):
                raise _err(f"bad word name {wname!r}", line)
            words.append((wname, parse_letters(value, line)))
        elif head == "keep" and kind == "master":
            key, value = _split_kv(text, line)
            kname = key.split(" ", 1)[1].strip() if " " in key else ""
            if not re.fullmatch(_ID, kname):
                raise _err(f"bad keep name {kname!r}", line)
            ids = tuple(x.strip() for x in value.split(",") if x.strip())
            keeps.append((kname, ids))
        else:
            raise _err(f"unknown {kind} line {text!r}", line)
    g = gbs.validate_graph(
        gbs.LabeledGraph(tuple(vertices), tuple(edges), base, tree, name)
    )
    known = {e.id for e in g.edges}
    for kname, ids in keeps:
        for eid in ids:
            if eid not in known:
                raise SemanticError(f"keep {clipped(kname)} names unknown edge {clipped(eid)}")
    return Document(kind, GbsSpec(g, tuple(words), tuple(keeps)), name, comments)


def _parse_atlas(body, name, comments) -> Document:
    vertices: list[cyl.SkeletonVertex] = []
    edges: list[cyl.SkeletonEdge] = []
    classes: list[cyl.LocalClass] = []
    stabs: list[tuple[str, str]] = []
    for line, text in body:
        head, _, rest = text.partition(" ")
        rest = rest.strip()
        if head == "name":
            _, name = _split_kv(text, line)
            continue
        if head == "vertex":
            vid, _, label = rest.partition(":")
            vid = vid.strip()
            if not re.fullmatch(_ID, vid):
                raise _err(f"bad vertex id {vid!r}", line)
            vertices.append(cyl.SkeletonVertex(vid, label.strip()))
            continue
        if head == "edge":
            eid, _, spec = rest.partition(":")
            eid = eid.strip()
            parts = [p.strip() for p in spec.split(",")]
            m = re.fullmatch(rf"({_ID})\s*--\s*({_ID})", parts[0])
            if not m:
                raise _err(f"bad atlas edge {text!r}", line)
            if not re.fullmatch(_ID, eid):
                raise _err(f"bad edge id {eid!r}", line)
            group = ""
            for extra in parts[1:]:
                k, v = _split_kv(extra, line)
                if k == "group":
                    group = v
                else:
                    raise _err(f"unknown edge attribute {k!r}", line)
            edges.append(
                cyl.SkeletonEdge(eid, m.group(1), m.group(2), group)
            )
            continue
        if head == "class":
            key, _, spec = rest.partition(":")
            m = re.fullmatch(rf"({_ID})\.({_ID})", key.strip())
            if not m:
                raise _err(f"bad class id {key.strip()!r}", line)
            parts = [p.strip() for p in spec.split(",")]
            ends = []
            for tok in parts[0].split():
                em = re.fullmatch(rf"({_ID})\.(o|t)", tok)
                if not em:
                    raise _err(f"bad end token {tok!r}", line)
                ends.append((em.group(1), em.group(2)))
            plural: Optional[bool] = None
            in_a: Optional[bool] = None
            for extra in parts[1:]:
                k, v = _split_kv(extra, line)
                if k == "plural":
                    plural = _parse_bool(v, line)
                elif k == "in_A":
                    in_a = _parse_bool(v, line)
                else:
                    raise _err(f"unknown class attribute {k!r}", line)
            classes.append(
                cyl.LocalClass(m.group(1), m.group(2), tuple(ends), plural, in_a)
            )
            continue
        if head == "cylinder":
            eid, _, label = rest.partition(":")
            stabs.append((eid.strip(), label.strip()))
            continue
        raise _err(f"unknown atlas line {text!r}", line)
    skeleton = cyl.SkeletonGraph(tuple(vertices), tuple(edges), name)
    atlas = cyl.CylinderAtlas(tuple(classes), tuple(stabs))
    hypotheses = tuple(cyl.validate_atlas(skeleton, atlas))
    return Document("atlas", AtlasSpec(skeleton, atlas, hypotheses), name, comments)


def parse(text: str) -> Document:
    """Parse a document; the payload comes back validated."""
    section = None
    comments: list[str] = []
    body: list[tuple[int, str]] = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            comments.append(line[1:].strip())
            continue
        if line.startswith("["):
            if section is not None:
                raise _err("more than one section header", i)
            m = re.fullmatch(r"\[(orbifold|gbs|master|atlas)\]", line)
            if not m:
                raise _err(f"unknown section header {line!r}", i)
            section = m.group(1)
            continue
        if section is None:
            raise _err("content before the section header", i)
        body.append((i, line))
    if section is None:
        if comments:
            raise _err("comments without a section header", 1)
        return Document("empty", None)
    name = ""
    if section == "orbifold":
        return _parse_orbifold(body, name, tuple(comments))
    if section in ("gbs", "master"):
        return _parse_graph(body, section, name, tuple(comments))
    return _parse_atlas(body, name, tuple(comments))


# -- serializer -----------------------------------------------------------------

def _circle_text(c: orbifold.BoundaryCircle) -> str:
    if c.is_plain():
        return "plain"
    toks = []
    for tok, corner in zip(c.word, c.corners):
        toks.append(f"{tok}({corner})" if corner is not None else tok)
    return " ".join(toks)


def _serialize_orbifold(d: Document) -> list[str]:
    o: orbifold.Orbifold2 = d.payload
    lines = []
    if d.name:
        lines.append(f"name = {d.name}")
    lines.append(f"orientable = {'true' if o.orientable else 'false'}")
    lines.append(f"genus = {o.genus}")
    if o.cone_points:
        lines.append("cone = " + ", ".join(str(q) for q in o.cone_points))
    for c in o.circles:
        lines.append(f"circle = {_circle_text(c)}")
    return lines


def _serialize_graph(d: Document) -> list[str]:
    spec: GbsSpec = d.payload
    g = spec.graph
    lines = []
    if d.name:
        lines.append(f"name = {d.name}")
    for v in g.vertices:
        lines.append(f"vertex {v}")
    for e in g.edges:
        lines.append(f"edge {e.id}: {e.origin}({e.lam}) -- {e.terminus}({e.mu})")
    if g.base is not None:
        lines.append(f"base = {g.base}")
    if g.spanning_tree:
        lines.append("tree = " + ", ".join(g.spanning_tree))
    for wname, letters in spec.words:
        lines.append(f"word {wname} = {letters_text(letters)}")
    for kname, ids in spec.keeps:
        lines.append(f"keep {kname} = " + ", ".join(ids))
    return lines


def _serialize_atlas(d: Document) -> list[str]:
    spec: AtlasSpec = d.payload
    lines = []
    if d.name:
        lines.append(f"name = {d.name}")
    for v in spec.skeleton.vertices:
        lines.append(f"vertex {v.id}: {v.group}" if v.group else f"vertex {v.id}")
    for e in spec.skeleton.edges:
        text = f"edge {e.id}: {e.origin} -- {e.terminus}"
        if e.group:
            text += f", group = {e.group}"
        lines.append(text)
    for c in spec.atlas.classes:
        ends = " ".join(f"{eid}.{side}" for eid, side in c.ends)
        text = f"class {c.vertex}.{c.name}: {ends}"
        if c.plural is not None:
            text += f", plural = {'true' if c.plural else 'false'}"
        if c.in_A is not None:
            text += f", in_A = {'true' if c.in_A else 'false'}"
        lines.append(text)
    for eid, label in spec.atlas.stabilizers:
        lines.append(f"cylinder {eid}: {label}")
    return lines


def serialize(d: Document) -> str:
    """Canonical text; parse(serialize(d)) == d and serializing again is
    byte-identical."""
    if d.kind == "empty":
        return ""
    lines = [f"[{d.kind}]"]
    lines += [f"# {c}" for c in d.comments]
    if d.kind == "orbifold":
        lines += _serialize_orbifold(d)
    elif d.kind in ("gbs", "master"):
        lines += _serialize_graph(d)
    elif d.kind == "atlas":
        lines += _serialize_atlas(d)
    else:
        raise SemanticError(f"cannot serialize document kind {d.kind!r}")
    return "\n".join(lines) + "\n"


# -- DOT export ------------------------------------------------------------------

def _dot_text(label: str) -> str:
    """Free text inside a quoted DOT string; ids need no escaping."""
    return label.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(g) -> str:
    """DOT text for a LabeledGraph (directed, edge labels "lam,mu"), a
    SkeletonGraph, or a QuotientGraph (V0 round, V1 boxed)."""
    if isinstance(g, gbs.LabeledGraph):
        lines = ["digraph G {"]
        for v in g.vertices:
            lines.append(f'  "{v}";')
        for e in g.edges:
            lines.append(f'  "{e.origin}" -> "{e.terminus}" [label="{e.lam},{e.mu}"];')
    elif isinstance(g, cyl.SkeletonGraph):
        lines = ["graph G {"]
        for v in g.vertices:
            label = f"{v.id}\\n{_dot_text(v.group)}" if v.group else v.id
            lines.append(f'  "{v.id}" [label="{label}"];')
        for e in g.edges:
            attr = f' [label="{_dot_text(e.group)}"]' if e.group else ""
            lines.append(f'  "{e.origin}" -- "{e.terminus}"{attr};')
    elif isinstance(g, cyl.QuotientGraph):
        lines = ["graph G {"]
        for v in g.v0:
            lines.append(f'  "{v}" [shape=circle];')
        for yid, label in g.v1:
            text = f"{yid}\\n{_dot_text(label)}" if label else yid
            lines.append(f'  "{yid}" [shape=box, label="{text}"];')
        for e in g.edges:
            lines.append(f'  "{e.v0}" -- "{e.cyl}" [label="{e.local_class}"];')
    else:
        raise SemanticError(f"cannot export {type(g).__name__} as DOT")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- commands --------------------------------------------------------------------

class _UsageError(Exception):
    def __init__(self, message: str, usage: str):
        super().__init__(message)
        self.usage = usage


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on bad usage, not argparse's 2
        raise _UsageError(message, self.format_usage())


def _want(doc: Document, kinds: tuple[str, ...]) -> None:
    if doc.kind not in kinds:
        raise SemanticError(
            f"expected a {' or '.join(kinds)} document, got {doc.kind!r}"
        )


def _named_word(spec, wtext: str, g: gbs.LabeledGraph) -> gbs.GroupWord:
    for wname, letters in spec.words:
        if wname == wtext:
            return gbs.make_word(g, letters)
    return gbs.make_word(g, parse_letters(wtext))


def _verdict_fields(o: orbifold.Orbifold2) -> tuple[dict, Optional[str]]:
    """The chi and hyperbolic fields and, when chi < 0, the small and
    mapping-class-group fields of one orbifold, with chi computed once;
    also the mapping-class-group note, if any."""
    chi = orbifold.euler_characteristic(o)
    fields = {"chi": rational_str(chi), "hyperbolic": chi < 0}
    if chi >= 0:
        return fields, None
    sv = orbifold._small(o)
    mv = orbifold._mcg(o)
    fields["small"] = sv.small
    fields["small_family"] = sv.family
    fields["finite_mcg"] = mv.finite
    fields["mcg_family"] = mv.family
    return fields, mv.note


def _cmd_orbifold_analyze(args, doc: Document, input_digest: str):
    o: orbifold.Orbifold2 = doc.payload
    fields, note = _verdict_fields(o)
    result: dict = {
        **envelope("orbifold.analyze", input_digest),
        "boundary_components": orbifold.boundary_components(o),
        "small": None,
        "small_family": None,
        "finite_mcg": None,
        "mcg_family": None,
        **fields,
    }
    if note:
        result["mcg_note"] = note
    hyp = result["hyperbolic"]
    if args.json:
        yield json_text(result)
    else:
        yield f"chi = {result['chi']}\n"
        yield f"hyperbolic = {str(hyp).lower()}\n"
        if hyp:
            yield f"small = {str(result['small']).lower()}"
            if result["small_family"]:
                yield f" (family {result['small_family']})"
            yield "\n"
            yield f"finite_mcg = {str(result['finite_mcg']).lower()}"
            if result["mcg_family"]:
                yield f" ({result['mcg_family']})"
            yield "\n"
        for bc in result["boundary_components"]:
            yield f"boundary: {bc['kind']} ({bc['group']})\n"


def _census_json_list(items) -> str:
    """A list of JSON values, laid out as it sits under a key of a census
    row in indent-2 JSON."""
    items = list(items)
    if not items:
        return "[]"
    return "[\n        " + ",\n        ".join(items) + "\n      ]"


def _census_json_verdict(
    small: orbifold.SmallVerdict, mcg: orbifold.McgVerdict
) -> tuple[str, str, str]:
    """A hyperbolic row's JSON lines before its genus, before its
    orientable and after it."""
    mcg_family = "null" if mcg.family is None else json.dumps(mcg.family)
    small_family = "null" if small.family is None else small.family
    return (
        f'      "finite_mcg": {"true" if mcg.finite else "false"},\n',
        f'      "hyperbolic": true,\n      "mcg_family": {mcg_family},\n',
        f',\n      "small": {"true" if small.small else "false"},'
        f'\n      "small_family": {small_family}',
    )


_CENSUS_JSON_NOT_HYPERBOLIC = ("", '      "hyperbolic": false,\n', "")


def _census_json_row(orientable, genus, cone, circles, chi, verdict) -> str:
    """One row of the orbifolds list, as json.dumps(row, sort_keys=True,
    indent=2) writes it there."""
    before_genus, before_orientable, after = verdict or _CENSUS_JSON_NOT_HYPERBOLIC
    return (
        f'    {{\n      "chi": "{chi}",\n      "circles": {circles},\n'
        f'      "cone": {cone},\n{before_genus}      "genus": {genus},\n'
        f'{before_orientable}      "orientable": {"true" if orientable else "false"}'
        f"{after}\n    }}"
    )


def _census_text_verdict(small: orbifold.SmallVerdict, mcg: orbifold.McgVerdict) -> str:
    return f" small={str(small.small).lower()} finite_mcg={str(mcg.finite).lower()}"


def _census_text_row(orientable, genus, cone, circles, chi, verdict) -> str:
    desc = "orientable" if orientable else "non-orientable"
    return f"{desc} genus={genus}{cone}{circles} | chi={chi}{verdict or ''}\n"


def _census_json_ends(args, count: int) -> tuple[str, str]:
    """The census document around its rows: the envelope keys, budget and
    count, laid out by json_text."""
    ends = {
        **envelope("orbifold.enumerate", digest(f"budget={args.budget}")),
        "budget": args.budget,
        "count": count,
        "orbifolds": [],
    }
    head, key, tail = json_text(ends).partition('"orbifolds": []')
    if not count:
        return head + key, tail
    return head + '"orbifolds": [\n', "\n  ]" + tail


def _cmd_orbifold_enumerate(args, doc: None, input_digest: None):
    """Yield each census row as it is made. The text of each cone and
    circle multiset is built once, and that of a verdict once per key that
    the census memoizes it on."""
    if args.json:
        census = orbifold._census(args.budget, _census_json_verdict)
        head, tail = _census_json_ends(args, census.count)
        cones = [_census_json_list(map(str, c)) for c in census.cones]
        circles = [
            _census_json_list(json.dumps(_circle_text(c)) for c in q) for q in census.circles
        ]
        row, sep = _census_json_row, ",\n"
    else:
        census = orbifold._census(args.budget, _census_text_verdict)
        head, tail = f"count = {census.count}\n", ""
        cones = [" cone=" + ",".join(map(str, c)) if c else "" for c in census.cones]
        circles = ["".join(f" circle[{_circle_text(c)}]" for c in q) for q in census.circles]
        row, sep = _census_text_row, ""
    yield head
    lead = ""
    for orientable, genus, i, j, n, d, verdict in census.rows:
        chi = str(n) if d == 1 else f"{n}/{d}"
        yield lead + row(orientable, genus, cones[i], circles[j], chi, verdict)
        lead = sep
    yield tail


def _cmd_gbs_length(args, doc: Document, input_digest: str):
    spec = doc.payload
    g = spec.graph
    w = _named_word(spec, args.word, g)
    seq = gbs.crossing_sequence(g, w)
    length = len(seq)
    rep = Report(operation="gbs.length", input_digest=input_digest)
    rep.values["word"] = args.word
    rep.values["length"] = str(length)
    rep.values["crossing_sequence"] = ",".join(seq)
    rep.values["modular_image"] = rational_str(gbs.modular_homomorphism(g, w))
    rep.add("translation_length", "elliptic", "true" if length == 0 else "false")
    if args.oracle is not None:
        res = gbs.ball_displacement_oracle(g, w, args.oracle)
        rep.values["oracle_value"] = str(res.value)
        rep.values["oracle_valid"] = "true" if res.valid else "false"
        if not res.valid:
            rep.add(
                "ball_displacement_oracle",
                "radius_too_small",
                res.reason,
                informational=True,
            )
        # the value read at the base is exact at any radius; the flag only
        # says whether the ball covered the word's reach
        if res.value != length:
            raise IdentityViolation(
                f"oracle value {res.value} disagrees with Britton length {length}"
            )
        rep.add("ball_displacement_oracle", "oracle_agreement", "agrees")
    yield rep.to_json() if args.json else rep.to_text()


def _cmd_gbs_report(args, doc: Document, input_digest: str):
    g = doc.payload.graph
    rep = gbs.jsj_report(g)
    rep.input_digest = input_digest
    yield rep.to_json() if args.json else rep.to_text()


def _cmd_lattice_verify(args, doc: Document, input_digest: str):
    spec: GbsSpec = doc.payload
    m = tree_arithmetic.master(spec.graph)
    if not spec.keeps and len(m.orbits) > LATTICE_MAX_EDGES:
        raise SemanticError(
            f"lattice verify without keep lines compares all 2^E collapses;"
            f" E = {len(m.orbits)} edges is over the cap LATTICE_MAX_EDGES ="
            f" {LATTICE_MAX_EDGES}; name the collapses to compare with keep lines"
        )
    words = gbs.sample_words(m.graph, args.words, args.maxlen, args.seed)
    keeps = spec.keeps
    if not keeps:
        masks = range(1 << len(m.orbits))
        subsets = [[o for i, o in enumerate(m.orbits) if mask >> i & 1] for mask in masks]
        keeps = [("{" + ",".join(kept) + "}", kept) for kept in subsets]
    collapses = [tree_arithmetic.collapse(m, ids) for _, ids in keeps]
    rep = Report(operation="lattice.verify", input_digest=input_digest, seed=args.seed)
    rep.values["words"] = str(len(words))
    rep.values["maxlen"] = str(args.maxlen)
    rep.values["collapses"] = str(len(collapses))
    failed = tree_arithmetic.verify_modularity(m, collapses, words)
    for i, j in failed:
        rep.add("verify_modularity", f"pair {keeps[i][0]},{keeps[j][0]}", "FAILED")
    rep.values["pairs"] = str(len(collapses) * (len(collapses) - 1) // 2)
    rep.values["failures"] = str(len(failed))
    verdict = "FAILED" if failed else "holds on all sampled words"
    rep.add("verify_modularity", "modularity", verdict)
    yield rep.to_json() if args.json else rep.to_text()
    if failed:
        raise IdentityViolation("length-function modularity failed")


def _quotient_json(q: cyl.QuotientGraph) -> dict:
    return {
        "v0": list(q.v0),
        "v1": [{"id": yid, "stabilizer": label} for yid, label in q.v1],
        "edges": [
            {"v0": e.v0, "class": e.local_class, "cylinder": e.cyl, "in_A": e.in_A}
            for e in q.edges
        ],
        "absorbed": [{"vertex": v, "cylinder": y} for v, y in q.absorbed],
    }


def _cmd_cylinders_quotient(args, doc: Document, input_digest: str):
    spec: AtlasSpec = doc.payload
    q = cyl._quotient(spec.skeleton, spec.atlas)
    collapsed = cyl.collapse_non_A(q) if args.collapse else None
    if args.json:
        obj = {
            **envelope("cylinders.quotient", input_digest),
            "hypotheses": spec.hypotheses,
            "quotient": _quotient_json(q),
        }
        if collapsed is not None:
            obj["collapsed"] = _quotient_json(collapsed)
        yield json_text(obj)
    else:
        shown = collapsed if collapsed is not None else q
        yield "V0: " + " ".join(shown.v0) + "\n"
        yield (
            "V1: " + " ".join(f"{yid}({label})" for yid, label in shown.v1) + "\n"
        )
        for e in shown.edges:
            yield f"edge: {e.v0} -[{e.local_class}]- {e.cyl}\n"
        for v, y in shown.absorbed:
            yield f"absorbed: {v} -> {y}\n"


def _cmd_export_dot(args, doc: Document, input_digest: str):
    if doc.kind in ("gbs", "master"):
        yield export_dot(doc.payload.graph)
    elif doc.kind == "atlas":
        spec: AtlasSpec = doc.payload
        if args.skeleton:
            yield export_dot(spec.skeleton)
        else:
            q = cyl._quotient(spec.skeleton, spec.atlas)
            if args.collapse:
                q = cyl.collapse_non_A(q)
            yield export_dot(q)
    else:
        raise SemanticError(f"no graph to export in a {doc.kind!r} document")


def _int_flag(low: Optional[int] = None, cap: Optional[tuple[str, int]] = None):
    """argparse type for an integer flag, with an optional lower bound and
    an optional named cap (name, largest accepted value)."""
    want = "an integer" if low is None else f"an integer >= {low}"

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(_not_an_int(text, want)) from None
        if low is not None and n < low:
            raise argparse.ArgumentTypeError(f"expected {want}, got {clipped(text)}")
        if cap is not None and n > cap[1]:
            raise argparse.ArgumentTypeError(
                f"{clipped(text)} is over the cap {cap[0]} = {cap[1]}"
            )
        return n

    return parse


# Built once per process and reused by every run call. This holds because
# the parser keeps no per-call state: parse_args fills a fresh namespace and
# never writes to the parser. The handlers are bound when it is first built,
# so tests must patch the library functions a command calls, not _cmd_*.
@functools.cache
def _build_parser() -> _Parser:
    p = _Parser(prog=TOOL_NAME, description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    orb = sub.add_parser("orbifold").add_subparsers(dest="sub", required=True)
    a = orb.add_parser("analyze")
    a.add_argument("file")
    a.add_argument("--json", action="store_true")
    a.set_defaults(func=_cmd_orbifold_analyze, kinds=("orbifold",))
    e = orb.add_parser("enumerate")
    e.add_argument("--budget", type=_int_flag(0), required=True)
    e.add_argument("--json", action="store_true")
    e.set_defaults(func=_cmd_orbifold_enumerate)

    gb = sub.add_parser("gbs").add_subparsers(dest="sub", required=True)
    ln = gb.add_parser("length")
    ln.add_argument("file")
    ln.add_argument("--word", required=True)
    ln.add_argument("--oracle", type=_int_flag(0), default=None, metavar="R")
    ln.add_argument("--json", action="store_true")
    ln.set_defaults(func=_cmd_gbs_length, kinds=("gbs", "master"))
    rp = gb.add_parser("report")
    rp.add_argument("file")
    rp.add_argument("--json", action="store_true")
    rp.set_defaults(func=_cmd_gbs_report, kinds=("gbs", "master"))

    lat = sub.add_parser("lattice").add_subparsers(dest="sub", required=True)
    lv = lat.add_parser("verify")
    lv.add_argument("file")
    lv.add_argument(
        "--words", type=_int_flag(0, ("LATTICE_MAX_WORDS", LATTICE_MAX_WORDS)), default=100
    )
    lv.add_argument(
        "--maxlen", type=_int_flag(1, ("LATTICE_MAX_WORD_LENGTH", LATTICE_MAX_WORD_LENGTH)),
        default=8, metavar="L",
    )
    lv.add_argument("--json", action="store_true")
    lv.add_argument("--seed", type=_int_flag(), default=0)
    lv.set_defaults(func=_cmd_lattice_verify, kinds=("master",))

    cy = sub.add_parser("cylinders").add_subparsers(dest="sub", required=True)
    cq = cy.add_parser("quotient")
    cq.add_argument("file")
    cq.add_argument("--collapse", action="store_true")
    cq.add_argument("--json", action="store_true")
    cq.set_defaults(func=_cmd_cylinders_quotient, kinds=("atlas",))

    ex = sub.add_parser("export").add_subparsers(dest="sub", required=True)
    ed = ex.add_parser("dot")
    ed.add_argument("file")
    ed.add_argument("--collapse", action="store_true")
    ed.add_argument("--skeleton", action="store_true")
    ed.set_defaults(func=_cmd_export_dot, kinds=())
    return p


def run(
    argv: Sequence[str],
    stdout: Optional[TextIO] = None,
    stderr: Optional[TextIO] = None,
) -> int:
    """Execute one command; returns the exit code (0 ok, 1 input error,
    2 identity violation). A command that names a file has it read, parsed,
    checked for kind and hashed here, once; the command computes and yields
    its output, which is written as it comes."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    try:
        args = _build_parser().parse_args(list(argv))
        doc = input_digest = None
        if "file" in args:
            with open(args.file, "r", encoding="utf-8") as fh:
                try:
                    text = fh.read()
                except UnicodeDecodeError as exc:  # one decode, so start is the file offset
                    raise SplittingsError(
                        f"byte {exc.object[exc.start]:#04x} at offset {exc.start}"
                        f" is not UTF-8 ({exc.reason})"
                    ) from None
            doc = parse(text)
            if args.kinds:
                _want(doc, args.kinds)
            input_digest = digest(text)
        out.writelines(args.func(args, doc, input_digest))
        return 0
    except _UsageError as exc:
        err.write(f"error: {exc}\n{exc.usage}")
        return 1
    except IdentityViolation as exc:
        err.write(f"identity violation (bug): {exc}\n")
        return 2
    except (SplittingsError, OSError) as exc:
        err.write(f"error: {exc}\n")
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

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
    clipped_name,
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
_ID_RE = re.compile(_ID)
_HEADER_RE = re.compile(r"\[(orbifold|gbs|master|atlas)\]")
_NAME_RE = re.compile(r"name(?=[\s=]|$)")  # the first word is "name"
_EDGE_RE = re.compile(
    rf"({_ID})\s*:\s*({_ID})\s*\(\s*(-?\d+)\s*\)\s*--\s*({_ID})\s*\(\s*(-?\d+)\s*\)"
)
_LINK_RE = re.compile(rf"({_ID})\s*--\s*({_ID})")
_CLASS_ID_RE = re.compile(rf"({_ID})\.({_ID})")
_END_RE = re.compile(rf"({_ID})\.([ot])")
_LETTER_RE = re.compile(rf"([at])\[({_ID})\](?:\^(-?\d+))?")
_CIRCLE_TOKEN_RE = re.compile(r"(M|B)(?:\((\d+)\))?")

_err = DocumentSyntaxError


def parse_letters(text: str, line: Optional[int] = None) -> Letters:
    """Surface word syntax: a[v], a[v]^n, t[e], t[e]^-1. A bad letter is a
    syntax error at the given document line; without a line the text came
    from the --word flag, and the error names it."""

    def bad(msg: str) -> SplittingsError:
        return SemanticError(f"--word: {msg}") if line is None else _err(msg, line)

    letters = []
    for tok in text.split():
        m = _LETTER_RE.fullmatch(tok)
        if not m:
            raise bad(f"bad word letter {clipped(tok)}")
        kind, name, exp = m.groups()
        try:
            k = int(exp) if exp is not None else 1
        except ValueError:  # past the interpreter's limit on digits
            raise bad(f"exponent too long in {clipped(tok)}") from None
        if kind == "t" and k not in (1, -1):
            raise bad(f"crossing exponent must be +-1 in {clipped(tok)}")
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
    if value not in ("true", "false"):
        raise _err(f"expected true or false, got {clipped(value)}", line)
    return value == "true"


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


def _match(pattern: re.Pattern, text: str, what: str, line: int) -> re.Match:
    """pattern matched on all of text, or a syntax error naming text a bad `what`."""
    m = pattern.fullmatch(text)
    if not m:
        raise _err(f"bad {what} {clipped(text)}", line)
    return m


def _id_list(value: str) -> tuple[str, ...]:
    """The ids of a comma list, blank entries dropped."""
    return tuple(x.strip() for x in value.split(",") if x.strip())


def _named_value(text: str, line: int) -> tuple[str, str]:
    """The NAME and the value of a `word NAME = value` or `keep NAME = value` line."""
    key, value = _split_kv(text, line)
    head, _, name = key.partition(" ")
    return _match(_ID_RE, name.strip(), f"{head} name", line)[0], value


def _attributes(parts: list[str], line: int, what: str, readers: dict) -> dict:
    """The `key = value` attributes of an atlas line, each read by readers[key],
    as keyword arguments: a key is the name of the field it sets."""
    found = {}
    for part in parts:
        key, value = _split_kv(part, line)
        if key not in readers:
            raise _err(f"unknown {what} attribute {clipped(key)}", line)
        found[key] = readers[key](value, line)
    return found


_EDGE_ATTRIBUTES = {"group": lambda value, line: value}
_CLASS_ATTRIBUTES = {"plural": _parse_bool, "in_A": _parse_bool}


def _parse_circle(value: str, line: int) -> orbifold.BoundaryCircle:
    if value == "plain":
        return orbifold.BoundaryCircle.plain()
    word, corners = [], []
    for tok in value.split():
        mark, corner = _match(_CIRCLE_TOKEN_RE, tok, "circle token", line).groups()
        word.append(mark)
        corners.append(_parse_int(corner, line) if corner else None)
    return orbifold.BoundaryCircle("mixed", tuple(word), tuple(corners))


def _parse_orbifold(body) -> orbifold.Orbifold2:
    orientable = True
    genus = 0
    cones: list[int] = []
    circles: list[orbifold.BoundaryCircle] = []
    for line, text in body:
        key, value = _split_kv(text, line)
        if key == "orientable":
            orientable = _parse_bool(value, line)
        elif key == "genus":
            genus = _parse_int(value, line)
        elif key == "cone":
            if value:
                cones += [_parse_int(x.strip(), line) for x in value.split(",")]
        elif key == "circle":
            circles.append(_parse_circle(value, line))
        else:
            raise _err(f"unknown orbifold key {clipped(key)}", line)
    return orbifold.validate(orbifold.Orbifold2(orientable, genus, tuple(cones), tuple(circles)))


def _parse_graph(body, kind: str, name: str) -> GbsSpec:
    vertices: list[str] = []
    edges: list[gbs.Edge] = []
    words: list[tuple[str, Letters]] = []
    keeps: list[tuple[str, tuple[str, ...]]] = []
    base: Optional[str] = None
    tree: Optional[tuple[str, ...]] = None
    for line, text in body:
        head, _, rest = text.partition(" ")
        rest = rest.strip()
        if head == "vertex":
            vertices.append(_match(_ID_RE, rest, "vertex id", line)[0])
        elif head == "edge":
            eid, o, lam, t, mu = _match(_EDGE_RE, rest, "edge syntax", line).groups()
            lam, mu = _parse_int(lam, line), _parse_int(mu, line)
            for v in (o, t):
                if v not in vertices:
                    vertices.append(v)
            edges.append(gbs.Edge(eid, o, t, lam, mu))
        elif head == "base":
            base = _split_kv(text, line)[1]
        elif head == "tree":
            tree = _id_list(_split_kv(text, line)[1])
        elif head == "word":
            wname, value = _named_value(text, line)
            words.append((wname, parse_letters(value, line)))
        elif head == "keep" and kind == "master":
            kname, value = _named_value(text, line)
            keeps.append((kname, _id_list(value)))
        else:
            raise _err(f"unknown {kind} line {clipped(text)}", line)
    g = gbs.validate_graph(gbs.LabeledGraph(tuple(vertices), tuple(edges), base, tree, name))
    for kname, ids in keeps:
        for eid in ids:
            if eid not in g.index.edges:
                raise SemanticError(f"keep {clipped(kname)} names unknown edge {clipped(eid)}")
    return GbsSpec(g, tuple(words), tuple(keeps))


def _parse_atlas(body, name: str) -> AtlasSpec:
    vertices: list[cyl.SkeletonVertex] = []
    edges: list[cyl.SkeletonEdge] = []
    classes: list[cyl.LocalClass] = []
    stabs: list[tuple[str, str]] = []
    for line, text in body:
        # every atlas line reads `head key: spec`
        head, _, rest = text.partition(" ")
        key, _, spec = rest.partition(":")
        key = key.strip()
        if head == "vertex":
            vid = _match(_ID_RE, key, "vertex id", line)[0]
            vertices.append(cyl.SkeletonVertex(vid, spec.strip()))
        elif head == "edge":
            link, *extras = spec.split(",")
            m = _LINK_RE.fullmatch(link.strip())
            if not m:
                raise _err(f"bad atlas edge {clipped(text)}", line)
            eid = _match(_ID_RE, key, "edge id", line)[0]
            attrs = _attributes(extras, line, "edge", _EDGE_ATTRIBUTES)
            edges.append(cyl.SkeletonEdge(eid, *m.groups(), **attrs))
        elif head == "class":
            vertex, cname = _match(_CLASS_ID_RE, key, "class id", line).groups()
            first, *extras = spec.split(",")
            ends = [_match(_END_RE, tok, "end token", line).groups() for tok in first.split()]
            flags = _attributes(extras, line, "class", _CLASS_ATTRIBUTES)
            classes.append(cyl.LocalClass(vertex, cname, tuple(ends), **flags))
        elif head == "cylinder":
            stabs.append((key, spec.strip()))
        else:
            raise _err(f"unknown atlas line {clipped(text)}", line)
    skeleton = cyl.SkeletonGraph(tuple(vertices), tuple(edges), name)
    atlas = cyl.CylinderAtlas(tuple(classes), tuple(stabs))
    return AtlasSpec(skeleton, atlas, tuple(cyl.validate_atlas(skeleton, atlas)))


def parse(text: str) -> Document:
    """Parse a document; the payload comes back validated. In every section
    a line whose first word is `name` reads `name = value`; the last one
    names the document."""
    section = None
    name = ""
    comments: list[str] = []
    body: list[tuple[int, str]] = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            comments.append(line[1:].strip())
        elif line.startswith("["):
            if section is not None:
                raise _err("more than one section header", i)
            m = _HEADER_RE.fullmatch(line)
            if not m:
                raise _err(f"unknown section header {clipped(line)}", i)
            section = m.group(1)
        elif section is None:
            raise _err("content before the section header", i)
        elif _NAME_RE.match(line):
            key, name = _split_kv(line, i)
            if key != "name":
                raise _err(f"unknown {section} key {clipped(key)}", i)
        else:
            body.append((i, line))
    if section is None:
        if comments:
            raise _err("comments without a section header", 1)
        return Document("empty", None)
    if section == "orbifold":
        payload = _parse_orbifold(body)
    elif section == "atlas":
        payload = _parse_atlas(body, name)
    else:
        payload = _parse_graph(body, section, name)
    return Document(section, payload, name, tuple(comments))


# -- serializer -----------------------------------------------------------------

def _circle_text(c: orbifold.BoundaryCircle) -> str:
    if c.is_plain():
        return "plain"
    toks = []
    for tok, corner in zip(c.word, c.corners):
        toks.append(f"{tok}({corner})" if corner is not None else tok)
    return " ".join(toks)


def _serialize_orbifold(o: orbifold.Orbifold2) -> list[str]:
    lines = [f"orientable = {'true' if o.orientable else 'false'}", f"genus = {o.genus}"]
    if o.cone_points:
        lines.append("cone = " + ", ".join(str(q) for q in o.cone_points))
    for c in o.circles:
        lines.append(f"circle = {_circle_text(c)}")
    return lines


def _serialize_graph(spec: GbsSpec) -> list[str]:
    g = spec.graph
    lines = []
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


def _serialize_atlas(spec: AtlasSpec) -> list[str]:
    lines = []
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
    if d.name:
        lines.append(f"name = {d.name}")
    if d.kind == "orbifold":
        lines += _serialize_orbifold(d.payload)
    elif d.kind in ("gbs", "master"):
        lines += _serialize_graph(d.payload)
    elif d.kind == "atlas":
        lines += _serialize_atlas(d.payload)
    else:
        raise SemanticError(f"cannot serialize document kind {clipped_name(d.kind)}")
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

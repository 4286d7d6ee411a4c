"""Seeded inputs, op cycles and answer checks for the three bench workloads.

Every workload is a fixed cycle of ops built from ``random.Random(seed)``;
the timed loop repeats the cycle, so each op has the same inputs every time
it runs. An op returns its answer; the answer is hashed and compared with a
stored reference (seed-independent ops, ``reference.json``) or with the
answer of the op's first run (seeded ops), and checked against a closed
form where one exists.

The program only ever receives generated inputs: surface-letter tuples,
graphs built with ``gbs.graph``/``gbs.bs``, and document texts written to a
scratch directory and read back by the CLI. All calls go through module
attributes (``gbs.make_word``, not ``from ... import``), so the tracer in
``tracing.py`` can rebind them.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from splittings import cli_io, gbs, report, tree_arithmetic

ROOT = Path(__file__).resolve().parent.parent
INPUTS = ROOT / "inputs"
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

WORKLOADS = ("wide-graph", "deep-words", "cli-batch")


@dataclass
class Op:
    """One closed-loop operation. ``run`` returns the answer; ``check``
    returns an error string or None; ``ref`` names the stored reference of a
    seed-independent op. ``kind`` groups ops for per-layer attribution."""

    kind: str
    run: Callable[[], object]
    check: Optional[Callable[[object], Optional[str]]] = None
    ref: Optional[str] = None


@dataclass
class Workload:
    name: str
    cycle: list[Op]
    sizes: dict = field(default_factory=dict)


def digest(answer: object) -> str:
    return hashlib.sha256(repr(answer).encode("utf-8")).hexdigest()


def load_reference() -> dict[str, str]:
    return json.loads(REFERENCE_FILE.read_text())


class AnswerChecker:
    """Compares each answer with its reference and its closed-form check.
    Seeded ops are keyed by their position in the cycle."""

    def __init__(self, reference: dict[str, str]):
        self.reference = reference
        self.first: dict[int, str] = {}

    def check(self, index: int, op: Op, answer: object) -> Optional[str]:
        d = digest(answer)
        if op.ref is not None:
            want = self.reference.get(op.ref)
            if want is None:
                return f"no stored reference for {op.ref!r}"
            if d != want:
                return f"answer of {op.ref!r} differs from the stored reference"
        else:
            want = self.first.setdefault(index, d)
            if d != want:
                return f"answer of op {index} ({op.kind}) changed between runs"
        if op.check is not None:
            return op.check(answer)
        return None


# -- seeded generators ------------------------------------------------------------

LABELS = (-3, -2, 2, 3, 4, 5, 6)
EXPONENTS = (-3, -2, -1, 1, 2, 3)


def cycle_edges(rng: random.Random, V: int) -> tuple[list[str], list[tuple]]:
    """A V-cycle of edges c00.. with a loop l00.. at every 7th vertex."""
    width = len(str(V - 1))
    vs = [f"v{i:0{width}d}" for i in range(V)]
    edges = []
    for i in range(V):
        edges.append(
            (f"c{i:0{width}d}", vs[i], vs[(i + 1) % V], rng.choice(LABELS), rng.choice(LABELS))
        )
    for i in range(0, V, 7):
        edges.append((f"l{i:0{width}d}", vs[i], vs[i], rng.choice(LABELS), rng.choice(LABELS)))
    return vs, edges


def random_letters(rng: random.Random, g: gbs.LabeledGraph, n: int, edges=None) -> tuple:
    """n surface letters, each with probability 1/2 a vertex power a[v]^k,
    k in +-{1,2,3}, else an edge crossing t[e]^+-1 (from ``edges`` when
    given, and never when there is no edge to cross)."""
    edges = g.edges if edges is None else edges
    powers = [("a", v, k) for v in g.vertices for k in EXPONENTS]
    crossings = [("t", e.id, k) for e in edges for k in (1, -1)]
    if not crossings:
        return tuple(rng.choices(powers, k=n))
    weights = [len(crossings)] * len(powers) + [len(powers)] * len(crossings)
    return tuple(rng.choices(powers + crossings, weights, k=n))


def hyperbolic_letters(rng: random.Random, g: gbs.LabeledGraph, n: int) -> tuple:
    """n letters with exactly one crossing of a loop edge. The exponent sum of
    that loop's crossings is a homomorphism to Z that kills every vertex
    group, so a nonzero sum proves the element hyperbolic."""
    loops = [e for e in g.edges if e.is_loop()]
    others = [e for e in g.edges if not e.is_loop()]
    core = list(random_letters(rng, g, n - 1, others))
    core.insert(rng.randrange(n), ("t", rng.choice(loops).id, rng.choice((1, -1))))
    return tuple(core)


def modular_closed_form(g: gbs.LabeledGraph, letters) -> Fraction:
    """The modular image of a letter word, from the labels alone. Let phi(v)
    be the product of lam/mu along the spanning-tree path from the base to
    v. A vertex power is conjugated by a path and its reverse, so it counts
    1; a crossing from x to y is routed base -> x -> y -> base, so it counts
    phi(x) * (lam/mu)^+-1 / phi(y)."""
    edges = {e.id: e for e in g.edges}
    phi = {g.base: Fraction(1)}
    tree = [edges[eid] for eid in g.spanning_tree]
    while len(phi) < len(g.vertices):
        for e in tree:
            if e.origin in phi and e.terminus not in phi:
                phi[e.terminus] = phi[e.origin] * Fraction(e.lam, e.mu)
            elif e.terminus in phi and e.origin not in phi:
                phi[e.origin] = phi[e.terminus] * Fraction(e.mu, e.lam)
    net: dict[str, int] = {}
    for kind, name, k in letters:
        if kind == "t":
            net[name] = net.get(name, 0) + k
    q = Fraction(1)
    for name, k in net.items():
        e = edges[name]
        q *= (phi[e.origin] * Fraction(e.lam, e.mu) / phi[e.terminus]) ** k
    return q


def expect_equal(what: str, got, want) -> Optional[str]:
    return None if got == want else f"{what}: got {got!r}, want {want!r}"


def m3_graph() -> gbs.LabeledGraph:
    return gbs.graph(
        ("u", "v"),
        (("e", "u", "u", 2, 3), ("ep", "v", "v", 2, 3), ("f", "u", "v", 2, 2)),
        name="m3",
    )


# -- wide-graph ----------------------------------------------------------------------

WIDE_SIZES = (16, 32, 64)
# Op i runs on size i % 3 with a word of 1 + (i // 3) % 8 letters, plus
# axis_gap when i % 4 == 3. 96 ops give every (size, length) pair 4 words;
# the 4 V64 8-letter ops with axis_gap are the heaviest class.
WIDE_CYCLE = 96


def _wide_op(g, collapses, m, letters, pair) -> Op:
    def run():
        w = gbs.make_word(g, letters)
        tl = gbs.translation_length(g, w)
        mod = gbs.modular_homomorphism(g, w)
        parts = tuple(tree_arithmetic.length_in_collapse(m, K, w) for K in collapses)
        gap = None
        if pair is not None:
            w1 = gbs.make_word(g, pair[0])
            w2 = gbs.make_word(g, pair[1])
            r = gbs.axis_gap(g, w1, w2)
            gap = (r.kind, r.gap)
        return (len(w.items), tl, mod, parts, gap)

    want_mod = modular_closed_form(g, letters)

    def check(ans):
        _, tl, mod, parts, _ = ans
        # the three collapses partition the edge orbits
        return expect_equal("modular image", mod, want_mod) or expect_equal(
            "sum of collapse lengths", sum(parts), tl
        )

    return Op(f"V{len(g.vertices)}", run, check)


def build_wide(rng: random.Random) -> Workload:
    graphs = {}
    for V in WIDE_SIZES:
        vs, edges = cycle_edges(rng, V)
        graphs[V] = gbs.graph(vs, edges, name=f"cycle{V}")
    masters = {V: tree_arithmetic.master(g) for V, g in graphs.items()}
    collapses = {
        V: [tree_arithmetic.collapse(m, m.orbits[j::3]) for j in range(3)]
        for V, m in masters.items()
    }
    cycle = []
    for i in range(WIDE_CYCLE):
        V = WIDE_SIZES[i % 3]
        g = graphs[V]
        letters = random_letters(rng, g, 1 + (i // 3) % 8)
        pair = None
        if i % 4 == 3:
            pair = (hyperbolic_letters(rng, g, 3), hyperbolic_letters(rng, g, 3))
        cycle.append(_wide_op(g, collapses[V], masters[V], letters, pair))
    sizes = {
        "V": list(WIDE_SIZES),
        "edges": [len(graphs[V].edges) for V in WIDE_SIZES],
        "word_letters": [1, 8],
        "axis_pair_letters": 3,
        "ops_per_cycle": len(cycle),
    }
    return Workload("wide-graph", cycle, sizes)


# -- deep-words ----------------------------------------------------------------------

CONJUGATE_NS = (250, 500, 1000)
# 149 ops per cycle: op_p99_ms, the 99th percentile of the per-op medians,
# then lies between the n=1000 conjugate and the BS(1,1) search.
DEEP_RANDOM_WORDS = 60
DEEP_ORACLE_WORDS = 40
DEEP_AXIS_PAIRS = 43
ORACLE_RADIUS = 12


def _conjugate_op(g, n, want) -> Op:
    letters = (("t", "e", 1),) * (n + 1) + (("a", "v", 1),) + (("t", "e", -1),) * n

    def run():
        return gbs.translation_length(g, gbs.make_word(g, letters))

    return Op(
        "conjugate",
        run,
        lambda ans: expect_equal(f"length of t^{n} (t a) t^-{n}", ans, want),
        ref=f"deep-words/conjugate/{n}",
    )


def _random_word_op(g, letters) -> Op:
    def run():
        w = gbs.make_word(g, letters)
        return (gbs.translation_length(g, w), gbs.modular_homomorphism(g, w))

    want = modular_closed_form(g, letters)
    return Op("random", run, lambda ans: expect_equal("modular image", ans[1], want))


def _oracle_op(g, letters) -> Op:
    def run():
        w = gbs.make_word(g, letters)
        res = gbs.ball_displacement_oracle(g, w, ORACLE_RADIUS)
        return (gbs.translation_length(g, w), res.value, res.valid)

    def check(ans):
        tl, value, valid = ans
        return expect_equal("valid oracle value", value, tl) if valid else None

    return Op("oracle", run, check)


def _axis_op(g, pair) -> Op:
    def run():
        r = gbs.axis_gap(g, gbs.make_word(g, pair[0]), gbs.make_word(g, pair[1]))
        return (r.kind, r.gap)

    return Op("axis", run)


def _canonical_squarefree(wit) -> list:
    rows = []
    for pair, w in wit.items():
        key = sorted(sorted(K.kept) for K in pair)
        rows.append((key, None if w is None else (w.base, w.items)))
    return sorted(rows, key=repr)


def build_deep(rng: random.Random) -> Workload:
    bs12, bs23, bs11 = gbs.bs(1, 2), gbs.bs(2, 3), gbs.bs(1, 1)
    m3 = m3_graph()
    m = tree_arithmetic.master(m3)
    full = tree_arithmetic.collapse(m, m.orbits)
    ta = gbs.make_word(bs23, (("t", "e", 1), ("a", "v", 1)))
    want_conjugate = gbs.translation_length(bs23, ta)

    light: list[Op] = []  # seeded ops
    word_graphs = (bs12, bs23, m3)
    lengths = []
    for i in range(DEEP_RANDOM_WORDS):
        # stratified over 500..2000 letters so the length mix is the same
        # for every seed
        n = 500 + (1500 * i) // (DEEP_RANDOM_WORDS - 1)
        lengths.append(n)
        g = word_graphs[i % 3]
        light.append(_random_word_op(g, random_letters(rng, g, n)))
    for i in range(DEEP_ORACLE_WORDS):
        g = word_graphs[i % 3]
        light.append(_oracle_op(g, random_letters(rng, g, 1 + i % 8)))
    for i in range(DEEP_AXIS_PAIRS):
        g = (bs23, m3)[i % 2]
        n = 1 + i % 6
        light.append(_axis_op(g, (hyperbolic_letters(rng, g, n), hyperbolic_letters(rng, g, n))))
    rng.shuffle(light)

    fixed = [_conjugate_op(bs23, n, want_conjugate) for n in CONJUGATE_NS]
    fixed.append(
        Op(
            "irreducibility",
            lambda: gbs.irreducibility_witness(bs11, 5),
            lambda ans: expect_equal("BS(1,1) witness", ans, None),
            ref="deep-words/irreducibility/bs11-L5",
        )
    )
    fixed.append(
        Op(
            "irreducibility",
            lambda: gbs.irreducibility_witness(m3, 4),
            lambda ans: None if ans is not None else "no M3 witness at L=4",
            ref="deep-words/irreducibility/m3-L4",
        )
    )

    def squarefree():
        return _canonical_squarefree(tree_arithmetic.squarefree_witnesses(m, full, 4))

    fixed.append(
        Op(
            "squarefree",
            squarefree,
            lambda ans: None if all(w is not None for _, w in ans) and len(ans) == 3
            else "M3 prime pairs left unwitnessed",
            ref="deep-words/squarefree/m3-L4",
        )
    )
    # spread the seed-independent ops evenly through the seeded ones
    cycle: list[Op] = []
    step = len(light) // len(fixed)
    for j, op in enumerate(fixed):
        cycle.append(op)
        cycle.extend(light[j * step:(j + 1) * step])
    cycle.extend(light[len(fixed) * step:])
    sizes = {
        "graphs": ["BS(1,2)", "BS(2,3)", "M3", "BS(1,1)"],
        "conjugate_n": list(CONJUGATE_NS),
        "random_word_letters": [min(lengths), max(lengths)],
        "random_words": DEEP_RANDOM_WORDS,
        "oracle_words": DEEP_ORACLE_WORDS,
        "oracle_radius": ORACLE_RADIUS,
        "axis_pairs": DEEP_AXIS_PAIRS,
        "irreducibility_L": {"M3": 4, "BS(1,1)": 5},
        "squarefree_L": 4,
        "ops_per_cycle": len(cycle),
    }
    return Workload("deep-words", cycle, sizes)


# -- cli-batch ------------------------------------------------------------------------

MASTER_V = 32
ATLAS_ORBITS = 400
CENSUS_ROWS = {5: 1445, 6: 9259}


def master_text(rng: random.Random) -> tuple[str, dict]:
    vs, edges = cycle_edges(rng, MASTER_V)
    g = gbs.graph(vs, edges)
    letters = random_letters(rng, g, 6)
    ids = [e[0] for e in edges]
    lines = ["[master]", f"# seeded {MASTER_V}-vertex cycle with a loop every 7th vertex"]
    lines.append(f"name = cycle{MASTER_V}")
    lines += [f"vertex {v}" for v in vs]
    lines += [f"edge {eid}: {o}({lam}) -- {t}({mu})" for eid, o, t, lam, mu in edges]
    lines.append(f"word w = {cli_io.letters_text(letters)}")
    for k in range(3):
        kept = sorted(rng.sample(ids, len(ids) // 2))
        lines.append(f"keep K{k} = " + ", ".join(kept))
    return "\n".join(lines) + "\n", {"modular": modular_closed_form(g, letters)}


def atlas_text(rng: random.Random) -> tuple[str, dict]:
    """A chain of edge cycles; each cycle after the first starts at a vertex
    of the previous one. Every cycle is one cylinder orbit; a vertex is in V0
    when it carries two classes (a shared vertex) or a plural class."""
    lengths = []
    left = ATLAS_ORBITS
    while left:
        n = rng.randint(3, 6)
        if left - n < 3:
            n = left
        lengths.append(n)
        left -= n
    vertices: list[str] = []
    edge_lines: list[str] = []
    class_lines: list[str] = []
    cyl_lines: list[str] = []
    classes_at: dict[str, list[bool]] = {}
    shared: Optional[str] = None
    eid = 0
    for n in lengths:
        cyc = [shared] if shared is not None else []
        while len(cyc) < n:
            cyc.append(f"x{len(vertices):03d}")
            vertices.append(cyc[-1])
        ids = [f"e{eid + i:03d}" for i in range(n)]
        eid += n
        group = rng.choice(("Z", "Z^2"))
        for i in range(n):
            edge_lines.append(f"edge {ids[i]}: {cyc[i]} -- {cyc[(i + 1) % n]}, group = {group}")
        for i in range(n):
            v = cyc[i]
            plural = rng.random() < 0.5
            in_a = rng.random() < 0.8
            name = "ab"[len(classes_at.setdefault(v, []))]
            classes_at[v].append(plural)
            class_lines.append(
                f"class {v}.{name}: {ids[i - 1]}.t {ids[i]}.o, "
                f"plural = {str(plural).lower()}, in_A = {str(in_a).lower()}"
            )
        cyl_lines.append(f"cylinder {ids[0]}: {group}")
        shared = cyc[rng.randrange(1, n)]
    labels = ("punctured-torus", "pants", "Z^2", "Z")
    lines = ["[atlas]", f"# seeded chain of {len(lengths)} cylinders, {ATLAS_ORBITS} edge orbits"]
    lines.append("name = chain")
    lines += [f"vertex {v}: {rng.choice(labels)}" for v in vertices]
    lines += edge_lines + class_lines + cyl_lines
    v0 = sum(1 for cs in classes_at.values() if len(cs) >= 2 or any(cs))
    expected = {
        "v0": v0,
        "v1": len(lengths),
        "edges": sum(len(cs) for cs in classes_at.values() if len(cs) >= 2 or any(cs)),
        "absorbed": len(vertices) - v0,
        "vertices": len(vertices),
    }
    return "\n".join(lines) + "\n", expected


def _cli(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    code = cli_io.run(argv, stdout=out, stderr=err)
    return (code, out.getvalue(), err.getvalue())


def _cli_op(argv, ref=None, check=None) -> Op:
    def full_check(ans):
        if ans[0] != 0:
            return f"exit code {ans[0]}: {ans[2].strip()}"
        return check(ans[1]) if check is not None else None

    return Op("cli", lambda: _cli(argv), full_check, ref)


def _round_trip(text: str):
    d1 = cli_io.parse(text)
    s1 = cli_io.serialize(d1)
    d2 = cli_io.parse(s1)
    return (d1 == d2, s1 == cli_io.serialize(d2), s1)


def _round_trip_op(text: str, ref=None) -> Op:
    def check(ans):
        if not ans[0]:
            return "parse(serialize(d)) != d"
        return None if ans[1] else "serialize is not byte-stable"

    return Op("round-trip", lambda: _round_trip(text), check, ref)


def _census_check(budget):
    def check(out):
        return expect_equal(f"budget-{budget} census rows", json.loads(out)["count"], CENSUS_ROWS[budget])

    return check


def _k14_check(out):
    """torus_cycle quotients to the star K_{1,4} around one Z^2 cylinder."""
    lines = out.splitlines()
    want = ["V0: u1 u2 u3 u4", "V1: Y1(Z^2)"] + [f"edge: u{i} -[a]- Y1" for i in range(1, 5)]
    return expect_equal("torus_cycle quotient", lines, want)


def _quotient_check(expected):
    def check(out):
        q = json.loads(out)["quotient"]
        got = {k: len(q[k]) for k in ("v0", "v1", "edges", "absorbed")}
        want = {k: expected[k] for k in got}
        return expect_equal("atlas quotient shape", got, want)

    return check


def _modular_check(want):
    def check(out):
        return expect_equal("modular image", json.loads(out)["values"]["modular_image"], want)

    return check


def _modularity_check(out):
    return expect_equal("modularity failures", json.loads(out)["values"]["failures"], "0")


INPUT_COMMANDS = (
    ("orbifold", "analyze", "mirror_disc.txt"),
    ("orbifold", "analyze", "pants.txt"),
    ("orbifold", "analyze", "turnover.txt"),
    ("gbs", "report", "bs14.txt"),
    ("gbs", "report", "bs16.txt"),
    ("gbs", "report", "bs23.txt"),
    ("gbs", "report", "bs24.txt"),
    ("gbs", "report", "m3.txt"),
    ("gbs", "length", "bs14.txt", "--word", "t"),
    ("gbs", "length", "bs16.txt", "--word", "t"),
    ("gbs", "length", "bs23.txt", "--word", "atat", "--oracle", "10"),
    ("gbs", "length", "bs24.txt", "--word", "t", "--oracle", "8"),
    ("gbs", "length", "m3.txt", "--word", "tetep", "--oracle", "10"),
    ("lattice", "verify", "m3.txt", "--words", "10", "--maxlen", "6", "--seed", "13"),
    ("cylinders", "quotient", "torus_cycle.txt"),
    ("cylinders", "quotient", "tripods.txt"),
    ("cylinders", "quotient", "tripods.txt", "--collapse", "--json"),
    ("export", "dot", "bs23.txt"),
    ("export", "dot", "m3.txt"),
    ("export", "dot", "torus_cycle.txt"),
    ("export", "dot", "tripods.txt", "--skeleton"),
    ("export", "dot", "tripods.txt", "--collapse"),
)


def build_cli(rng: random.Random, scratch: Path) -> Workload:
    mtext, mexpect = master_text(rng)
    atext, aexpect = atlas_text(rng)
    scratch.mkdir(parents=True, exist_ok=True)
    mpath, apath = scratch / "master32.txt", scratch / "atlas400.txt"
    mpath.write_text(mtext)
    apath.write_text(atext)
    docs = {p.name: p.read_text() for p in sorted(INPUTS.glob("*.txt"))}
    for text in (mtext, atext):
        cli_io.parse(text)  # the generated documents must be valid input
    seed_arg = str(rng.randrange(1 << 16))

    cycle: list[Op] = []
    for cmd in INPUT_COMMANDS:
        argv = [cmd[0], cmd[1], str(INPUTS / cmd[2]), *cmd[3:]]
        check = _k14_check if cmd[:3] == ("cylinders", "quotient", "torus_cycle.txt") else None
        cycle.append(_cli_op(argv, "cli-batch/" + " ".join(cmd), check))
    for budget in (5, 6):
        argv = ["orbifold", "enumerate", "--budget", str(budget), "--json"]
        cycle.append(_cli_op(argv, "cli-batch/" + " ".join(argv), _census_check(budget)))
    m, a = str(mpath), str(apath)
    cycle += [
        _cli_op(["gbs", "length", m, "--word", "w", "--json"],
                check=_modular_check(report.rational_str(mexpect["modular"]))),
        _cli_op(["gbs", "report", m, "--json"]),
        _cli_op(["lattice", "verify", m, "--words", "10", "--maxlen", "8", "--seed", seed_arg,
                 "--json"], check=_modularity_check),
        _cli_op(["export", "dot", m]),
        _cli_op(["cylinders", "quotient", a, "--collapse", "--json"], check=_quotient_check(aexpect)),
        _cli_op(["export", "dot", a]),
    ]
    for name, text in docs.items():
        cycle.append(_round_trip_op(text, "cli-batch/round-trip " + name))
    cycle += [_round_trip_op(mtext), _round_trip_op(atext)]
    sizes = {
        "input_files": len(docs),
        "input_bytes": sum(len(t.encode()) for t in docs.values()),
        "master_V": MASTER_V,
        "master_bytes": len(mtext.encode()),
        "atlas_edge_orbits": ATLAS_ORBITS,
        "atlas_vertices": aexpect["vertices"],
        "atlas_cylinders": aexpect["v1"],
        "atlas_bytes": len(atext.encode()),
        "enumerate_budgets": [5, 6],
        "ops_per_cycle": len(cycle),
    }
    return Workload("cli-batch", cycle, sizes)


def build(name: str, seed: int, scratch: Path) -> Workload:
    """Generate the workload's inputs from the seed and validate them."""
    rng = random.Random(f"{name}/{seed}")
    if name == "wide-graph":
        return build_wide(rng)
    if name == "deep-words":
        return build_deep(rng)
    if name == "cli-batch":
        return build_cli(rng, scratch)
    raise ValueError(f"unknown workload {name!r}")

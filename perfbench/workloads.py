"""The four heckeo benchmark workloads.

Each workload owns its inputs (made from the seed), one pass, the output
checks (run off the timed path) and a replay of the same pass through
heckeo's public calls, with a span around each call, for the traced run.
One client in one process, closed loop: each call starts when the previous
one has returned. Every pass makes the same requests, and `run_pass`
times each one through a `refclock.Meter` under a key that is the same in
every pass, so that the runner can take each request's median over a run.

    kl_table      every C_x and C'_x of D4, then B4, on fresh algebras
    verify_suite  `verify --suite all --format json` for A3, then B3
    block_check   `block-check --suite all`, then `block-check --format csv`
    cli_queries   a seeded stream of cold single-answer CLI queries
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from pathlib import Path

from heckeo import (
    BasisKind,
    CartanDatum,
    HeckeAlgebra,
    K0Block,
    K0Class,
    LaurentPoly,
    build_group,
    emit,
    weyl_suite,
    VerificationReport,
)
from heckeo import cli
from heckeo.block import build_rank_one
from heckeo.block import checks as block_checks
from heckeo.block.catalog import CATALOG_NAMES

ROOT = Path(__file__).resolve().parent.parent
EXPECTED_FILE = Path(__file__).resolve().parent / "expected.json"
HOMOLOGY_GOLDEN = ROOT / "tests" / "golden" / "v1" / "block_check_homology.csv"

HECKE_VERIFIERS = ("verify_relations", "verify_involutions", "verify_kl",
                   "verify_kl_oracle", "verify_dual_basis", "verify_hw0_identity")
K0_VERIFIERS = ("verify_module_axioms", "verify_unitriangularity", "verify_bott",
                "verify_characters", "verify_tilting_switch", "verify_simple_ops")
BLOCK_VERIFIERS = ("verify_catalog", "verify_adjunctions", "verify_equivalence",
                   "verify_tilting", "verify_k0_crosscheck")


def load_expected() -> dict:
    return json.loads(EXPECTED_FILE.read_text(encoding="utf-8"))


def call_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process CLI invocation; a crash is an output that fails its
    check, not a lost sample."""
    try:
        return cli.run(argv)
    except Exception as exc:  # the benchmark must count it and keep going
        return -1, f"exception: {exc!r}"


def all_kl_elements(alg: HeckeAlgebra, meter=None, label: str = "") -> list:
    """C_x and C'_x for every x, in id order: the KL table write path.
    With a `meter`, each x is one request, keyed (label, x)."""
    out = []

    def pair(x):
        return alg.kl_element(x, "C"), alg.kl_element(x, "Cprime")

    for x in alg.group.elements():
        c, cp = pair(x) if meter is None else meter.time((label, x.idx), pair, x)
        out.append((x, "C", c))
        out.append((x, "Cprime", cp))
    return out


def table_digest(group, elements) -> str:
    """sha256 of the canonical coefficient table. Elements are keyed by
    their reduced-word names, so the digest does not depend on how a
    version of heckeo numbers group elements."""
    names = [group.name(x) for x in group.elements()]
    rows = sorted(
        (names[x.idx], variant,
         sorted((names[y.idx], tuple(p.items())) for y, p in h.coeffs().items()))
        for x, variant, h in elements
    )
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def kl_stats(elements) -> Counter:
    """Size counters over the C_x elements of a table (C' is the b-twist of
    the same data): nonzero coefficients, monomials, top degree, max mu."""
    st = Counter()
    for x, variant, h in elements:
        if variant != "C":
            continue
        for y, p in h.coeffs().items():
            st["hecke.kl_nonzeros"] += 1
            st["hecke.kl_terms"] += len(p.support())
            st["hecke.kl_max_degree"] = max(st["hecke.kl_max_degree"], p.max_exp())
            if y != x:
                st["hecke.kl_max_mu"] = max(st["hecke.kl_max_mu"], p.coeff(1))
    return st


def build_traced(tr, label: str):
    with tr.span("weyl.build_group"):
        g = build_group(CartanDatum.parse(label))
    tr.count("weyl.order", g.order)
    return g


# -- kl_table -----------------------------------------------------------------

KL_TYPES = ("D4", "B4")
ORACLE_SAMPLE = 2  # elements per group and pass checked against the bar solver


class KlTable:
    """Build the full KL table of D4 and of B4 on fresh algebras."""

    name = "kl_table"
    min_passes = 3

    def __init__(self, seed: int, expected: dict | None = None):
        self.rng = random.Random(f"kl_table:{seed}")
        self.expected = (expected or load_expected())["kl_table"]

    def run_pass(self, meter):
        out = []
        for label in KL_TYPES:
            g = meter.time((label, "group"), build_group, CartanDatum.parse(label))
            alg = meter.time((label, "algebra"), HeckeAlgebra, g)
            out.append((label, g, alg, all_kl_elements(alg, meter, label)))
        return out

    def check(self, out) -> tuple[int, int]:
        attempted = failed = 0
        for label, g, alg, elements in out:
            attempted += 1
            failed += table_digest(g, elements) != self.expected.get(label)
            for idx in self.rng.sample(range(g.order), ORACLE_SAMPLE):
                x = g.element(idx)
                attempted += 1
                failed += alg.kl_element_by_bar_solver(x) != alg.kl_element(x, "C")
        return attempted, failed

    def replay(self, tr) -> list:
        kept = []
        for label in KL_TYPES:
            g = build_traced(tr, label)
            alg = HeckeAlgebra(g)
            with tr.span("hecke.kl_element"):
                kept.extend(all_kl_elements(alg))
        return kept


# -- verify_suite -------------------------------------------------------------

VERIFY_TYPES = ("A3", "B3")


class VerifySuite:
    """`verify --suite all`: the |W|^2 and |W|^3 reads of the KL table."""

    name = "verify_suite"
    min_passes = 3

    def __init__(self, seed: int):
        self.first: dict[str, str] = {}

    def run_pass(self, meter):
        return [(label, meter.time(label, call_cli,
                                   ["verify", "--type", label, "--suite", "all", "--format", "json"]))
                for label in VERIFY_TYPES]

    def check(self, out) -> tuple[int, int]:
        failed = 0
        for label, (code, text) in out:
            try:
                passed = json.loads(text).get("pass") is True
            except ValueError:
                passed = False
            same = self.first.setdefault(label, text) == text
            failed += not (code == 0 and passed and same)
        return len(out), failed

    def replay(self, tr) -> list:
        """The work of `verify --suite all`, with the shared tables built in
        `prepare` spans so that no check is billed for a table it uses."""
        kept = []
        for label in VERIFY_TYPES:
            with tr.span("cli.verify"):
                g = build_traced(tr, label)
                with tr.span("weyl.bruhat_leq"):
                    g.bruhat_leq(g.identity, g.w0)
                rep = VerificationReport("all")
                with tr.span("weyl.suite"):
                    rep.extend(weyl_suite(g))
                alg = HeckeAlgebra(g)
                with tr.span("hecke.prepare"):
                    with tr.span("hecke.kl_element"):
                        kept.extend(all_kl_elements(alg))
                    with tr.span("hecke.dual_basis"):
                        alg.dual_basis("dual_to_bC")
                        alg.dual_basis("dual_to_C")
                    with tr.span("hecke.bar_solver"):
                        for x in g.elements():
                            alg.kl_element_by_bar_solver(x)
                for method in HECKE_VERIFIERS:
                    with tr.span(f"hecke.{method}"):
                        rep.extend(getattr(alg, method)())
                blk = K0Block(g)
                with tr.span("k0.prepare"):
                    with tr.span("hecke.kl_element"):
                        all_kl_elements(blk.hecke)
                    with tr.span("hecke.dual_basis"):
                        blk.hecke.dual_basis("dual_to_bC")
                    with tr.span("k0.coords_in_basis"):
                        blk.coords_in_basis(blk.verma(g.identity), BasisKind.Simple)
                for method in K0_VERIFIERS:
                    with tr.span(f"k0.{method}"):
                        rep.extend(getattr(blk, method)())
                emit(rep, "json")
        return kept


# -- block_check --------------------------------------------------------------


def homology_rows(ctx) -> list:
    rows = []
    for variant, fc in (("Theta*", ctx.theta_star()), ("Theta!", ctx.theta_shriek())):
        for name in CATALOG_NAMES:
            applied = fc.apply(ctx.catalog.modules[name]).complex
            for n, dims in sorted(applied.homology_dims().items()):
                rows.append((f"{variant}({name})", n, sum(dims.values())))
    return sorted(rows)


class BlockCheck:
    """One round: `block-check --suite all`, then `block-check --format csv`."""

    name = "block_check"
    min_passes = 3

    def __init__(self, seed: int, golden: str | None = None):
        self.golden = golden if golden is not None else HOMOLOGY_GOLDEN.read_text(encoding="utf-8")

    def run_pass(self, meter):
        return (meter.time("suite", call_cli, ["block-check", "--suite", "all"]),
                meter.time("csv", call_cli, ["block-check", "--format", "csv"]))

    def check(self, out) -> tuple[int, int]:
        (code_all, text_all), (code_csv, text_csv) = out
        lines = text_all.splitlines()
        suite_ok = (code_all == 0 and lines[-1:] == ["overall: PASS"]
                    and not any(ln.startswith("  FAIL") for ln in lines))
        csv_ok = code_csv == 0 and text_csv == self.golden
        return 2, (not suite_ok) + (not csv_ok)

    def replay(self, tr) -> list:
        with tr.span("cli.block_check"):
            with tr.span("block.build_rank_one"):
                ctx = build_rank_one()
            rep = VerificationReport("block-all")
            for fn in BLOCK_VERIFIERS:
                with tr.span(f"block.{fn}"):
                    rep.extend(getattr(block_checks, fn)(ctx))
            emit(rep, "table")
        with tr.span("cli.block_check"):
            with tr.span("block.build_rank_one"):
                ctx = build_rank_one()
            with tr.span("block.homology_table"):
                homology_rows(ctx)
        return []


# -- cli_queries --------------------------------------------------------------

# the stream: (kind, types, queries per type); 15 : 12 : 3 keeps the 5 : 4 : 1
# mix exact, so seeds differ only in the elements drawn and the order
QUERY_MIX = (
    ("weyl", ("D4", "B4", "A5"), 5),
    ("klpoly", ("D4", "B4", "A5", "F4"), 3),
    # B4 is left out: one B4 basis change takes 8-16 s, a third of a run
    ("basis-change", ("B3", "A4", "D4"), 1),
)
# a basis change costs mostly by its pair of bases (into Verma a D4 change
# takes 0.01 s, elsewhere 1-3 s), so the pairs are fixed per type rather than
# drawn; between them they use all five bases, and each inverts a basis
BASIS_PAIRS = {"B3": ("DualVerma", "Projective"), "A4": ("Projective", "Tilting"),
               "D4": ("Verma", "Simple")}
# degrees of the basic invariants; prod (1 + q + ... + q^(d-1)) counts
# elements by length, independently of how heckeo enumerates the group
DEGREES = {"A5": (2, 3, 4, 5, 6), "B4": (2, 4, 6, 8), "D4": (2, 4, 4, 6)}


def names_by_length(label: str) -> dict[int, list[str]]:
    """Element names (lexicographically least reduced words) by length, in
    name order, so that drawing from them does not depend on how a version
    of heckeo numbers elements."""
    g = build_group(CartanDatum.parse(label))
    out: dict[int, list[str]] = {}
    for x in g.elements():
        out.setdefault(g.length(x), []).append(g.name(x))
    return {n: sorted(names) for n, names in sorted(out.items())}


def query_stream(seed: int) -> list[tuple[str, str, list[str]]]:
    """The seeded query stream, as (kind, type, argv) triples.

    A klpoly query costs time and memory mostly by l(x) (an F4 query
    takes 0.05 s at length 3 and 2.4 s at w0), so the k-th of n klpoly
    queries on a type takes x of length k/(n+2) of l(w0); the seed draws
    which element of that length, y, the basis-change elements and the
    order."""
    rng = random.Random(f"cli_queries:{seed}")
    stream = []
    for kind, labels, per_type in QUERY_MIX:
        for label in labels:
            by_len = names_by_length(label) if kind != "weyl" else {}
            everything = [name for names in by_len.values() for name in names]
            top = max(by_len, default=0)
            for k in range(per_type):
                if kind == "weyl":
                    argv = ["weyl", "--type", label, "--format", "json"]
                elif kind == "klpoly":
                    x = rng.choice(by_len[round(top * (k + 1) / (per_type + 2))])
                    argv = ["klpoly", "--type", label, "--x", x, "--y", rng.choice(everything),
                            "--format", "json"]
                else:
                    src, dst = BASIS_PAIRS[label]
                    argv = ["basis-change", "--type", label, "--from", src, "--to", dst,
                            "--x", rng.choice(everything), "--format", "json"]
                stream.append((kind, label, argv))
    rng.shuffle(stream)
    return stream


def length_counts(label: str) -> Counter:
    poly = [1]
    for d in DEGREES[label]:
        new = [0] * (len(poly) + d - 1)
        for i, c in enumerate(poly):
            for j in range(d):
                new[i + j] += c
        poly = new
    return Counter({n: c for n, c in enumerate(poly)})


def _arg(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


class CliQueries:
    """Closed-loop cold CLI queries; one pass is the 30-query stream."""

    name = "cli_queries"
    min_passes = 4  # at least 120 queries, so p90 has ten samples beyond it

    def __init__(self, seed: int):
        self.queries = query_stream(seed)
        self._groups: dict[str, object] = {}
        self._blocks: dict[str, K0Block] = {}
        self.latencies: list[tuple[str, float]] = []

    def run_pass(self, meter):
        out = []
        for j, (kind, label, argv) in enumerate(self.queries):
            code, text = meter.time(j, call_cli, argv)
            self.latencies.append((kind, meter.samples[-1][1]))
            out.append((kind, label, argv, code, text))
        return out

    def prepare_checks(self) -> None:
        """Build all checker state before timing, so that it adds the same
        memory to peak_rss_mb in every run, whatever the seed draws."""
        for kind, labels, _ in QUERY_MIX:
            for label in labels:
                if kind == "klpoly":
                    g = self._group(label)
                    g.bruhat_leq(g.identity, g.w0)
                elif kind == "basis-change":
                    blk = self._block(label)
                    for z in blk.group.elements():
                        for basis in BasisKind:
                            blk.class_of(z, basis)

    # checker state, built off the timed path
    def _group(self, label: str):
        if label not in self._groups:
            self._groups[label] = build_group(CartanDatum.parse(label))
        return self._groups[label]

    def _block(self, label: str) -> K0Block:
        if label not in self._blocks:
            self._blocks[label] = K0Block(self._group(label))
        return self._blocks[label]

    def check_query(self, kind: str, label: str, argv: list[str], code: int, text: str) -> bool:
        if code != 0:
            return False
        try:
            obj = json.loads(text)
        except ValueError:
            return False
        if kind == "weyl":
            counts = Counter(obj["lengths"].values())
            return obj["order"] == sum(counts.values()) == CartanDatum.parse(label).expected_order() \
                and counts == length_counts(label)
        g = self._group(label)
        x = g.parse_word(_arg(argv, "--x"))
        if kind == "klpoly":
            y = g.parse_word(_arg(argv, "--y"))
            coeff = LaurentPoly.from_json(obj["coeff"])
            if obj["x"] != g.name(x) or obj["y"] != g.name(y):
                return False
            if not g.bruhat_leq(y, x):
                return coeff.is_zero()
            # v^(l(x)-l(y)) P_{y,x}(v^-2): nonnegative, fixed parity, P(0) = 1
            d = g.length(x) - g.length(y)
            return (coeff.max_exp() == d and coeff.coeff(d) == 1
                    and (y == x or coeff.min_exp() >= 1)
                    and all(c > 0 and (d - e) % 2 == 0 for e, c in coeff.items()))
        blk = self._block(label)
        src, dst = _arg(argv, "--from"), _arg(argv, "--to")
        total = K0Class(blk, {})
        for name, poly in obj["coords"].items():
            total = total + blk.class_of(g.parse_word(name), dst) * LaurentPoly.from_json(poly)
        return total == blk.class_of(x, src)

    def check(self, out) -> tuple[int, int]:
        failed = 0
        for q in out:
            try:
                ok = self.check_query(*q)
            except (KeyError, TypeError, ValueError):
                ok = False
            failed += not ok
        return len(out), failed

    def replay(self, tr) -> list:
        """The stream through the public calls each command makes."""
        kept = []
        for kind, label, argv in self.queries:
            with tr.span("cli." + kind.replace("-", "_")):
                g = build_traced(tr, label)
                if kind == "weyl":
                    with tr.span("weyl.bruhat_leq"):
                        g.bruhat_leq(g.identity, g.w0)
                    with tr.span("weyl.bruhat_covers"):
                        covers = g.bruhat_covers()
                    with tr.span("weyl.name"):
                        {g.name(x): g.length(x) for x in g.elements()}
                        sorted([g.name(a), g.name(b)] for a, b in covers)
                elif kind == "klpoly":
                    x, y = g.parse_word(_arg(argv, "--x")), g.parse_word(_arg(argv, "--y"))
                    alg = HeckeAlgebra(g)
                    with tr.span("hecke.kl_element"):
                        c = alg.kl_element(x, "C")
                    c.coeff(y)
                    kept.append((x, "C", c))
                else:
                    x = g.parse_word(_arg(argv, "--x"))
                    blk = K0Block(g)
                    with tr.span("k0.class_of"):
                        cls = blk.class_of(x, _arg(argv, "--from"))
                    with tr.span("k0.coords_in_basis"):
                        blk.coords_in_basis(cls, _arg(argv, "--to"))
        return kept


WORKLOADS = {w.name: w for w in (KlTable, VerifySuite, BlockCheck, CliQueries)}

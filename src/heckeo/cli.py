"""Command-line interface.

Subcommands:
    weyl          group info or JSON export (order, lengths, cover relations)
    klpoly        one Kazhdan-Lusztig coefficient
    basis-change  coordinates of a distinguished class in another basis
    verify        run the weyl / hecke / k0 suites for a Cartan type
    block-check   run the rank-one categorical suites

Exit codes: 0 all good, 1 at least one check failed, 2 usage error.

Optional key=value config file (enumeration cap, default format, table
width): ./heckeo.cfg, overridden by the HECKEO_CONFIG environment variable;
flags override the file.  Without either, each command has its own cap, so
that a request too large to finish exits 2 at once instead of running for
hours: verify, which takes about 12 seconds at A5 (720) and 2 minutes at
F4, admits F4 (1152); klpoly and basis-change, whose tables grow with the
KL nonzeros, admit A6 (5040); weyl admits A7 (40320).  All output is
UTF-8 and deterministic: identical invocations produce byte-identical
output (timings are opt-in and never included in JSON).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from collections.abc import Iterable, Iterator

from .k0 import BasisKind, K0Block
from .hecke import HeckeAlgebra
from .report import VerificationReport, emit
from .weyl import (
    DEFAULT_ENUMERATION_CAP,
    CartanDatum,
    EnumerationCapExceeded,
    WeylError,
    build_group,
    weyl_suite,
)

CONFIG_ENV = "HECKEO_CONFIG"
CONFIG_FILE = "heckeo.cfg"
FORMATS = ("json", "csv", "table")
# default enumeration caps, below weyl's DEFAULT_ENUMERATION_CAP (A7)
TABLE_CAP = 5040  # klpoly and basis-change: A6
VERIFY_CAP = 1152  # verify: F4


class UsageError(Exception):
    pass


def load_config() -> dict:
    path = os.environ.get(CONFIG_ENV, CONFIG_FILE)
    cfg: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#") or "=" not in line:
                    continue
                key, _, val = line.partition("=")
                cfg[key.strip()] = val.strip()
    except OSError:
        return {}
    out = {}
    if "cap" in cfg:
        try:
            out["cap"] = int(cfg["cap"])
        except ValueError:
            raise UsageError(f"config error: cap must be an integer, got {cfg['cap']!r}")
    if "format" in cfg:
        if cfg["format"] not in FORMATS:
            raise UsageError(f"config error: format must be one of "
                             f"{', '.join(FORMATS)}, got {cfg['format']!r}")
        out["format"] = cfg["format"]
    if "table_width" in cfg:
        try:
            out["table_width"] = int(cfg["table_width"])
        except ValueError:
            raise UsageError("config error: table_width must be an integer")
        if out["table_width"] <= 0:
            raise UsageError("config error: table_width must be positive, "
                             f"got {out['table_width']}")
    return out


def _build(type_str: str, cap: int):
    try:
        return build_group(CartanDatum.parse(type_str), cap=cap)
    except EnumerationCapExceeded as exc:
        raise UsageError(f"{exc}; pass a larger --cap to run it anyway") from None
    except WeylError as exc:
        raise UsageError(str(exc)) from None


def _parse_word(group, text: str):
    try:
        return group.parse_word(text)
    except WeylError as exc:
        raise UsageError(str(exc)) from None


def _cmd_weyl(args, cfg) -> tuple[int, str | Iterator[str]]:
    g = _build(args.type, args.cap)
    if args.format == "json" and not args.info:
        return 0, itertools.chain(g.json_chunks(), ("\n",))
    lines = [
        f"type {g.datum.label}",
        f"order {g.order}",
        f"longest_length {g.length(g.w0)}",
        f"longest_word {g.name(g.w0)}",
        f"positive_roots {g.n_positive_roots}",
        f"simple_reflections {g.rank}",
    ]
    return 0, "\n".join(lines) + "\n"


def _cmd_klpoly(args, cfg) -> tuple[int, str]:
    g = _build(args.type, args.cap)
    x = _parse_word(g, args.x)
    y = _parse_word(g, args.y)
    alg = HeckeAlgebra(g)
    coeff = alg.kl_element(x, args.variant).coeff(y)
    if args.format == "json":
        obj = {
            "schema": 1,
            "x": g.name(x),
            "y": g.name(y),
            "coeff": coeff.to_json(),
        }
        return 0, json.dumps(obj, separators=(",", ":")) + "\n"
    label = "C" if args.variant == "C" else "C'"
    return 0, f"coefficient of H[{g.name(y)}] in {label}[{g.name(x)}] = {coeff}\n"


def _cmd_basis_change(args, cfg) -> tuple[int, str]:
    g = _build(args.type, args.cap)
    x = _parse_word(g, args.x)
    try:
        src = BasisKind.coerce(args.from_basis)
        dst = BasisKind.coerce(args.to_basis)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    blk = K0Block(g)
    coords = blk.coords_in_basis(blk.class_of(x, src), dst)
    named = {g.name(z): p for z, p in coords.items()}
    if args.format == "json":
        obj = {
            "schema": 1,
            "type": g.datum.label,
            "from": src.value,
            "to": dst.value,
            "x": g.name(x),
            "coords": {k: p.to_json() for k, p in named.items()},
        }
        return 0, json.dumps(obj, separators=(",", ":")) + "\n"
    lines = [f"[{src.value}_{g.name(x)}] in the {dst.value} basis:"]
    for k, p in named.items():
        lines.append(f"  {k}: {p}")
    return 0, "\n".join(lines) + "\n"


def _cmd_verify(args, cfg) -> tuple[int, str]:
    g = _build(args.type, args.cap)
    rep = VerificationReport(args.suite)
    if args.suite in ("weyl", "all"):
        rep.extend(weyl_suite(g))
    if args.suite != "weyl":
        blk = K0Block(g)  # one Hecke algebra serves both suites
        if args.suite in ("hecke", "all"):
            rep.extend(blk.hecke.suite())
        if args.suite in ("k0", "all"):
            rep.extend(blk.suite())
    text = emit(rep, args.format, width=cfg.get("table_width", 60), timings=args.timings)
    return (0 if rep.passed else 1), text


def _cmd_block_check(args, cfg) -> tuple[int, str]:
    from .block import build_rank_one
    from .block.checks import suite as block_suite, theta_homology

    ctx = build_rank_one()
    if args.format == "csv":
        # homology table of the two equivalences over the whole catalog
        label = {"star": "Theta*", "shriek": "Theta!"}
        rows = sorted((f"{label[variant]}({name})", n, sum(dims.values()))
                      for variant, name, applied in theta_homology(ctx)
                      for n, dims in applied.homology_dims().items())
        return 0, "module,degree,dimension\n" + "".join(f"{m},{n},{d}\n" for m, n, d in rows)
    rep = block_suite(ctx, args.suite)
    text = emit(rep, args.format, width=cfg.get("table_width", 60), timings=args.timings)
    return (0 if rep.passed else 1), text


@functools.lru_cache(maxsize=8)
def _parser(cfg_items: tuple) -> argparse.ArgumentParser:
    """The parser for the config with these sorted items.  Building one
    costs about a millisecond, so it is built once per config contents."""
    cfg = dict(cfg_items)
    default_format = cfg.get("format", "table")
    top = argparse.ArgumentParser(prog="heckeo", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, formats=("json", "table"), cap=DEFAULT_ENUMERATION_CAP, timings=False):
        """--format, plus --cap and --timings for the commands that read them
        (cap=None: no enumeration)."""
        p.add_argument("--format", choices=formats, default=default_format
                       if default_format in formats else formats[-1])
        if cap is not None:
            p.add_argument("--cap", type=int, default=cfg.get("cap", cap))
        if timings:
            p.add_argument("--timings", action="store_true")

    p = sub.add_parser("weyl", help="group info / JSON export")
    p.add_argument("--type", required=True)
    p.add_argument("--info", action="store_true", help="print the group info whatever the format")
    common(p)
    p.set_defaults(fn=_cmd_weyl)

    p = sub.add_parser("klpoly", help="one KL coefficient")
    p.add_argument("--type", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--variant", choices=("C", "Cprime"), default="C")
    common(p, cap=TABLE_CAP)
    p.set_defaults(fn=_cmd_klpoly)

    p = sub.add_parser("basis-change", help="class coordinates in another basis")
    p.add_argument("--type", required=True)
    p.add_argument("--from", dest="from_basis", required=True)
    p.add_argument("--to", dest="to_basis", required=True)
    p.add_argument("--x", required=True)
    common(p, cap=TABLE_CAP)
    p.set_defaults(fn=_cmd_basis_change)

    p = sub.add_parser("verify", help="run verification suites for a type")
    p.add_argument("--type", required=True)
    p.add_argument("--suite", choices=("weyl", "hecke", "k0", "all"), default="all")
    common(p, formats=FORMATS, cap=VERIFY_CAP, timings=True)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("block-check", help="rank-one categorical suites")
    p.add_argument(
        "--suite",
        choices=("all", "catalog", "adjunctions", "equivalence", "tilting"),
        default="all",
    )
    common(p, formats=FORMATS, cap=None, timings=True)
    p.set_defaults(fn=_cmd_block_check)
    return top


def _execute(argv: list[str]) -> tuple[int, Iterable[str]]:
    """Parse and execute; returns (exit code, output text chunks).  A
    command returns its text, or an iterator of chunks made as they are
    read: everything that can fail is done before its first chunk."""
    try:
        cfg = load_config()
    except UsageError as exc:
        return 2, [str(exc) + "\n"]
    parser = _parser(tuple(sorted(cfg.items())))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 2), []
    try:
        code, out = args.fn(args, cfg)
    except UsageError as exc:
        return 2, [f"error: {exc}\n"]
    return code, [out] if isinstance(out, str) else out


def run(argv: list[str]) -> tuple[int, str]:
    """Parse and execute; returns (exit code, output text)."""
    code, chunks = _execute(argv)
    return code, "".join(chunks)


def main(argv: list[str] | None = None) -> int:
    """Run and write the output chunk by chunk, to stderr on a usage error."""
    code, chunks = _execute(sys.argv[1:] if argv is None else argv)
    stream = sys.stdout if code != 2 else sys.stderr
    stream.writelines(chunks)
    return code


if __name__ == "__main__":
    raise SystemExit(main())

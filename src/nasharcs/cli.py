"""Command-line entry point.

Subcommands: analyze, order, certify-minimal, decompose, an-arcs,
an-order.  JSON goes to stdout or --out; DOT diagrams to --dot.  Exit
status 2 means an input or usage error for every command; otherwise
analyze, certify-minimal and decompose exit 0, order and an-order exit 1
when some ordered pair has no non-inclusion proof, and an-arcs exits 1
when a contact order, residual or separation check fails.
"""
from __future__ import annotations

import argparse
import sys
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Iterator

from . import __version__
from .arcs import (
    POLY_X,
    POLY_Y,
    POLY_Z,
    contact_order,
    defining_residual,
    sample_arc,
    separation_check,
)
from .classify import (
    certify_minimal,
    decompose_minimal,
    is_an,
    is_minimal,
    serialize_certificate,
    serialize_decomposition,
    supergraph_dot,
)
from .cycles import fundamental_cycle, is_rational, ray_basis, serialize_ray_basis
from .errors import BadParameter, MalformedDocument, NashArcsError
from .generators import an_graph
from .graph import (
    WeightedDualGraph,
    graph_is_negative_definite,
    parse_graph,
    serialize_graph,
)
from .order import hasse_export, relation_matrix, serialize_relation_matrix


# longest arc series `an-arcs` will build; the cost grows much faster than
# linearly (at n=3, one arc of 2000 terms takes about 19 times one of 1000)
MAX_TRUNC = 1024

# largest A_n `an-order` will relate: its report holds n (n - 1) pairs of
# n-entry witnesses, so output and time grow as n^3 (56 MB at n = 128)
MAX_AN_ORDER = 128


def _load_graph(path: str) -> WeightedDualGraph:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise MalformedDocument(f"not UTF-8 text: {exc}") from None
    return parse_graph(text)


# characters gathered before one write; a write can exceed it by one piece
CHUNK = 1 << 20


def _leaf(value: Any, nl: str, memo: dict[tuple, str]) -> str | None:
    """JSON text of a scalar, an empty container or an array of only ints
    or only strs; None for any other array or object.

    `nl` is a newline plus the indent of the line `value` starts on.  An
    array is made by one `str.join`; the text of an int array is kept in
    `memo`, because a report repeats the same few ray columns in every pair.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        kinds = set(map(type, value))
        inner = nl + "  "
        if kinds == {int}:
            key = (inner, tuple(value))
            text = memo.get(key)
            if text is None:
                text = memo[key] = (
                    "[" + inner + ("," + inner).join(map(int.__repr__, value)) + nl + "]")
            return text
        if kinds == {str}:
            return "[" + inner + ("," + inner).join(map(encode_basestring_ascii, value)) + nl + "]"
        return None
    if isinstance(value, dict):
        return None if value else "{}"
    # a float lands here too: no report holds one
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _pieces(value: Any, nl: str, memo: dict[tuple, str]) -> Iterator[str]:
    """Yield json.dumps(value, indent=2, sort_keys=True) in pieces, for
    a `value` that `_leaf` does not write in one."""
    inner = nl + "  "
    sep = "," + inner
    if isinstance(value, dict):
        head = "{" + inner
        close = nl + "}"
        # encode_basestring_ascii raises TypeError on a key that is not a str
        items = ((encode_basestring_ascii(k) + ": ", value[k]) for k in sorted(value))
    else:
        head = "[" + inner
        close = nl + "]"
        items = (("", item) for item in value)
    for label, item in items:
        text = _leaf(item, inner, memo)
        if text is None:
            yield head + label
            yield from _pieces(item, inner, memo)
        else:
            yield head + label + text
        head = sep
    yield close


def _write_json(document: Any, write: Callable[[str], Any]) -> None:
    buf: list[str] = []
    size = 0
    memo: dict[tuple, str] = {}
    text = _leaf(document, "\n", memo)
    for piece in [text] if text is not None else _pieces(document, "\n", memo):
        buf.append(piece)
        size += len(piece)
        if size >= CHUNK:
            write("".join(buf))
            buf.clear()
            size = 0
    buf.append("\n")
    write("".join(buf))


def _emit(document: dict[str, Any], out: str | None) -> None:
    """Write `json.dumps(document, indent=2, sort_keys=True)` and a newline.

    The text goes to the file `out`, or to stdout, in writes of about
    `CHUNK` characters, so the whole report is never one string.
    """
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            _write_json(document, fh.write)
    else:
        _write_json(document, sys.stdout.write)


def _write_dot(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _header(**extra: Any) -> dict[str, Any]:
    head = {"tool": "nasharcs", "version": __version__}
    head.update(extra)
    return head


def cmd_analyze(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    report: dict[str, Any] = {
        "header": _header(),
        "graph": serialize_graph(g),
        "vertices": g.n,
        "negative_definite": graph_is_negative_definite(g),
    }
    if report["negative_definite"]:
        report["rational"] = is_rational(g)
        report["minimal"] = is_minimal(g)
        report["an"] = is_an(g)
        report["fundamental_cycle"] = list(fundamental_cycle(g))
        report["ray_basis"] = serialize_ray_basis(ray_basis(g))
        rm = relation_matrix(g)
        report["relation"] = serialize_relation_matrix(rm)
        if report["minimal"]:
            cert = certify_minimal(g)
            report["certificate"] = serialize_certificate(cert)
    _emit(report, args.out)
    return 0


def _order_report(g: WeightedDualGraph, args: argparse.Namespace) -> int:
    rm = relation_matrix(g)
    doc = {"header": _header(), "graph": serialize_graph(g)}
    doc.update(serialize_relation_matrix(rm))
    _write_dot(hasse_export(rm), args.dot)
    _emit(doc, args.out)
    return 1 if rm.open_pairs() else 0


def cmd_order(args: argparse.Namespace) -> int:
    return _order_report(_load_graph(args.graph), args)


def cmd_certify_minimal(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    cert = certify_minimal(g)
    doc = {"header": _header()}
    doc.update(serialize_certificate(cert))
    _emit(doc, args.out)
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    cert = decompose_minimal(g, args.x, args.y)
    doc = {"header": _header()}
    doc.update(serialize_decomposition(cert))
    _write_dot(supergraph_dot(cert), args.dot)
    _emit(doc, args.out)
    return 0


def cmd_an_arcs(args: argparse.Namespace) -> int:
    n, i = args.n, args.family
    if args.samples < 1:
        raise BadParameter(f"--samples {args.samples} must be at least 1")
    trunc = 4 * (n + 1) if args.trunc is None else args.trunc
    if trunc > MAX_TRUNC:
        raise BadParameter(f"truncation {trunc} is above the cap {MAX_TRUNC}")
    doc: dict[str, Any] = {
        "header": _header(seed=args.seed, trunc=trunc, samples=args.samples),
        "n": n,
        "family": i,
    }
    records = []
    ok = True
    for s in range(args.samples):
        arc = sample_arc(n, i, trunc, (args.seed, s))
        orders = {
            "x": contact_order(arc, POLY_X),
            "y": contact_order(arc, POLY_Y),
            "z": contact_order(arc, POLY_Z),
        }
        residual_zero = all(c == 0 for c in defining_residual(arc))
        expected = orders == {"x": i, "y": n + 1 - i, "z": 1}
        ok = ok and residual_zero and expected
        records.append(
            {"sample": s, "orders": orders, "residual_zero": residual_zero}
        )
    doc["arcs"] = records
    doc["orders_match"] = ok
    if args.against is not None:
        lo, hi = sorted((i, args.against))
        rep = separation_check(n, lo, hi, args.samples, trunc, args.seed)
        doc["separation"] = rep
        ok = ok and rep["passed"]
    _emit(doc, args.out)
    return 0 if ok else 1


def cmd_an_order(args: argparse.Namespace) -> int:
    if args.n > MAX_AN_ORDER:
        raise BadParameter(f"--n {args.n} is above the cap {MAX_AN_ORDER}")
    return _order_report(an_graph(args.n), args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nasharcs",
        description="Non-inclusion certificates for Nash arc families "
        "on resolution graphs of surface singularities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", help="write the JSON report to this file")

    p = sub.add_parser("analyze", help="full report for one graph")
    p.add_argument("graph", help="graph JSON file")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("order", help="divisorial order relation table")
    p.add_argument("graph")
    p.add_argument("--dot", help="write the Hasse diagram as DOT")
    common(p)
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("certify-minimal", help="certify all pairs of a minimal graph")
    p.add_argument("graph")
    common(p)
    p.set_defaults(func=cmd_certify_minimal)

    p = sub.add_parser("decompose", help="bamboo decomposition through two vertices")
    p.add_argument("graph")
    p.add_argument("--x", required=True, help="first vertex id")
    p.add_argument("--y", required=True, help="second vertex id")
    p.add_argument("--dot", help="write the supergraph as DOT")
    common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("an-arcs", help="sample arcs on z^(n+1) = x y")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", type=int, required=True)
    p.add_argument("--against", type=int, help="run the separation check vs this family")
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--trunc", type=int,
                   help=f"series truncation order, at most {MAX_TRUNC} (default 4*(n+1))")
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_an_arcs)

    p = sub.add_parser("an-order", help="order relation on the built-in A_n graph")
    p.add_argument("--n", type=int, required=True, help=f"at most {MAX_AN_ORDER}")
    p.add_argument("--dot")
    common(p)
    p.set_defaults(func=cmd_an_order)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except NashArcsError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point.

Subcommands: analyze, order, certify-minimal, decompose, an-arcs,
an-order.  JSON goes to stdout or --out; DOT diagrams to --dot.  Exit
status 2 means an input or usage error for every command, printed as one
`error:` line on stderr; otherwise
analyze, certify-minimal and decompose exit 0, order and an-order exit 1
when some ordered pair has no non-inclusion proof, and an-arcs exits 1
when a contact order or residual check fails.

Each layer runs on first use: importing the CLI runs only `errors`, and a
command runs the layers it reads names from, so `an-arcs` runs no graph
layer and the graph commands do not run `arcs`.
"""
from __future__ import annotations

import argparse
import importlib.util
import sys
from json.encoder import encode_basestring_ascii
from types import ModuleType
from typing import Any, Callable, Iterator, NoReturn

from . import __version__
from .errors import BadParameter, MalformedDocument, NashArcsError


def _layer(name: str) -> ModuleType:
    """The module `nasharcs.<name>`, run when one of its attributes is first
    read; the module itself if it is loaded already.

    It goes into `sys.modules`, and onto the package, before it runs, so
    the layers that import it meet this one object.
    """
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        setattr(sys.modules[__package__], name, module)
        spec.loader.exec_module(module)
    return module


arcs = _layer("arcs")
classify = _layer("classify")
cycles = _layer("cycles")
generators = _layer("generators")
graph = _layer("graph")
order = _layer("order")


# longest arc series `an-arcs` will build; the cost grows at least
# quadratically (at n=3, one arc of 2000 terms takes about 4 times one of 1000)
MAX_TRUNC = 1024

# most arcs `an-arcs` will sample; each costs about 0.7 ms at the default
# truncation of n = 12, so a run at the cap takes about a minute
MAX_SAMPLES = 100_000

# most vertices `analyze`, `order`, `certify-minimal` and `an-order` take: the
# pairs are decided in n^2 steps, but a report holds n (n - 1) pairs of n-entry
# witnesses, so output and writing time grow as n^3 (58 MB for `an-order` at 128)
MAX_VERTICES = 128


def _load_graph(path: str) -> graph.WeightedDualGraph:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise MalformedDocument(f"not UTF-8 text: {exc}") from None
    return graph.parse_graph(text)


def _load_capped_graph(path: str) -> graph.WeightedDualGraph:
    g = _load_graph(path)
    if g.n > MAX_VERTICES:
        raise BadParameter(f"graph has {g.n} vertices, above the cap {MAX_VERTICES}")
    return g


# characters gathered before one write; a write can exceed it by one piece.
# 64 KiB keeps the window and the encoded copy of one write small next to a
# graph job's working set, and still few writes per report
CHUNK = 1 << 16


def _leaf(value: Any, nl: str, memo: dict[tuple, Any]) -> str | None:
    """JSON text of a scalar, an empty container or an array of only ints
    or only strs; None for an iterator and any other array or object.

    `nl` is a newline plus the indent of the line `value` starts on.  An
    array is made by one `str.join`; the text of an int array is kept in
    `memo` under `(id(value), nl)`, because the pairs of a report cite the
    very same few tuples, such as ray columns, again and again.  The entry
    holds the array with its text, so an iterator's transient item cannot
    be freed and its id reused by a later array while the memo lives.
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
        same = (id(value), nl)
        pinned = memo.get(same)
        if pinned is not None:
            return pinned[1]
        kinds = set(map(type, value))
        inner = nl + "  "
        if kinds == {int}:
            text = "[" + inner + ("," + inner).join(map(int.__repr__, value)) + nl + "]"
            memo[same] = (value, text)
            return text
        if kinds == {str}:
            return "[" + inner + ("," + inner).join(map(encode_basestring_ascii, value)) + nl + "]"
        return None
    if isinstance(value, dict):
        return None if value else "{}"
    if isinstance(value, Iterator):
        return None
    # a float lands here too: no report holds one
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _pieces(value: Any, nl: str, memo: dict[tuple, Any]) -> Iterator[str]:
    """Yield json.dumps(value, indent=2, sort_keys=True, default=list) in
    pieces, for a `value` that `_leaf` does not write in one; an iterator is
    written as an array, item by item, and is the only value that can turn
    out empty here."""
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
    yield close if head is sep else "[]"


def _write_json(document: Any, write: Callable[[str], Any]) -> None:
    """Pass the text of `document` and a newline to `write`, in strings of
    at least `CHUNK` characters but the last.

    The window is one string that each piece is appended to.  `buf` is
    its only reference, so CPython's `+=` grows it in place, and no list
    of pieces or joined copy of them is held beside it.
    """
    buf = ""
    memo: dict[tuple, Any] = {}
    text = _leaf(document, "\n", memo)
    for piece in [text] if text is not None else _pieces(document, "\n", memo):
        buf += piece
        if len(buf) >= CHUNK:
            write(buf)
            buf = ""
    buf += "\n"
    write(buf)


def _emit(document: dict[str, Any], out: str | None) -> None:
    """Write `json.dumps(document, indent=2, sort_keys=True, default=list)`
    and a newline.

    The text goes to the file `out`, or to stdout, in writes of about
    `CHUNK` (64 Ki) characters, each gathered in one growing string, so the
    whole report is never one string and a write holds little beside it; an
    iterator's items, such as the pairs and ray columns of a report, are
    written as they are made, so the report is spent once written.  Each
    int array object is rendered once per indent, and found again by
    identity when a later pair cites it.
    """
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            _write_json(document, fh.write)
    elif sys.stdout is None:  # started with file descriptor 1 closed
        raise OSError("standard output is closed")
    else:
        try:
            _write_json(document, sys.stdout.write)
            sys.stdout.flush()
        except OSError:
            # a full disk or a closed pipe: drop the stream, or the interpreter
            # flushes it again at exit, prints a second error and exits 120
            sys.stdout = None
            raise


def _write_dot(text: str, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _header(**extra: Any) -> dict[str, Any]:
    head = {"tool": "nasharcs", "version": __version__}
    head.update(extra)
    return head


def cmd_analyze(args: argparse.Namespace) -> int:
    g = _load_capped_graph(args.graph)
    report: dict[str, Any] = {
        "header": _header(),
        "graph": graph.serialize_graph(g),
        "vertices": g.n,
        "negative_definite": graph.graph_is_negative_definite(g),
    }
    if report["negative_definite"]:
        report["rational"] = cycles.is_rational(g)
        report["minimal"] = classify.is_minimal(g)
        report["an"] = classify.is_an(g)
        report["fundamental_cycle"] = list(cycles.fundamental_cycle(g))
        report["ray_basis"] = cycles.serialize_ray_basis(cycles.ray_basis(g))
        rm = order.relation_matrix(g)
        report["relation"] = order.serialize_relation_matrix(rm)
        if report["minimal"]:
            cert = classify.certify_minimal(g)
            report["certificate"] = classify.serialize_certificate(cert)
    _emit(report, args.out)
    return 0


def _order_report(g: graph.WeightedDualGraph, args: argparse.Namespace) -> int:
    rm = order.relation_matrix(g)
    doc = {"header": _header(), "graph": graph.serialize_graph(g)}
    doc.update(order.serialize_relation_matrix(rm))
    if args.dot:  # before the report, and the diagram is built only when asked for
        _write_dot(order.hasse_export(rm), args.dot)
    _emit(doc, args.out)
    return 1 if rm.open_pairs() else 0


def cmd_order(args: argparse.Namespace) -> int:
    return _order_report(_load_capped_graph(args.graph), args)


def cmd_certify_minimal(args: argparse.Namespace) -> int:
    g = _load_capped_graph(args.graph)
    cert = classify.certify_minimal(g)
    doc = {"header": _header()}
    doc.update(classify.serialize_certificate(cert))
    _emit(doc, args.out)
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    cert = classify.decompose_minimal(g, args.x, args.y)
    doc = {"header": _header()}
    doc.update(classify.serialize_decomposition(cert))
    if args.dot:
        _write_dot(classify.supergraph_dot(cert), args.dot)
    _emit(doc, args.out)
    return 0


def cmd_an_arcs(args: argparse.Namespace) -> int:
    n, i = args.n, args.family
    if args.samples < 1:
        raise BadParameter(f"--samples {args.samples} must be at least 1")
    if args.samples > MAX_SAMPLES:
        raise BadParameter(f"--samples {args.samples} is above the cap {MAX_SAMPLES}")
    trunc = 4 * (n + 1) if args.trunc is None else args.trunc
    if trunc > MAX_TRUNC:
        raise BadParameter(f"truncation {trunc} is above the cap {MAX_TRUNC}")
    doc: dict[str, Any] = {
        "header": _header(seed=args.seed, trunc=trunc, samples=args.samples),
        "n": n,
        "family": i,
    }
    if args.against is not None:  # before sampling, so a bad --against fails fast
        lo, hi = sorted((i, args.against))
        doc["separation"] = arcs.separation_check(n, lo, hi, args.samples, trunc, args.seed)
    records = []
    ok = True
    for s in range(args.samples):
        arc = arcs.sample_arc(n, i, trunc, (args.seed, s))
        orders = {axis: arcs.contact_order(arc, axis) for axis in "xyz"}
        residual_zero = not any(arcs.defining_residual(arc))
        expected = orders == {"x": i, "y": n + 1 - i, "z": 1}
        ok = ok and residual_zero and expected
        records.append(
            {"sample": s, "orders": orders, "residual_zero": residual_zero}
        )
    doc["arcs"] = records
    doc["orders_match"] = ok
    _emit(doc, args.out)
    return 0 if ok else 1


def cmd_an_order(args: argparse.Namespace) -> int:
    if args.n > MAX_VERTICES:
        raise BadParameter(f"--n {args.n} is above the cap {MAX_VERTICES}")
    return _order_report(generators.an_graph(args.n), args)


class _Parser(argparse.ArgumentParser):
    """An argument parser, and the class of its subcommand parsers, whose
    usage errors raise `BadParameter` instead of printing the usage."""

    def error(self, message: str) -> NoReturn:
        raise BadParameter(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--samples", type=int, default=20, help=f"at most {MAX_SAMPLES}")
    p.add_argument("--trunc", type=int,
                   help=f"series truncation order, at most {MAX_TRUNC} (default 4*(n+1))")
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_an_arcs)

    p = sub.add_parser("an-order", help="order relation on the built-in A_n graph")
    p.add_argument("--n", type=int, required=True, help=f"at most {MAX_VERTICES}")
    p.add_argument("--dot")
    common(p)
    p.set_defaults(func=cmd_an_order)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit:  # after --help; a usage error raises BadParameter
            return 0
        return args.func(args)
    except (NashArcsError, OSError) as exc:
        kind = f"{type(exc).__name__}: " if isinstance(exc, NashArcsError) else ""
        # the exit code must not depend on stderr: None means descriptor 2 was closed;
        # drop it after a failed write, or the exit flushes it again and exits 120
        if sys.stderr is not None:
            try:
                print(f"error: {kind}{exc}", file=sys.stderr, flush=True)
            except OSError:
                sys.stderr = None
        return 2


if __name__ == "__main__":
    sys.exit(main())

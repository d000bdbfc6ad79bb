"""Contract fuzzer for graph documents.

Each golden `*.graph.json` is mutated by a seeded stdlib mutator: fields
dropped, repeated or retyped; self-loops, duplicate edges, cycles and
disconnected parts; `+k` ids and lone surrogates; zero, negative and huge
weights; bool, float and null values; deep nesting, cut text and bytes that
are not UTF-8.  Every mutated file goes in-process through `cli.main` for
`analyze`, `order`, `certify-minimal` and `decompose` (through the first two
ids), with `--out`, and with `--dot` where a command has it.  Whatever the
document, no exception escapes and the exit code is 0, 1 or 2; exit 2 prints
exactly one `error:` line and writes no file, and exit 0 or 1 writes a JSON
report with a "header" (and a DOT file, if asked for).  The benchmark's
independent checker (`perfbench/check.py`) re-checks each `certify-minimal`
report, and each `analyze` report of a graph that is not minimal, against
the mutated document.

The argv of every command is mutated too, in-process, on a golden graph:
flags and arguments dropped, repeated or unknown; values that are not
integers, or far out of range, for `--n`, `--family`, `--against`,
`--samples`, `--trunc` and `--seed`; unknown `--x` and `--y` ids.  The same
contract holds, a usage error included.
"""
from __future__ import annotations

import copy
import io
import json
import random
import sys
from pathlib import Path

import pytest

from nasharcs.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from check import check_analyze, check_certify  # noqa: E402
from corpus import GraphInput, pivots_positive  # noqa: E402

GOLDEN = Path(__file__).parent / "data" / "golden"
GRAPHS = sorted(GOLDEN.glob("*.graph.json"))
DOCUMENTS_PER_GRAPH = 30

ODD_VALUES = [None, True, False, 0, -1, 1, 2.0, 2.5, "2", "", [], {}, [2], {"id": "a"},
              10**40, -10**40]
# JSON text put in place of a value, after the document is encoded
RAW_VALUES = ["9" * 5000, "1e400", "NaN", "-Infinity", "-0", "[" * 100 + "]" * 100,
              "[" * 100_000 + "]" * 100_000, '{"a":' * 50_000 + "1" + "}" * 50_000]


def _raw(rng: random.Random) -> str:
    """A placeholder string that `_encode` replaces with raw JSON text."""
    return f"\x00raw{rng.randrange(len(RAW_VALUES))}\x00"


def _encode(doc) -> str:
    text = json.dumps(doc)
    for k, raw in enumerate(RAW_VALUES):
        text = text.replace(json.dumps(f"\x00raw{k}\x00"), raw)
    return text


def _vertices(doc) -> list:
    v = doc.get("vertices")
    return v if isinstance(v, list) and v else [{"id": "a", "w": 2}]


def _edges(doc) -> list:
    e = doc.get("edges")
    if not isinstance(e, list):
        e = doc["edges"] = []
    return e


def _id(doc, rng):
    vertex = rng.choice(_vertices(doc))
    return vertex.get("id", "a") if isinstance(vertex, dict) else "a"


def _rename(doc, rng, new_id) -> None:
    """Give one vertex the id `new_id`, in its entry and in every edge."""
    vertex = rng.choice(_vertices(doc))
    if not isinstance(vertex, dict):
        return
    old = vertex.get("id")
    vertex["id"] = new_id
    for e in _edges(doc):
        if isinstance(e, list):
            e[:] = [new_id if end == old else end for end in e]


def drop_field(doc, rng):
    holders = [doc, *(v for v in _vertices(doc) if isinstance(v, dict))]
    holder = rng.choice(holders)
    if holder:
        del holder[rng.choice(sorted(holder))]
    elif _edges(doc):
        del _edges(doc)[rng.randrange(len(_edges(doc)))]


def repeat_entry(doc, rng):
    entries = rng.choice([_vertices(doc), _edges(doc) or _vertices(doc)])
    entries.insert(rng.randrange(len(entries) + 1), copy.deepcopy(rng.choice(entries)))


def retype(doc, rng):
    value = rng.choice(ODD_VALUES) if rng.random() < 0.8 else _raw(rng)
    where = rng.randrange(5)
    vertex = rng.choice(_vertices(doc))
    if where == 0:
        doc[rng.choice(["vertices", "edges", "auxiliary"])] = value
    elif where in (1, 2) and isinstance(vertex, dict):
        vertex["w" if where == 1 else "id"] = value
    elif where == 3 and _edges(doc):
        _edges(doc)[rng.randrange(len(_edges(doc)))] = value
    elif _edges(doc) and isinstance(_edges(doc)[0], list) and _edges(doc)[0]:
        _edges(doc)[0][rng.randrange(len(_edges(doc)[0]))] = value


def self_loop(doc, rng):
    a = _id(doc, rng)
    _edges(doc).append([a, a])


def duplicate_edge(doc, rng):
    edges = _edges(doc)
    edge = rng.choice(edges) if edges else None
    if isinstance(edge, list):
        edges.append(edge[::-1])


def add_edge(doc, rng):
    # between two vertices already joined by a path, this closes a cycle
    _edges(doc).append([_id(doc, rng), _id(doc, rng)])


def disconnect(doc, rng):
    if rng.random() < 0.5 and _edges(doc):
        del _edges(doc)[rng.randrange(len(_edges(doc)))]
    else:
        _vertices(doc).append({"id": f"iso{rng.randrange(3)}", "w": rng.choice([1, 2, 3])})


def plus_id(doc, rng):
    # the ids a bamboo decomposition gives attached vertices
    _rename(doc, rng, f"{_id(doc, rng)}+{rng.choice([1, 2, 3])}")


def lone_surrogate(doc, rng):
    _rename(doc, rng, rng.choice(["\ud800", "\udfff", "a\udc80b"]))


def weight(doc, rng):
    vertex = rng.choice(_vertices(doc))
    if isinstance(vertex, dict):
        vertex["w"] = rng.choice([0, -1, -2, 1, 10**30, 2**64, 10**300, _raw(rng)])
    if rng.random() < 0.3:
        doc["auxiliary"] = True


def grow(doc, rng):
    # a new leaf keeps the document a tree; its id is one an attached vertex takes
    u = _id(doc, rng)
    _vertices(doc).append({"id": f"{u}+1", "w": rng.choice([1, 2, 3, 4, 7])})
    _edges(doc).append([u, f"{u}+1"] if rng.random() < 0.5 else [f"{u}+1", u])


def reweigh(doc, rng):
    vertex = rng.choice(_vertices(doc))
    if isinstance(vertex, dict) and isinstance(vertex.get("w"), int):
        vertex["w"] += rng.choice([-1, 1, 2, 5])


def nest(doc, rng):
    doc[rng.choice(["vertices", "edges", "extra"])] = _raw(rng)


MUTATORS = [drop_field, repeat_entry, retype, self_loop, duplicate_edge, add_edge,
            disconnect, plus_id, lone_surrogate, weight, nest]
# mutations that can leave a valid graph, so the commands run past parsing
KEEPERS = [grow, reweigh, plus_id]


def _mutated(original, rng: random.Random) -> bytes:
    doc = copy.deepcopy(original)
    for _ in range(rng.choice([1, 1, 2, 3])):
        rng.choice(KEEPERS if rng.random() < 0.4 else MUTATORS)(doc, rng)
    data = _encode(doc).encode("utf-8")
    cut = rng.random()
    if cut < 0.05:
        data = data[: rng.randrange(len(data))]
    elif cut < 0.1:
        k = rng.randrange(len(data))
        data = data[:k] + b"\xff" + data[k + 1 :]
    return data


def _first_two_ids(data: bytes) -> list[str]:
    try:
        vertices = json.loads(data)["vertices"]
        ids = [str(v["id"]) for v in vertices[:2]]
    except Exception:
        ids = []
    return (ids + ["a", "b"])[:2]


def _checker_problems(command: str, data: bytes, err: str, report) -> list[str] | None:
    """What the benchmark's checker finds wrong with an exit-0 report of the
    graph document `data`; None for a report it does not check."""
    doc = json.loads(data)
    ids = tuple(v["id"] for v in doc["vertices"])
    index = {vid: k for k, vid in enumerate(ids)}
    weights = tuple(v["w"] for v in doc["vertices"])
    edges = tuple((index[a], index[b]) for a, b in doc["edges"])
    g = GraphInput(ids, weights, edges, pivots_positive(weights, edges))
    if command == "certify-minimal":
        return check_certify(g, 0, err, report)
    minimal = all(w >= max(v, 2) for w, v in zip(weights, g.valences()))
    if command == "analyze" and not minimal:
        return check_analyze(g, 0, err, report)
    return None


@pytest.mark.parametrize("path", GRAPHS, ids=[p.name.split(".")[0] for p in GRAPHS])
def test_graph_commands_keep_the_exit_contract(path, tmp_path, capsys):
    original = json.loads(path.read_text())
    rng = random.Random(f"contract-fuzz {path.name}")
    graph, out, dot = tmp_path / "g.json", tmp_path / "report.json", tmp_path / "report.dot"
    for _ in range(DOCUMENTS_PER_GRAPH):
        data = _mutated(original, rng)
        graph.write_bytes(data)
        x, y = _first_two_ids(data)
        for argv in (["analyze"], ["order", f"--dot={dot}"], ["certify-minimal"],
                     ["decompose", f"--x={x}", f"--y={y}", f"--dot={dot}"]):
            argv = [argv[0], str(graph), *argv[1:], f"--out={out}"]
            try:
                code = main(argv)
            except BaseException as exc:  # any escape breaks the contract
                pytest.fail(f"{argv[0]} raised {exc!r} on {data[:300]!r}")
            captured = capsys.readouterr()
            context = f"{argv[0]} exited {code} on {data[:300]!r}: {captured.err[:300]!r}"
            assert code in (0, 1, 2), context
            assert captured.out == "", context
            if code == 2:
                lines = captured.err.splitlines()
                assert len(lines) == 1 and lines[0].startswith("error: "), context
                assert not out.exists() and not dot.exists(), context
            else:
                report = json.loads(out.read_text(encoding="utf-8"))
                assert "header" in report, context
                if code == 0:
                    problems = _checker_problems(argv[0], data, captured.err, report)
                    assert not problems, f"{context}: {problems[:3]}"
                out.unlink()
                if argv[0] in ("order", "decompose"):
                    assert dot.read_text(encoding="utf-8").split()[0] in ("graph", "digraph"), context
                    dot.unlink()


# argv of each command on dn6_minimal, valid as it stands; "{g}" and "{dot}"
# stand for the graph and a DOT path
COMMANDS = {
    "analyze": ["{g}"],
    "order": ["{g}", "--dot", "{dot}"],
    "certify-minimal": ["{g}"],
    "decompose": ["{g}", "--x", "v1", "--y", "v6", "--dot", "{dot}"],
    "an-arcs": ["--n", "4", "--family", "2", "--against", "3", "--samples", "2",
                "--trunc", "12", "--seed", "5"],
    "an-order": ["--n", "5", "--dot", "{dot}"],
}
ARGVS_PER_COMMAND = 300
INT_FLAGS = ["--n", "--family", "--against", "--samples", "--trunc", "--seed"]
NOT_INTS = ["", "x", "1.5", "1e3", "0x10", "--", "9" * 5000]
# out of range, some just past a cap, and odd spellings of 3 and 7
ODD_INTS = ["-0", "0", "-1", "129", "1025", "100001", str(10**30), str(-10**30), str(2**63),
            "7", " 7 ", "\u0663"]
# "\udcff" is how an argument byte that is not UTF-8 reaches sys.argv
ODD_IDS = ["nope", "", "v1 ", "V1", "v1+1", "v6", "\udcff", "--x"]
UNKNOWN = ["--frob", "--frob=1", "-z", "--s", "--N=3", "extra", "--x", "--dot", "--", "-"]


def drop_argument(argv, rng):
    if argv:
        del argv[rng.randrange(len(argv))]


def drop_flag(argv, rng):
    flags = [k for k, a in enumerate(argv) if a.startswith("--")]
    if flags:
        k = rng.choice(flags)
        del argv[k : k + 2]


def repeat_flag(argv, rng):
    flags = [k for k, a in enumerate(argv) if a.startswith("--") and k + 1 < len(argv)]
    if flags:
        k = rng.choice(flags)
        value = argv[k + 1] if rng.random() < 0.5 else rng.choice(NOT_INTS + ODD_INTS + ODD_IDS)
        at = rng.randrange(len(argv) + 1)
        argv[at:at] = [argv[k], value]


def unknown_argument(argv, rng):
    argv.insert(rng.randrange(len(argv) + 1), rng.choice(UNKNOWN))


def odd_int(argv, rng):
    own = [a for a in INT_FLAGS if a in argv[:-1]]
    flag = rng.choice(own if own and rng.random() < 0.8 else INT_FLAGS)
    value = rng.choice(NOT_INTS if rng.random() < 0.3 else ODD_INTS)
    if flag in argv[:-1]:
        argv[argv.index(flag) + 1] = value
    else:
        argv.extend([flag, value])


def odd_id(argv, rng):
    flag = rng.choice(["--x", "--y"])
    if flag in argv[:-1]:
        argv[argv.index(flag) + 1] = rng.choice(ODD_IDS)
    else:
        argv.extend([flag, rng.choice(ODD_IDS)])


ARGV_MUTATORS = [drop_argument, drop_flag, repeat_flag, unknown_argument, odd_int, odd_int,
                 odd_id]


def _std_stream(errors: str) -> io.TextIOWrapper:
    """A UTF-8 text stream over bytes, with the error handler of a real
    process's stream: stderr writes a lone surrogate as backslashes."""
    return io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors=errors)


def _text(stream: io.TextIOWrapper) -> str:
    stream.flush()
    return stream.buffer.getvalue().decode("utf-8")


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_mutated_argv_keeps_the_exit_contract(command, tmp_path, monkeypatch):
    # a stray path lands in tmp_path, where it is seen and removed
    monkeypatch.chdir(tmp_path)
    graph = tmp_path / "g.json"
    graph.write_bytes((GOLDEN / "dn6_minimal.graph.json").read_bytes())
    rng = random.Random(f"contract-fuzz argv {command}")
    for _ in range(ARGVS_PER_COMMAND):
        argv = [a.format(g="g.json", dot="report.dot") for a in COMMANDS[command]]
        for _ in range(rng.choice([1, 1, 2, 3])):
            rng.choice(ARGV_MUTATORS)(argv, rng)
        argv = [command, *argv, "--out=report.json"]
        out, err = _std_stream("strict"), _std_stream("backslashreplace")
        with monkeypatch.context() as streams:
            streams.setattr(sys, "stdout", out)
            streams.setattr(sys, "stderr", err)
            try:
                code = main(argv)
            except BaseException as exc:  # any escape breaks the contract
                pytest.fail(f"{argv!r} raised {exc!r}")
        out, err = _text(out), _text(err)
        written = sorted(p.name for p in tmp_path.iterdir() if p != graph)
        context = f"{argv!r} exited {code}: {err[-300:]!r}, wrote {written}"
        assert code in (0, 1, 2), context
        assert "Traceback" not in err, context
        if code == 2:
            lines = err.splitlines()
            assert out == "" and written == [], context
            assert len(lines) == 1 and lines[0].startswith("error: "), context
        else:
            assert err == "", context
            # the last --out wins, unless a "--" made it an argument
            text = (tmp_path / "report.json").read_text(encoding="utf-8") \
                if "report.json" in written else out
            assert "header" in json.loads(text), context
            for name in written:
                (tmp_path / name).unlink()

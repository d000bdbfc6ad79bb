from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from nasharcs import classify, cli, order
from nasharcs.cli import main
from nasharcs.generators import an_graph
from nasharcs.graph import serialize_graph
from builders import e6_graph


@pytest.fixture()
def a3_file(tmp_path):
    path = tmp_path / "a3.json"
    path.write_text(json.dumps(serialize_graph(an_graph(3))))
    return str(path)


@pytest.fixture()
def e6_file(tmp_path):
    path = tmp_path / "e6.json"
    path.write_text(json.dumps(serialize_graph(e6_graph())))
    return str(path)


def run_json(argv, tmp_path):
    out = tmp_path / "out.json"
    code = main(argv + ["--out", str(out)])
    doc = json.loads(out.read_text()) if out.exists() else None
    return code, doc


def test_order_a3(a3_file, tmp_path):
    code, doc = run_json(["order", a3_file], tmp_path)
    assert code == 0
    assert len(doc["non_inclusions"]) == 6
    assert all(p["verdict"] == "incomparable" for p in doc["pairs"])


def test_order_dot_output(a3_file, tmp_path):
    dot = tmp_path / "h.dot"
    code = main(["order", a3_file, "--dot", str(dot), "--out", str(tmp_path / "o.json")])
    assert code == 0
    assert dot.read_text().startswith("digraph")


GOLDEN = Path(__file__).parent / "data" / "golden"


@pytest.mark.parametrize("argv, golden, expected", [
    (["order", str(GOLDEN / "e6.graph.json")], "e6.order.json", 1),
    (["an-order", "--n", "6"], "an-order/n6.json", 0),
    (["decompose", str(GOLDEN / "minimal_0.graph.json"), "--x", "v1", "--y", "v6"],
     "minimal_0.decompose.json", 0),
], ids=["order", "an-order", "decompose"])
def test_dot_text_is_built_only_for_dot(argv, golden, expected, tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("DOT text built without --dot")

    monkeypatch.setattr(order, "hasse_export", refuse)
    monkeypatch.setattr(classify, "supergraph_dot", refuse)
    out = tmp_path / "out.json"
    assert main(argv + ["--out", str(out)]) == expected
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


def test_certify_minimal_e6_rejected(e6_file, tmp_path, capsys):
    code, _ = run_json(["certify-minimal", e6_file], tmp_path)
    assert code == 2
    assert "NotMinimal" in capsys.readouterr().err


def test_certify_minimal_a3(a3_file, tmp_path):
    code, doc = run_json(["certify-minimal", a3_file], tmp_path)
    assert code == 0
    assert doc["open_pairs"] == []
    assert len(doc["pairs"]) == 6


def test_an_order(tmp_path):
    code, doc = run_json(["an-order", "--n", "4"], tmp_path)
    assert code == 0
    assert len(doc["pairs"]) == 12
    assert all(p["verdict"] == "incomparable" for p in doc["pairs"])


def test_analyze_report_flags(a3_file, tmp_path):
    code, doc = run_json(["analyze", a3_file], tmp_path)
    assert code == 0
    assert doc["negative_definite"] and doc["rational"] and doc["minimal"]
    assert doc["an"] == 3
    assert doc["fundamental_cycle"] == [1, 1, 1]
    assert doc["ray_basis"][0] == ["3/4", "1/2", "1/4"]
    assert "certificate" in doc


def test_analyze_roundtrip(a3_file, tmp_path):
    code, doc = run_json(["analyze", a3_file], tmp_path)
    assert code == 0
    embedded = tmp_path / "embedded.json"
    embedded.write_text(json.dumps(doc["graph"]))
    code2, doc2 = run_json(["analyze", str(embedded)], tmp_path)
    assert code2 == 0
    assert doc == doc2


def test_analyze_e6_not_minimal(e6_file, tmp_path):
    code, doc = run_json(["analyze", e6_file], tmp_path)
    assert code == 0
    assert doc["minimal"] is False
    assert doc["fundamental_cycle"] == [1, 2, 3, 2, 1, 2]
    assert "certificate" not in doc


def test_decompose(tmp_path):
    g = tmp_path / "b.json"
    g.write_text(
        json.dumps(
            {
                "vertices": [
                    {"id": "v1", "w": 3},
                    {"id": "v2", "w": 2},
                    {"id": "v3", "w": 2},
                ],
                "edges": [["v1", "v2"], ["v2", "v3"]],
            }
        )
    )
    dot = tmp_path / "sg.dot"
    out = tmp_path / "d.json"
    code = main(["decompose", str(g), "--x", "v1", "--y", "v3", "--dot", str(dot), "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["contracts_to_empty"] is True
    assert doc["m"] == 3
    assert "lightgrey" in dot.read_text()


def test_an_arcs(tmp_path):
    code, doc = run_json(
        ["an-arcs", "--n", "3", "--family", "2", "--samples", "5", "--seed", "9"],
        tmp_path,
    )
    assert code == 0
    assert doc["orders_match"] is True
    assert all(r["orders"] == {"x": 2, "y": 2, "z": 1} for r in doc["arcs"])
    assert doc["header"]["seed"] == 9


def test_an_arcs_separation(tmp_path):
    code, doc = run_json(
        [
            "an-arcs", "--n", "3", "--family", "1", "--against", "3",
            "--samples", "10", "--seed", "2",
        ],
        tmp_path,
    )
    assert code == 0
    assert doc["separation"]["passed"] is True


@pytest.mark.parametrize("samples", ["-4", "0", "100001"])
@pytest.mark.parametrize("against", [[], ["--against", "2"]])
def test_an_arcs_bad_sample_count_is_usage_error(samples, against, tmp_path, capsys):
    out = tmp_path / "o.json"
    code = main(["an-arcs", "--n", "3", "--family", "1", "--samples", samples,
                 "--out", str(out)] + against)
    err = capsys.readouterr().err
    assert code == 2 and not out.exists()
    assert "BadParameter" in err and "Traceback" not in err


def test_missing_file_is_usage_error(tmp_path, capsys):
    code = main(["order", str(tmp_path / "nope.json")])
    assert code == 2


def test_malformed_graph_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": [{"id": "a", "w": 0}], "edges": []}')
    assert main(["order", str(bad)]) == 2
    assert "BadWeight" in capsys.readouterr().err


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 2


@pytest.mark.parametrize(
    "argv, message",
    [(["order", "g.json", "extra"], "unrecognized arguments: extra"),
     ([], "the following arguments are required: command"),
     (["an-order", "--n", "x"], "argument --n: invalid int value: 'x'"),
     (["decompose", "g.json", "--x", "v1"], "the following arguments are required: --y")],
    ids=["extra_argument", "no_command", "not_an_int", "missing_flag"],
)
def test_usage_error_prints_one_error_line(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: BadParameter: {message}\n"


@pytest.mark.parametrize("n", ["0", "-3"])
def test_an_order_bad_size_is_usage_error(n, tmp_path, capsys):
    code = main(["an-order", "--n", n, "--out", str(tmp_path / "o.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert "BadParameter" in err and "Traceback" not in err


def test_generator_range_errors_are_package_errors():
    from nasharcs.errors import BadParameter

    with pytest.raises(BadParameter):
        an_graph(0)


def test_certify_minimal_with_plus_ids(tmp_path):
    # "a+1" is also the name the embedding would give the first weight-1
    # vertex attached to "a"; the attached vertex must take another name
    g = tmp_path / "plus.json"
    g.write_text(
        json.dumps(
            {
                "vertices": [
                    {"id": "a", "w": 3},
                    {"id": "a+1", "w": 2},
                    {"id": "b", "w": 2},
                ],
                "edges": [["a", "a+1"], ["a+1", "b"]],
            }
        )
    )
    code, doc = run_json(["certify-minimal", str(g)], tmp_path)
    assert code == 0
    assert doc["open_pairs"] == []
    assert len(doc["pairs"]) == 6
    piece = next(
        p["evidence"]["designated_piece"]
        for p in doc["pairs"]
        if (p["alpha"], p["beta"]) == ("a+1", "b")
    )
    assert piece[:3] == ["a", "a+1", "b"] and piece[3] not in ("a", "a+1", "b")


@pytest.mark.parametrize(
    "doc",
    [
        # `true` is an int to Python; with "auxiliary" it used to round-trip as "w": true
        {"vertices": [{"id": "a", "w": True}, {"id": "b", "w": 2}],
         "edges": [["a", "b"]], "auxiliary": True},
        # any non-empty string used to switch the flag on and admit weight 1
        {"vertices": [{"id": "a", "w": 1}, {"id": "b", "w": 2}],
         "edges": [["a", "b"]], "auxiliary": "false"},
        # an unhashable endpoint used to crash the id lookup with a TypeError
        {"vertices": [{"id": "a", "w": 2}, {"id": "b", "w": 2}],
         "edges": [[["x"], "b"]]},
        {"vertices": [{"id": "a", "w": 2}, {"id": "b", "w": 2}],
         "edges": [["a", {"id": "b"}]]},
    ],
    ids=["bool_weight", "string_auxiliary", "array_endpoint", "object_endpoint"],
)
def test_non_integer_json_values_exit_2(doc, tmp_path, capsys):
    g = tmp_path / "bad.json"
    g.write_text(json.dumps(doc))
    code, out = run_json(["analyze", str(g)], tmp_path)
    err = capsys.readouterr().err
    assert code == 2 and out is None
    assert "MalformedDocument" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "content",
    [b"[" * 100_000, b'{"vertices": [{"id": "\xff", "w": 2}], "edges": []}'],
    ids=["nested_too_deeply", "not_utf8"],
)
def test_undecodable_graph_file_exits_2(content, tmp_path, capsys):
    g = tmp_path / "bad.json"
    g.write_bytes(content)
    code, out = run_json(["analyze", str(g)], tmp_path)
    err = capsys.readouterr().err
    assert code == 2 and out is None
    assert "MalformedDocument" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [["--n", "3", "--trunc", "1025"], ["--n", "300"]],
    ids=["explicit", "default_of_large_n"],
)
def test_an_arcs_truncation_above_cap_is_usage_error(argv, tmp_path, capsys):
    out = tmp_path / "o.json"
    code = main(["an-arcs", "--family", "1", "--samples", "1", "--out", str(out)] + argv)
    err = capsys.readouterr().err
    assert code == 2 and not out.exists()
    assert "BadParameter" in err and "1024" in err and "Traceback" not in err


@pytest.mark.parametrize("n", ["129", "1000000000"])
def test_an_order_above_cap_exits_2_fast(n, tmp_path, capsys):
    out = tmp_path / "o.json"
    start = time.perf_counter()
    code = main(["an-order", "--n", n, "--out", str(out)])
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert code == 2 and not out.exists()
    assert "BadParameter" in err and "128" in err and "Traceback" not in err


def _path_file(tmp_path, n):
    path = tmp_path / f"a{n}.json"
    path.write_text(json.dumps(serialize_graph(an_graph(n))))
    return str(path)


@pytest.mark.parametrize("command", ["analyze", "order", "certify-minimal"])
def test_graph_file_above_cap_exits_2_fast(command, tmp_path, capsys):
    # the report would grow as n^3
    graph = _path_file(tmp_path, 129)
    out = tmp_path / "o.json"
    start = time.perf_counter()
    code = main([command, graph, "--out", str(out)])
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert code == 2 and not out.exists() and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: BadParameter") and "129" in lines[0]


def test_decompose_above_cap_still_runs(tmp_path):
    # its report grows as O(surplus x depth), not as n^3, so the vertex cap does not apply
    graph = _path_file(tmp_path, 129)
    code, doc = run_json(["decompose", graph, "--x", "E1", "--y", "E129"], tmp_path)
    assert code == 0 and doc["m"] == 129


@pytest.mark.parametrize("command", ["analyze", "order", "certify-minimal"])
def test_graph_file_cap_boundary(command, monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "MAX_VERTICES", 3)
    for n, expected in ((3, 0), (4, 2)):
        out = tmp_path / f"o{n}.json"
        assert main([command, _path_file(tmp_path, n), "--out", str(out)]) == expected
        assert out.exists() == (expected == 0)


@pytest.mark.parametrize(
    "against, error",
    [("3", "SameVertex"), ("40", "BadFamilyIndex")],
    ids=["same_as_family", "out_of_range"],
)
def test_an_arcs_bad_against_exits_2_before_sampling(against, error, tmp_path, capsys):
    out = tmp_path / "o.json"
    start = time.perf_counter()
    code = main(["an-arcs", "--n", "12", "--family", "3", "--samples", "100000",
                 "--against", against, "--out", str(out)])
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert code == 2 and not out.exists() and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and error in lines[0]


def test_an_arcs_help_states_truncation_cap(capsys):
    assert main(["an-arcs", "--help"]) == 0
    assert "at most 1024" in capsys.readouterr().out


# JSON's "\ud800" escape decodes to a lone surrogate, which UTF-8 cannot encode
LONE_SURROGATE = {"vertices": [{"id": "\ud800", "w": 2}, {"id": "b", "w": 2}],
                  "edges": [["\ud800", "b"]]}


@pytest.mark.parametrize(
    "argv",
    [["order", "--dot", "h.dot"],
     ["decompose", "--x", "\ud800", "--y", "b", "--dot", "h.dot"],
     ["analyze"]],
    ids=["order_dot", "decompose_dot", "analyze"],
)
def test_lone_surrogate_vertex_id_exits_2(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    g = tmp_path / "bad.json"
    g.write_text(json.dumps(LONE_SURROGATE))
    code, out = run_json([argv[0], str(g), *argv[1:]], tmp_path)
    err = capsys.readouterr().err
    assert code == 2 and out is None and not (tmp_path / "h.dot").exists()
    assert "MalformedDocument" in err and "Traceback" not in err


GRAPH_COMMANDS = [["analyze"], ["order"], ["certify-minimal"], ["decompose", "--x", "a", "--y", "b"]]
GRAPH_COMMAND_IDS = ["analyze", "order", "certify_minimal", "decompose"]


def _two_weights(wa: str, wb: str) -> str:
    return f'{{"vertices": [{{"id": "a", "w": {wa}}}, {{"id": "b", "w": {wb}}}], "edges": [["a", "b"]]}}'


@pytest.fixture()
def default_digit_limit():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


@pytest.mark.parametrize(
    "text, error",
    [
        # json.loads itself refuses a literal past the 4300-digit limit
        (_two_weights("1" + "0" * 5000, "2"), "MalformedDocument: invalid JSON: Exceeds the limit"),
        # both parse, but det(-M) has about 6000 digits and `analyze` prints it
        (_two_weights("1" + "0" * 3000, "1" + "0" * 3000), "BadWeight: the weights total"),
        # documents that are valid JSON but no graph
        ('{"vertices": [], "edges": []}',
         "MalformedDocument: graph needs at least one vertex"),
        *((text, "MalformedDocument: document must be a JSON object")
          for text in ("[]", "3", '"x"', "null")),
    ],
    ids=["weight_of_5001_digits", "two_weights_of_3001_digits", "no_vertices",
         "top_level_array", "top_level_number", "top_level_string", "top_level_null"],
)
@pytest.mark.parametrize("argv", GRAPH_COMMANDS, ids=GRAPH_COMMAND_IDS)
def test_integer_past_digit_limit_exits_2(argv, text, error, tmp_path, capsys,
                                          default_digit_limit):
    g = tmp_path / "big.json"
    g.write_text(text)
    code, out = run_json([argv[0], str(g), *argv[1:]], tmp_path)
    lines = capsys.readouterr().err.splitlines()
    assert code == 2 and out is None
    assert len(lines) == 1 and lines[0].startswith(f"error: {error}")


@pytest.mark.parametrize("argv", GRAPH_COMMANDS, ids=GRAPH_COMMAND_IDS)
def test_weight_past_attachment_cap_exits_2_fast(argv, tmp_path, capsys):
    # weight minus valence sums to 10**9, far past the cap of 4096 attached vertices
    g = tmp_path / "heavy.json"
    g.write_text(_two_weights(str(10**9), "2"))
    start = time.perf_counter()
    code, out = run_json([argv[0], str(g), *argv[1:]], tmp_path)
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    if argv[0] == "order":  # the order relation attaches nothing
        assert code == 0 and out["non_inclusions"]
        return
    assert code == 2 and out is None
    assert "BadWeight" in err and "4096" in err and "Traceback" not in err


def test_attachment_cap_is_inclusive(tmp_path):
    g = tmp_path / "g.json"
    g.write_text(_two_weights("4096", "2"))
    code, doc = run_json(["decompose", str(g), "--x", "a", "--y", "b"], tmp_path)
    assert code == 0 and sum(doc["attached"].values()) == 4095
    (tmp_path / "out.json").unlink()
    g.write_text(_two_weights("4097", "2"))
    assert run_json(["decompose", str(g), "--x", "a", "--y", "b"], tmp_path) == (2, None)


# auxiliary graphs where every weight is at least the valence, yet a leaf
# has weight 1: a (-1)-curve, so the graph is not minimal
WEIGHT_1_LEAF = {
    "leaf_on_three": {"vertices": [{"id": "a", "w": 1}, {"id": "b", "w": 3}, {"id": "c", "w": 1}],
                      "edges": [["a", "b"], ["b", "c"]], "auxiliary": True},
    "leaf_on_two": {"vertices": [{"id": "a", "w": 1}, {"id": "b", "w": 2}],
                    "edges": [["a", "b"]], "auxiliary": True},
}


@pytest.mark.parametrize("name", sorted(WEIGHT_1_LEAF))
def test_weight_1_leaf_is_not_minimal(name, tmp_path, capsys):
    g = tmp_path / "g.json"
    g.write_text(json.dumps(WEIGHT_1_LEAF[name]))
    code, doc = run_json(["analyze", str(g)], tmp_path)
    assert code == 0 and doc["negative_definite"] and doc["minimal"] is False
    assert "certificate" not in doc
    (tmp_path / "out.json").unlink()
    for argv in (["certify-minimal"], ["decompose", "--x", "a", "--y", "b"]):
        assert run_json([argv[0], str(g), *argv[1:]], tmp_path) == (2, None)
        err = capsys.readouterr().err
        assert "NotMinimal" in err and "Traceback" not in err


def _cli_in_sh(redirect: str, n: int, unbuffered: bool) -> subprocess.CompletedProcess:
    """`nasharcs an-order --n <n>` in a fresh interpreter, redirected by `sh`;
    whichever of stdout and stderr is not redirected is captured."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        ["/bin/sh", "-c", f'exec "$@" {redirect}', "sh", sys.executable, "-m", "nasharcs.cli",
         "an-order", "--n", str(n)],
        env=env, text=True, timeout=60,
        **{"stdout" if redirect.startswith("2") else "stderr": subprocess.PIPE},
    )


def test_closed_stdout_exits_2():
    # with file descriptor 1 closed the interpreter starts with sys.stdout None
    proc = _cli_in_sh(">&-", 3, unbuffered=True)
    assert (proc.returncode, proc.stderr) == (2, "error: standard output is closed\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_full_stdout_exits_2(unbuffered):
    # buffered, the whole report fits in stdout's buffer: the error comes at
    # the flush, and must not come again when the interpreter exits
    proc = _cli_in_sh("> /dev/full", 3, unbuffered)
    assert proc.returncode == 2
    assert proc.stderr == "error: [Errno 28] No space left on device\n"


@pytest.mark.parametrize("redirect", ["2>&-", "2</dev/null", "2>/dev/full"],
                         ids=["closed", "read_only", "full"])
def test_unwritable_stderr_still_exits_2(redirect):
    # with descriptor 2 closed the interpreter starts with sys.stderr None, and
    # print(file=None) would write the error line to stdout; on a read-only or
    # full descriptor the write raises inside the handler
    if redirect.endswith("/dev/full") and not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full")
    proc = _cli_in_sh(redirect, 0, unbuffered=False)
    assert (proc.returncode, proc.stdout) == (2, "")

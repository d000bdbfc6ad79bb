"""Run one nasharcs CLI command in this process with spans around each layer.

Usage: python3 trace_driver.py SPANS_JSON SRC_DIR -- CLI_ARGS...

The command runs through `nasharcs.cli.main`, so the same public
functions are called in the same order, and reuse the same caches, as
in a plain CLI run.  Each traced function is replaced, in every nasharcs
module that holds it, by a wrapper that records a span; module imports
get spans from an import hook.  Spans stay in memory and are written to
SPANS_JSON after the command returns.  The exit code is the CLI's.
"""
import time

T0 = time.perf_counter()

import importlib.abc  # noqa: E402
import importlib.machinery  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from layers import TRACED  # noqa: E402

# a span is [name, start, end, parent index]; index 0 is the whole job
SPANS: list[list] = [["job", T0, 0.0, -1]]
STACK = [0]
# distinct results of these calls, for the bit-length counts
RESULTS: dict[str, dict] = {"cycles.ray_basis": {}, "order.relation_matrix": {}}


def traced(name, fn):
    keep = RESULTS.get(name)

    def wrapper(*args, **kwargs):
        SPANS.append([name, time.perf_counter(), 0.0, STACK[-1]])
        STACK.append(len(SPANS) - 1)
        try:
            out = fn(*args, **kwargs)
        finally:
            SPANS[STACK.pop()][2] = time.perf_counter()
        if keep is not None:
            keep[id(out)] = out
        return out

    return wrapper


class ImportSpans(importlib.abc.MetaPathFinder):
    """Wrap the loading of each nasharcs module in a '<layer>.module' span."""

    def find_spec(self, fullname, path, target=None):
        if fullname != "nasharcs" and not fullname.startswith("nasharcs."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is not None and spec.loader is not None:
            layer = fullname.partition(".")[2] or "nasharcs"
            spec.loader.exec_module = traced(
                f"{layer}.module", spec.loader.exec_module)
        return spec


def _bits(values) -> int:
    return max((abs(v).bit_length() for v in values), default=0)


def main() -> int:
    out_path, src = sys.argv[1], Path(sys.argv[2]).resolve()
    argv = sys.argv[sys.argv.index("--") + 1:]
    sys.meta_path.insert(0, ImportSpans())
    t_import = time.perf_counter()
    import nasharcs.cli
    import_s = time.perf_counter() - t_import
    if src not in Path(nasharcs.__file__).resolve().parents:
        print(f"error: nasharcs imported from {nasharcs.__file__}, not {src}",
              file=sys.stderr)
        return 3

    modules = [m for k, m in sys.modules.items() if k.startswith("nasharcs")]
    missing = []
    for layer, attr, name in TRACED:
        orig = getattr(sys.modules.get(f"nasharcs.{layer}"), attr, None)
        if orig is None:
            # renamed or removed since the benchmark was written: not traced
            missing.append(name)
            continue
        wrapper = traced(name, orig)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, key, wrapper)

    code = nasharcs.cli.main(argv)
    SPANS[0][2] = time.perf_counter()

    ray_bits = 0
    for rays in RESULTS["cycles.ray_basis"].values():
        for row in rays.matrix.rows():
            ray_bits = max(ray_bits, _bits(q.numerator for q in row),
                           _bits(q.denominator for q in row))
    witness_bits = 0
    for rm in RESULTS["order.relation_matrix"].values():
        for _, rel in rm.pairs():
            for w in (rel.witness_ij, rel.witness_ji):
                witness_bits = max(witness_bits, _bits(w or ()))
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({
            "exit": code,
            "import_s": import_s,
            "spans": SPANS,
            "missing": missing,
            "counts": {
                "cycles.ray_max_bits": ray_bits,
                "order.witness_max_bits": witness_bits,
            },
        }, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

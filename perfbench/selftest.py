"""Self-test of the output checker: corrupted outputs must fail.

    python3 perfbench/selftest.py

Runs the first job of each workload through the real CLI, checks that its
output passes, then checks corrupted copies of it and exits non-zero if
any corruption is not counted as a failure.
"""
from __future__ import annotations

import copy
import json
import sys

import run
from check import check_job


def corruptions(workload: str, doc: dict, job) -> list[tuple[str, dict, int]]:
    """(label, corrupted document, exit code) for one workload's output."""
    out = [("wrong exit code", doc, 1)]
    if workload == "certify_minimal":
        flipped = copy.deepcopy(doc)
        entry = next(e for e in flipped["pairs"] if e["evidence"].get("order_witness"))
        z = entry["evidence"]["order_witness"]
        a, b = job.graph.ids.index(entry["alpha"]), job.graph.ids.index(entry["beta"])
        z[a], z[b] = z[b], z[a]
        dropped = copy.deepcopy(doc)
        del dropped["pairs"][len(dropped["pairs"]) // 2]
        out += [("flipped witness coefficient", flipped, 0), ("dropped pair", dropped, 0)]
    elif workload == "analyze_negdef":
        flag = copy.deepcopy(doc)
        flag["negative_definite"] = not flag["negative_definite"]
        flipped = copy.deepcopy(doc)
        p = next(p for p in flipped["relation"]["pairs"] if p["witness_ij"])
        i, j = job.graph.ids.index(p["i"]), job.graph.ids.index(p["j"])
        p["witness_ij"][i], p["witness_ij"][j] = p["witness_ij"][j], p["witness_ij"][i]
        dropped = copy.deepcopy(doc)
        del dropped["relation"]["pairs"][0]
        out += [("flipped negative_definite flag", flag, 0),
                ("flipped witness coefficient", flipped, 0),
                ("dropped pair", dropped, 0)]
    else:
        order = copy.deepcopy(doc)
        order["arcs"][0]["orders"]["x"] += 1
        out += [("wrong arc order", order, 0)]
    return out


def main() -> int:
    missed = 0
    checker = run.Checker()
    for workload in run.WORKLOADS:
        with run.workdir(f"selftest-{workload}") as tmp, run.Spawner() as spawner:
            work = run.Path(tmp)
            jobs, proc = run.setup(workload, 0, work, checker, spawner)
            job = jobs[0]
            doc = json.loads((work / f"{job.name}.out.json").read_text(encoding="utf-8"))
        clean = check_job(job, proc["exit"], proc["stderr"], doc)
        print(f"{workload}: clean output {'passes' if not clean else 'FAILS: ' + clean[0]}")
        missed += bool(clean)
        for label, bad, code in corruptions(workload, doc, job):
            problems = check_job(job, code, "", bad)
            print(f"{workload}: {label}: "
                  f"{'flagged: ' + problems[0] if problems else 'NOT FLAGGED'}")
            missed += not problems
    print("self-test passed" if not missed else f"self-test FAILED ({missed})")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())

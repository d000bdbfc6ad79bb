"""Seeded end-to-end benchmark of the nasharcs CLI.

    python3 perfbench/run.py --workload certify_minimal --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40
    python3 perfbench/selftest.py     # the checker must flag corrupted outputs

Load model: a closed loop with one client.  Jobs run one at a time, each
in a fresh `python3 -m nasharcs.cli` process, because the package keeps
per-process caches keyed on the graph: a repeat inside one process would
measure a cache hit, while a CLI user pays the import and cold caches on
every call.  A round runs the workload's whole job list once; rounds
repeat until the next one would end after --seconds, and the timing
metrics are medians over rounds.  Every output is checked against the
benchmark's own answers (check.py), and any failed check fails the job.

With --trace 1 each job runs twice per round: once through the CLI and
once under trace_driver.py, which records a span around every layer call.
That run reports per-layer self times and counts instead of the
end-to-end metrics; trace.overhead_s is the wall time of the traced runs
minus that of the plain runs of the same jobs.  The last line of standard output is one JSON
object; the full result, with the environment, goes to
.perfbench_results/ in the checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from check import check_job  # noqa: E402
from corpus import WORKLOADS, Job, build_jobs  # noqa: E402
from layers import LAYERS, SHOULD_MOVE  # noqa: E402

SETUP_REPEATS = 3
JOB_TIMEOUT_S = 60.0
LOAD_MODEL = ("closed loop, one client, one job at a time; each job is a fresh "
              "CLI process; the job list repeats in rounds until --seconds")


def workdir(tag: str) -> tempfile.TemporaryDirectory:
    """Input and output files of one run, under the checkout, removed at the end."""
    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(prefix=f"{tag}-", dir=base)


class Spawner:
    """Runs jobs one at a time through spawner.py; see there for why."""

    def __enter__(self) -> "Spawner":
        self.proc = subprocess.Popen(
            [sys.executable, "-S", "-E", str(HERE / "spawner.py"), str(ROOT)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=JOB_TIMEOUT_S)

    def run(self, argv: list[str], stderr_path: Path) -> dict:
        """Run one child to completion; wall time covers spawning to reaping."""
        req = {"argv": argv, "env": self.env, "stderr": str(stderr_path),
               "timeout": JOB_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the job spawner exited")
        res = json.loads(reply)
        res["rss_mb"] = res.pop("maxrss_kb") / 1024.0
        res["stderr"] = stderr_path.read_text(encoding="utf-8", errors="replace")
        return res


def cli_args(job: Job, inputs: Path) -> list[str]:
    if job.graph is not None:
        return [job.command, str(inputs / f"{job.name}.json")]
    a = job.arcs
    args = [job.command, "--n", str(a["n"]), "--family", str(a["family"]),
            "--samples", str(a["samples"]), "--seed", str(a["seed"])]
    if a["against"] is not None:
        args += ["--against", str(a["against"])]
    return args


class Checker:
    """Checks job outputs; byte-identical outputs of a job are checked once."""

    def __init__(self) -> None:
        self.verdicts: dict[tuple[str, str], list[str]] = {}

    def __call__(self, job: Job, proc: dict, out: Path) -> list[str]:
        if proc["timed_out"]:
            return [f"timed out after {JOB_TIMEOUT_S} s"]
        data = out.read_bytes() if out.exists() else b""
        digest = hashlib.sha256(
            data + f"|{proc['exit']}|{proc['stderr']}".encode()).hexdigest()
        key = (job.name, digest)
        if key not in self.verdicts:
            try:
                doc = json.loads(data)
            except ValueError:
                doc = None
            self.verdicts[key] = check_job(job, proc["exit"], proc["stderr"], doc)
        return self.verdicts[key]


def run_job(job: Job, work: Path, checker: Checker, spawner: Spawner,
            traced: bool) -> dict:
    out = work / f"{job.name}.out.json"
    out.unlink(missing_ok=True)
    args = cli_args(job, work) + ["--out", str(out)]
    if traced:
        spans = work / f"{job.name}.spans.json"
        spans.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "trace_driver.py"), str(spans),
                str(SRC), "--", *args]
    else:
        argv = [sys.executable, "-m", "nasharcs.cli", *args]
    proc = spawner.run(argv, work / f"{job.name}.stderr")
    proc["problems"] = checker(job, proc, out)
    proc["output_bytes"] = out.stat().st_size if out.exists() else 0
    if traced:
        try:
            proc["trace"] = json.loads(spans.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            proc["problems"] = proc["problems"] + ["traced run wrote no spans"]
    return proc


def setup(workload: str, seed: int, work: Path, checker: Checker,
          spawner: Spawner) -> tuple[list[Job], dict]:
    """Generate the corpus, write the inputs, check one warm-up job."""
    jobs = build_jobs(workload, seed)
    for job in jobs:
        if job.graph is not None:
            (work / f"{job.name}.json").write_text(
                json.dumps(job.graph.document()), encoding="utf-8")
    warm = run_job(jobs[0], work, checker, spawner, traced=False)
    return jobs, warm


# --- aggregation -------------------------------------------------------------

def span_table(trace: dict) -> dict:
    """Self time per span name, the job time, and per-call durations."""
    spans = trace["spans"]
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s: dict[str, float] = {}
    calls: dict[str, list[float]] = {}
    for k, (name, start, end, parent) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + (end - start - child[k])
        calls.setdefault(name, []).append(end - start)
    return {"self": self_s, "calls": calls,
            "job_s": spans[0][2] - spans[0][1], "spans": len(spans)}


def layer_round(jobs: list[Job], results: list[dict]) -> dict:
    """Per-layer metrics of one traced round."""
    fn: dict[str, float] = {}
    by_class: dict[str, dict[str, float]] = {}
    calls: dict[str, list[float]] = {}
    incl: dict[str, float] = {}
    missing: set[str] = set()
    m = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    m.update({k: 0.0 for k in ("cli.import_s", "trace.job_s",
                               "trace.unattributed_s", "trace.overhead_s")})
    m.update({k: 0 for k in ("order.pairs", "arcs.arcs_sampled", "classify.surplus",
                             "cycles.ray_max_bits", "order.witness_max_bits",
                             "cli.output_bytes", "trace.spans")})
    for job, r in zip(jobs, results):
        plain, traced = r["plain"], r["traced"]
        m["trace.overhead_s"] += traced["wall_s"] - plain["wall_s"]
        m["cli.output_bytes"] += plain["output_bytes"]
        m["order.pairs"] += job.items() if job.graph else 0
        m["classify.surplus"] += job.graph.facts()["surplus"] if job.graph else 0
        if "trace" not in traced:
            continue
        trace = traced["trace"]
        table = span_table(trace)
        m["cli.import_s"] += trace["import_s"]
        m["trace.job_s"] += table["job_s"]
        m["trace.spans"] += table["spans"]
        missing.update(trace["missing"])
        for key in ("cycles.ray_max_bits", "order.witness_max_bits"):
            m[key] = max(m[key], trace["counts"][key])
        m["arcs.arcs_sampled"] += len(table["calls"].get("arcs.sample_arc", ()))
        cls = by_class.setdefault(job_class(job), {})
        for name, s in table["self"].items():
            layer = name.partition(".")[0]
            if name == "job" or layer == "nasharcs":
                m["trace.unattributed_s"] += s
            else:
                m[f"{layer}.self_s"] += s
            if name != "job":
                fn[f"{name}_s"] = fn.get(f"{name}_s", 0.0) + s
                cls[f"{name}_s"] = cls.get(f"{name}_s", 0.0) + s
        for name, d in table["calls"].items():
            calls.setdefault(name, []).extend(d)
            incl[f"{name}_s"] = incl.get(f"{name}_s", 0.0) + sum(d)
    m["cli.emit_s"] = fn.get("cli.emit_s", 0.0)
    layer_sum = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    return {
        "metrics": m,
        "functions": fn,
        "inclusive": incl,
        "by_class": by_class,
        "call_p50_s": {k: statistics.median(v) for k, v in calls.items()},
        "calls": {k: len(v) for k, v in calls.items()},
        "missing": sorted(missing),
        "identity_error_s": layer_sum + m["trace.unattributed_s"] - m["trace.job_s"],
    }


def job_class(job: Job) -> str:
    if job.arcs is not None:
        return "against" if job.arcs["against"] is not None else "plain"
    return "definite" if job.graph.negative_definite else "indefinite"


def tail_percentile(walls: list[float]) -> dict:
    """The highest percentile of job wall time with ten jobs beyond it."""
    if len(walls) < 20:
        return {}
    ordered = sorted(walls)
    k = len(ordered) - 11
    return {"job_tail_pct": 100.0 * (k + 1) / len(ordered), "job_tail_s": ordered[k]}


def median_of(rounds: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in rounds)


# --- one workload --------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 spec: dict) -> dict:
    checker = Checker()
    attempted = failed = 0
    failures: list[dict] = []

    def account(job: Job, proc: dict) -> None:
        nonlocal attempted, failed
        attempted += 1
        if proc["problems"]:
            failed += 1
            if len(failures) < 20:
                failures.append({"job": job.name, "problems": proc["problems"][:5]})

    with workdir(f"{workload}-{seed}") as tmp, Spawner() as spawner:
        work = Path(tmp)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            jobs, warm = setup(workload, seed, work, checker, spawner)
            setup_times.append(time.perf_counter() - t0)
            account(jobs[0], warm)

        rounds: list[dict] = []
        round_walls: list[float] = []
        job_walls: list[float] = []
        t_start = time.perf_counter()
        while True:
            results = []
            for job in jobs:
                plain = run_job(job, work, checker, spawner, traced=False)
                account(job, plain)
                job_walls.append(plain["wall_s"])
                r = {"plain": plain}
                if trace:
                    r["traced"] = run_job(job, work, checker, spawner, traced=True)
                    account(job, r["traced"])
                results.append(r)
            plain = [r["plain"] for r in results]
            wall = sum(p["wall_s"] for p in plain)
            items = sum(j.items() for j in jobs)
            rnd = {
                "wall_s": wall,
                "cpu_s": sum(p["cpu_s"] for p in plain),
                "items": items,
                "items_per_s": items / wall,
                "peak_rss_mb": max(p["rss_mb"] for p in plain),
            }
            if trace:
                rnd["layers"] = layer_round(jobs, results)
            rounds.append(rnd)
            round_walls.append(time.perf_counter() - t_start - sum(round_walls))
            elapsed = time.perf_counter() - t_start
            if elapsed + statistics.median(round_walls) > seconds:
                break

    e2e = {
        "setup_s": statistics.median(setup_times),
        "wall_s": median_of(rounds, "wall_s"),
        "cpu_s": median_of(rounds, "cpu_s"),
        "items_per_s": median_of(rounds, "items_per_s"),
        "job_p50_s": statistics.median(job_walls),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
    }
    result = {
        "workload": workload,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == workload),
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "load_model": LOAD_MODEL,
        "jobs": [{"name": j.name, "command": j.command, **j.facts()} for j in jobs],
        "rounds": len(rounds),
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "failures": failures,
        "setup_s_each": setup_times,
        "job_walls_s": job_walls,
        **tail_percentile(job_walls),
        "items_per_round": rounds[0]["items"],
        "items_are": "arcs sampled" if workload == "an_arcs" else "ordered pairs decided",
        "end_to_end": e2e,
    }
    if trace:
        layer_rounds = [r["layers"] for r in rounds]
        # counts repeat exactly from round to round; median_low keeps them whole
        result["per_layer"] = {
            k: (statistics.median_low if isinstance(v, int) else statistics.median)(
                [lr["metrics"][k] for lr in layer_rounds])
            for k, v in layer_rounds[0]["metrics"].items()
        }
        result["functions_s"] = {
            k: statistics.median(lr["functions"].get(k, 0.0) for lr in layer_rounds)
            for k in sorted({k for lr in layer_rounds for k in lr["functions"]})
        }
        result["functions_inclusive_s"] = layer_rounds[-1]["inclusive"]
        result["by_class_s"] = layer_rounds[-1]["by_class"]
        result["call_p50_s"] = layer_rounds[-1]["call_p50_s"]
        result["calls_per_round"] = layer_rounds[-1]["calls"]
        result["identity_error_s"] = max(abs(lr["identity_error_s"]) for lr in layer_rounds)
        result["untraced_functions"] = sorted(
            {n for r in rounds for n in r["layers"]["missing"]})
        result["should_move"] = SHOULD_MOVE
    return result


# --- reporting -----------------------------------------------------------------

def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_at_start": os.getloadavg(),
        "git_commit": commit or "unknown (not a git checkout)",
    }


def metric_block(names: list[dict], values: dict) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}


def print_metrics(workload: str, result: dict, block: dict) -> None:
    print(f"[{workload}] jobs per round {len(result['jobs'])}, rounds {result['rounds']}, "
          f"attempted {result['attempted']}, failed {result['failed']}, "
          f"failed_ratio {result['failed_ratio']:.4f}")
    for name, m in block.items():
        print(f"[{workload}] {name} = {m['value']:.6g} {m['unit']}")
    if result["trace"]:
        for name, v in result["functions_s"].items():
            print(f"[{workload}] {name} = {v:.6g} s")
        for name in ("classify.decompose_minimal", "classify.contracts_to_empty"):
            if name in result["call_p50_s"]:
                print(f"[{workload}] {name} per-call p50 = "
                      f"{result['call_p50_s'][name]:.6g} s over "
                      f"{result['calls_per_round'][name]} calls")
        for cls, table in sorted(result["by_class_s"].items()):
            top = sorted(table.items(), key=lambda kv: -kv[1])[:4]
            print(f"[{workload}] {cls} jobs: " +
                  ", ".join(f"{k} = {v:.4g} s" for k, v in top))
        print(f"[{workload}] layer self times + trace.unattributed_s - trace.job_s = "
              f"{result['identity_error_s']:.3g} s")
    for f in result["failures"][:5]:
        print(f"[{workload}] FAILED {f['job']}: {'; '.join(f['problems'])}")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "nasharcs" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: no nasharcs sources under {SRC} or no {spec_path.name}",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    env = environment()
    out_dir = ROOT / ".perfbench_results"
    out_dir.mkdir(exist_ok=True)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace), spec)
        values = result["per_layer"] if args.trace else result["end_to_end"]
        block = metric_block(names, values)
        result.update(environment=env, metrics=block)
        path = out_dir / f"{workload}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1), encoding="utf-8")
        print_metrics(workload, result, block)
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        prefix = f"{workload}." if len(workloads) > 1 else ""
        summary["metrics"].update({prefix + k: v for k, v in block.items()})
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""jamofuse benchmark: four workloads, end-to-end metrics, per-layer tracing.

Usage, from the root of a checkout:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

With ``--trace 0`` a run measures one workload for about S seconds as a
closed loop on one thread and reports the end-to-end metrics, timed as CPU
time scaled to nominal host speed by ``hostspeed.Gauge``. With
``--trace 1`` it runs the workload's fixed traced work twice, untraced and
then with the tracer's wrappers installed, and reports ``calls`` and
``self_ms`` per wrapped callable plus the named counts. Either way it checks
the program's outputs, prints a readable report, a ``record`` line (machine,
versions, commit, input properties) and, as the last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``--workload all`` runs
every workload in turn, each in a fresh process so that peak memory is its
own. Workloads and metrics are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "jamofuse"
OUT = HERE / "out"
WORKLOAD_NAMES = ("embed-stream", "train-pairs", "gradcheck-sweep", "oracle-corpus")
SETUP_PROBES = 8  # fresh processes per run, half before and half after measuring; setup_s is their median
BLAS_THREADS = "1"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0, help="workload seed; the same seed gives the same inputs")
    parser.add_argument("--seconds", type=int, default=30, help="measured time of one untraced run")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1), help="1: per-layer traced run")
    return parser.parse_args(argv)


def probe_setup(name: str, seed: int, workdir: Path) -> dict:
    """Set-up figures of a fresh process: CPU ``setup_s`` and ``import_ms``, and ``wall_s``.

    ``wall_s`` runs from starting the process to its printed line, so it
    includes the import of the benchmark's own module; it is only reported.
    """
    cmd = [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), str(workdir)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or not line:
        raise RuntimeError(f"set-up probe for {name} exited with code {code}")
    return {**json.loads(line), "wall_s": elapsed}


def src_line_count() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py")))


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def machine_record(args: argparse.Namespace) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": BLAS_THREADS},
        "commit": git_commit(),
        "src_lines": src_line_count(),
    }


def measure(workload, seconds: float) -> tuple[list, set[int], list[str]]:
    """Closed loop: whole rounds of operations until the next would end past ``seconds``.

    The loop runs on wall time, checks included, so a run lasts about
    ``seconds`` whatever the host does; the figures come from the operations.
    """
    results, failed, messages = [], set(), []
    start = time.perf_counter()
    rounds = 0
    workload.gauge.start()
    try:
        while rounds < workload.min_rounds or (time.perf_counter() - start) * (rounds + 1) / rounds <= seconds:
            run_round(workload, results, failed, messages)
            rounds += 1
    finally:
        workload.gauge.stop()
    return results, failed, messages


def run_round(workload, results: list, failed: set[int], messages: list[str]) -> None:
    for _ in range(workload.round_size):
        i = len(results)
        try:
            result = workload.op(i)
        except Exception as exc:  # an operation that raises counts as failed
            results.append(None)
            failed.add(i)
            messages.append(f"op {i}: {exc!r}")
            continue
        problems = workload.check(i, result)
        if problems:
            failed.add(i)
            messages += [f"op {i}: {p}" for p in problems]
        # keep only the figures: retained outputs would grow memory and
        # the garbage collector's work as the run goes on
        result.output = result.detail = None
        results.append(result)


def summarize(results: list, per_operation: bool, gauge) -> dict:
    """Throughput over all operations; latencies pooled, or per operation.

    Every interval is normalized to nominal host speed by the gauge. With
    ``per_operation`` the median and tail are taken within each operation
    and averaged, weighted by sample count: for operations whose samples come
    from different distributions, the pooled median would jump between them
    as the host's speed drifts.
    """
    from workloads import percentile_tail

    def normalized(t0: float, t1: float) -> float:
        return (t1 - t0) * gauge.factor(t0, t1)

    done = [r for r in results if r is not None]
    per_op = [[normalized(*interval) for interval in r.latencies] for r in done]
    groups = per_op if per_operation else [[s for g in per_op for s in g]]
    groups = [g for g in groups if g]
    total = sum(len(g) for g in groups)
    tails = [percentile_tail(g) for g in groups]
    items = sum(r.items for r in done)
    seconds = sum(normalized(r.start, r.end) for r in done)
    cpu_seconds = sum(r.seconds for r in done)
    return {
        "seconds": seconds,
        "items_per_s": items / seconds,
        "cpu_items_per_s": items / cpu_seconds,
        "wall_items_per_s": items / sum(r.wall for r in done),
        "host_speed": seconds / cpu_seconds,
        "latency_ms_p50": sum(len(g) * statistics.median(g) for g in groups) / total * 1e3,
        "latency_ms_tail": sum(len(g) * t for g, (t, _) in zip(groups, tails)) / total * 1e3,
        "tail_percentile": sum(len(g) * p for g, (_, p) in zip(groups, tails)) / total,
        "latency_samples": total,
        "latency_groups": len(groups),
    }


def print_metric(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:<44} {value:>14.6g} {unit:<8} {note}".rstrip())


def run_untraced(args, workload, workdir: Path) -> tuple[dict, dict, list[str], int, int]:
    workload.prepare()
    # half the probes before measuring and half after, about a run apart,
    # since the host's speed drifts over tens of seconds
    probes = [probe_setup(args.workload, args.seed, workdir) for _ in range(SETUP_PROBES // 2)]
    workload.setup()
    results, failed, messages = measure(workload, args.seconds)
    probes += [probe_setup(args.workload, args.seed, workdir) for _ in range(SETUP_PROBES - len(probes))]
    if all(r is None for r in results):
        raise SystemExit("every operation raised:\n" + "\n".join(messages))
    summary = summarize(results, workload.latency_per_operation, workload.gauge)
    metrics = {
        "setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "items_per_s": (summary["items_per_s"], "1/s"),
        "latency_ms_p50": (summary["latency_ms_p50"], "ms"),
        "latency_ms_tail": (summary["latency_ms_tail"], "ms"),
    }
    done = [r for r in results if r is not None]
    print(f"{workload.name}: closed loop, 1 process, 1 thread; {len(results)} operations;"
          f" CPU times at nominal host speed (this run: {summary['host_speed']:.3f} x nominal)")
    print(f"  item: {workload.item}; latency sample: {workload.sample}")
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "setup_s":
            note = f"median of {SETUP_PROBES} fresh processes"
        elif name == "items_per_s":
            note = f"{summary['cpu_items_per_s']:.6g} per CPU second, {summary['wall_items_per_s']:.6g} per wall second"
        elif name == "latency_ms_tail":
            note = f"p{summary['tail_percentile']:.2f} of {summary['latency_samples']} samples"
            if workload.latency_per_operation:
                note += f", per operation over {summary['latency_groups']}"
        print_metric(name, value, unit, note)
    print_metric("failed_share", len(failed) / len(results), "ratio", f"{len(failed)} of {len(results)}")
    for name, (value, unit) in workload.own_metrics(done, summary).items():
        print_metric(name, value, unit)
    extra = {
        "properties": workload.properties(done),
        "import_ms_median": statistics.median(p["import_ms"] for p in probes),
        "setup_wall_s_median": statistics.median(p["wall_s"] for p in probes),
        "cpu_items_per_s": summary["cpu_items_per_s"],
        "wall_items_per_s": summary["wall_items_per_s"],
        "host_speed": summary["host_speed"],
        "gauge_runs": len(workload.gauge.times),
        "tail_percentile": summary["tail_percentile"],
        "latency_samples": summary["latency_samples"],
    }
    return metrics, extra, messages, len(results), len(failed)


def run_traced(args, workload, workdir: Path) -> tuple[dict, dict, list[str], int, int]:
    from tracer import TARGETS, run_passes

    workload.prepare()
    probes = [probe_setup(args.workload, args.seed, workdir) for _ in range(SETUP_PROBES)]
    ops = range(workload.trace_ops)
    passes = run_passes(workload, ops)
    tracer = passes.tracer

    messages, failed = [], set()
    for i in ops:
        if passes.traced[i].output != passes.untraced[i].output:
            failed.add(i)
            messages.append(f"op {i}: traced output differs from untraced output")
        problems = workload.check(i, passes.untraced[i])
        if problems:
            failed.add(i)
            messages += [f"op {i}: {p}" for p in problems]

    spans_path = OUT / f"spans-{workload.name}.csv"
    tracer.write_spans(str(spans_path))
    metrics = tracer.layer_metrics(TARGETS)
    metrics["cli.import_ms"] = (statistics.median(p["import_ms"] for p in probes), "ms")

    self_s = tracer.top_level_ns() / 1e9
    overhead_s = passes.traced_cpu_s - passes.untraced_cpu_s
    print(f"{workload.name}: traced run of set-up plus {workload.trace_ops} operations")
    for name, (value, unit) in metrics.items():
        print_metric(name, value, unit)
    print(f"  accounting: traced wall {passes.traced_s:.6f} s = self times {self_s:.6f} s"
          f" + untraced remainder {passes.traced_s - self_s:.6f} s")
    print(f"  tracing overhead: {overhead_s:.6f} s over an untraced {passes.untraced_cpu_s:.6f} s, CPU time at"
          f" nominal host speed ({100 * overhead_s / passes.untraced_cpu_s:.1f}%);"
          f" {len(tracer.span_start)} spans in {spans_path.name}")
    extra = {
        "properties": workload.properties(passes.untraced),
        "untraced_s": passes.untraced_s,
        "traced_s": passes.traced_s,
        "untraced_cpu_s": passes.untraced_cpu_s,
        "traced_cpu_s": passes.traced_cpu_s,
        "trace_overhead_s": overhead_s,
        "self_s": self_s,
        "spans": len(tracer.span_start),
    }
    return metrics, extra, messages, len(ops), len(failed)


def run_one(args: argparse.Namespace) -> int:
    import tempfile

    import jamofuse

    if Path(jamofuse.__file__).resolve().parent != SRC:
        raise SystemExit(f"jamofuse was imported from {jamofuse.__file__}, not from {SRC}")
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{args.workload}-") as tmp:
        workload = WORKLOADS[args.workload](args.seed, Path(tmp))
        run = run_traced if args.trace else run_untraced
        metrics, extra, messages, attempted, failed = run(args, workload, Path(tmp))
    for message in messages:
        print(f"  FAILED {message}")
    print("record " + json.dumps({**machine_record(args), **extra}, ensure_ascii=False, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if failed else 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload in turn, each in its own fresh process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: exited with code {done.returncode} and no result", file=sys.stderr)
            return 1
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # one thread: BLAS reads these when numpy is first imported, below
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    if not SRC.is_dir():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

"""k3count benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload cli-mix --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One client drives a closed loop: each item starts when the
previous one has been checked.  With ``--trace 0`` the run measures
whole blocks of items until ``--seconds`` have passed and prints the
end-to-end metrics of BENCHMARK.json.  With ``--trace 1`` it runs a
fixed number of blocks twice, untraced and then with spans around every
public function, and prints the per-layer metrics; the spans go to
``.perfbench/spans-<workload>-<seed>.json``.  ``--smoke`` shrinks the
inputs to one small block, for the benchmark's own tests.

The last line of stdout is one JSON object with the keys ``correct``
(no output differed from its reference), ``attempted``, ``failed``
(wrong outputs plus crashes) and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import types
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import spans
from workloads import OK, WORKLOADS, run_child

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 21
SETUP_FIRST = 5
PROBE_REPEATS = 7
CASES_KEPT = 10_000  # items kept to report workload properties
WINDOWS = 500  # windows of equal wall time in an untraced run
# Blocks in a traced run per second of --seconds, sized so the untraced and
# traced passes together take about --seconds at the seed commit.
TRACE_BLOCKS_PER_S = {"series-eg": 0.5, "delta-enum": 0.7, "necklace-bij": 12.0, "cli-mix": 1.5}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def wall_of(code: str, env: dict) -> float:
    """Wall time of a fresh interpreter running ``code``."""
    start = perf_counter()
    status, _, err = run_child([sys.executable, "-c", code], env)
    elapsed = perf_counter() - start
    if status != 0:
        raise RuntimeError(f"{code!r} exited {status}: {err[-300:]}")
    return elapsed


def nearest_rank(values, fraction: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def run_items(workload, lib, cases, call, tracer=None, first_id=0):
    """Time ``call`` on each case; judge each result outside its span."""
    times, verdicts = array("d"), []
    for index, case in enumerate(cases, first_id):
        if tracer is not None:
            tracer.begin_item(index)
        start = perf_counter()
        try:
            out = call(lib, case)
        except Exception as exc:  # every unexpected error is a failed item
            elapsed = perf_counter() - start
            verdict = f"crash: {type(exc).__name__}: {str(exc)[:160]}"
        else:
            elapsed = perf_counter() - start
            verdict = workload.judge(case, out)
        times.append(elapsed)
        verdicts.append(verdict)
    return times, verdicts


def measured_run(workload, lib, args, env: dict):
    # Set-up is timed a few times before the items and then between blocks
    # at even intervals, so that a slow spell of the machine cannot set the
    # median alone.
    setups = [wall_of(workload.warmup, env) for _ in range(SETUP_FIRST)]
    interval = args.seconds / (SETUP_REPEATS - SETUP_FIRST)
    # The run is cut into windows of 1/WINDOWS of its length, closed at block
    # boundaries (so a window holds at least one block).  A workload with
    # ``fastest_windows`` reports its latencies and throughput over that many
    # windows, the ones with the lowest mean item time; a heap keeps only
    # those windows' item times.  Other workloads keep every item time.
    # Successive windows run on each allowed CPU in turn, with the children
    # they start: on a shared host one vCPU can stay slow for minutes while
    # another is not, and the process would otherwise stay where it started.
    keep = getattr(workload, "fastest_windows", None)
    cpus = sorted(os.sched_getaffinity(0)) if keep and hasattr(os, "sched_setaffinity") else []
    if cpus:
        os.sched_setaffinity(0, {cpus[0]})
    fastest, window, windows = [], array("d"), 0
    cases, failures = [], Counter()
    attempted, timed, blocks = 0, 0.0, 0
    gc.collect()
    start = perf_counter()
    next_setup = start + interval
    next_window = start + args.seconds / WINDOWS
    for block in workload.blocks():
        t, v = run_items(workload, lib, block, workload.run)
        attempted += len(t)
        timed += sum(t)
        window += t
        blocks += 1
        failures.update(verdict for verdict in v if verdict != OK)
        if len(cases) < CASES_KEPT:
            cases += block
        now = perf_counter()
        done = args.smoke or now >= start + args.seconds
        if done or (keep is not None and now >= next_window):
            heapq.heappush(fastest, (-sum(window) / len(window), windows, window))
            if keep is not None and len(fastest) > keep:
                heapq.heappop(fastest)
            window, windows = array("d"), windows + 1
            next_window = now + args.seconds / WINDOWS
            if cpus:
                os.sched_setaffinity(0, {cpus[windows % len(cpus)]})
        if done:
            break
        if now >= next_setup and len(setups) < SETUP_REPEATS:
            setups.append(wall_of(workload.warmup, env))
            next_setup += interval
    kept = array("d")
    for _, _, times in fastest:
        kept += times
    who = resource.RUSAGE_CHILDREN if workload.name == "cli-mix" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": statistics.median(setups),
        "items_per_s": len(kept) / sum(kept),
        "item_p50_ms": statistics.median(kept) * 1e3,
        "item_p90_ms": nearest_rank(kept, 0.9) * 1e3,
        "ok_ratio": 1 - sum(failures.values()) / attempted,
        "peak_rss_mib": resource.getrusage(who).ru_maxrss / 1024,
    }
    extra = {
        "p90_samples_beyond": len(kept) - math.ceil(0.9 * len(kept)),
        "latency_samples": len(kept),
        "windows": windows,
        "windows_kept": len(fastest),
        "timed_s": timed,
        "blocks": blocks,
        "setup_samples": len(setups),
    }
    return cases, attempted, failures, metrics, extra


def traced_run(workload, lib, args, env: dict):
    stream = workload.blocks()
    count = 1 if args.smoke else max(1, round(TRACE_BLOCKS_PER_S[workload.name] * args.seconds))
    blocks = [next(stream) for _ in range(count)]
    counts_stdout = hasattr(workload, "run_in_process")
    call = workload.run_in_process if counts_stdout else workload.run
    probes = [(wall_of("pass", env), wall_of("import k3count.cli", env)) for _ in range(PROBE_REPEATS)]
    spawn = statistics.median(p[0] for p in probes)
    imported = statistics.median(p[1] for p in probes)
    tracer = spans.Tracer()
    patch = spans.Patched(tracer, spans.import_sites(lib))

    def traced_call(lib, case):
        out = call(lib, case)
        if counts_stdout:
            tracer.counts["cli.stdout_bytes"] += len(out[1].encode())
        return out

    # untraced and traced passes alternate block by block, so a slow spell
    # of the machine weighs on both sides of the overhead ratio
    cases, untraced, traced, failures = [], array("d"), array("d"), Counter()
    gc.collect()
    for block in blocks:
        t, _ = run_items(workload, lib, block, call)
        untraced += t
        with patch:
            t, v = run_items(workload, lib, block, traced_call, tracer, len(cases))
        traced += t
        failures.update(verdict for verdict in v if verdict != OK)
        cases += block
    metrics = spans.layer_metrics(tracer)
    metrics.update(
        {
            "cli.spawn_s": spawn,
            "cli.import_s": imported - spawn,
            "cli.stdout_bytes": tracer.counts["cli.stdout_bytes"],
            "trace.overhead_ratio": sum(traced) / sum(untraced),
        }
    )
    extra = {"traced_s": sum(traced), "untraced_s": sum(untraced), "spans": len(tracer.spans)}
    extra["layer_share_of_traced"] = {
        name[: -len(".busy_s")]: value / sum(traced) for name, value in metrics.items() if name.endswith(".busy_s")
    }
    spans.write_spans(WORK / f"spans-{workload.name}-{args.seed}.json", tracer, {"metrics": metrics, **extra})
    return cases, len(cases), failures, metrics, extra


def source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one block")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "k3count" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} lacks src/k3count or BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    import k3count
    import k3count.cli

    lib = types.SimpleNamespace(
        **{name: getattr(k3count, name) for name in (
            "yau_zaslow_coefficients", "semigroup_from_generators", "enumerate_delta_sets",
            "minimal_generators", "necklace_to_delta", "delta_to_necklace",
        )},
        main=k3count.cli.main,
    )
    env = child_env()
    workload = WORKLOADS[args.workload]()
    workload.env = env
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        start = perf_counter()
        workload.prepare(random.Random(f"{args.workload}:{args.seed}"), args.smoke, workdir)
        prepare_s = perf_counter() - start
        exec(workload.warmup, {})  # the untimed warm-up item, in this process too
        run = traced_run if args.trace else measured_run
        cases, attempted, failures, values, extra = run(workload, lib, args, env)
        properties = workload.properties(cases)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for verdict, count in sorted(failures.items()):
        print(f"# {count}x {verdict}", file=sys.stderr)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    meta = {
        **source_identity(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "items": attempted,
        "prepare_s": prepare_s,
        "properties": properties,
        **extra,
    }
    meta["fail_ratio"] = sum(failures.values()) / attempted
    for name, metric in metrics.items():
        print(f"{args.workload:13s} {name:40s} {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload:13s} {'fail_ratio':40s} {meta['fail_ratio']:.6g} ratio")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not any(v.startswith("wrong") for v in failures),
                "attempted": attempted,
                "failed": sum(failures.values()),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

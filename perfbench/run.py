#!/usr/bin/env python3
"""netbell benchmark: end-to-end and per-layer figures for each workload.

Run from the root of a netbell checkout (the program is imported from
``src/`` and the configs read from ``configs/``):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0
        one run of one workload; the last stdout line is a JSON object with
        correct, attempted, failed and the end-to-end metrics (--trace 1:
        the per-layer metrics, and a trace file in perfbench/out/)
    python3 perfbench/run.py --workload all --seed N --seconds S
        every workload, one process each, as a table plus a final JSON line
    python3 perfbench/run.py --workload all --repeat 10 --seed N --seconds S
        steadiness: each workload with seeds N..N+9, then median, quartiles
        and quartile spread of every end-to-end metric against its bound

Workload names, metric names, units and bounds come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# One BLAS thread: the kernels multiply 3x3 matrices, so more threads only
# add scheduling noise on a small machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import speed  # noqa: E402 - after the thread settings, since it imports numpy

SETUP_REPEATS = 5
IMPORT_REPEATS = 3
# cli_configs compares each seeded command's stdout with its first run, so
# every run makes at least two rounds.
MIN_ROUNDS = {"cli_configs": 2}
CHILD_TIMEOUT_S = 900


def fail(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def load_spec() -> dict:
    if not (SRC / "netbell" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        fail(f"no netbell checkout at {ROOT} (src/netbell and configs/ are required)")
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")


def import_program():
    """Import netbell from this checkout's src/ and the workload module."""
    sys.path.insert(0, str(SRC))
    import netbell

    if Path(netbell.__file__).resolve().parent != SRC / "netbell":
        fail(f"imported netbell from {netbell.__file__}, not from {SRC}")
    import workloads

    return workloads


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def child(args: list[str], timeout: float = CHILD_TIMEOUT_S) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, timeout=timeout, cwd=ROOT)


def setup_seconds(name: str, seed: int) -> float:
    """Median wall time of fresh processes that import netbell and build the
    workload's inputs, then exit; each scaled to the reference speed by the
    calibration samples taken just before and after it."""
    samples = []
    for _ in range(SETUP_REPEATS):
        before = speed.sample()
        start = time.perf_counter()
        proc = child(["--probe", "setup", "--workload", name, "--seed", str(seed)])
        elapsed = time.perf_counter() - start
        after = speed.sample()
        if proc.returncode != 0:
            fail(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(elapsed * speed.REFERENCE_S / ((before + after) / 2.0))
    return statistics.median(samples)


def run_probe(kind: str, name: str, seed: int) -> None:
    """Child side of the probes; prints one number for the parent."""
    wl = import_program()
    if kind == "setup":
        wl.WORKLOADS[name](seed)
        return
    if kind == "topology_rss":
        edges = wl.random_tree_edges(wl.LargeInputs.N, seed)
        wl.topology.find_leaves(wl.topology.build_topology(wl.LargeInputs.N, edges))
    elif kind == "oracle_rss":
        _, ineq = wl.network_inputs(wl.load_config("six_party_asymmetric.json"))
        wl.optimizer.classical_oracle(ineq, mode="exhaustive")
    else:
        fail(f"unknown probe {kind}")
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)


def probe_number(kind: str, seed: int) -> float:
    proc = child(["--probe", kind, "--workload", "large_inputs", "--seed", str(seed)])
    if proc.returncode != 0:
        fail(f"{kind} probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def import_times() -> dict[str, float]:
    """Cold import of netbell.cli and of the scipy modules it pulls in, from
    ``python -X importtime``, median of a few fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    line = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)")
    cli_us, scipy_us = [], []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import netbell.cli"],
                              capture_output=True, text=True, env=env, cwd=ROOT)
        entries = [(int(m[1]), len(m[2]), m[3]) for m in map(line.match, proc.stderr.splitlines()) if m]
        # Children are printed before their parent: an entry's parent is the
        # next entry with a smaller indent.
        total_cli = total_scipy = 0
        for i, (cum, depth, mod) in enumerate(entries):
            if mod == "netbell.cli":
                total_cli = cum
            if mod.split(".")[0] == "scipy":
                parent = next((e[2] for e in entries[i + 1:] if e[1] < depth), "")
                if parent.split(".")[0] != "scipy":
                    total_scipy += cum
        cli_us.append(total_cli)
        scipy_us.append(total_scipy)
    return {"cli.import_s": statistics.median(cli_us) / 1e6,
            "cli.import_scipy_s": statistics.median(scipy_us) / 1e6}


def report(spec: dict, section: str, values: dict[str, float], rounds: list) -> dict:
    errors = [e for r in rounds for e in r.errors]
    failures = [e for r in rounds for e in r.failures]
    for message in dict.fromkeys(errors + failures).keys():
        sys.stderr.write(f"perfbench: {message}\n")
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in spec[section]}
    return {"correct": not errors,
            "attempted": sum(r.attempted for r in rounds),
            "failed": sum(r.failed for r in rounds),
            "metrics": metrics}


def run_untraced(spec: dict, name: str, seed: int, seconds: float) -> dict:
    setup = setup_seconds(name, seed)
    wl = import_program()
    workload = wl.WORKLOADS[name](seed)
    clock = speed.Clock()
    if workload.timer_sampling:
        clock.start_timer()
    rounds = []
    start = time.perf_counter()
    try:
        while True:
            round_start = time.perf_counter()
            rec = wl.Round(clock, len(rounds))
            workload.run_round(rec)
            rec.close()
            rounds.append(rec)
            now = time.perf_counter()
            if len(rounds) >= MIN_ROUNDS.get(name, 1) and now - start + (now - round_start) > seconds:
                break
    finally:
        clock.stop_timer()
    values = {"setup_s": setup,
              "wall_s": statistics.median(r.wall for r in rounds),
              "peak_rss_mb": peak_rss_mb()}
    sys.stderr.write(f"perfbench: {name}: {len(rounds)} rounds, measured round times "
                     f"{[round(r.raw_wall, 3) for r in rounds]} s, scaled "
                     f"{[round(r.wall, 3) for r in rounds]} s\n")
    return report(spec, "end_to_end", values, rounds)


def run_traced(spec: dict, name: str, seed: int, seconds: float) -> dict:
    """Alternate untraced and traced rounds of the same operations; the
    per-layer figures come from the traced ones, the task times and the
    baseline for the tracing overhead from the untraced ones. Calibration
    samples are taken only between operations here, so spans hold no
    calibration time."""
    wl = import_program()
    import tracing

    # A child's peak RSS starts from its parent's at spawn time, so the
    # probes run before this process builds any input.
    values: dict[str, float] = import_times()
    probes = wl.WORKLOADS[name].probes
    if "topology_rss" in probes:
        values["topology.peak_rss_mb"] = probe_number("topology_rss", seed)
    if "oracle_rss" in probes:
        values["optimizer.oracle_exhaustive_peak_rss_mb"] = probe_number("oracle_rss", seed)
    workload = wl.WORKLOADS[name](seed)
    clock = speed.Clock()
    tracer = tracing.Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        rec = wl.Round(clock, len(plain))
        workload.traced_round(rec)
        rec.close()
        plain.append(rec)
        tracer.reset()
        tracer.install()
        try:
            rec = wl.Round(clock, len(plain) - 1, tracer)
            workload.traced_round(rec)
        finally:
            tracer.uninstall()
        rec.close()
        rec.layer = wl.span_layers(tracer, rec)
        rec.summary = tracer.summary()
        traced.append(rec)
        now = time.perf_counter()
        if now - start + (now - pair_start) > seconds:
            break

    for key in {k for r in traced for k in r.layer}:
        values[key] = statistics.median(r.layer.get(key, 0.0) for r in traced)
    # Task times, reported as task.<task>_s where BENCHMARK.json lists one.
    for task in {t for r in plain for t in r.times}:
        values[f"task.{task}_s"] = statistics.median(r.times.get(task, 0.0) for r in plain)
    plain_wall = statistics.median(r.wall for r in plain)
    traced_wall = statistics.median(r.wall for r in traced)
    values["trace.overhead_s"] = traced_wall - plain_wall
    values["trace.overhead_share"] = (traced_wall - plain_wall) / plain_wall

    result = report(spec, "per_layer", values, plain + traced)
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace_{name}.json").write_text(json.dumps({
        "workload": name,
        "seed": seed,
        "rounds": {"untraced_wall_s": [r.wall for r in plain],
                   "traced_wall_s": [r.wall for r in traced]},
        "overhead_s": values["trace.overhead_s"],
        "per_layer": {k: v["value"] for k, v in result["metrics"].items()},
        "spans_last_traced_round": traced[-1].summary,
    }, indent=2) + "\n")
    return result


def run_child(name: str, seed: int, seconds: int, trace: int) -> dict:
    proc = child(["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                  "--trace", str(trace)])
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        fail(f"{name} seed {seed} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_all(spec: dict, names: list[str], seed: int, seconds: int, trace: int) -> None:
    results = {}
    for name in names:
        res = run_child(name, seed, seconds, trace)
        results[name] = res
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:<48} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(results))


def steadiness(spec: dict, names: list[str], seed: int, seconds: int, repeat: int) -> None:
    """Run each workload `repeat` times with consecutive seeds and print each
    end-to-end metric's median, quartiles and quartile spread."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    summary = {}
    for name in names:
        runs, durations = [], []
        for i in range(repeat):
            start = time.perf_counter()
            runs.append(run_child(name, seed + i, seconds, 0))
            durations.append(time.perf_counter() - start)
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r in runs})
        rows = {}
        print(f"{name}: {repeat} runs, seeds {seed}..{seed + repeat - 1}, "
              f"all correct={all(r['correct'] for r in runs)}, failed/attempted {shares}, "
              f"run length {min(durations):.1f}..{max(durations):.1f} s")
        for metric, m in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            rows[metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                            "bound": m["bound"], "values": values}
            flag = "ok" if spread < m["bound"] / 3 else "WIDE"
            print(f"  {metric:<14} median {med:10.5g} {m['unit']:<3} q1 {q1:10.5g} q3 {q3:10.5g} "
                  f"spread {spread:6.3f} bound {m['bound']:.2f} {flag}")
        summary[name] = {"metrics": rows, "failed_shares": shares,
                         "correct": all(r["correct"] for r in runs),
                         "run_length_s": durations}
    OUT.mkdir(exist_ok=True)
    (OUT / "steadiness.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(json.dumps({n: {k: round(v["spread"], 4) for k, v in s["metrics"].items()}
                      for n, s in summary.items()}))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measured time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="steadiness mode: runs per workload, consecutive seeds")
    parser.add_argument("--probe", help=argparse.SUPPRESS)
    args = parser.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    selected = names if args.workload == "all" else [args.workload]
    if any(n not in names for n in selected):
        fail(f"unknown workload {args.workload!r}; choose from {names} or 'all'")
    if args.probe:
        run_probe(args.probe, args.workload, args.seed)
        return
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.repeat > 1:
        steadiness(spec, selected, args.seed, seconds, args.repeat)
    elif args.workload == "all":
        run_all(spec, selected, args.seed, seconds, args.trace)
    elif args.trace:
        print(json.dumps(run_traced(spec, args.workload, args.seed, seconds)))
    else:
        print(json.dumps(run_untraced(spec, args.workload, args.seed, seconds)))


if __name__ == "__main__":
    main()

"""Benchmark of the eosforensics analyst pipeline.

    python3 bench/run.py --workload flow --seed 1 --seconds 25 --trace 0

Run from the repository root. Set-up generates the workload's scenario
from --seed with `synthgen.generate` several times and reports the median
as setup_s. Then, for about --seconds and at least MIN_PASSES times, it
runs passes of the whole CLI pipeline, each in a fresh process
(bench/one_pass.py), checks every pass's outputs
against the scenario's ground truth and compares their SHA-256 digests
across passes. Times are reported at a reference speed (REFERENCE_S). With
--trace 0 the last stdout line carries the end-to-end metrics (medians over
passes); with --trace 1 it alternates untraced and traced passes and carries
the per-layer metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import REFERENCE_S, at_reference_speed, pin_to_one_cpu, reference_task_s

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 7
MIN_PASSES = 2  # with --trace 1: one untraced and one traced
COMMANDS_PER_PASS = 10  # the length of one_pass.pipeline()
PASS_TIMEOUT_S = 150

# End-to-end metrics in print order, and the pass command behind each time.
COMMAND_METRICS = {
    "ingest": "ingest_s",
    "graph_build": "graph_build_s",
    "metrics_emfg": "metrics_emfg_s",
    "metrics_eacg": "metrics_eacg_s",
    "metrics_ecig": "metrics_ecig_s",
    "bots_detect": "bots_detect_s",
    "bots_classify": "bots_classify_s",
    "perms_audit": "perms_audit_s",
    "attacks_scan": "attacks_scan_s",
}
UNITS = {"setup_s": "s", "pipeline_s": "s", **{m: "s" for m in COMMAND_METRICS.values()},
         "peak_rss_mb": "MB"}


def _dir_digests(path):
    return {str(p.relative_to(path)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.rglob("*")) if p.is_file()}


def _code_digest():
    h = hashlib.sha256()
    for p in sorted((SRC / "eosforensics").glob("*.py")) + sorted(BENCH.glob("*.py")):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def setup(config, work, repeats):
    """Generate the scenario `repeats` times; returns (inputs dir, wall
    times, times at the reference speed, problems). Every copy must be
    byte-identical to the first."""
    from eosforensics import synthgen

    wall_times, times, problems = [], [], []
    first = None
    before_s = reference_task_s()
    for i in range(repeats):
        target = work / f"inputs{i}"
        started = time.perf_counter()
        synthgen.generate(config, target)
        wall_s = time.perf_counter() - started
        after_s = reference_task_s()
        wall_times.append(wall_s)
        times.append(at_reference_speed(wall_s, before_s, after_s))
        before_s = after_s
        digests = _dir_digests(target)
        if first is None:
            first = digests
            continue
        if digests != first:
            problems.append(f"generation {i} differs from generation 0")
        shutil.rmtree(target)
    return work / "inputs0", wall_times, times, problems


def run_pass(inputs, out, days, spans, timeout):
    cmd = [sys.executable, str(BENCH / "one_pass.py"), "--inputs", str(inputs),
           "--out", str(out), "--days", str(days)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"pass timed out after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"pass exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
    return json.loads(lines[-1]), None


def check_determinism(passes, record_path):
    """(pass index, command, message) for every --out file whose digest
    differs from the first pass's, or from the record kept by earlier runs of
    the same code on the same inputs."""
    reference = passes[0]["digests"]
    if record_path.exists():
        reference = json.loads(record_path.read_text())
    else:
        record_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = record_path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(reference, sort_keys=True))
        tmp.replace(record_path)
    problems = []
    for k, result in enumerate(passes):
        digests = result["digests"]
        for name in sorted(reference.keys() | digests.keys()):
            if reference.get(name) != digests.get(name):
                owner = (digests.get(name) or reference[name])[0]
                problems.append((k, owner, f"{name} digest differs from earlier passes"))
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "eosforensics" / "cli.py").is_file():
        print(f"error: no eosforensics sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import REPRODUCERS, WORKLOADS

    pin_to_one_cpu()

    scenarios = {**WORKLOADS, **REPRODUCERS}
    if args.workload not in scenarios:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(scenarios)}", file=sys.stderr)
        return 2
    config = scenarios[args.workload](args.seed)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, config, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, config, work):
    run_started = time.monotonic()
    inputs, setup_times, setup_scaled, setup_problems = setup(config, work, SETUP_REPEATS)
    manifest = json.loads((inputs / "manifest.json").read_text())
    input_digest = hashlib.sha256(
        json.dumps(_dir_digests(inputs), sort_keys=True).encode()).hexdigest()

    spans = WORK / f"spans-{args.workload}-{args.seed}.json"
    passes, traced, durations = [], [], []
    pass_error = None
    started = time.monotonic()
    while True:
        k = len(durations)
        tracing = bool(args.trace) and k % 2 == 1
        budget = PASS_TIMEOUT_S - (time.monotonic() - run_started)
        t0 = time.monotonic()
        result, pass_error = run_pass(inputs, work / f"out{k}", config.day_count,
                                      spans if tracing else None, max(1.0, budget))
        durations.append(time.monotonic() - t0)
        shutil.rmtree(work / f"out{k}", ignore_errors=True)
        if result is None:
            break
        (traced if tracing else passes).append(result)
        elapsed = time.monotonic() - started
        # stop when the next pass would likely end more than half a pass late
        if (len(durations) >= MIN_PASSES
                and elapsed + statistics.median(durations) / 2 >= args.seconds):
            break

    # Operations: every set-up generation and every command run.
    attempted = SETUP_REPEATS + COMMANDS_PER_PASS * len(durations)
    problems = [f"setup: {p}" for p in setup_problems]
    failed = len(setup_problems)
    if pass_error is not None:
        problems.append(f"pass: {pass_error}")
        failed += COMMANDS_PER_PASS
    all_passes = passes + traced
    if all_passes:
        record = (WORK / "digests" /
                  f"{args.workload}-{_code_digest()[:16]}-{input_digest[:16]}.json")
        bad = {}
        for k, command_id, message in check_determinism(all_passes, record):
            bad.setdefault((k, command_id), []).append(message)
        for k, result in enumerate(all_passes):
            for command_id, entry in result["commands"].items():
                entry["problems"] += bad.get((k, command_id), [])
                if entry["problems"]:
                    failed += 1
                    problems += [f"pass {k} {command_id}: {p}" for p in entry["problems"]]

    if args.trace:
        wall = layer_metrics(passes, traced, setup_times)
        wall["pipeline.actions"] = manifest["action_count"]
        units = {name: layer_unit(name) for name in wall}
    else:
        wall = end_to_end_metrics(passes, setup_times)
        units = UNITS
    reference = [t for r in all_passes for t in r["reference_s"]]
    scale = REFERENCE_S / statistics.median(reference) if reference else 1.0
    metrics = {name: value * scale if units[name] in ("s", "us") else value
               for name, value in wall.items()}
    # set-up and command times have references of their own
    setup_name = "synthgen.generate.s" if args.trace else "setup_s"
    metrics[setup_name] = statistics.median(setup_scaled)
    if not args.trace and passes:
        metrics.update(command_times_at_reference_speed(passes))
    if args.trace and reference:
        metrics["host.reference_s"] = statistics.median(reference)
        units["host.reference_s"] = "s"
    runs = WORK / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{args.workload}-{args.seed}-trace{args.trace}-{os.getpid()}.json").write_text(
        json.dumps({"setup_s": setup_times, "setup_scaled_s": setup_scaled,
                    "passes": passes, "traced": traced,
                    "reference_scale": scale, "problems": problems}))

    for p in problems:
        print(f"FAILED {p}")
    print(f"workload={args.workload} seed={args.seed} actions={manifest['action_count']} "
          f"passes={len(passes)} traced_passes={len(traced)} setups={len(setup_times)} "
          f"ops_failed={failed}/{attempted} reference_scale={scale:.4f} "
          f"run_s={time.monotonic() - run_started:.1f}")
    for name, value in metrics.items():
        print(f"  {name:44s} {value:14.6f} {units[name]:6s} "
              f"(as measured: {wall.get(name, value):.6f})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def command_times_at_reference_speed(passes):
    """pipeline_s and each command's time, with every command's time scaled
    by the reference timed next to it; medians over passes."""
    per_pass = [{command_id: at_reference_speed(entry["s"], *entry["ref_s"])
                 for command_id, entry in result["commands"].items()}
                for result in passes]
    out = {"pipeline_s": statistics.median(sum(p.values()) for p in per_pass)}
    for command_id, name in COMMAND_METRICS.items():
        out[name] = statistics.median(p[command_id] for p in per_pass)
    return out


def end_to_end_metrics(passes, setup_times):
    out = {"setup_s": statistics.median(setup_times)}
    if not passes:
        return out
    out["pipeline_s"] = statistics.median(r["pipeline_s"] for r in passes)
    for command_id, name in COMMAND_METRICS.items():
        out[name] = statistics.median(r["commands"][command_id]["s"] for r in passes)
    out["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in passes)
    return out


LAYER_UNITS = (("_s", "s"), (".s", "s"), ("_mb", "MB"), (".bytes", "bytes"),
               (".us_per_line", "us"), ("_share", "ratio"), ("_ratio", "ratio"),
               ("_yield", "ratio"))


def layer_unit(name):
    for suffix, unit in LAYER_UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


def layer_metrics(passes, traced, setup_times):
    out = {}
    if traced:
        for name in traced[0]["layers"]:
            out[name] = statistics.median(r["layers"][name] for r in traced)
    out["synthgen.generate.s"] = statistics.median(setup_times)
    if passes and traced:
        out["trace.overhead_s"] = (statistics.median(r["pipeline_s"] for r in traced)
                                   - statistics.median(r["pipeline_s"] for r in passes))
    out["bench.untraced_passes"] = len(passes)
    out["bench.traced_passes"] = len(traced)
    return out


if __name__ == "__main__":
    sys.exit(main())

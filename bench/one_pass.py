"""One benchmark pass, in a fresh process: the analyst's CLI pipeline on one
generated scenario, driven in-process through `eosforensics.cli.main`.

    PYTHONPATH=src python3 bench/one_pass.py --inputs DIR --out DIR --days N [--spans FILE]

Prints one JSON object on its last stdout line: per-command wall times,
exit codes and check problems, the pipeline time, peak RSS, the reference
task's times, a SHA-256 per --out file, and with --spans the per-layer
figures.
"""

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from eosforensics import cli

import checks
from reference import pin_to_one_cpu, reference_task_s
from tracing import GRAPHS, Tracer


def pipeline(inputs, out, days):
    """(command id, argv) for every stage, in the order an analyst runs them."""
    common = ["--trace", str(inputs / "trace.ndjson"),
              "--snapshot", str(inputs / "snapshot.ndjson"),
              "--days", str(days), "--out", str(out)]
    registry = ["--dapps", str(inputs / "dapps.csv"),
                "--incentives", str(inputs / "incentives.csv"),
                "--labels", str(inputs / "labels.csv")]
    return [
        ("ingest", ["ingest"] + common),
        ("graph_build", ["graph", "build"] + common),
        *((f"metrics_{g}", ["metrics", "--graph", g] + common) for g in GRAPHS),
        ("bots_detect", ["bots", "detect"] + common + registry),
        ("bots_classify", ["bots", "classify"] + common + registry),
        ("perms_audit", ["perms", "audit"] + common),
        ("attacks_scan", ["attacks", "scan", "--trace", str(inputs / "trace.ndjson"),
                          "--days", str(days), "--out", str(out), "--bundles"]
         + registry[:4]),
        ("report", ["report", "--out", str(out)]),
    ]


def _files(out):
    return {p for p in out.rglob("*") if p.is_file()}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_pass(inputs, out, days, spans_path=None):
    """Run the pipeline once; with spans_path, trace every layer and write
    the spans there."""
    tracer = Tracer()
    if spans_path is not None:
        tracer.install()
    out.mkdir(parents=True, exist_ok=True)
    commands = {}
    owner = {}  # output file -> command that wrote it
    sink = io.StringIO()
    reference_s = []
    for command_id, argv in pipeline(inputs, out, days):
        reference_s.append(reference_task_s())
        error = None
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = tracer.run_command(command_id, cli.main, argv)
            except (Exception, SystemExit) as exc:  # a raising command is a failed run
                code, error = None, f"raised {exc!r}"
        if error is None and code not in (0, 1):
            error = f"exit {code}"
        for path in _files(out) - owner.keys():
            owner[path] = command_id
        commands[command_id] = {"exit": code, "problems": [error] if error else []}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reference_s.append(reference_task_s())

    times = tracer.command_times()
    roots = [s for s in tracer.spans if s[0] == "cli"]
    pipeline_s = roots[-1][2] - roots[0][1] - sum(reference_s[1:-1])
    manifest = json.loads((inputs / "manifest.json").read_text())
    for k, (command_id, entry) in enumerate(commands.items()):
        entry["s"] = times[command_id]
        entry["ref_s"] = reference_s[k:k + 2]  # timed just before and after it
        if not entry["problems"]:
            entry["problems"] = checks.check(command_id, out, manifest)

    result = {
        "commands": commands,
        "pipeline_s": pipeline_s,
        "peak_rss_mb": peak_rss_mb,
        "reference_s": reference_s,
        "digests": {str(p.relative_to(out)): [owner[p], _sha256(p)] for p in sorted(owner)},
    }
    if spans_path is not None:
        layers = tracer.layer_metrics(pipeline_s)
        graphs_path = out / "graphs.json"
        sizes = json.loads(graphs_path.read_text()) if graphs_path.exists() else {}
        for g in GRAPHS:
            for key in ("nodes", "edges"):
                layers[f"graphs.{g}.{key}"] = sizes.get(g, {}).get(key, 0)
        result["layers"] = layers
        spans_path.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "command"], "spans": tracer.spans}))
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--days", type=int, required=True)
    parser.add_argument("--spans", type=Path,
                        help="trace every layer and write the spans to this file")
    args = parser.parse_args(argv)
    pin_to_one_cpu()
    result = run_pass(args.inputs, args.out, args.days, args.spans)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

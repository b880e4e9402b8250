"""Spans recorded from outside the program.

`Tracer.install()` replaces the public functions the benchmark reports on
with wrappers that record one span per call: name, start, end, parent
span and the id of the CLI command it ran under. The program's code is
not changed. Spans stay in memory until the pass ends.
"""

import functools
import resource
import time

from eosforensics import attacks, botnet, cli, forest, graphs, metrics, model, permissions

# module -> public functions wrapped on it.
LAYERS = {
    model: ("parse_action_trace", "parse_account_snapshot", "extract_transfers"),
    graphs: ("build_emfg", "build_eacg", "build_ecig", "emfg_to_digraph",
             "eacg_to_digraph", "ecig_to_digraph", "export_edges_csv",
             "degree_histogram", "export_histogram_csv", "silent_accounts"),
    metrics: ("clustering_coefficient", "pagerank", "components", "assortativity",
              "pearson_in_out"),
    botnet: ("behavior_vectors", "group_similarity", "detect_communities",
             "merge_by_pubkey", "categorize", "extract_features"),
    forest: ("train_classifier",),
    permissions: ("scan_updateauth", "detect_misuse"),
    attacks: ("scan_attacks", "genuine_transfer_events", "detect_fake_transfer",
              "detect_fake_notice", "profit_scan", "liveness_filter",
              "auxiliary_signals", "evidence_bundle"),
}
# cli binds these with `from .model import ...`, so its own names are
# rebound to the same wrappers.
CLI_IMPORTS = ("parse_action_trace", "parse_account_snapshot", "extract_transfers")

# Reported span groups: metric prefix -> span names summed into it.
GROUPS = {
    "model.parse_action_trace": ("model.parse_action_trace",),
    "model.parse_account_snapshot": ("model.parse_account_snapshot",),
    "model.extract_transfers": ("model.extract_transfers",),
    "graphs.build_emfg": ("graphs.build_emfg",),
    "graphs.build_eacg": ("graphs.build_eacg",),
    "graphs.build_ecig": ("graphs.build_ecig",),
    "graphs.to_digraph": ("graphs.emfg_to_digraph", "graphs.eacg_to_digraph",
                          "graphs.ecig_to_digraph"),
    "graphs.export": ("graphs.export_edges_csv", "graphs.degree_histogram",
                      "graphs.export_histogram_csv"),
    "graphs.silent_accounts": ("graphs.silent_accounts",),
    "metrics.pagerank": ("metrics.pagerank",),
    "metrics.components": ("metrics.components",),
    "metrics.assortativity": ("metrics.assortativity", "metrics.pearson_in_out"),
    "botnet.behavior_vectors": ("botnet.behavior_vectors",),
    "botnet.group_similarity": ("botnet.group_similarity",),
    "botnet.detect_communities": ("botnet.detect_communities",),
    "botnet.merge_by_pubkey": ("botnet.merge_by_pubkey",),
    "botnet.categorize": ("botnet.categorize",),
    "botnet.extract_features": ("botnet.extract_features",),
    "forest.train_classifier": ("forest.train_classifier",),
    "forest.predict_prob": ("forest.RandomForest.predict_prob",),
    "permissions.scan_updateauth": ("permissions.scan_updateauth",),
    "permissions.detect_misuse": ("permissions.detect_misuse",),
    "attacks.scan_attacks": ("attacks.scan_attacks",),
    "attacks.genuine_transfer_events": ("attacks.genuine_transfer_events",),
    "attacks.detect_fake_transfer": ("attacks.detect_fake_transfer",),
    "attacks.detect_fake_notice": ("attacks.detect_fake_notice",),
    "attacks.profit_scan": ("attacks.profit_scan",),
    "attacks.liveness_filter": ("attacks.liveness_filter",),
    "attacks.auxiliary_signals": ("attacks.auxiliary_signals",),
    "attacks.evidence_bundle": ("attacks.evidence_bundle",),
}
# Groups that also report their call count.
COUNTED = ("model.parse_action_trace", "botnet.behavior_vectors", "botnet.categorize",
           "botnet.extract_features", "forest.predict_prob",
           "attacks.genuine_transfer_events", "attacks.auxiliary_signals")
GRAPHS = ("emfg", "eacg", "ecig")


def _maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _bundle_bytes(out_dir):
    return sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())


# Observers turn a wrapped call's result into counts.
def _observe_parse(counts, result):
    counts.setdefault("rss_after_parse_mb", _maxrss_mb())
    lines = len(result.records) + result.dropped_out_of_window + len(result.diagnostics)
    counts["parse_lines"] = counts.get("parse_lines", 0) + lines


def _observe_communities(counts, result):
    flagged, stats = result
    counts["communities_flagged"] = counts.get("communities_flagged", 0) + len(flagged)
    measured = sum(1 for c in stats if c.skipped_reason is None)
    counts["communities_measured"] = counts.get("communities_measured", 0) + measured


def _observer(key, measure):
    def observe(counts, result):
        counts[key] = counts.get(key, 0) + measure(result)
    return observe


OBSERVERS = {
    "model.parse_action_trace": _observe_parse,
    "botnet.detect_communities": _observe_communities,
    "permissions.scan_updateauth": _observer("grants", lambda r: len(r[0])),
    "attacks.profit_scan": _observer("suspicious_windows", len),
    "attacks.liveness_filter": _observer("window_findings", len),
    "attacks.evidence_bundle": _observer("bundle_bytes", _bundle_bytes),
}


class Tracer:
    """Records spans for CLI commands and, once installed, for every
    wrapped layer function."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or None, command id)
        self.counts = {}
        self.command = None
        self._stack = []

    def _open(self):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(index)
        return index, parent

    def _close(self, index, parent, name, start):
        end = time.perf_counter()
        self._stack.pop()
        self.spans[index] = (name, start, end, parent, self.command)

    def run_command(self, command_id, fn, *args):
        """Run one CLI command as a root span; returns fn's result."""
        self.command = command_id
        index, parent = self._open()
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(index, parent, "cli", start)
            self.command = None

    def _wrap(self, owner, attr, name):
        fn = getattr(owner, attr)
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index, parent = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index, parent, name, start)
            if observe is not None:
                observe(self.counts, result)
            return result

        setattr(owner, attr, traced)
        return traced

    def install(self):
        for module, names in LAYERS.items():
            layer = module.__name__.rsplit(".", 1)[1]
            for attr in names:
                traced = self._wrap(module, attr, f"{layer}.{attr}")
                if attr in CLI_IMPORTS:
                    setattr(cli, attr, traced)
        self._wrap(forest.RandomForest, "predict_prob", "forest.RandomForest.predict_prob")

    # -- derived figures ----------------------------------------------------

    def self_times(self):
        """Each span's duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def command_times(self):
        return {cmd: end - start for name, start, end, _, cmd in self.spans if name == "cli"}

    def layer_metrics(self, pipeline_s):
        """Per-layer figures of one traced pass, keyed by metric name."""
        selfs = self.self_times()
        total, own, calls = {}, {}, {}
        for (name, start, end, _, cmd), self_s in zip(self.spans, selfs):
            if name == "metrics.clustering_coefficient":
                name = f"metrics.clustering.{cmd.split('_', 1)[1]}"
            total[name] = total.get(name, 0.0) + end - start
            own[name] = own.get(name, 0.0) + self_s
            calls[name] = calls.get(name, 0) + 1

        out = {}
        groups = dict(GROUPS)
        groups.update({f"metrics.clustering.{g}": (f"metrics.clustering.{g}",) for g in GRAPHS})
        for group, names in groups.items():
            out[f"{group}.s"] = sum(total.get(n, 0.0) for n in names)
            out[f"{group}.self_s"] = sum(own.get(n, 0.0) for n in names)
            if group in COUNTED:
                out[f"{group}.calls"] = sum(calls.get(n, 0) for n in names)
        c = self.counts
        parse_s = out["model.parse_action_trace.s"]
        out["model.parse_action_trace.us_per_line"] = 1e6 * parse_s / max(1, c.get("parse_lines", 0))
        out["model.rss_after_parse_mb"] = c.get("rss_after_parse_mb", 0.0)
        out["pipeline.parse_share"] = parse_s / pipeline_s
        out["botnet.flagged_ratio"] = (c.get("communities_flagged", 0)
                                       / max(1, c.get("communities_measured", 0)))
        out["permissions.grants"] = c.get("grants", 0)
        out["attacks.evidence_bundle.bytes"] = c.get("bundle_bytes", 0)
        out["attacks.window_yield"] = (c.get("window_findings", 0)
                                       / max(1, c.get("suspicious_windows", 0)))
        out["cli.self_s"] = own.get("cli", 0.0)
        out["trace.spans"] = len(self.spans)
        out["trace.negative_self_spans"] = sum(1 for s in selfs if s < 0)
        return out

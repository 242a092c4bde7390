"""Shared pieces of the benchmark: workload definitions, metric names,
order statistics and the traced-run span report.  Standard library only."""

import json
import math
import os
import re
import statistics

HERE = os.path.dirname(os.path.abspath(__file__))

# Registry entries in `rspec list` order.
ENTRIES = [
    "figure1", "figure2", "figure3", "figure5", "figure6", "figure7", "figure8",
    "figure9", "table1", "table2", "table3", "table4", "table5", "ablations",
    "correlation", "values", "breakeven", "claims", "adversarial", "mistrain",
    "interleave",
]

# The entries that never touch Rs_mssp, in registry order.
ABSTRACT_ENTRIES = [
    "figure2", "figure3", "figure5", "figure6", "figure9", "table3", "table4",
    "ablations", "values", "breakeven", "adversarial", "mistrain", "interleave",
]

# Every run uses INPUT_SEED, the experiments' default seed, for the
# experiment and trace inputs: on this machine two seeds differ in wall
# time by more than a third of the bound.  HELD_OUT_SEED is only used
# with `--held-out`.  Digests are recorded for both.
INPUT_SEED = 42
HELD_OUT_SEED = 7

JOBS = 2

WORKLOADS = {
    "paper-all": {
        "kind": "experiments",
        "entries": ENTRIES,
        "invocations": 1,
        "probe_bench": "gcc",
        "scale": 0.02,
        "smoke_scale": 0.005,
    },
    "abstract-sweep": {
        "kind": "experiments",
        "entries": ABSTRACT_ENTRIES,
        # three invocations a run, reported as their median
        "invocations": 3,
        "probe_bench": "gcc",
        "scale": 0.05,
        "smoke_scale": 0.005,
    },
    "serve-ingest-query": {
        "kind": "serve",
        "bench": "gzip",
        "scale": 0.02,
        # sessions a run, reported as medians over sessions
        "sessions": 9,
        # one unit of work: passes over the trace in phase 1, frame+query
        # pairs in phase 2; each session runs --seconds/3 units
        "unit_passes": 6,
        "unit_pairs": 100,
    },
}

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("events_per_s", "1/s"),
]

PER_LAYER = (
    [("registry.%s_s" % e, "s") for e in ENTRIES]
    + [
        ("trace.wall_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.spans", "count"),
        ("cache.build_hits", "count"),
        ("cache.build_misses", "count"),
        ("cache.profile_hits", "count"),
        ("cache.profile_misses", "count"),
        ("cache.run_hits", "count"),
        ("cache.run_misses", "count"),
        ("cache.hit_rate", "ratio"),
        ("cache.run_cold_ms", "ms"),
        ("cache.run_warm_us", "us"),
        ("trace_store.bytes", "B"),
        ("trace_store.entries", "count"),
        ("trace_store.hits", "count"),
        ("trace_store.misses", "count"),
        ("trace_store.evictions", "count"),
        ("trace_store.record_ns_per_event", "ns/event"),
        ("trace_store.replay_ns_per_event", "ns/event"),
        ("engine.runs", "count"),
        ("engine.events", "count"),
        ("engine.ns_per_event", "ns/event"),
        ("profile.ns_per_event", "ns/event"),
        ("pareto.curve_ms", "ms"),
        ("pool.tasks", "count"),
        ("pool.steals", "count"),
        ("pool.splits", "count"),
        ("pool.spec_started", "count"),
        ("pool.spec_cancelled", "count"),
        ("pool.busy_frac", "ratio"),
        ("mssp.instantiate_s", "s"),
        ("mssp.ns_per_task", "ns/task"),
        ("mssp.minor_words_per_task", "words/task"),
        ("mssp.squashes", "count"),
        ("mssp.recompilations", "count"),
        ("distill.us_per_call", "us"),
        ("protocol.encode_ns_per_event", "ns/event"),
        ("protocol.decode_ns_per_event", "ns/event"),
        ("shard.apply_ns_per_event", "ns/event"),
        ("shard.busy_frac", "ratio"),
        ("client.send_s", "s"),
        ("client.flush_wait_ms", "ms"),
        ("client.query_p50_us", "us"),
        ("client.query_p99_us", "us"),
        ("server.aggregate_rate_eps", "1/s"),
    ]
)

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def input_seed(held_out=False):
    return HELD_OUT_SEED if held_out else INPUT_SEED


# ---- order statistics -------------------------------------------------


def median(xs):
    return statistics.median(xs)


def quartiles(xs):
    """(q1, median, q3) as statistics.quantiles(xs, n=4) gives them."""
    if len(xs) < 2:
        return (xs[0], xs[0], xs[0])
    q = statistics.quantiles(xs, n=4)
    return (q[0], q[1], q[2])


def iqr_share(xs):
    """Distance between the first and third quartile over the median."""
    q1, m, q3 = quartiles(xs)
    return (q3 - q1) / m if m else math.inf


def percentile(xs, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    s = sorted(xs)
    return s[max(1, _rank(p, len(s))) - 1]


def _rank(p, n):
    # rounded first, so that 99.9% of 10000 is 9990 and not 9991
    return math.ceil(round(p / 100.0 * n, 9))


TAIL_PERCENTILES = [99.9, 99, 95, 90, 75, 50]


def tail_percentile(n):
    """The highest standard percentile with at least ten of n samples
    beyond it, or None when n is too small for any."""
    for p in TAIL_PERCENTILES:
        if n - _rank(p, n) >= 10:
            return p
    return None


def summary(xs):
    """Median, the tail percentile and the sample count, as reported."""
    out = {"median": median(xs), "n": len(xs)}
    p = tail_percentile(len(xs))
    if p is not None:
        out["p%g" % p] = percentile(xs, p)
    return out


# ---- traced-run span report -------------------------------------------


def load_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def layer_of(name):
    """Spans are named <Module>.<function>; roots carry no module."""
    return name.split(".", 1)[0] if "." in name else name


def self_times(spans):
    """Per span id, its duration minus the part its children cover.
    Children of a span run on the same domain, so they do not overlap."""
    child = {}
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] = child.get(s["parent"], 0.0) + (s["end"] - s["start"])
    return {s["id"]: (s["end"] - s["start"]) - child.get(s["id"], 0.0) for s in spans}


def layer_table(spans):
    """Rows (layer, count, total s, self s, share of the workload wall),
    share None for spans outside the 'workload' root."""
    by_id = {s["id"]: s for s in spans}
    selfs = self_times(spans)
    roots = [s for s in spans if s["name"] == "workload"]
    wall = sum(s["end"] - s["start"] for s in roots)
    root_ids = {s["id"] for s in roots}

    def in_workload(s):
        while s["parent"] >= 0:
            if s["parent"] in root_ids:
                return True
            s = by_id[s["parent"]]
        return False

    rows = {}
    for s in spans:
        if s["name"] in ("workload", "probes", "setup"):
            continue
        key = layer_of(s["name"])
        r = rows.setdefault(key, {"count": 0, "total": 0.0, "self": 0.0, "inside": True})
        r["count"] += 1
        r["total"] += s["end"] - s["start"]
        r["self"] += selfs[s["id"]]
        r["inside"] = r["inside"] and in_workload(s)
    out = []
    for key, r in rows.items():
        share = r["total"] / wall if (r["inside"] and wall > 0) else None
        out.append((key, r["count"], r["total"], r["self"], share))
    out.sort(key=lambda row: -row[2])
    return out, wall


def render_layer_table(rows, wall):
    lines = ["%-14s %7s %10s %10s %8s" % ("layer", "count", "total s", "self s", "share")]
    for key, count, total, self_s, share in rows:
        lines.append(
            "%-14s %7d %10.3f %10.3f %8s"
            % (key, count, total, self_s, "-" if share is None else "%.1f%%" % (100 * share))
        )
    lines.append("workload wall %.3f s (share = total / workload wall; '-' = probe outside it)" % wall)
    return "\n".join(lines)


def benchmark_json_path():
    return os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

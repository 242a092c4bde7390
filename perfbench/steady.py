#!/usr/bin/env python3
"""Repeat the benchmark and report how steady each metric is.

    python3 perfbench/steady.py --runs 10 --out perfbench/results/steady.json
    python3 perfbench/steady.py --compare A.json B.json

Runs the BENCHMARK.json command RUNS times per workload, one seed per
repetition, interleaving the workloads (w1 w2 w3 w1 w2 w3 ...) so that
a slow spell on the machine spreads over all of them.  One extra
warm-up run per workload comes first and is discarded.  For every
metric it reports the median, the quartiles as statistics.quantiles(n=4)
gives them, the quartile distance as a share of the median against the
metric's bound, and the tail percentile that has ten samples beyond it.
nproc and the load average are recorded with every run.

--compare checks that no end-to-end median of the second result set is
worse than the first by more than the metric's bound.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import benchlib as B  # noqa: E402


def load_bench():
    with open(B.benchmark_json_path()) as f:
        return json.load(f)


def one_run(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)]
    load_before = os.getloadavg()
    t0 = time.perf_counter()
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    elapsed = time.perf_counter() - t0
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if p.returncode == 0 and lines else None
    if result is None:
        sys.stderr.write(p.stderr[-3000:])
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "exit": p.returncode,
        "elapsed_s": elapsed,
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "result": result,
    }


def analyse(bench, runs, trace):
    metrics = bench["per_layer" if trace else "end_to_end"]
    out = {}
    for w in bench["workloads"]:
        name = w["name"]
        rs = [r for r in runs if r["workload"] == name and not r.get("warmup")]
        ok = [r["result"] for r in rs if r["result"]]
        row = {"runs": len(rs), "failed_runs": len(rs) - len(ok),
               "errors": sum(r["failed"] for r in ok), "metrics": {}}
        for m in metrics:
            vals = [r["metrics"][m["name"]]["value"] for r in ok if m["name"] in r["metrics"]]
            if not vals:
                continue
            q1, med, q3 = B.quartiles(vals)
            entry = {"median": med, "q1": q1, "q3": q3, "values": vals}
            if "bound" in m:
                share = B.iqr_share(vals)
                entry.update({"iqr_share": share, "bound": m["bound"],
                              "within_bound": share <= m["bound"],
                              "within_third": share <= m["bound"] / 3})
            entry.update(B.summary(vals))
            row["metrics"][m["name"]] = entry
        out[name] = row
    return out


def print_analysis(analysis):
    for name, row in analysis.items():
        print("%s: %d runs, %d failed runs, %d failed operations"
              % (name, row["runs"], row["failed_runs"], row["errors"]))
        for m, e in row["metrics"].items():
            spread = ""
            if "iqr_share" in e:
                spread = "iqr/median %.4f (bound %.2f, third %s)" % (
                    e["iqr_share"], e["bound"], "ok" if e["within_third"] else "NO")
            print("  %-16s median %-12.6g q1 %-12.6g q3 %-12.6g %s"
                  % (m, e["median"], e["q1"], e["q3"], spread))


def compare(path_a, path_b):
    a, b = (json.load(open(p)) for p in (path_a, path_b))
    bench = load_bench()
    bad = []
    for m in bench["end_to_end"]:
        for w in bench["workloads"]:
            ea = a["analysis"][w["name"]]["metrics"].get(m["name"])
            eb = b["analysis"][w["name"]]["metrics"].get(m["name"])
            if ea is None or eb is None:
                continue
            worse = (eb["median"] / ea["median"] - 1.0) if m["better"] == "lower" \
                else (ea["median"] / eb["median"] - 1.0)
            flag = "ok" if worse <= m["bound"] else "WORSE"
            if flag != "ok":
                bad.append((w["name"], m["name"]))
            print("%-20s %-14s %12.6g -> %-12.6g worse by %+.4f (bound %.2f) %s"
                  % (w["name"], m["name"], ea["median"], eb["median"], worse, m["bound"], flag))
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=0, help="seed of the first measured run")
    ap.add_argument("--workloads", default="", help="comma-separated subset")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default="")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    bench = load_bench()
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]
        bench["workloads"] = [w for w in bench["workloads"] if w["name"] in names]
    seconds = bench["run_seconds"]
    runs = []
    for rep in range(args.runs + 1):
        for name in names:
            seed = args.seed0 + rep - 1
            r = one_run(bench, name, seed, seconds, args.trace)
            r["warmup"] = rep == 0
            runs.append(r)
            sys.stderr.write("%s rep %d seed %d: %.1f s, load %.2f\n"
                             % (name, rep, seed, r["elapsed_s"], r["loadavg_after"][0]))
    analysis = analyse(bench, runs, args.trace)
    print_analysis(analysis)
    doc = {"nproc": len(os.sched_getaffinity(0)), "trace": args.trace, "runs": runs, "analysis": analysis}
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the rspec system.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-all --seed 0 --seconds 10 --trace 0

It builds `rspec` and the benchmark's probe from source with dune, runs
one workload, checks its outputs and prints, as the last stdout line,
one JSON object {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones (rspec invoked as a user
would, tracing off); with --trace 1 they are the per-layer ones from a
traced run.  See perfbench/README.md for the workloads and metrics.

Other modes:
    --smoke            every workload at small size, traced and untraced,
                       plus a wrong-digest run that must count as a failure
    --record-digests   rerun the experiment workloads at every input seed
                       and rewrite perfbench/digests.json
"""

import argparse
import hashlib
import json
import os
import re
import socket
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import benchlib as B  # noqa: E402

ROOT = os.getcwd()
WORK = ".perfbench"  # per-checkout scratch, relative to ROOT
RSPEC = os.path.join("_build", "default", "bin", "main.exe")
PROBE = os.path.join("_build", "default", "perfbench", "probe", "probe.exe")
DIGESTS = os.path.join(HERE, "digests.json")
SOCKET = os.path.join(WORK, "serve.sock")
RUN_TIMEOUT = 170.0
BUILD_TIMEOUT = 850.0
SETUP_WARMUP = 20
SETUP_LAUNCHES = 31


class BenchError(Exception):
    pass


def log(msg):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.stderr.flush()


def clean_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("RS_")}
    env["DUNE_CACHE"] = "disabled"
    return env


ENV = clean_env()


# ---- processes ----------------------------------------------------------


class Proc:
    """A child with its stdout/stderr in files under WORK, reaped with
    wait4 so its own peak RSS is known."""

    def __init__(self, cmd, tag):
        self.out_path = os.path.join(WORK, tag + ".out")
        self.err_path = os.path.join(WORK, tag + ".err")
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            self.t0 = time.perf_counter()
            self.popen = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=ENV)
        self.t1 = None
        self.status = None
        self.rusage = None
        self._reaper = threading.Thread(target=self._reap, daemon=True)
        self._reaper.start()

    def _reap(self):
        _, status, ru = os.wait4(self.popen.pid, 0)
        self.t1 = time.perf_counter()
        self.status = os.waitstatus_to_exitcode(status)
        self.rusage = ru
        self.popen.returncode = self.status

    def wait(self, timeout):
        self._reaper.join(timeout)
        if self._reaper.is_alive():
            self.kill()
            raise BenchError("%s timed out after %.0f s" % (self.popen.args[:2], timeout))
        return self.status

    def kill(self):
        if self.status is None:
            try:
                self.popen.kill()
            except ProcessLookupError:
                pass
            self._reaper.join()

    @property
    def wall(self):
        return self.t1 - self.t0

    @property
    def peak_rss_mb(self):
        return self.rusage.ru_maxrss / 1024.0

    def stdout(self):
        with open(self.out_path, "rb") as f:
            return f.read()

    def stderr(self):
        with open(self.err_path, "r", errors="replace") as f:
            return f.read()


def run(cmd, tag, timeout=RUN_TIMEOUT):
    p = Proc(cmd, tag)
    p.wait(timeout)
    return p


def last_json(p):
    lines = p.stdout().decode().strip().splitlines()
    if p.status != 0 or not lines:
        raise BenchError("%s exited %s: %s" % (p.popen.args[:2], p.status, p.stderr()[-2000:]))
    return json.loads(lines[-1])


def build():
    missing = [f for f in ("dune-project", "bin", "lib") if not os.path.exists(f)]
    if missing:
        raise BenchError("not the root of a checkout: no %s here" % ", ".join(missing))
    os.makedirs(WORK, exist_ok=True)
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./bin/main.exe", "./perfbench/probe/probe.exe"],
            cwd=ROOT, env=ENV, stdin=subprocess.DEVNULL, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        raise BenchError("dune build did not finish in %.0f s" % BUILD_TIMEOUT)
    if r.returncode != 0:
        raise BenchError("dune build failed (%d)" % r.returncode)


# ---- idle CPUs ------------------------------------------------------------

# On a virtual machine, a thread woken on an idle virtual CPU waits until
# the host runs that CPU again.  On the shared 2-core host this wait
# swings from microseconds to milliseconds (pipe round trip p50 6 us ->
# 31 us, p99 36 us -> 2.4 ms), and serve, which hands every frame
# between threads, slowed by up to 3x with no change in the code.  While
# it measures, the benchmark keeps every CPU busy at idle priority:
# SCHED_IDLE spinners run only when nothing else wants the CPU, so the
# CPUs never halt and the workload's wake-ups stay inside the guest.
SPINNER = """
import os, sys, time
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
parent, deadline = int(sys.argv[1]), time.monotonic() + float(sys.argv[2])
print("ready", flush=True)
while os.getppid() == parent and time.monotonic() < deadline:
    pass
"""


class KeepAwake:
    def __enter__(self):
        n = len(os.sched_getaffinity(0))
        self.procs = [subprocess.Popen([sys.executable, "-c", SPINNER, str(os.getpid()), "200"],
                                       stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, env=ENV)
                      for _ in range(n)]
        # measure only once every spinner has dropped to idle priority
        for p in self.procs:
            p.stdout.readline()
        return self

    def __exit__(self, *exc):
        for p in self.procs:
            p.kill()
        for p in self.procs:
            p.wait()
            p.stdout.close()
        return False


# ---- digests -------------------------------------------------------------


def digest_key(workload, smoke):
    return workload + ("@smoke" if smoke else "")


def load_digests():
    with open(DIGESTS) as f:
        return json.load(f)


def recorded(workload, seed, smoke, corrupt):
    """The stdout digest and engine event count recorded at this seed.
    The event count is the workload's fixed unit of work: a change that
    avoids Engine runs does less of it but still owes all of it."""
    d = load_digests().get(digest_key(workload, smoke), {}).get(str(seed))
    if d is None:
        raise BenchError("no recorded digest for %s at seed %d" % (workload, seed))
    return ("0" * 32) if corrupt else d["md5"], d["engine_events"]


# ---- experiment workloads -----------------------------------------------


def rspec_cmd(wl, seed, scale):
    sel = ["all"] if wl["entries"] == B.ENTRIES else ["run"] + wl["entries"]
    return [RSPEC] + sel + ["--scale", repr(scale), "--jobs", str(B.JOBS), "--seed", str(seed)]


def launch_wall(cmd):
    """Seconds from spawn to exit of a quiet child, timed without the
    reaper thread of Proc, which is slow next to a few milliseconds."""
    fd = os.open(os.devnull, os.O_WRONLY)
    try:
        t0 = time.perf_counter()
        pid = os.posix_spawn(cmd[0], cmd, ENV, file_actions=[
            (os.POSIX_SPAWN_DUP2, fd, 1), (os.POSIX_SPAWN_DUP2, fd, 2)])
        _, status = os.waitpid(pid, 0)
        t1 = time.perf_counter()
    finally:
        os.close(fd)
    if os.waitstatus_to_exitcode(status) != 0:
        raise BenchError("%s failed" % " ".join(cmd))
    return t1 - t0


def experiments_setup():
    """rspec start-up before any entry runs: median of many launches.
    The first launches after a large process exits run up to twice as
    slow for a few tens of milliseconds, while the freed memory is
    handed back; those are made and discarded first."""
    for _ in range(SETUP_WARMUP):
        launch_wall([RSPEC, "list"])
    return B.median([launch_wall([RSPEC, "list"]) for _ in range(SETUP_LAUNCHES)])


def run_rspec(wl, seed, scale):
    p = run(rspec_cmd(wl, seed, scale) + ["--metrics"], "rspec")
    err = p.stderr()
    failed = 0
    if p.status != 0:
        m = re.search(r"rspec: (\d+)/\d+ experiments failed", err)
        failed = int(m.group(1)) if m else len(wl["entries"])
        log("rspec exited %d: %s" % (p.status, err[-500:]))
    m = re.search(r"^\s*engine\.events\s+(\d+)", err, re.M)
    events = int(m.group(1)) if m else 0
    digest = hashlib.md5(p.stdout()).hexdigest()
    return p, failed, events, digest


def rspec_invocations(name, wl, seed, scale, want):
    """The workload's untraced rspec invocations, each checked against
    the recorded digest; their walls, peak RSS and failures."""
    walls, rss, failed = [], [], 0
    for _ in range(wl["invocations"]):
        p, f, _, digest = run_rspec(wl, seed, scale)
        failed += f
        if digest != want:
            log("%s seed %d: stdout digest %s, recorded %s" % (name, seed, digest, want))
            failed += 1
        walls.append(p.wall)
        rss.append(p.peak_rss_mb)
    return walls, rss, failed, wl["invocations"] * (len(wl["entries"]) + 1)


def experiments_untraced(name, wl, seed, scale, smoke, corrupt):
    setup_s = experiments_setup()
    want, work = recorded(name, seed, smoke, corrupt)
    walls, rss, failed, attempted = rspec_invocations(name, wl, seed, scale, want)
    wall = B.median(walls)
    metrics = {
        "wall_s": wall,
        "setup_s": setup_s,
        "peak_rss_mb": B.median(rss),
        "events_per_s": work / wall,
    }
    print("%s seed=%d: rspec %s" % (name, seed, " ".join(rspec_cmd(wl, seed, scale)[1:])))
    print("  %d invocations, walls %s s, recorded work %d engine events"
          % (len(walls), " ".join("%.3f" % w for w in walls), work))
    return attempted, failed, metrics


def experiments_traced(name, wl, seed, scale, smoke, corrupt):
    spans_path = os.path.join(WORK, "spans-%s.jsonl" % name)
    d = last_json(
        run(
            [PROBE, "experiments", "--entries", ",".join(wl["entries"]), "--seed", str(seed),
             "--scale", repr(scale), "--jobs", str(B.JOBS), "--bench", wl["probe_bench"],
             "--spans", spans_path],
            "probe",
        )
    )
    failed = d["failed"]
    want, _ = recorded(name, seed, smoke, corrupt)
    if d["digest"] != want:
        log("%s seed %d: traced output digest %s, recorded %s" % (name, seed, d["digest"], want))
        failed += 1
    # the untraced wall the overhead is taken against, measured now
    walls, _, f, attempted = rspec_invocations(name, wl, seed, scale, want)
    untraced = B.median(walls)
    metrics = per_layer_metrics(d, untraced)
    reg_sum = sum(d.get("registry.%s_s" % e, 0.0) for e in wl["entries"])
    report(name, seed, spans_path, metrics, untraced)
    print("registry spans sum %.3f s, traced wall %.3f s, gap %.3f s, overhead %.3f s"
          % (reg_sum, d["wall_s"], d["wall_s"] - reg_sum, metrics["trace.overhead_s"]))
    return d["attempted"] + 1 + attempted, failed + f, metrics


# ---- serve workload ------------------------------------------------------


def wait_accept(deadline):
    while True:
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            s.connect(SOCKET)
            return s
        except (FileNotFoundError, ConnectionRefusedError):
            s.close()
            if time.perf_counter() > deadline:
                raise BenchError("server did not accept within the deadline")
            time.sleep(0.001)


def spawn_server(wl, seed):
    if os.path.exists(SOCKET):
        os.unlink(SOCKET)
    p = Proc([RSPEC, "serve", "--socket", SOCKET, "--bench", wl["bench"], "--scale",
              repr(wl["scale"]), "--seed", str(seed), "--shards", "1"], "server")
    try:
        conn = wait_accept(p.t0 + 30.0)
    except BaseException:
        p.kill()
        raise
    return p, time.perf_counter() - p.t0, conn


def serve_session(wl, seed, query_seed, units, smoke, spans_path, corrupt):
    """One server process driven by one client connection."""
    passes, pairs = (1, 10) if smoke else (wl["unit_passes"], wl["unit_pairs"])
    server, accept_s, conn = spawn_server(wl, seed)
    conn.close()
    try:
        cmd = [PROBE, "serve", "--bench", wl["bench"], "--socket", SOCKET, "--seed", str(seed), "--scale",
               repr(wl["scale"]), "--repeat", str(passes * units),
               "--pairs", str(pairs * units), "--query-seed", str(query_seed)]
        if spans_path:
            cmd += ["--spans", spans_path]
        if corrupt:
            cmd += ["--corrupt"]
        d = last_json(run(cmd, "probe"))
        server.wait(30.0)
    finally:
        server.kill()
    if server.status != 0:
        log("server exited %d: %s" % (server.status, server.stderr()[-500:]))
        d["failed"] += 1
    d["accept_s"] = [accept_s]
    d["server_rss_mb"] = [server.peak_rss_mb]
    return d


POOLED = ("query_us", "record_s", "accept_s", "server_rss_mb")
SUMMED = ("attempted", "failed", "events")


def serve_run(name, wl, seed, query_seed, seconds, traced, smoke, corrupt):
    """Sessions one after another: their samples pooled, their counts
    summed, and per session the wall of phases 1 and 2 (first send to
    last FLUSH ack) and the phase-1 event rate (first send to the FLUSH
    ack).  A session keeps the thread placement it starts with, so one
    session alone can land on a slow placement for its whole length;
    the end-to-end metrics are medians over sessions.  When traced, the
    last session records spans and the layer probes, and the others are
    the untraced sessions its overhead is taken against."""
    sessions = (2 if traced else 1) if smoke else wl["sessions"]
    units = max(1, seconds // 3)
    spans_path = os.path.join(WORK, "spans-%s.jsonl" % name)
    ds = [serve_session(wl, seed, query_seed * sessions + i, units, smoke,
                        spans_path if traced and i == sessions - 1 else None, corrupt)
          for i in range(sessions)]
    d = dict(ds[-1])
    for k in POOLED:
        d[k] = [x for s in ds for x in s[k]]
    for k in SUMMED:
        d[k] = sum(s[k] for s in ds)
    d["session_wall_s"] = [s["phase1_s"] + s["phase2_s"] for s in ds]
    d["session_events_per_s"] = [s["events"] / s["phase1_s"] for s in ds]
    d["digests"] = [(s["digest"], s["reference_digest"]) for s in ds]
    d["spans_path"] = spans_path
    return d


def serve_untraced(name, wl, seed, query_seed, seconds, smoke, corrupt):
    d = serve_run(name, wl, seed, query_seed, seconds, False, smoke, corrupt)
    q = d["query_us"]
    metrics = {
        "wall_s": B.median(d["session_wall_s"]),
        "setup_s": B.median(d["accept_s"]) + B.median(d["record_s"]),
        "peak_rss_mb": B.median(d["server_rss_mb"]),
        "events_per_s": B.median(d["session_events_per_s"]),
    }
    print("%s seed=%d: %d sessions, %d events in phase 1, %d frame+query pairs in phase 2"
          % (name, seed, len(d["accept_s"]), d["events"], len(q)))
    print("  session walls %s s" % " ".join("%.3f" % w for w in d["session_wall_s"]))
    print("  QUERY round trip: %s us" % json.dumps({k: round(v, 1) if isinstance(v, float) else v
                                                   for k, v in B.summary(q).items()}))
    print("  decision digests (served, in-process reference): %s" % d["digests"])
    return d["attempted"], d["failed"], metrics


def serve_traced(name, wl, seed, query_seed, seconds, smoke, corrupt):
    d = serve_run(name, wl, seed, query_seed, seconds, True, smoke, corrupt)
    d["wall_s"] = d["session_wall_s"][-1]
    d["client.query_p50_us"] = B.percentile(d["query_us"], 50)
    d["client.query_p99_us"] = B.percentile(d["query_us"], 99)
    untraced = B.median(d["session_wall_s"][:-1])
    metrics = per_layer_metrics(d, untraced)
    report(name, seed, d["spans_path"], metrics, untraced)
    print("QUERY round trip: %s us" % json.dumps(B.summary(d["query_us"])))
    return d["attempted"], d["failed"], metrics


# ---- traced-run report ---------------------------------------------------


def per_layer_metrics(d, untraced):
    """Every per-layer metric; a layer the workload does not exercise
    reads 0."""
    m = {k: float(d.get(k, 0.0)) for k, _ in B.PER_LAYER}
    m["trace.wall_s"] = d["wall_s"]
    m["trace.overhead_s"] = d["wall_s"] - untraced
    return m


def report(name, seed, spans_path, metrics, untraced):
    rows, wall = B.layer_table(B.load_spans(spans_path))
    print("traced run: %s seed=%d" % (name, seed))
    print(B.render_layer_table(rows, wall))
    print("tracing overhead: traced wall %.3f s - untraced wall %.3f s = %.3f s"
          % (metrics["trace.wall_s"], untraced, metrics["trace.overhead_s"]))
    units = dict(B.PER_LAYER)
    for k, _ in B.PER_LAYER:
        print("  %-34s %16.6g %s" % (k, metrics[k], units[k]))


# ---- modes ---------------------------------------------------------------


def run_workload(name, n, seconds, trace, held_out=False, smoke=False, corrupt=False):
    wl = B.WORKLOADS[name]
    seed = B.input_seed(held_out)
    if wl["kind"] == "experiments":
        scale = wl["smoke_scale"] if smoke else wl["scale"]
        f = experiments_traced if trace else experiments_untraced
        attempted, failed, metrics = f(name, wl, seed, scale, smoke, corrupt)
    else:
        f = serve_traced if trace else serve_untraced
        attempted, failed, metrics = f(name, wl, seed, n, seconds, smoke, corrupt)
    units = dict(B.PER_LAYER if trace else B.END_TO_END)
    if not trace:
        for k, u in B.END_TO_END:
            print("  %-14s %14.6g %s" % (k, metrics[k], u))
        print("  %-14s %14.6g (%d failed of %d attempted)"
              % ("error_rate", failed / attempted, failed, attempted))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def smoke():
    """Every workload at small size, untraced and traced, then a run whose
    recorded digest is deliberately wrong; returns the problems found."""
    problems = []
    for name in B.WORKLOADS:
        for trace in (0, 1):
            r = run_workload(name, 0, 1, trace, smoke=True)
            if not r["correct"] or r["failed"] or r["attempted"] < 1:
                problems.append("%s trace=%d not correct: %s" % (name, trace, r))
            want = dict(B.PER_LAYER if trace else B.END_TO_END)
            if set(r["metrics"]) != set(want):
                problems.append("%s trace=%d metric set differs" % (name, trace))
    # wrong expectations: every experiment invocation's digest; serve's
    # decision digest, STATS events and STATS applied
    for name, wl in B.WORKLOADS.items():
        want = wl["invocations"] if wl["kind"] == "experiments" else 3
        r = run_workload(name, 0, 1, 0, smoke=True, corrupt=True)
        if r["correct"] or r["failed"] != want:
            problems.append("%s: %d wrong expectations, %d failures counted"
                            % (name, want, r["failed"]))
    return problems


def record_digests(smoke):
    digests = load_digests() if os.path.exists(DIGESTS) else {}
    for name, wl in B.WORKLOADS.items():
        if wl["kind"] != "experiments":
            continue
        seeds = [B.INPUT_SEED] if smoke else [B.INPUT_SEED, B.HELD_OUT_SEED]
        scale = wl["smoke_scale"] if smoke else wl["scale"]
        got = {}
        for seed in seeds:
            p, failed, events, digest = run_rspec(wl, seed, scale)
            if failed or events == 0:
                raise BenchError("%s seed %d failed; not recording" % (name, seed))
            got[str(seed)] = {"md5": digest, "engine_events": events}
            log("%s seed %d: %s, %d events (%.1f s)" % (name, seed, digest, events, p.wall))
        digests[digest_key(name, smoke)] = got
    with open(DIGESTS, "w") as f:
        json.dump(digests, f, indent=2, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(B.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--held-out", action="store_true",
                    help="use the held-out input seed instead of the input seed")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args()
    try:
        build()
        if args.record_digests:
            record_digests(args.smoke)
            return 0
        if args.smoke:
            with KeepAwake():
                problems = smoke()
            for p in problems:
                log(p)
            print(json.dumps({"smoke": "fail" if problems else "ok", "problems": problems}))
            return 1 if problems else 0
        if not args.workload:
            ap.error("--workload is required")
        with KeepAwake():
            result = run_workload(args.workload, args.seed, args.seconds, args.trace,
                                  held_out=args.held_out)
    except Exception as e:
        log("error: %s" % e)
        return 2
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

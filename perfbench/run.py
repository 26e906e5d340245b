#!/usr/bin/env python3
"""Live-server benchmark for the Flash reproduction.

Starts `flash_serve` out of process with its defaults, pinned to one
core, and drives it from a single-process open-loop generator pinned to
another (perfbench/_ml/loadgen).  Each workload runs at a fixed offered
rate; every response is checked byte for byte against the generated
docroot.

    python3 perfbench/run.py --workload hot-small --seed 1 --seconds 10 --trace 0

(--workload all runs the three in turn.)

--trace 0 prints the end-to-end metrics:
  cpu_us_per_req  user+sys CPU of the server's whole process tree over
                  the measured window / requests completed correctly
  ok_frac         correct responses / requests attempted (1 - fail_frac)
  setup_s         server spawn to end of the warm-up pass, median of
                  the SETUPS set-ups with least steal
  server_rss_mb   Pss of the server's process tree, median of one
                  sample per second of the run
and, unbounded, latency from each request's due time (lat_p50_ms and
lat_p99_ms: the percentile within each one-second window, median over
the windows) and fail_frac.  Latency is not an end-to-end metric here:
on a shared VM it follows the neighbours (see STEAL_MAX).
--trace 1 runs the same server run plus a --no-trace run and an
in-process replay of the request stream through each layer's public
functions (perfbench/_ml/layers), and prints the per-layer metrics
(LAYER_UNITS), the two latencies among them.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The exit code is 0 only
when every response was correct and the run is valid (the generator
kept up with its schedule).

Everything is built from the checkout's sources into .bench_build/ by
dune, in a private workspace, so the repository's own build never sees
the benchmark.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
WS = os.path.join(BUILD, "ws")
BIN = os.path.join(WS, "_build", "default")

# Offered rates, fixed once at about half of what the pinned seed server
# sustained on each workload with the generator's two connections.  They
# are constants: never derived from the code under test.
WORKLOADS = {
    "hot-small": {"mode": None, "http10": False, "rate": 20000.0},
    "cold-churn": {"mode": None, "http10": False, "rate": 6500.0},
    "conn-churn-mp": {"mode": "mp:2", "http10": True, "rate": 4000.0},
}
# setup_s is the median of SETUPS set-ups per run, half made before the
# measured window and half after; like measured windows (see
# STEAL_MAX), set-ups with steal are made again, up to SETUP_TRIES times
# as many in all.
SETUPS = 21
SETUP_TRIES = 2
# A run is void when the generator itself fell behind its schedule, or
# when the queue of due-but-unanswered requests held more than this many
# seconds of offered load (the server did not keep up: no steady state).
VOID_LATE_P99_MS = 10.0
VOID_BACKLOG_S = 0.5
# A measured window in which the hypervisor gave more than this share of
# CPU time to someone else measures the neighbour, not the server: it is
# measured again, at most ATTEMPTS times (the one with least steal is
# kept if none is clean).  Only steal makes a retry: an attempt with
# little steal is kept, void or not.  Wrong responses of every attempt
# still count.
STEAL_MAX = 0.01
ATTEMPTS = {0: 3, 1: 2}
# Descriptors the server's wait watches: listen + wake pipe + helper
# notify + the generator's two connections (AMPED); an MP child waits
# on listen + wake pipe only, then serves its connection blocking.
FDS_WATCHED = {"hot-small": 5, "cold-churn": 5, "conn-churn-mp": 2}

E2E_UNITS = {
    "cpu_us_per_req": "us",
    "ok_frac": "ratio",
    "setup_s": "s",
    "server_rss_mb": "MB",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build


def sync_tree(src, dst):
    if os.path.isdir(dst):
        shutil.rmtree(dst)
    shutil.copytree(src, dst, ignore=shutil.ignore_patterns("_build", ".*"))


def build(targets):
    """Copy the server's sources and the benchmark's OCaml package into
    a private dune workspace and build the named targets there."""
    for need in ("dune-project", "lib", "bin"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise SystemExit(f"perfbench: {need} missing from {ROOT}; nothing to build")
    os.makedirs(os.path.join(WS, "flash"), exist_ok=True)
    with open(os.path.join(WS, "dune-workspace"), "w") as f:
        f.write("(lang dune 3.0)\n")
    shutil.copy2(os.path.join(ROOT, "dune-project"), os.path.join(WS, "flash", "dune-project"))
    for d in ("lib", "bin"):
        sync_tree(os.path.join(ROOT, d), os.path.join(WS, "flash", d))
    sync_tree(os.path.join(ROOT, "perfbench", "_ml"), os.path.join(WS, "perfbench"))
    cmd = ["dune", "build", "--root", WS, "--profile", "release"] + [
        "./" + t for t in targets
    ]
    # no shared dune cache or system temp: the build stays in the checkout
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        DUNE_CACHE="disabled",
        XDG_CACHE_HOME=os.path.join(BUILD, "cache"),
        TMPDIR=tmp,
    )
    r = subprocess.run(
        cmd, cwd=WS, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
    )
    if r.returncode != 0:
        log(r.stdout)
        raise SystemExit("perfbench: build failed")


SERVE = "flash/bin/flash_serve.exe"
LOADGEN = "perfbench/loadgen/loadgen.exe"
MKINPUT = "perfbench/inputs/mkinput.exe"
LAYERS = "perfbench/layers/layers.exe"


# ------------------------------------------------------------------ /proc


def proc_tree(root):
    """The server's process tree: root plus every descendant, by a scan
    of every process's parent."""
    parent = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            try:
                with open(f"/proc/{name}/stat") as f:
                    parent[int(name)] = int(f.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                pass
    tree = {root}
    grew = True
    while grew:
        grew = False
        for p, pp in parent.items():
            if pp in tree and p not in tree:
                tree.add(p)
                grew = True
    return sorted(tree)


def process_cpu_s(pid):
    """User+sys CPU of every thread of [pid], to the nanosecond: the
    process's CPU-time clock (the clockid clock_getcpuclockid gives)."""
    return time.clock_gettime(((~pid) << 3) | 2)


def tree_cpu_s(pids):
    total = 0.0
    for p in pids:
        try:
            total += process_cpu_s(p)
        except OSError:
            pass
    return total


def tree_counters(root):
    """CPU seconds (user+sys, every thread), read+write syscalls and
    context switches (every thread) summed over the process tree."""
    pids = proc_tree(root)
    cpu = tree_cpu_s(pids)
    root_cpu = tree_cpu_s([root])
    sysc = ctx = 0.0
    for p in pids:
        try:
            with open(f"/proc/{p}/io") as f:
                io = dict(line.split(":") for line in f.read().splitlines())
            sysc += int(io["syscr"]) + int(io["syscw"])
            for tid in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{tid}/status") as f:
                    for line in f:
                        if line.startswith(("voluntary_ctxt", "nonvoluntary_ctxt")):
                            ctx += int(line.split()[1])
        except (OSError, KeyError, IndexError, ValueError):
            pass
    return {"cpu_s": cpu, "root_cpu_s": root_cpu, "syscalls": sysc, "ctxsw": ctx}


def tree_pss_mb(root):
    total = 0
    for p in proc_tree(root):
        try:
            with open(f"/proc/{p}/smaps_rollup") as f:
                for line in f:
                    if line.startswith("Pss:"):
                        total += int(line.split()[1])
        except OSError:
            pass
    return total / 1024.0


def cpu_times():
    with open("/proc/stat") as f:
        v = [int(x) for x in f.readline().split()[1:]]
    return v


def steal_frac(before, after):
    d = [a - b for a, b in zip(after, before)]
    total = sum(d[:8])
    return d[7] / total if total > 0 else 0.0


def git_rev():
    try:
        r = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        return r.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


# ------------------------------------------------------------------ processes


def spawn_pinned(cpu, cmd, **kw):
    """Popen with the child on [cpu] alone.  The child inherits this
    process's affinity, so it is set around the spawn: no preexec_fn,
    which would make the spawn a full fork of this interpreter."""
    own = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        return subprocess.Popen(cmd, **kw)
    finally:
        os.sched_setaffinity(0, own)


class Server:
    """flash_serve with its defaults (plus the workload's --mode) on an
    ephemeral port, pinned to one core."""

    def __init__(self, docroot, cpu, mode=None, no_trace=False):
        cmd = [os.path.join(BIN, SERVE), "--docroot", docroot, "--port", "0"]
        if mode:
            cmd += ["--mode", mode]
        if no_trace:
            cmd.append("--no-trace")
        self.proc = spawn_pinned(
            cpu, cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True
        )
        self.port = None
        for line in self.proc.stdout:
            if line.startswith("Flash serving"):
                self.port = int(line.split("127.0.0.1:")[1].split("/")[0])
                break
        if self.port is None:
            self.stop()
            raise RuntimeError("flash_serve did not start")

    @property
    def pid(self):
        return self.proc.pid

    def get(self, path):
        with urllib.request.urlopen(f"http://127.0.0.1:{self.port}{path}", timeout=10) as r:
            return r.read().decode()

    def stop(self):
        tree = proc_tree(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        # MP children are killed by the parent; make sure none outlives it.
        for p in tree[1:]:
            try:
                os.kill(p, signal.SIGKILL)
            except OSError:
                pass
        if self.proc.stdout:
            self.proc.stdout.close()


class Loadgen:
    """The load generator: loads its inputs, then on each "port N" runs
    the warm-up pass; "go" measures, "again" awaits the next set-up's
    port."""

    def __init__(self, inputs, cpu, rate, seconds, http10):
        cmd = [
            os.path.join(BIN, LOADGEN),
            "--inputs", inputs,
            "--rate", repr(rate),
            "--seconds", repr(seconds),
        ]
        if http10:
            cmd.append("--http10")
        self.proc = spawn_pinned(
            cpu, cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        self.expect("ready")

    def expect(self, word):
        line = self.proc.stdout.readline()
        if not line.startswith(word):
            self.kill()
            raise RuntimeError(f"loadgen: expected {word!r}, got {line!r}")
        return line

    def send(self, line):
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def warm(self):
        """Waits for the warm-up pass; returns (monotonic time it ended,
        wrong responses in it)."""
        _, t, failed = self.expect("warm").split()
        return float(t), int(failed)

    def finish(self):
        return json.loads(self.proc.stdout.readline())

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def setup_once(gen, w, docroot, cpu, no_trace):
    """Spawn the server and have [gen] run the warm-up pass against it;
    returns (server, set-up seconds, wrong warm-up responses, steal
    share of the set-up).  Set-up time is the server's start plus the
    warm-up pass over the hot set."""
    s0 = cpu_times()
    t0 = time.monotonic()
    srv = Server(docroot, cpu, WORKLOADS[w]["mode"], no_trace)
    gen.send(f"port {srv.port}")
    try:
        t_warm, failed = gen.warm()
    except Exception:
        srv.stop()
        raise
    return srv, t_warm - t0, failed, steal_frac(s0, cpu_times())


def set_up(gen, w, docroot, cpu, no_trace, want, log):
    """Set up against fresh servers until [want] set-ups had no more
    than STEAL_MAX steal, at most SETUP_TRIES * want in all.  Each
    set-up's (seconds, steal, wrong warm-up responses) goes to [log].
    Returns the last server, still running."""
    clean = 0
    for k in range(SETUP_TRIES * want):
        if k:
            gen.send("again")
            srv.stop()
        srv, dt, failed, steal = setup_once(gen, w, docroot, cpu, no_trace)
        log.append((dt, steal, failed))
        clean += steal <= STEAL_MAX
        if clean >= want:
            break
    return srv


def serve_run(w, inputs, cpus, seconds, setups, no_trace=False, scrape=False, docroot=None):
    """Set up (see set_up) half of [setups] times, run the measured
    phase on the last server, and collect client results plus /proc
    counters of the server tree over the measured window; then make the
    other half of the set-ups.  Host speed drifts over seconds, so the
    set-ups are spread over the run.  One generator, which loads its
    inputs once, serves every set-up, and wrong warm-up responses of
    every set-up count.  The server serves [docroot] (default: the
    inputs' own, which responses are checked against)."""
    rate = WORKLOADS[w]["rate"]
    docroot = docroot or os.path.join(inputs, "docroot")
    log = []
    srv = None
    gen = Loadgen(inputs, cpus[1], rate, seconds, WORKLOADS[w]["http10"])
    try:
        srv = set_up(gen, w, docroot, cpus[0], no_trace, setups - setups // 2, log)
        affinity = {
            "server": sorted(os.sched_getaffinity(srv.pid)),
            "generator": sorted(os.sched_getaffinity(gen.proc.pid)),
        }
        before_scrape = scrape_counters(srv) if scrape else None
        c0, s0 = tree_counters(srv.pid), cpu_times()
        gen.send("go")
        t_go = time.monotonic()
        # memory in the middle of each second of the run
        pss = []
        for k in range(int(seconds)):
            time.sleep(max(0.0, t_go + k + 0.5 - time.monotonic()))
            pss.append(tree_pss_mb(srv.pid))
        res = gen.finish()
        c1, s1 = tree_counters(srv.pid), cpu_times()
        pss_end = tree_pss_mb(srv.pid)
        after_scrape = scrape_counters(srv) if scrape else None
        if setups > 1:
            gen.send("again")
            srv.stop()
            srv = set_up(gen, w, docroot, cpus[0], no_trace, setups // 2, log)
    finally:
        gen.kill()
        if srv:
            srv.stop()
    res["setup_times"] = [t for t, _, _ in log]
    res["setup_steal"] = [x for _, x, _ in log]
    res["warm_failed"] = sum(f for _, _, f in log)
    res["affinity"] = affinity
    res["server_cpu_s"] = c1["cpu_s"] - c0["cpu_s"]
    res["server_root_cpu_s"] = c1["root_cpu_s"] - c0["root_cpu_s"]
    res["server_syscalls"] = c1["syscalls"] - c0["syscalls"]
    res["server_ctxsw"] = c1["ctxsw"] - c0["ctxsw"]
    # median over the run: a single sample moves with the time since the
    # last GC cycle, which is when evicted entries' mappings are unmapped
    res["server_rss_mb"] = statistics.median(pss or [pss_end])
    res["server_rss_end_mb"] = pss_end
    res["steal_frac"] = steal_frac(s0, s1)
    if scrape:
        res["scrape"] = {
            k: after_scrape[k] - before_scrape.get(k, 0.0)
            for k in after_scrape
            if isinstance(after_scrape[k], (int, float))
        }
        res["scrape_after"] = after_scrape
    return res


def measure(w, inputs, cpus, seconds, setups, attempts, **kw):
    """serve_run, repeated while the hypervisor stole more than STEAL_MAX
    of the measured window; the retries set up once each.  Returns the
    kept attempt (the first with little steal, else the one with least)
    with the set-ups of every attempt pooled into it, and all attempts."""
    tries = []
    for k in range(attempts):
        tries.append(serve_run(w, inputs, cpus, seconds, setups if k == 0 else 1, **kw))
        if tries[-1]["steal_frac"] <= STEAL_MAX:
            break
    kept = dict(min(tries, key=lambda r: r["steal_frac"]))
    kept["setup_times"] = [t for r in tries for t in r["setup_times"]]
    kept["setup_steal"] = [x for r in tries for x in r["setup_steal"]]
    kept["attempt_steal_frac"] = [round(r["steal_frac"], 5) for r in tries]
    return kept, tries


def scrape_counters(srv):
    """The server's own counters: the metrics block of
    /server-status?json, plus flash_http_requests_total from /metrics."""
    status = json.loads(srv.get("/server-status?json"))
    m = dict(status["metrics"])
    for line in srv.get("/metrics").splitlines():
        if line.startswith("flash_http_requests_total "):
            m["prom_requests_total"] = float(line.split()[1])
    return m


# ------------------------------------------------------------------ metrics


def is_void(res, rate):
    return res["late_p99_ms"] > VOID_LATE_P99_MS or res["backlog_max"] > VOID_BACKLOG_S * rate


def setup_s(res):
    """Median of the SETUPS set-ups with least steal (the first ones, on
    a tie)."""
    times, steal = res["setup_times"], res["setup_steal"]
    least = sorted(range(len(times)), key=lambda i: steal[i])[:SETUPS]
    return statistics.median(times[i] for i in least)


def e2e_metrics(res):
    ok = res["completed"]
    return {
        "cpu_us_per_req": 1e6 * res["server_cpu_s"] / max(ok, 1),
        "ok_frac": ok / res["attempted"],
        "setup_s": setup_s(res),
        "server_rss_mb": res["server_rss_mb"],
    }


def run_layers(w, inputs, n):
    out = subprocess.run(
        [
            os.path.join(BIN, LAYERS),
            "--inputs", inputs,
            "--mode", WORKLOADS[w]["mode"] or "amped",
            "--requests", str(n),
            "--fds", str(FDS_WATCHED[w]),
            "--spans", os.path.join(BUILD, f"spans-{w}.tsv"),
        ],
        capture_output=True,
        text=True,
        timeout=150,
    )
    if out.returncode != 0:
        log(out.stderr)
        raise RuntimeError("layers harness failed")
    return json.loads(out.stdout.strip().splitlines()[-1])


def layer_metrics(w, res, res_nt, lay):
    """Per-layer metrics: the harness's per-call costs, the server's
    scraped counters over the measured window, and the /proc totals."""
    ok = max(res["completed"], 1)
    sc = res["scrape"]
    m = {}
    per_req = lambda key: sc.get(key, 0.0) / ok
    lookups = sc.get("flash_cache_hits_total{cache=file}", 0.0) + sc.get(
        "flash_cache_misses_total{cache=file}", 0.0
    )
    m["http.parse_ns"] = lay["http.parse"]["mean_ns"]
    m["http.plan_ns"] = lay["http.plan"]["mean_ns"]
    m["file_cache.lookup_ns"] = lay["file_cache.lookup"]["mean_ns"]
    m["file_cache.hit_ratio"] = (
        sc.get("flash_cache_hits_total{cache=file}", 0.0) / lookups if lookups else 0.0
    )
    m["file_cache.map_ns"] = lay["file_cache.map"]["mean_ns"]
    m["file_cache.insert_ns"] = lay["file_cache.insert"]["mean_ns"]
    m["file_cache.evictions_per_req"] = per_req("flash_cache_evictions_total{cache=file}")
    m["file_cache.resident_mb"] = (
        res["scrape_after"].get("flash_cache_resident_bytes{cache=file}", 0.0) / 2**20
    )
    m["helper.jobs_per_req"] = per_req("flash_helper_jobs_total")
    m["helper.queue_wait_us"] = lay["helper.queue_wait"]["mean_ns"] / 1e3
    m["helper.disk_us"] = lay["helper.disk"]["mean_ns"] / 1e3
    m["helper.notify_us"] = lay["helper.notify"]["mean_ns"] / 1e3
    m["send.queue_ns"] = lay["send.queue"]["mean_ns"]
    m["send.writev_ns"] = lay["send.writev"]["mean_ns"]
    m["send.syscalls_per_req"] = per_req("flash_writev_calls_total") + per_req(
        "flash_write_calls_total"
    )
    m["send.copied_bytes_per_req"] = per_req("flash_bytes_copied_total")
    m["evio.wait_ns"] = lay["evio.wait"]["mean_ns"]
    m["evio.wakeups_per_req"] = per_req("flash_loop_wakeups_total")
    # MP children serve the scrape and run no event loop, so the loop
    # there is the parent's stats-consolidation loop: its CPU
    m["loop.work_us_per_req"] = 1e6 * (
        res["server_root_cpu_s"] / ok
        if WORKLOADS[w]["mode"]
        else per_req("flash_loop_work_seconds")
    )
    m["obs.record_ns"] = lay["obs.record"]["mean_ns"]
    m["obs.span_ns"] = lay["obs.span"]["mean_ns"]
    cpu = 1e6 * res["server_cpu_s"] / ok
    cpu_nt = 1e6 * res_nt["server_cpu_s"] / max(res_nt["completed"], 1)
    m["obs.trace_overhead_us"] = cpu - cpu_nt
    m["obs.count_ratio"] = sc.get("prom_requests_total", 0.0) / ok
    m["server.start_ms"] = lay["server.start_ms"]
    m["server.syscalls_per_req"] = res["server_syscalls"] / ok
    m["server.ctxsw_per_req"] = res["server_ctxsw"] / ok
    m["server.unattributed_us"] = cpu - lay["layer_sum_us_per_req"]
    m["lat_p50_ms"] = res["lat_p50_ms"]
    m["lat_p99_ms"] = res["lat_p99_ms"]
    m["gen.late_p99_ms"] = res["late_p99_ms"]
    m["gen.backlog_max"] = res["backlog_max"]
    return m


LAYER_UNITS = {
    "http.parse_ns": "ns",
    "http.plan_ns": "ns",
    "file_cache.lookup_ns": "ns",
    "file_cache.hit_ratio": "ratio",
    "file_cache.map_ns": "ns",
    "file_cache.insert_ns": "ns",
    "file_cache.evictions_per_req": "1/req",
    "file_cache.resident_mb": "MB",
    "helper.jobs_per_req": "1/req",
    "helper.queue_wait_us": "us",
    "helper.disk_us": "us",
    "helper.notify_us": "us",
    "send.queue_ns": "ns",
    "send.writev_ns": "ns",
    "send.syscalls_per_req": "1/req",
    "send.copied_bytes_per_req": "B/req",
    "evio.wait_ns": "ns",
    "evio.wakeups_per_req": "1/req",
    "loop.work_us_per_req": "us",
    "obs.record_ns": "ns",
    "obs.span_ns": "ns",
    "obs.trace_overhead_us": "us",
    "obs.count_ratio": "ratio",
    "server.start_ms": "ms",
    "server.syscalls_per_req": "1/req",
    "server.ctxsw_per_req": "1/req",
    "server.unattributed_us": "us",
    "lat_p50_ms": "ms",
    "lat_p99_ms": "ms",
    "gen.late_p99_ms": "ms",
    "gen.backlog_max": "count",
}


# ------------------------------------------------------------------ main


def make_inputs(w, seed, requests):
    """Seeded docroot and request stream; only the current one is kept."""
    root = os.path.join(BUILD, "inputs")
    name = f"{w}-{seed}-{requests}"
    d = os.path.join(root, name)
    if os.path.exists(os.path.join(d, "done")):
        return d
    if os.path.isdir(root):
        shutil.rmtree(root)
    os.makedirs(d)
    subprocess.run(
        [os.path.join(BIN, MKINPUT), "--workload", w, "--seed", str(seed),
         "--requests", str(requests), "--out", d],
        check=True,
    )
    # written back now, not during the set-ups that follow
    os.sync()
    open(os.path.join(d, "done"), "w").close()
    return d


def run_workload(w, seed, seconds, trace, cpus, nproc):
    """Measure one workload and print its record and metric lines.
    Returns the result object, or None when the run is void."""
    rate = WORKLOADS[w]["rate"]
    requests = int(math.ceil(rate * seconds))
    inputs = make_inputs(w, seed, requests)

    attempts = ATTEMPTS[trace]
    res, tries = measure(w, inputs, cpus, seconds, SETUPS, attempts, scrape=bool(trace))
    kept = [res]
    if trace:
        res_nt, tries_nt = measure(w, inputs, cpus, seconds, 1, attempts, no_trace=True)
        kept.append(res_nt)
        tries += tries_nt
        lay = run_layers(w, inputs, min(requests, 20000))

    # every attempt's responses count, kept or not
    failed = sum(r["failed"] + r["warm_failed"] for r in tries)
    attempted = sum(r["attempted"] for r in tries)
    void = [r for r in kept if is_void(r, rate)]

    record = {
        "workload": w,
        "seed": seed,
        "rate_per_s": rate,
        "seconds": seconds,
        "git_rev": git_rev(),
        "nproc": nproc,
        "steal_frac": [r["attempt_steal_frac"] for r in kept],
        "client": {k: v for k, v in res.items() if k not in ("scrape", "scrape_after")},
        "note": "docroot files stay in the page cache: misses cost a helper read "
        "from memory, not the paper's disk seek"
        + (
            "; in MP the scraped counters are one child's, so per-request "
            "figures taken from them undercount (see obs.count_ratio)"
            if WORKLOADS[w]["mode"]
            else ""
        ),
    }
    print("run " + json.dumps(record, sort_keys=True))
    e2e = e2e_metrics(res)
    for k, v in e2e.items():
        print(f"e2e {w} {k} = {v:.6g} {E2E_UNITS[k]}")
    print(f"e2e {w} lat_p50_ms = {res['lat_p50_ms']:.6g} ms")
    print(f"e2e {w} lat_p99_ms = {res['lat_p99_ms']:.6g} ms")
    print(f"e2e {w} fail_frac = {res['failed'] / res['attempted']:.6g} ratio")
    if trace:
        metrics, units = layer_metrics(w, res, res_nt, lay), LAYER_UNITS
        for k, v in metrics.items():
            print(f"layer {w} {k} = {v:.6g} {units[k]}")
        print("layer-spans " + json.dumps(lay, sort_keys=True))
    else:
        metrics, units = e2e, E2E_UNITS
    for r in void:
        print(
            f"VOID: the generator fell behind (late_p99 {r['late_p99_ms']:.3f} ms, "
            f"backlog_max {r['backlog_max']}); no result"
        )
    if void:
        return None
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]

    build([SERVE, LOADGEN, MKINPUT] + ([LAYERS] if args.trace else []))
    allowed = sorted(os.sched_getaffinity(0))
    cpus = (allowed[0], allowed[1]) if len(allowed) >= 2 else (allowed[0], allowed[0])
    os.sched_setaffinity(0, {cpus[1]})

    results = {
        w: run_workload(w, args.seed, args.seconds, args.trace, cpus, len(allowed))
        for w in names
    }
    if None in results.values():
        sys.exit(3)
    # one workload: its result object; "all": one object per workload
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    sys.exit(0 if all(r["correct"] for r in results.values()) else 1)


if __name__ == "__main__":
    main()

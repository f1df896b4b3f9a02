#!/usr/bin/env python3
"""Repository benchmark: tune-gpu, tune-jit and serve-zipf.

Builds the library and ``perfbench_worker`` from source (CMake, Release,
under ``.bench_build/``), runs one workload for a fixed time and prints,
as the last line of standard output, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
BENCHMARK.json, measured with tracing off; with ``--trace 1`` they are
the per-layer metrics, from a traced run (see README.md in this
directory for what each metric means on each workload). The line before
it records the run's environment: git sha, nproc, compiler, build type,
parallelism, seed and the variables the benchmark set.

Usage:
    python3 perfbench/run.py --workload tune-gpu --seed 1 --seconds 30 \\
        --trace 0 [--smoke]
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORKER = BUILD_DIR / "perfbench_worker"

WORKLOADS = ("tune-gpu", "tune-jit", "serve-zipf")
# Every tune runs its search on this many threads (perfbench_worker's
# kTuneParallelism); serve-zipf runs 2 clients and 2 tune workers.
TUNE_PARALLELISM = 1
# A tune run repeats passes until --seconds have passed and at least
# this many are done (one in smoke mode): a tune-jit pass takes 11-15 s,
# and its per-task means over two passes spread a fifth more from run
# to run than over three.
MIN_TUNE_PASSES = 3
# Set-up-only worker starts per run, on top of the set-up of every
# worker that does timed work, so set-up is a median of several.
SETUP_SAMPLES = 8
# A worker still running this long after the run began is killed (and
# its task counted as failed), so a run always ends within 180 s.
HARD_LIMIT_S = 165.0

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "tune_s": "s",
    "model_us": "us",
    "req_per_s": "1/s",
    "query_p50_us": "us",
    "query_p99_us": "us",
    "miss_first_p50_ms": "ms",
    "miss_first_p75_ms": "ms",
}

PER_LAYER = {
    "meta.search.generate_s": "s",
    "meta.search.evaluate_s": "s",
    "meta.search.model_s": "s",
    "meta.search.reduce_s": "s",
    "meta.search.measure_s": "s",
    "meta.search.trials": "count",
    "meta.search.rejected": "count",
    "meta.search.memo_hits": "count",
    "meta.search.valid_ratio": "ratio",
    "tir.replay_us": "us",
    "tir.verify_us": "us",
    "tir.analysis_us": "us",
    "ir.structural_hash_us": "us",
    "hwsim.estimate_us": "us",
    "meta.features_us": "us",
    "meta.gbdt.fit_ms": "ms",
    "meta.gbdt.predict_us": "us",
    "support.thread_pool.cpu_per_wall": "s/s",
    "lower.to_loops_us": "us",
    "codegen.emit_us": "us",
    "codegen.c_bytes": "bytes",
    "runtime.jit.compile_ms": "ms",
    "runtime.jit.compiles": "count",
    "runtime.jit.cache_hits": "count",
    "runtime.jit.run_us": "us",
    "meta.measure.isolated_ms": "ms",
    "meta.measure.failures": "count",
    "meta.journal.bytes": "bytes",
    "meta.journal.resume_ms": "ms",
    "serve.hot_hits": "count",
    "serve.shard_hits": "count",
    "serve.misses": "count",
    "serve.coalesced": "count",
    "serve.tunes_started": "count",
    "serve.records_streamed": "count",
    "serve.hit_ratio": "ratio",
    "serve.tune_ms": "ms",
    "support.thread_pool.pending_max": "count",
    "serve.record_mismatches": "count",
    "trace.overhead_pct": "%",
}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure and build the worker; raises on failure. The
    compiler's temporary files stay inside the checkout too."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    configured = any((BUILD_DIR / f).exists()
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target",
                    "perfbench_worker", "-j", "4"],
                   check=True, stdout=sys.stderr, env=env)


def cmake_cache(key):
    try:
        for line in (BUILD_DIR / "CMakeCache.txt").read_text().splitlines():
            if line.startswith(key + ":"):
                return line.split("=", 1)[1]
    except OSError:
        pass
    return ""


def source_identity():
    """git sha when the checkout is a repository, else a digest of the
    library and benchmark sources."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return {"git_sha": out.stdout.strip()}
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return {"git_sha": None, "source_sha1": digest.hexdigest()}


def compiler_version():
    cxx = cmake_cache("CMAKE_CXX_COMPILER") or "c++"
    try:
        out = subprocess.run([cxx, "--version"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.splitlines()[0] if out.stdout else cxx
    except (OSError, subprocess.SubprocessError, IndexError):
        return cxx


# What every worker's environment differs in from run.py's own.
ENV_SET = {"TENSORIR_JIT_CACHE": "<run>/jit-cache-<n>, empty",
           "TMPDIR": "<run>/tmp",
           "unset": "every other TENSORIR_* variable"}


class RunDir:
    """Scratch space of one run inside the checkout: a fresh JIT cache
    and journal directory per worker process, all removed at the end."""

    def __init__(self):
        self.path = ROOT / ".bench_build" / f"run-{os.getpid()}"
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        (self.path / "tmp").mkdir()
        self.count = 0

    def worker_env(self):
        """Environment of the next worker: every TENSORIR_* variable
        unset except an empty JIT cache of its own."""
        self.count += 1
        cache = self.path / f"jit-cache-{self.count}"
        journal = self.path / f"journal-{self.count}"
        cache.mkdir()
        journal.mkdir()
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("TENSORIR_")}
        env["TENSORIR_JIT_CACHE"] = str(cache)
        env["TMPDIR"] = str(self.path / "tmp")
        return env, journal

    def remove(self):
        shutil.rmtree(self.path, ignore_errors=True)


class Worker:
    """One perfbench_worker process; yields its JSON lines with their
    arrival times and records how it ended."""

    def __init__(self, argv, env, deadline):
        self.start = time.monotonic()
        # A process group of its own, so that whatever the worker
        # leaves behind when it dies can be killed with it.
        self.proc = subprocess.Popen([str(WORKER)] + argv, env=env,
                                     stdout=subprocess.PIPE, text=True,
                                     cwd=str(ROOT), start_new_session=True)
        self.killed = False
        self.timer = threading.Timer(max(1.0, deadline - self.start),
                                     self._kill)
        self.timer.start()
        self.rss_kb = 0
        self.cpu_s = 0.0

    def _kill(self):
        self.killed = True
        self.proc.kill()

    def lines(self):
        for raw in self.proc.stdout:
            now = time.monotonic()
            try:
                yield now, json.loads(raw)
            except json.JSONDecodeError:
                log(f"worker printed a non-JSON line: {raw.strip()}")

    def finish(self):
        """Reap the worker; True when it exited normally with 0."""
        self.timer.cancel()
        self.proc.stdout.close()
        _, status, usage = os.wait4(self.proc.pid, 0)
        code = os.waitstatus_to_exitcode(status)
        self.proc.returncode = code
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        # Both cover the worker and every descendant it waited for
        # (isolated measurement workers, the C compiler).
        self.rss_kb = usage.ru_maxrss
        self.cpu_s = usage.ru_utime + usage.ru_stime
        if code < 0:
            log(f"worker died by signal {-code}")
        elif code != 0:
            log(f"worker exited with {code}")
        return code == 0 and not self.killed


class Collector:
    """What every worker of one run reported."""

    def __init__(self):
        self.setup = []
        self.rss_kb = 0
        self.attempted = 0
        self.failed = 0
        self.failed_checks = []

    def check(self, ok, name):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failed_checks.append(name)

    def reap(self, worker):
        ok = worker.finish()
        self.rss_kb = max(self.rss_kb, worker.rss_kb)
        return ok


def setup_only(argv, rundir, col, deadline):
    for _ in range(SETUP_SAMPLES):
        env, journal = rundir.worker_env()
        w = Worker(argv + ["--journal-dir", str(journal), "--setup-only"],
                   env, deadline)
        for _, msg in w.lines():
            if msg.get("event") == "ready":
                col.setup.append(msg["setup_s"])
        if not col.reap(w):
            raise RuntimeError("set-up-only worker failed")


# --------------------------------------------------------------------
# tune-gpu / tune-jit
# --------------------------------------------------------------------


def tune_pass(args, rundir, col, deadline, trace, spans, index):
    """Tune every task once, in workers that report task by task. A
    worker that dies marks its current task failed; the pass continues
    with the next task in a fresh worker. Returns one entry per task:
    the worker's "task" record, or {"failed": True, ...} with the CPU
    the task used before it died and its last streamed best latency."""
    results = {}
    n_tasks = None
    first = 0
    while n_tasks is None or first < n_tasks:
        env, journal = rundir.worker_env()
        argv = ["tune", "--workload", args.workload, "--seed",
                str(args.seed), "--pass", str(index), "--first", str(first),
                "--trace", "1" if trace else "0",
                "--smoke", "1" if args.smoke else "0",
                "--journal-dir", str(journal),
                "--ref-dir", str(rundir.path)]
        if spans:
            argv += ["--spans", str(spans)]
        if args.crash_task is not None:
            argv += ["--crash-task", str(args.crash_task)]
        w = Worker(argv, env, deadline)
        current = first
        cpu_before = 0.0
        first_cpu = None
        last_best = None
        for _, msg in w.lines():
            event = msg.get("event")
            if event == "ready":
                col.setup.append(msg["setup_s"])
                n_tasks = msg["tasks"]
                counts = msg["counts"]
                cpu_before = msg["worker_cpu_s"]
            elif event == "progress":
                if first_cpu is None:
                    first_cpu = msg["work_cpu_s"]
                last_best = msg.get("best_us")
            elif event == "task":
                results[msg["index"]] = msg
                current = msg["index"] + 1
                cpu_before = msg["worker_cpu_s"]
                first_cpu, last_best = None, None
        if col.reap(w):
            break
        if n_tasks is None:
            raise RuntimeError("tune worker failed during set-up")
        if current < n_tasks:
            results[current] = {
                "failed": True, "index": current,
                "count": counts[current],
                "ran_cpu_s": max(0.0, w.cpu_s - cpu_before),
                "first_cpu_s": first_cpu, "last_best_us": last_best}
        first = current + 1
    return [results[i] for i in range(n_tasks)]


def charge_failures(passes):
    """Fill in work_cpu_s / first_cpu_s / sim_us for failed tasks so that
    a failure never reads better than a success: a failed task costs the
    CPU it used before dying plus the costliest successful tune of the
    same task in this run (the costliest of any task when it never
    succeeded), and its winner is the same task's worst successful
    winner, else the last best it streamed, else the worst winner of the
    run."""
    ok = [t for p in passes for t in p if not t.get("failed")]
    costliest_any = max((t["work_cpu_s"] for t in ok), default=0.0)
    costliest_first_any = max((t["first_cpu_s"] for t in ok), default=0.0)
    worst_any = max((t["sim_us"] for t in ok), default=0.0)
    for p in passes:
        for i, t in enumerate(p):
            if not t.get("failed") or "work_cpu_s" in t:
                continue
            same = [q[i] for q in passes if not q[i].get("failed")]
            cost = max((s["work_cpu_s"] for s in same),
                       default=costliest_any)
            first = max((s["first_cpu_s"] for s in same),
                        default=costliest_first_any)
            t["work_cpu_s"] = t["ran_cpu_s"] + cost
            t["first_cpu_s"] = (t["first_cpu_s"]
                                if t["first_cpu_s"] is not None
                                else t["ran_cpu_s"] + first)
            if same:
                t["sim_us"] = max(s["sim_us"] for s in same)
            elif t["last_best_us"] is not None:
                t["sim_us"] = t["last_best_us"]
            else:
                t["sim_us"] = worst_any


def pass_totals(tasks):
    tune_s = sum(t["work_cpu_s"] for t in tasks)
    model_us = sum(t["sim_us"] * t["count"] for t in tasks)
    return tune_s, model_us


def percentile(values, q):
    """Percentile with linear interpolation between ranks."""
    values = sorted(values)
    pos = q * (len(values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def tune_end_to_end(passes, col, deterministic):
    """Each task's centre over the passes, then totals and percentiles
    over the tasks. On a deterministic workload every pass repeats the
    same work, and the centre is the median, which a pass slowed by
    other load on the host does not move. Where host timings steer the
    search every pass is a different trajectory, and the centre is the
    mean, the expected cost of one tune; a median of three such passes
    spreads about a quarter more from run to run. A failed task is
    charged so that it never lowers its centre (charge_failures).
    Times are CPU seconds of the worker and the processes it waited for:
    this host's virtual CPUs lose up to a fifth of their time to the
    hypervisor in bursts lasting minutes, which moves wall time of the
    same work by up to 1.7x."""
    charge_failures(passes)
    centre = statistics.median if deterministic else statistics.fmean
    per_task = list(zip(*passes))
    cost = [centre(t["work_cpu_s"] for t in ts) for ts in per_task]
    first = [centre(t["first_cpu_s"] for t in ts) for ts in per_task]
    tune_s = sum(cost)
    return {
        "setup_s": statistics.median(col.setup),
        "peak_rss_mb": col.rss_kb / 1024.0,
        "tune_s": tune_s,
        "model_us": sum(centre(t["sim_us"] * t["count"] for t in ts)
                        for ts in per_task),
        "req_per_s": len(per_task) / tune_s,
        "query_p50_us": 1e6 * percentile(cost, 0.50),
        "query_p99_us": 1e6 * percentile(cost, 0.99),
        "miss_first_p50_ms": 1e3 * percentile(first, 0.50),
        "miss_first_p75_ms": 1e3 * percentile(first, 0.75),
    }


def tune_checks(passes, col, deterministic):
    for p in passes:
        for t in p:
            col.attempted += 1  # the tune itself
            if t.get("failed"):
                col.failed += 1
                continue
            col.attempted += t["checks"]
            col.failed += len(t["failed_checks"])
            col.failed_checks += t["failed_checks"]
    if deterministic and len(passes) > 1:
        # The analytical backend is deterministic: every pass must pick
        # bit-identical winners.
        for i in range(len(passes[0])):
            bits = {p[i]["latency_bits"] for p in passes
                    if not p[i].get("failed")}
            col.check(len(bits) <= 1, f"model_us_repeat_task{i}")


def layer_mean(layers, name, scale):
    count, self_s = layers.get(name, (0, 0.0))
    return scale * self_s / count if count else 0.0


def merge_layers(records):
    out = {}
    for rec in records:
        for name, (count, self_s) in rec.get("layers", {}).items():
            c, s = out.get(name, (0, 0.0))
            out[name] = (c + count, s + self_s)
    return out


def tune_per_layer(traced, untraced):
    ok = [t for t in traced if not t.get("failed")]
    layers = merge_layers(ok)
    trials = sum(t["trials"] for t in ok)
    rejected = sum(t["rejected"] for t in ok)
    runs = [u for t in ok for u in t.get("winner_run_us", [])]
    resumes = [t["resume_s"] for t in ok if t.get("journal_bytes")]
    isolated = [t["isolated_ms"] for t in ok if t.get("winner_run_us")]
    c_sources = sum(t.get("c_sources", 0) for t in ok)
    wall = sum(t["wall_s"] for t in ok)
    # Layers a tune workload does not call (serve) read 0.
    m = {name: 0.0 for name in PER_LAYER}
    m.update({
        "meta.search.generate_s": sum(t["generate_s"] for t in ok),
        "meta.search.evaluate_s": sum(t["evaluate_s"] for t in ok),
        "meta.search.model_s": sum(t["model_s"] for t in ok),
        "meta.search.reduce_s": sum(t["reduce_s"] for t in ok),
        "meta.search.measure_s": sum(t["measure_s"] for t in ok),
        "meta.search.trials": trials,
        "meta.search.rejected": rejected,
        "meta.search.memo_hits": sum(t["memo_hits"] for t in ok),
        "meta.search.valid_ratio":
            sum(t["measured_valid"] for t in ok) / max(1, trials + rejected),
        "tir.replay_us": layer_mean(layers, "tir.replay", 1e6),
        "tir.verify_us": layer_mean(layers, "tir.verify", 1e6),
        "tir.analysis_us": layer_mean(layers, "tir.analysis", 1e6),
        "ir.structural_hash_us":
            layer_mean(layers, "ir.structural_hash", 1e6),
        "hwsim.estimate_us": layer_mean(layers, "hwsim.estimate", 1e6),
        "meta.features_us": layer_mean(layers, "meta.features", 1e6),
        "meta.gbdt.fit_ms": layer_mean(layers, "meta.gbdt.fit", 1e3),
        "meta.gbdt.predict_us": layer_mean(layers, "meta.gbdt.predict", 1e6),
        "support.thread_pool.cpu_per_wall":
            sum(t["cpu_s"] for t in ok) / wall if wall else 0.0,
        "lower.to_loops_us": layer_mean(layers, "lower.to_loops", 1e6),
        "codegen.emit_us": layer_mean(layers, "codegen.emit", 1e6),
        "codegen.c_bytes":
            sum(t.get("c_bytes", 0) for t in ok) / c_sources
            if c_sources else 0.0,
        "runtime.jit.compile_ms":
            layer_mean(layers, "runtime.jit.compile", 1e3),
        "runtime.jit.compiles": sum(t["jit_compiles"] for t in ok),
        "runtime.jit.cache_hits": sum(t["jit_cache_hits"] for t in ok),
        "runtime.jit.run_us":
            math.exp(statistics.fmean(math.log(u) for u in runs))
            if runs else 0.0,
        "meta.measure.isolated_ms":
            statistics.fmean(isolated) if isolated else 0.0,
        "meta.measure.failures": sum(t["measure_failures"] for t in ok),
        "meta.journal.bytes": sum(t.get("journal_bytes", 0) for t in ok),
        "meta.journal.resume_ms":
            1e3 * statistics.fmean(resumes) if resumes else 0.0,
    })
    traced_s, _ = pass_totals(traced)
    untraced_s, _ = pass_totals(untraced)
    m["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
    return m


def run_tune(args, rundir, col, deadline):
    argv = ["tune", "--workload", args.workload, "--seed", str(args.seed),
            "--smoke", "1" if args.smoke else "0"]
    setup_only(argv, rundir, col, deadline)
    deterministic = args.workload == "tune-gpu"
    if args.trace:
        spans = ROOT / ".bench_build" / f"spans-{args.workload}.csv"
        spans.unlink(missing_ok=True)
        untraced = tune_pass(args, rundir, col, deadline, False, None, 0)
        traced = tune_pass(args, rundir, col, deadline, True, spans, 0)
        passes = [untraced, traced]
        tune_checks(passes, col, deterministic)
        charge_failures(passes)
        if deterministic:
            col.check(pass_totals(untraced)[1] == pass_totals(traced)[1],
                      "model_us_traced_equals_untraced")
        return tune_per_layer(traced, untraced)
    passes = []
    min_passes = 1 if args.smoke else MIN_TUNE_PASSES
    start = time.monotonic()
    while len(passes) < min_passes or time.monotonic() - start < args.seconds:
        passes.append(tune_pass(args, rundir, col, deadline, False, None,
                                len(passes)))
    tune_checks(passes, col, deterministic)
    return tune_end_to_end(passes, col, deterministic)


# --------------------------------------------------------------------
# serve-zipf
# --------------------------------------------------------------------


def serve_rounds(args, rundir, col, deadline, trace, seconds, spans=None):
    """Closed-loop rounds, each in a fresh worker with a fresh server,
    until `seconds` have passed (at least one). A worker that dies counts
    its round as failed."""
    done = []
    start = time.monotonic()
    index = 0
    while True:
        env, _ = rundir.worker_env()
        argv = ["serve", "--seed", str(args.seed), "--pass", str(index),
                "--trace", "1" if trace else "0",
                "--smoke", "1" if args.smoke else "0"]
        if spans:
            argv += ["--spans", str(spans)]
        w = Worker(argv, env, deadline)
        for _, msg in w.lines():
            if msg.get("event") == "ready":
                col.setup.append(msg["setup_s"])
            elif msg.get("event") == "round":
                done.append(msg)
        if not col.reap(w):
            col.attempted += 1
            col.failed += 1
        index += 1
        now = time.monotonic()
        if (now - start >= seconds and done) or now >= deadline:
            return done


def serve_checks(rounds, col):
    for r in rounds:
        col.attempted += r["requests"] + r["checks"]
        col.failed += r["requests"] - r["answered"]
        col.failed += len(r["failed_checks"])
        col.failed_checks += r["failed_checks"]


def served_model_us(r):
    """Geometric mean simulated latency of the schedules a round ended
    up serving, over the requested workloads."""
    return math.exp(statistics.fmean(math.log(u) for u in r["served_us"]))


def run_serve(args, rundir, col, deadline):
    argv = ["serve", "--seed", str(args.seed),
            "--smoke", "1" if args.smoke else "0"]
    setup_only(argv, rundir, col, deadline)
    if args.trace:
        spans = ROOT / ".bench_build" / "spans-serve-zipf.csv"
        spans.unlink(missing_ok=True)
        untraced = serve_rounds(args, rundir, col, deadline, False, 0)
        traced = serve_rounds(args, rundir, col, deadline, True, 0, spans)
        serve_checks(untraced + traced, col)
        if not untraced or not traced:
            raise RuntimeError("serve worker produced no round")
        u, t = untraced[0], traced[0]
        layers = t.get("layers", {})
        queries = t["requests"]
        m = {name: 0.0 for name in PER_LAYER}
        m.update({
            "tir.replay_us": layer_mean(layers, "tir.replay", 1e6),
            "ir.structural_hash_us":
                layer_mean(layers, "ir.structural_hash", 1e6),
            "hwsim.estimate_us": layer_mean(layers, "hwsim.estimate", 1e6),
            "serve.hot_hits": t["hot_hits"],
            "serve.shard_hits": t["shard_hits"],
            "serve.misses": t["misses"],
            "serve.coalesced": t["coalesced"],
            "serve.tunes_started": t["tunes_started"],
            "serve.records_streamed": t["records_streamed"],
            "serve.hit_ratio": (t["hot_hits"] + t["shard_hits"]) / queries,
            "serve.tune_ms": statistics.median(t["tune_ms"])
            if t["tune_ms"] else 0.0,
            "support.thread_pool.pending_max": t["pending_max"],
            "serve.record_mismatches":
                sum(a != b for a, b in zip(u["served_us"], t["served_us"]))
                + abs(len(u["served_us"]) - len(t["served_us"])),
            "trace.overhead_pct": 100.0 * (t["client_wall_s"] -
                                           u["client_wall_s"])
            / u["client_wall_s"],
        })
        return m
    rounds = serve_rounds(args, rundir, col, deadline, False, args.seconds)
    if not rounds:
        raise RuntimeError("serve worker produced no round")
    serve_checks(rounds, col)
    firsts = [f for r in rounds for f in r["first_ms"]]
    return {
        "setup_s": statistics.median(col.setup),
        "peak_rss_mb": col.rss_kb / 1024.0,
        "tune_s": statistics.median(r["tune_s"] for r in rounds),
        # A mean: one tuning seed moves every workload's schedule, so
        # the rounds' values cluster by seed and a median would jump.
        "model_us": statistics.fmean(served_model_us(r) for r in rounds),
        "req_per_s": statistics.median(r["requests"] / r["client_wall_s"]
                                       for r in rounds),
        "query_p50_us": statistics.median(r["query_p50_us"] for r in rounds),
        "query_p99_us": statistics.median(r["query_p99_us"] for r in rounds),
        "miss_first_p50_ms": percentile(firsts, 0.50),
        "miss_first_p75_ms": percentile(firsts, 0.75),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for perfbench/smoke_test.py")
    parser.add_argument("--crash-task", type=int, default=None,
                        help="for perfbench/smoke_test.py: every tune "
                             "worker kills itself with SIGSEGV when it "
                             "starts this task")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    build()
    began = time.monotonic()
    deadline = began + HARD_LIMIT_S
    rundir = RunDir()
    col = Collector()
    try:
        if args.workload == "serve-zipf":
            metrics = run_serve(args, rundir, col, deadline)
        else:
            metrics = run_tune(args, rundir, col, deadline)
    finally:
        rundir.remove()

    names = PER_LAYER if args.trace else END_TO_END
    info = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        **source_identity(),
        "nproc": os.cpu_count(),
        "compiler": compiler_version(),
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "parallelism": TUNE_PARALLELISM,
        "env_set": ENV_SET,
        "setup_samples": len(col.setup),
        "failed_checks": col.failed_checks,
        "wall_s": time.monotonic() - began,
    }
    print(json.dumps({"perfbench": info}))
    result = {
        "correct": not col.failed_checks,
        "attempted": col.attempted,
        "failed": col.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in names.items()},
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()

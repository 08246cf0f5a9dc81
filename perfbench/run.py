#!/usr/bin/env python3
"""The apex benchmark: one command, three workloads, end to end and per layer.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds `apex-cli` and the benchmark's
own harness (`perfbench/harness`) in release mode, generates the
workload's suite document from the seed, and then:

* `--trace 0` times real `apex suite run` child processes (a cold run into
  an empty store, then `--cached` reruns of it) until `--seconds` have
  passed, and reports every end-to-end metric of BENCHMARK.json as the
  median over those runs;
* `--trace 1` runs the same suite dark through the CLI and through the
  harness, which calls each layer's public functions with a span around
  every call, and reports every per-layer metric.

Both modes check the outputs: every cell verified ok, every pinned output
matched, `apex lab fsck` clean, every cached lookup a hit, and (traced)
the harness store byte-identical to the CLI store. The last line of
stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`; the exit code is non-zero when any check failed. See
perfbench/README.md for what each metric means and why each workload
exists.
"""

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_ROOT = os.path.join(ROOT, ".bench_runs")

# Runner threads and interpreter engine of each workload (README.md says
# why). The host has 2 cores; no workload asks for more runner threads.
WORKLOADS = {
    "campaign-small": {"threads": 2, "engine": None},
    "program-bursty": {"threads": 1, "engine": "bytecode"},
    "program-interleaved": {"threads": 1, "engine": "bytecode"},
}
# Set-up is timed this many times per run; setup_s is the median.
SETUP_REPEATS = 21
# Each timed iteration repeats the cached rerun until this much wall time
# has passed: a cached rerun of a few dozen cells takes milliseconds.
CACHED_MIN_S = 0.5
# The timed phase runs at least this many cold + cached pairs.
MIN_DARK_ITERATIONS = 3
# Wall-clock limit for one run once the build is done.
RUN_LIMIT_S = 170

CELL_LINE = re.compile(r"^\s+\[\s*\d+\] (ok  |FAIL) ")
CACHE_LINE = re.compile(r"cache: (\d+) hits, (\d+) misses, (\d+) rejected")
EXECUTED_LINE = re.compile(r"\((\d+) resumed from store, (\d+) executed\)")
EXPAND_LINE = re.compile(r"expands to (\d+) cells")

_current = None  # the child process being waited for, if any


class BenchError(Exception):
    """A set-up step failed: no result can be printed."""


def log(msg):
    print(msg, flush=True)


def on_alarm(_sig, _frame):
    if _current is not None and _current.poll() is None:
        _current.kill()
        _current.wait()
    print("perfbench: run exceeded its time limit", file=sys.stderr)
    os._exit(3)


def child(argv, out_path):
    """Run `argv` from the checkout root with stdout and stderr in
    `out_path`. Returns (exit code, wall seconds, rusage of the child)."""
    global _current
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        _current = subprocess.Popen(argv, cwd=ROOT, stdout=out, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(_current.pid, 0)
        wall = time.perf_counter() - start
    _current.returncode = os.waitstatus_to_exitcode(status)
    code, _current = _current.returncode, None
    return code, wall, usage


def read(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


def build():
    """Build the CLI and the harness in release mode; return their paths."""
    for needed in ("Cargo.toml", os.path.join("crates", "cli", "Cargo.toml")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise BenchError(f"{needed} not found: run from the root of an apex checkout")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for argv in (
        # `cargo build --release` alone builds only the root package and
        # leaves a stale apex binary; name the CLI package.
        ["cargo", "build", "--offline", "--release", "-q", "-p", "apex-cli"],
        ["cargo", "build", "--offline", "--release", "-q",
         "--manifest-path", os.path.join("perfbench", "harness", "Cargo.toml")],
    ):
        if subprocess.run(argv, cwd=ROOT, env=env).returncode != 0:
            raise BenchError("build failed: " + " ".join(argv))
    release = os.path.join(target, "release")
    return os.path.join(release, "apex"), os.path.join(release, "apex-perfbench")


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def setup(harness, apex, workload, seed, work, repeats):
    """Generate the suite and parse/validate/expand it through the CLI,
    `repeats` timed times. Returns (suite path, cell count, set-up seconds)."""
    suite = os.path.join(work, "suite.json")
    times, cells = [], None
    for _ in range(repeats + 1):
        start = time.perf_counter()
        gen = subprocess.run([harness, "gen", "--workload", workload, "--seed", str(seed),
                              "--out", suite], cwd=ROOT)
        code, _, _ = child([apex, "suite", "expand", suite], os.path.join(work, "expand.out"))
        times.append(time.perf_counter() - start)
        if gen.returncode != 0 or code != 0:
            raise BenchError(f"set-up failed for {workload} seed {seed}")
        match = EXPAND_LINE.search(read(os.path.join(work, "expand.out")))
        if not match:
            raise BenchError("`apex suite expand` printed no cell count")
        cells = int(match.group(1))
    # The first round loads the binaries into the page cache: untimed.
    return suite, cells, times[1:]


def suite_run(apex, suite, store, cfg, extra, out):
    argv = [apex, "suite", "run", suite, "--store", store, "--threads", str(cfg["threads"])]
    if cfg["engine"]:
        argv += ["--engine", cfg["engine"]]
    return child(argv + extra, out)


def settle():
    """Write back every dirty page before a timed child starts, so it does
    not pay for the previous child's writes (or their deletion)."""
    os.sync()


def cold_run(apex, suite, store, cfg, out):
    """One cold `apex suite run` into a new store, with its checks. Stores
    are removed only after the timed phase: deleting a thousand files
    between timed runs slows the next run's fsyncs."""
    settle()
    code, wall, usage = suite_run(apex, suite, store, cfg, [], out)
    text = read(out)
    verdicts = [m.group(1) for m in map(CELL_LINE.match, text.splitlines()) if m]
    failed = verdicts.count("FAIL") + text.count("output assertion FAILED")
    return {
        "code": code,
        "wall": wall,
        "cells": len(verdicts),
        "failed": failed,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "cpu": usage.ru_utime + usage.ru_stime,
    }


def cached_run(apex, suite, store, cfg, out):
    """The `--cached` rerun of a stored suite: every cell must be a
    verified hit and none executed."""
    settle()
    code, wall, _ = suite_run(apex, suite, store, cfg, ["--cached"], out)
    text = read(out)
    match = CACHE_LINE.search(text)
    hits, misses, rejected = map(int, match.groups()) if match else (0, 0, 0)
    executed = EXECUTED_LINE.search(text)
    if executed is None or executed.group(2) != "0":
        code = code or 1  # a cached rerun that executes a cell is a failed check
    return {"code": code, "wall": wall, "hits": hits, "misses": misses, "rejected": rejected}


def store_facts(apex, store, work):
    """fsck the store, then read counts from its records: simulated ticks
    and work, cells, and the manifest checksum."""
    code, _, _ = child([apex, "lab", "fsck", "--store", store], os.path.join(work, "fsck.out"))
    (suite_dir,) = [d for d in os.listdir(store) if os.path.isdir(os.path.join(store, d))]
    base = os.path.join(store, suite_dir)
    manifest = json.loads(read(os.path.join(base, "manifest.json")))
    ticks = work_units = 0
    for row in manifest["cells"]:
        if row["checksum"] is None:
            continue  # no record: the cell's failure is counted from its verdict line
        report = json.loads(read(os.path.join(base, row["digest"] + ".json")))["report"]
        if report["kind"] == "scheme":
            ticks += report["scheme"]["ticks"]
            work_units += report["scheme"]["total_work"]
        else:
            agreement = report["agreement"]
            ticks += agreement["ticks"]
            work_units += max((o["advance_work"] or 0 for o in agreement["outcomes"]), default=0)
    return {
        "fsck_ok": code == 0,
        "ticks": ticks,
        "work": work_units,
        "cells": len(manifest["cells"]),
        "checksum": manifest["checksum"],
        "dir": base,
    }


def manifest_checksum(store):
    for d in os.listdir(store):
        path = os.path.join(store, d, "manifest.json")
        if os.path.exists(path):
            return json.loads(read(path))["checksum"]
    return None


def same_store(a, b):
    """Number of record/manifest files that differ between two suite
    directories (telemetry sidecars excluded)."""
    def keep(d):
        return {f for f in os.listdir(d) if f.endswith(".json") and not f.startswith(
            ("cache-stats", "exec-stats", "metrics"))}

    names_a, names_b = keep(a), keep(b)
    differ = len(names_a ^ names_b)
    for name in names_a & names_b:
        with open(os.path.join(a, name), "rb") as fa, open(os.path.join(b, name), "rb") as fb:
            differ += fa.read() != fb.read()
    return differ


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def report(name, values, unit):
    med = statistics.median(values)
    q1, q3 = quartiles(values)
    log(f"  {name:<28} {med:>16.6g} {unit:<6} (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")
    return med


def iteration(apex, suite, cells, cfg, store, work):
    """A cold run into `store`, then `--cached` reruns of it for at least
    CACHED_MIN_S. Returns (cold run, cached rates, attempted, failed)."""
    cold = cold_run(apex, suite, store, cfg, os.path.join(work, "cold.out"))
    attempted = cells
    failed = cold["failed"] + (cells - cold["cells"]) + int(cold["code"] != 0)
    rates, cached_wall = [], 0.0
    while cached_wall < CACHED_MIN_S:
        rerun = cached_run(apex, suite, store, cfg, os.path.join(work, "cached.out"))
        attempted += cells
        failed += rerun["misses"] + rerun["rejected"] + (cells - rerun["hits"])
        failed += int(rerun["code"] != 0)
        cached_wall += rerun["wall"]
        rates.append(rerun["hits"] / rerun["wall"])
    return cold, rates, attempted, failed


def dark(apex, harness, workload, seed, seconds, work):
    cfg = WORKLOADS[workload]
    suite, cells, setup_times = setup(harness, apex, workload, seed, work, SETUP_REPEATS)
    # An untimed first iteration warms the page cache and the host, and
    # its store is the one verified in full.
    store = os.path.join(work, "stores", "warm-up")
    _, _, attempted, failed = iteration(apex, suite, cells, cfg, store, work)
    facts = store_facts(apex, store, work)
    failed += int(not facts["fsck_ok"]) + int(facts["cells"] != cells)
    runs = []
    deadline = time.perf_counter() + seconds
    while len(runs) < MIN_DARK_ITERATIONS or time.perf_counter() < deadline:
        store = os.path.join(work, "stores", str(len(runs)))
        cold, rates, tried, bad = iteration(apex, suite, cells, cfg, store, work)
        # The same suite must store the same bytes every time.
        bad += int(manifest_checksum(store) != facts["checksum"])
        attempted, failed = attempted + tried, failed + bad
        runs.append((cold, rates))

    log(f"workload {workload} seed {seed}: {cells} cells, {len(runs)} timed iterations "
        f"(a cold run, then cached reruns for >= {CACHED_MIN_S} s), "
        f"{cfg['threads']} runner thread(s), engine {cfg['engine'] or 'tree'}, "
        f"nproc {os.cpu_count()}")
    log(f"  sim.ticks {facts['ticks']}  sim.work {facts['work']}  "
        f"manifest checksum {facts['checksum']}")
    metrics = {
        "cells_per_s": [cells / c["wall"] for c, _ in runs],
        "ticks_per_s": [facts["ticks"] / c["wall"] for c, _ in runs],
        "cached_cells_per_s": [rate for _, rates in runs for rate in rates],
        "setup_s": setup_times,
        "peak_rss_mb": [c["rss_mb"] for c, _ in runs],
    }
    log(f"  {'failed_frac':<28} {failed / attempted:>16.6g} ratio  ({failed} of {attempted})")
    return metrics, attempted, failed


def traced(apex, harness, workload, seed, seconds, work):
    cfg = WORKLOADS[workload]
    suite, cells, _ = setup(harness, apex, workload, seed, work, 1)
    samples, failed, attempted, differ, facts = {}, 0, 0, 0, None
    deadline = time.perf_counter() + seconds
    iterations = 0
    while iterations < 1 or time.perf_counter() < deadline:
        iterations += 1
        dark_store = os.path.join(work, "stores", f"dark-{iterations}")
        traced_store = os.path.join(work, "stores", f"traced-{iterations}")
        cold = cold_run(apex, suite, dark_store, cfg, os.path.join(work, "cold.out"))
        argv = [harness, "trace", "--suite", suite, "--store", traced_store,
                "--threads", str(cfg["threads"]),
                "--spans", os.path.join(work, f"spans-{iterations}.jsonl")]
        if cfg["engine"]:
            argv += ["--engine", cfg["engine"]]
        settle()
        code, _, _ = child(argv, os.path.join(work, "trace.out"))
        lines = read(os.path.join(work, "trace.out")).splitlines()
        if code != 0 or not lines:
            raise BenchError("traced run failed:\n" + "\n".join(lines[-20:]))
        out = json.loads(lines[-1])
        facts = store_facts(apex, dark_store, work)
        traced_facts = store_facts(apex, traced_store, work)
        # The dark cold run, the traced cold pass and the traced lookups.
        attempted += cells + out["cells"] + out["hits"] + out["misses"] + out["rejected"]
        bad = cold["failed"] + (cells - cold["cells"]) + int(cold["code"] != 0)
        bad += out["failed"] + out["misses"] + out["rejected"]
        bad += int(not facts["fsck_ok"]) + int(not traced_facts["fsck_ok"])
        differ += same_store(facts["dir"], traced_facts["dir"])
        failed += bad
        values = {name: m["value"] for name, m in out["metrics"].items()}
        values["lab.runner_util"] = cold["cpu"] / (cold["wall"] * cfg["threads"])
        values["obs.trace_overhead"] = values["obs.traced_cold_ms"] / (cold["wall"] * 1e3)
        values["sim.ticks"] = facts["ticks"]
        values["sim.work"] = facts["work"]
        for name, value in values.items():
            samples.setdefault(name, []).append(value)

    log(f"workload {workload} seed {seed} (traced): {cells} cells, {iterations} traced runs, "
        f"{cfg['threads']} runner thread(s), engine {cfg['engine'] or 'tree'}, "
        f"nproc {os.cpu_count()}")
    log(f"  manifest checksum {facts['checksum']}; traced store "
        f"{'byte-identical to' if differ == 0 else f'{differ} files differ from'} the CLI store")
    return samples, attempted, failed + differ


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        spec = benchmark_spec()
        apex, harness = build()
        signal.signal(signal.SIGALRM, on_alarm)
        signal.alarm(RUN_LIMIT_S)
        work = os.path.join(WORK_ROOT, args.workload)
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        measure = traced if args.trace else dark
        samples, attempted, failed = measure(apex, harness, args.workload, args.seed,
                                             args.seconds, work)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in samples:
            print(f"perfbench: no measurement for {m['name']}", file=sys.stderr)
            return 2
        metrics[m["name"]] = {"value": report(m["name"], samples[m["name"]], m["unit"]),
                              "unit": m["unit"]}
    shutil.rmtree(os.path.join(work, "stores"), ignore_errors=True)
    settle()
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

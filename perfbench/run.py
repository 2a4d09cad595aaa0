#!/usr/bin/env python3
"""The repository benchmark: one command per workload, run from the repo root.

    python3 perfbench/run.py --workload solve_2k_fullsweep --seed 1 --seconds 20 --trace 0

Builds the tspopt libraries, tspoptd and the benchmark driver from source
(perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR (default .bench_build),
generates the workload's inputs from --seed, runs the workload for
--seconds, checks every output, and prints every metric with its unit.
The last line of standard output is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics, the self-time table of the benchmark's spans and the
tracing overhead. Scratch files (instances, daemon journals and stderr,
span dumps, the determinism record) go to .bench_out/. See
perfbench/README.md for the workloads and the metric definitions.
"""

import argparse
import hashlib
import json
import math
import os
import select
import shutil
import signal
import socket
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_out")

# Solve workloads: clustered instances (n/250 clusters), engine, k-NN list
# size and ILS rounds.
SOLVE_WORKLOADS = {
    "solve_100k_pruned": dict(n=100000, engine="cpu-simd-pruned", k=16,
                              rounds=20),
    "solve_2k_fullsweep": dict(n=2000, engine="cpu-simd", k=16, rounds=300),
}
# The serve workload's calibrated offered rate and latency limit (README
# "Calibration").
SERVE_WORKLOADS = {
    "serve_mixed": dict(rate=50.0, limit_ms=100.0),
}
SETUP_REPEATS = 15
DRIVER_TIMEOUT_S = 150.0
BUILD_TIMEOUT_S = 880.0

# The counts that must repeat exactly for one seed on one commit.
EXACT_COUNTS = (
    "descent.passes", "descent.moves", "descent.checks", "ils.rounds",
    "ils.checks", "ils.passes", "or_opt.moves", "or_opt.checks",
    "constructive.length", "tour_length", "serve.kro_length_sum",
    "serve.inline_length_sum",
)


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configure (again when the cache is not this source tree's), then
    build incrementally; returns the build dir."""
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, build_root, "tspopt-perfbench")
    os.makedirs(build_dir, exist_ok=True)
    cache = os.path.join(build_dir, "CMakeCache.txt")
    configured = False
    if os.path.exists(cache):
        with open(cache) as f:
            configured = f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}\n" in f.read()
    with open(os.path.join(build_dir, "build.log"), "w") as out:
        if not configured:
            if os.path.exists(cache):
                os.remove(cache)
            subprocess.run(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=out, stderr=subprocess.STDOUT, check=True,
                           timeout=BUILD_TIMEOUT_S)
        subprocess.run(["cmake", "--build", build_dir, "-j",
                        str(os.cpu_count() or 1)],
                       stdout=out, stderr=subprocess.STDOUT, check=True,
                       timeout=BUILD_TIMEOUT_S)
    return build_dir


def source_digest():
    """Digest of every file the benchmark builds or runs from (not the
    documents), so the determinism record is never compared across
    different code."""
    h = hashlib.sha256()
    for top in ("src", "examples", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".md"):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def check_determinism(key, counts):
    """Compare this run's exact counts ({group: {name: value}}) with every
    earlier run of the same workload and seed on the same sources; returns
    the mismatches."""
    path = os.path.join(OUT_DIR, "counts", key + ".json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    digest = source_digest()
    exact = {f"{group}/{name}": v for group, named in counts.items()
             for name, v in named.items() if name in EXACT_COUNTS}
    record = {}
    if os.path.exists(path):
        with open(path) as f:
            record = json.load(f)
    if record.get("digest") != digest:
        record = {"digest": digest, "counts": {}}
    mismatches = []
    for name, value in exact.items():
        seen = record["counts"].setdefault(name, value)
        if seen != value:
            mismatches.append(f"{name}: {value} (earlier run: {seen})")
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    return mismatches


def run_driver(binary, args, run_dir):
    """Run the driver; its full report is kept as driver.json for triage."""
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=DRIVER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"driver {args[0]} exited {proc.returncode}: "
                           + proc.stderr.strip()[-2000:])
    report = proc.stdout.strip().splitlines()[-1]
    with open(os.path.join(run_dir, "driver.json"), "w") as f:
        f.write(report + "\n")
    return json.loads(report)


def run_solve(build_dir, cfg, seed, seconds, trace, run_dir):
    return run_driver(os.path.join(build_dir, "perfbench_driver"), [
        "solve", "--n", str(cfg["n"]), "--dir", run_dir,
        "--engine", cfg["engine"], "--k", str(cfg["k"]),
        "--rounds", str(cfg["rounds"]), "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--spans", os.path.join(run_dir, "spans.json")], run_dir)


class Daemon:
    """One tspoptd process with its own journal directory and stderr log."""

    def __init__(self, build_dir, run_dir, index):
        self.dir = os.path.join(run_dir, f"daemon{index}")
        os.makedirs(self.dir, exist_ok=True)
        self.stderr = open(os.path.join(self.dir, "stderr.log"), "w")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [os.path.join(build_dir, "tspoptd"), "--port", "0",
             "--workers", "2", "--queue", "256",
             "--journal-dir", os.path.join(self.dir, "journal")],
            stdout=subprocess.PIPE, stderr=self.stderr)
        try:
            self.port = self._await_port()
            self._ping()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def _await_port(self):
        """The port from the daemon's first line, which it prints (and
        flushes) once it listens: "tspoptd listening on 127.0.0.1:PORT ..."."""
        ready, _, _ = select.select([self.proc.stdout], [], [], 30.0)
        line = self.proc.stdout.readline().decode() if ready else ""
        if "listening on 127.0.0.1:" not in line:
            raise RuntimeError(f"tspoptd did not start (exit "
                               f"{self.proc.poll()}, see {self.dir})")
        return int(line.split("127.0.0.1:")[1].split()[0])

    def _ping(self):
        with socket.create_connection(("127.0.0.1", self.port), timeout=10) as s:
            s.sendall(b'{"verb":"ping"}\n')
            reply = b""
            while not reply.endswith(b"\n"):
                chunk = s.recv(4096)
                if not chunk:
                    raise RuntimeError("tspoptd closed the ping connection")
                reply += chunk
        if not json.loads(reply).get("ok"):
            raise RuntimeError("tspoptd answered ping with " + reply.decode())

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)  # drain, then exit
            try:
                # Drains its exit lines from stdout too.
                self.proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
        self.proc.stdout.close()
        self.stderr.close()


def run_serve(build_dir, cfg, seed, seconds, trace, run_dir):
    daemons = []
    try:
        # Set-up several times; the last daemon serves the workload.
        for i in range(SETUP_REPEATS):
            if daemons:
                daemons[-1].stop()
            daemons.append(Daemon(build_dir, run_dir, i))
        setup = sorted(d.setup_s for d in daemons)[len(daemons) // 2]
        daemon = daemons[-1]
        result = run_driver(os.path.join(build_dir, "perfbench_driver"), [
            "serve", "--port", str(daemon.port), "--pid", str(daemon.proc.pid),
            "--seed", str(seed), "--rate", str(cfg["rate"]),
            "--seconds", str(seconds), "--limit-ms", str(cfg["limit_ms"]),
            "--trace", str(trace),
            "--spans", os.path.join(run_dir, "spans.json")], run_dir)
    finally:
        for d in daemons:
            d.stop()
    result["end_to_end"]["setup_s"] = setup
    return result


def print_table(title, rows):
    print(title)
    for name, value, unit in rows:
        print(f"  {name:<32} {value:>16.6g} {unit}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rate", type=float,
                        help="serve_mixed: override the calibrated offered "
                             "rate (jobs/s), for re-calibration sweeps")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; one of {names}")
    metrics = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = build()
    # Each run starts from an empty directory (a daemon must not replay an
    # earlier run's journal); it is kept afterwards for triage.
    run_dir = os.path.join(OUT_DIR, f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    # Write back the build's and the last run's dirty pages now, not into
    # the daemon's journal fsyncs during the measurement.
    os.sync()
    if args.workload in SOLVE_WORKLOADS:
        result = run_solve(build_dir, SOLVE_WORKLOADS[args.workload], args.seed,
                           args.seconds, args.trace, run_dir)
    else:
        cfg = dict(SERVE_WORKLOADS[args.workload])
        if args.rate:
            cfg["rate"] = args.rate
        result = run_serve(build_dir, cfg, args.seed, args.seconds,
                           args.trace, run_dir)

    failed = int(result["failed"])
    errors = [result["error"]] if result["error"] else []
    key = f"{args.workload}-{args.seed}" + (f"-r{args.rate}" if args.rate else "")
    mismatches = check_determinism(key, result["counts"])
    errors += ["not deterministic: " + m for m in mismatches]
    values = dict(result["end_to_end"])
    values.update(result.get("layers", {}))
    # Layers a workload does not pass through read 0 (README "Per-layer
    # metrics").
    out = {}
    for m in metrics:
        v = float(values.get(m["name"], 0.0))
        if not math.isfinite(v):
            errors.append(f"{m['name']} is not finite")
            v = 0.0
        out[m["name"]] = {"value": v, "unit": m["unit"]}

    print_table(f"{args.workload} seed {args.seed} "
                f"({'traced' if args.trace else 'untraced'})",
                [(k, v["value"], v["unit"]) for k, v in out.items()])
    if args.trace:
        print_table("self time by span (the root's self time is the "
                    "unattributed remainder)",
                    [(r["span"], r["self_s"], f"s over {r['count']} spans")
                     for r in result.get("self_times", [])])
    for e in errors:
        log("check failed: " + e)
    print(json.dumps({"correct": not errors and failed == 0,
                      "attempted": int(result["attempted"]),
                      "failed": failed + len(mismatches),
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    # A SIGTERM unwinds like an error, so every daemon is stopped and the
    # driver process killed and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        sys.exit(main())
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"error: {e}")
        sys.exit(1)

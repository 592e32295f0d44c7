#!/usr/bin/env python3
"""Served-query benchmark for geoblocks.

    python3 perfbench/run.py --workload read_hot --seed 1 --seconds 20 --trace 0

Builds perfbench/served_bench from the sources next to this directory (into
$CARGO_TARGET_DIR, default .bench_build), runs one workload, checks every
answer and prints the metrics. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json, with --trace 1 the
per-layer ones. --record FILE also appends the run as one JSON line, the
input of perfbench/compare.py. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import stats  # noqa: E402

# Read latency limits (microseconds) per workload. A run whose generator ran
# later than this at its p99 has tails that include the generator's own
# stalls; the run is flagged. A run whose generator was late at its median
# by more than LAG_P50_SHARE of the SELECT median is invalid.
READ_LIMIT_US = {"read_hot": 2000.0, "mixed_fresh": 2000.0}
LAG_P50_SHARE = 0.1
SELECT, COUNT, UPDATE = 0, 1, 2
BENCH_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "server", "server.h"))):
        fail(f"geoblocks sources not found next to {HERE}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "perfbench-build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "--target", "served_bench",
                      "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed")
    return os.path.join(build_dir, "served_bench")


def cpu_ticks():
    """(steal, total) jiffies of the host's CPUs, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
        return fields[7] if len(fields) > 7 else 0, sum(fields[:8])
    except (OSError, ValueError):
        return 0, 0


def provenance_extras():
    """Source identity: the git commit when there is one, and always a digest
    of the engine sources (the benchmark may run in a plain file tree)."""
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    commit = "unknown"
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            commit = r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {"git_commit": commit, "source_sha256": digest.hexdigest()[:16]}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def by_op(phase, key, op):
    return [v for v, o in zip(phase[key], phase["op"]) if o == op]


def pct(values, p):
    return stats.percentile(values, p) if values else 0.0


def tail(values, p, label, notes):
    """A percentile that must have MIN_BEYOND samples beyond it."""
    n = len(values)
    if stats.beyond(n, p) < stats.MIN_BEYOND:
        notes.append(f"{label}: only {stats.beyond(n, p)} of {n} samples "
                     f"beyond p{p:g}")
    return pct(values, p)


def served(raw, notes):
    """Served latencies and closed-loop throughput. They are per-layer
    metrics: on a shared host they follow the host's load from run to run
    far beyond any bound (see perfbench/README.md), so they explain but do
    not gate."""
    fixed, closed = raw["fixed_rate"], raw["closed_loop"]
    sel = by_op(fixed, "latency_us", SELECT)
    cnt = by_op(fixed, "latency_us", COUNT)
    upd = by_op(fixed, "latency_us", UPDATE)
    return {
        "select_p50_us": (pct(sel, 50), "us"),
        "count_p50_us": (pct(cnt, 50), "us"),
        "peak_qps": (len(closed["op"]) / closed["elapsed_s"], "1/s"),
        "select_p99_us": (tail(sel, 99, "select_p99_us", notes), "us"),
        "count_p99_us": (tail(cnt, 99, "count_p99_us", notes) if cnt else 0.0, "us"),
        "update_p50_us": (pct(upd, 50), "us"),
        "update_p99_us": (tail(upd, 99, "update_p99_us", notes) if upd else 0.0, "us"),
    }


def end_to_end(raw, notes):
    fixed = raw["fixed_rate"]
    return {
        "setup_s": (stats.median(raw["setup"]["total_s"]), "s"),
        "cpu_us_per_op": (fixed["server_cpu_s"] * 1e6 / len(fixed["op"]), "us"),
        "memory_mb": (raw["memory_bytes"] / 2**20, "MB"),
    }


def per_layer(raw, notes):
    fixed, traced = raw["fixed_rate"], raw["traced_fixed_rate"]
    rp, srv = raw["replay"], raw["traced_server"]
    names = raw["span_names"]
    sp = rp["spans"]
    name_of = [names[i] for i in sp["name"]]
    spans = list(zip(sp["parent"], sp["start_us"], sp["end_us"]))
    self_us = stats.self_times(spans)

    # Per replayed request: root duration, summed time and self time by layer.
    n_req = len(rp["op"])
    root = [0.0] * n_req
    total = [dict() for _ in range(n_req)]
    self_total = {}
    for i, (rid, nm) in enumerate(zip(sp["rid"], name_of)):
        dur = spans[i][2] - spans[i][1]
        if nm == "request":
            root[rid] = dur
        else:
            total[rid][nm] = total[rid].get(nm, 0.0) + dur
        if rp["op"][rid] == SELECT:
            self_total[nm] = self_total.get(nm, 0.0) + self_us[i]

    def layer(nm):
        return [t[nm] for t in total if nm in t]

    reads = [i for i, o in enumerate(rp["op"]) if o != UPDATE]
    selects = [i for i, o in enumerate(rp["op"]) if o == SELECT]
    updates = [i for i, o in enumerate(rp["op"]) if o == UPDATE]
    select_time = sum(root[i] for i in selects)
    shares = {nm: t / select_time for nm, t in self_total.items()} \
        if select_time else {}
    in_process = [total[i].get("cell.cover", 0.0) + total[i].get("core.route", 0.0)
                  + total[i].get("core.fold_select", 0.0) for i in selects]

    untraced_sel = by_op(fixed, "latency_us", SELECT)
    traced_sel = by_op(traced, "latency_us", SELECT)
    cs = raw["client_spans"]
    served_rt = [e - s for rid, n, s, e in zip(cs["rid"], cs["name"], cs["start_us"],
                                               cs["end_us"])
                 if names[n] == "client.call" and rp["op"][rid] == SELECT]
    overhead = pct(served_rt, 50) - pct(in_process, 50)
    encode, decode = layer("server.encode"), layer("server.decode")
    cover, route = layer("cell.cover"), layer("core.route")
    fold_sel = layer("core.fold_select")
    rebuilt = (pct(cover, 50) + pct(route, 50) + pct(fold_sel, 50)
               + pct(encode, 50) + pct(decode, 50) + overhead)

    commits = layer("core.commit")
    tuples = sum(rp["tuples"][i] for i in updates)
    wal = raw.get("wal", {})
    epochs = srv["epochs"] or 1
    setup = raw["setup"]

    def mean(xs):
        return sum(xs) / len(xs) if xs else 0.0

    def med(key):
        return stats.median(setup[key])

    notes.append("self-time share of in-process SELECT: " + ", ".join(
        f"{nm} {s:.1%}" for nm, s in sorted(shares.items(), key=lambda x: -x[1])))
    return {
        **served(raw, notes),
        "loadgen.lag_p50_us": (pct(fixed["lag_us"], 50), "us"),
        "loadgen.lag_p99_us": (pct(fixed["lag_us"], 99), "us"),
        "server.encode_us": (pct(encode, 50), "us"),
        "server.decode_us": (pct(decode, 50), "us"),
        "server.overhead_p50_us": (overhead, "us"),
        "server.requests_per_epoch": (srv["requests"] / epochs, "count"),
        "server.select_groups_per_epoch": (srv["select_groups"] / epochs, "count"),
        "server.rejected": (srv["rejected"], "count"),
        "cell.cover_p50_us": (pct(cover, 50), "us"),
        "cell.cover_p99_us": (pct(cover, 99), "us"),
        "cell.cover_cells": (mean([rp["cover_cells"][i] for i in reads]), "count"),
        "cell.polygon_vertices": (mean([rp["vertices"][i] for i in reads]), "count"),
        "cell.cover_self_share": (shares.get("cell.cover", 0.0), "ratio"),
        "core.route_us": (pct(route, 50), "us"),
        "core.route_shards": (mean([rp["route_shards"][i] for i in reads]), "count"),
        "core.fold_select_us": (pct(fold_sel, 50), "us"),
        "core.fold_count_us": (pct(layer("core.fold_count"), 50), "us"),
        "core.batch_us_per_query": (rp["batch_us_per_query"], "us"),
        "core.select_us": (pct(rp["select_us"], 50), "us"),
        "core.repeat_frac": (rp["repeat_frac"], "ratio"),
        "core.commit_p50_us": (pct(commits, 50), "us"),
        "core.commit_p99_us": (pct(commits, 99), "us"),
        "core.commit_us_per_tuple": (sum(commits) / tuples if tuples else 0.0, "us"),
        "core.rebuilds": (sum(rp["rebuilds"]), "count"),
        "core.pending_tuples": (rp["pending_tuples"], "count"),
        "io.wal_append_p50_us": (pct(layer("io.wal_append"), 50), "us"),
        "io.wal_append_p99_us": (pct(layer("io.wal_append"), 99), "us"),
        "io.wal_records_per_fsync": (
            wal["records_appended"] / wal["groups_committed"]
            if wal.get("groups_committed") else 0.0, "count"),
        "io.wal_bytes_per_tuple": (
            wal["bytes_committed"] / wal["acked_tuples"]
            if wal.get("acked_tuples") else 0.0, "B"),
        "io.replay_s": (wal.get("replay_s", 0.0), "s"),
        "storage.extract_s": (med("extract_s"), "s"),
        "storage.partition_s": (med("partition_s"), "s"),
        "core.build_s": (med("build_s"), "s"),
        "server.start_s": (med("start_s"), "s"),
        "util.pool_steals_per_epoch": (srv["steals"] / epochs, "count"),
        "trace.overhead_us": (pct(traced_sel, 50) - pct(untraced_sel, 50), "us"),
        "trace.reconstruction_ratio": (
            rebuilt / pct(untraced_sel, 50) if untraced_sel else 0.0, "ratio"),
    }


def describe_phases(raw):
    lines = []
    for name in ("warmup", "fixed_rate", "traced_fixed_rate", "closed_loop"):
        if name not in raw:
            continue
        ph = raw[name]
        n = len(ph["op"])
        line = (f"  {name:18s} {n:6d} ops in {ph['elapsed_s']:.2f} s; "
                f"lag p50 {pct(ph['lag_us'], 50):.1f} us "
                f"p99 {pct(ph['lag_us'], 99):.1f} us")
        for op, label in ((SELECT, "select"), (COUNT, "count"), (UPDATE, "update")):
            lat = by_op(ph, "latency_us", op)
            if lat:
                p = stats.highest_supported(len(lat)) or 50.0
                line += (f"; {label} n={len(lat)} p50 {pct(lat, 50):.1f} "
                         f"p{p:g} {pct(lat, p):.1f} us")
        lines.append(line)
    return lines


def gated_names(section):
    """Metric names BENCHMARK.json lists in `section`; the JSON line carries
    exactly these (the rest are printed only). None without the file."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return {m["name"] for m in json.load(f)[section]}
    except (OSError, ValueError, KeyError):
        return None


# ---------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(READ_LIMIT_US))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="append this run as a JSON line here")
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)
    work = os.path.join(build_dir, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    out = os.path.join(work, "raw.json")
    try:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work", work, "--out", out]
        steal0, total0 = cpu_ticks()
        try:
            r = subprocess.run(cmd, timeout=BENCH_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"served_bench did not finish within {BENCH_TIMEOUT_S} s")
        steal1, total1 = cpu_ticks()
        if r.returncode != 0:
            fail(f"served_bench exited with {r.returncode}")
        with open(out) as f:
            raw = json.load(f)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    prov = dict(raw["provenance"], **provenance_extras())
    # Time the hypervisor ran something else while the machine's CPUs wanted to
    # run: it shows up as stalls in every thread, server and generator alike.
    prov["host_steal_share"] = round(
        (steal1 - steal0) / max(1, total1 - total0), 4)
    print("provenance: " + ", ".join(f"{k}={v}" for k, v in prov.items()))
    for line in describe_phases(raw):
        print(line)

    fixed = raw["fixed_rate"]
    lag_p50, lag_p99 = pct(fixed["lag_us"], 50), pct(fixed["lag_us"], 99)
    select_p50 = pct(by_op(fixed, "latency_us", SELECT), 50)
    if lag_p50 > LAG_P50_SHARE * select_p50:
        fail(f"invalid run: generator lag p50 {lag_p50:.1f} us is over "
             f"{LAG_P50_SHARE:.0%} of the SELECT p50 {select_p50:.1f} us", code=3)
    if lag_p99 > READ_LIMIT_US[args.workload]:
        print(f"  flag: generator lag p99 {lag_p99:.0f} us exceeds the "
              f"{READ_LIMIT_US[args.workload]:.0f} us read limit; this run's "
              f"tails include host stalls and are not a slowdown")

    notes = []
    metrics = (per_layer if args.trace else end_to_end)(raw, notes)
    checks = raw["checks"]
    attempted = int(checks["attempted"])
    failed = int(checks["failed"]) + len(checks["violations"])
    for v in checks["violations"]:
        print(f"  VIOLATION: {v}")
    for note in notes:
        print(f"  note: {note}")
    print(f"  failed_frac: {failed / max(1, attempted):.6f} "
          f"({failed} of {attempted} operations and checks)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.4f} {unit}")

    listed = gated_names("per_layer" if args.trace else "end_to_end")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                    if listed is None or k in listed},
    }
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps(dict(result, workload=args.workload, seed=args.seed,
                                    trace=args.trace, provenance=prov,
                                    time=time.time())) + "\n")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

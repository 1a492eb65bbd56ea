#!/usr/bin/env python3
"""The kusd benchmark: end-to-end timings of `kusd sweep` and a traced
per-layer split, on three workloads (see README.md in this directory).

Run from the root of a checkout:

    python3 kusdbench/run.py --workload ref_point --seed 1 --seconds 30 \
        --trace 0
    python3 kusdbench/run.py --workload ref_point --seed 1 --seconds 30 \
        --trace 1

The first call configures and builds the library, the `kusd` CLI and the
benchmark's programs into .bench_build/ (or $CARGO_TARGET_DIR). Scratch
outputs go to .bench_out/<workload>/, with the full result and its
provenance in result.json there. The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1. The exit code is 0 only when every correctness check passed.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent

# Every work-deciding option of a workload is spelled out, so a changed
# library default (chunk policy, stripe width, budget) cannot silently
# change what a workload runs. --seed and --threads are added per run.
WORKLOADS = {
    # ROADMAP's reference point: one cell, so nearly all time is the rng
    # multinomial/BTRS draws and core's chunk loop; runner does little.
    "ref_point": [
        "--engine", "batched", "--n", "1e8", "--k", "32",
        "--bias", "none", "--trials", "512",
        "--chunk-policy", "adaptive", "--chunk", "0.02",
        "--stripe-width", "8", "--budget", "4e12",
    ],
    # The same rng/core layers through the class-structured path:
    # multinomials over 2*C*k+1 categories, C <= 48 degree classes.
    "graph_er": [
        "--engine", "graph-batched", "--graph", "er:auto", "--n", "1e8",
        "--k", "4", "--bias", "none", "--trials", "128",
        "--chunk-policy", "adaptive", "--chunk", "0.02",
        "--stripe-width", "2", "--budget", "5e11",
    ],
    # 336 small cells: per-cell and per-trial fixed costs (engine
    # construction, configs, aggregation, emission, journal, task-graph
    # claims) are a large share; the skip cells exercise urn.
    "many_cells": [
        "--engine", "skip,batched,sync,gossip", "--n", "500,1000,2000",
        "--k", "2,3,4,6,8,12,16", "--bias", "additive",
        "--beta", "0,5,20,50", "--trials", "8",
        "--chunk-policy", "fixed", "--chunk", "0.02",
        "--stripe-width", "8", "--budget", "2e7",
    ],
}

# The same code paths at a size that runs in seconds (selftest.py).
SMALL_WORKLOADS = {
    "ref_point": [
        "--engine", "batched", "--n", "1e6", "--k", "32",
        "--bias", "none", "--trials", "16",
        "--chunk-policy", "adaptive", "--chunk", "0.02",
        "--stripe-width", "8", "--budget", "3e10",
    ],
    "graph_er": [
        "--engine", "graph-batched", "--graph", "er:auto", "--n", "1e6",
        "--k", "4", "--bias", "none", "--trials", "8",
        "--chunk-policy", "adaptive", "--chunk", "0.02",
        "--stripe-width", "8", "--budget", "4e9",
    ],
    "many_cells": [
        "--engine", "skip,batched,sync,gossip", "--n", "500,1000",
        "--k", "2,4,8", "--bias", "additive", "--beta", "0,20",
        "--trials", "4", "--chunk-policy", "fixed", "--chunk", "0.02",
        "--stripe-width", "2", "--budget", "2e7",
    ],
}

# pt_mean / (k ln n) from E16 (BENCH_phases.json, n = 1e8): 0.86 at k = 8
# and 0.60 at k = 32; k = 4 extends the same per-doubling slope. Rows of
# the asynchronous engines with no bias and one of these k must lie
# within [0.5, 2] times the figure: a loose band that catches a broken
# sampler or controller, not a statistical test.
E16_RATIO = {4: 0.99, 8: 0.86, 32: 0.60}
BAND = (0.5, 2.0)
BAND_ENGINES = {"skip", "batched", "graph-batched"}

SETUP_REPS = 15
SETUP_PER_ITEM = 2
MIN_TIMED_SWEEPS = 3
MIN_SERIAL_PASSES = 1


class BenchError(Exception):
    """A build or run step failed: no result is printed."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(root, targets, jobs):
    """Configure (once) and build the given targets; returns the build dir."""
    out = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        raise BenchError("no kusd sources at " + str(root))
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not (out / "CMakeCache.txt").is_file():
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", str(out), "-j", str(jobs), "--target", *targets]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")
    return out


def master_seed(workload, seed):
    """The sweep's master seed: a function of the workload and the
    benchmark seed, so workloads never share trial streams."""
    digest = hashlib.sha256(f"kusdbench/{workload}/{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def cmake_cache(out):
    values = {}
    path = out / "CMakeCache.txt"
    if path.is_file():
        for line in path.read_text().splitlines():
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.split("=", 1)
                values[key.split(":", 1)[0]] = value
    return values


def source_digest(root):
    """sha256 over the sources the benchmark builds (the checkout the
    benchmark runs in is not a git repository)."""
    h = hashlib.sha256()
    files = [p for d in ("src", "tools", "cmake", "kusdbench")
             if (root / d).is_dir() for p in (root / d).rglob("*")
             if p.is_file() and "__pycache__" not in p.parts]
    files.append(root / "CMakeLists.txt")
    for path in sorted(files):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(root, out, workload, seed, seconds, threads):
    cache = cmake_cache(out)
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    flags = None
    commands = out / "compile_commands.json"
    if commands.is_file():
        for entry in json.loads(commands.read_text()):
            if entry["file"].endswith("round_engine.cpp"):
                flags = " ".join(t for t in entry["command"].split()[1:]
                                 if t.startswith(("-O", "-f", "-m", "-D",
                                                  "-std")))
    git_sha = None
    if (root / ".git").exists():
        result = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                                capture_output=True, text=True)
        git_sha = result.stdout.strip() or None
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "threads": threads,
        "compiler": version,
        "library_flags": flags,
        "build_type": cache.get("CMAKE_BUILD_TYPE"),
        "simd_build": cache.get("KUSD_SIMD"),
        "simd_avx2_compiled": cache.get("KUSD_CXX_HAS_MAVX2"),
        "git_sha": git_sha,
        "source_sha256": source_digest(root),
        "workload": workload,
        "seed": seed,
        "master_seed": master_seed(workload, seed),
        "run_seconds": seconds,
    }


def with_trials(flags, trials):
    out = list(flags)
    out[out.index("--trials") + 1] = str(trials)
    return out


def trial_count(flags):
    return int(flags[flags.index("--trials") + 1])


def run_measured(cmd, err_path):
    """Run to completion; returns (wall seconds, peak RSS in MiB, CPU
    seconds of all the process's threads)."""
    with open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"{cmd[0]} exited {proc.returncode}: "
                         + Path(err_path).read_text()[-2000:])
    return wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime


def read_rows(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def not_converged(rows):
    """Trials that did not converge (timed-out cells count whole)."""
    total = 0
    for row in rows:
        trials = int(row["trials"])
        if row["status"] != "ok":
            total += trials
        else:
            total += round(trials * (1.0 - float(row["converged_rate"])))
    return total


def band_failures(rows):
    """Rows whose pt_mean / (k ln n) leaves the loose E16 band."""
    bad = []
    for row in rows:
        k, n = int(row["k"]), int(row["n"])
        if (row["engine"] not in BAND_ENGINES or float(row["bias"]) != 0.0
                or k not in E16_RATIO):
            continue
        ratio = float(row["pt_mean"]) / (k * math.log(n))
        lo, hi = (b * E16_RATIO[k] for b in BAND)
        if not lo <= ratio <= hi:
            bad.append(f"{row['engine']} n={n} k={k}: {ratio:.3f}")
    return bad


def run_timed(bins, flags, seconds, out_dir, threads):
    """The end-to-end pass: (metrics, attempted, missed, checks, samples),
    where `missed` counts the trials that did not converge."""
    kusd = str(bins / "kusd" / "tools" / "kusd")
    serial = str(bins / "kusdbench_serial")
    trials = trial_count(flags)
    run_flags = flags + ["--threads", str(threads)]

    def sweep_cmd(stem, sweep_flags):
        return [kusd, "sweep", *sweep_flags,
                "--out", f"{stem}.csv", "--json", f"{stem}.jsonl",
                "--journal", f"{stem}.journal"]

    err = out_dir / "stderr.txt"
    start = time.monotonic()
    # setup_s: the same sweep at zero trials (registry, validation and
    # configs, topology realization, pool, journal header, emission), as
    # the CPU time of the process. Its wall time, a few milliseconds, is
    # mostly waiting on process and thread wake-ups, which doubles when the
    # machine is contended; the CPU time is the set-up's work. The
    # repetitions are spread over the whole run.
    setup = []

    def measure_setup(reps):
        for _ in range(reps):
            setup.append(run_measured(
                sweep_cmd(out_dir / "setup", with_trials(run_flags, 0)),
                err)[2])

    warm_wall = run_measured(sweep_cmd(out_dir / "warm", run_flags), err)[0]
    warm_csv = (out_dir / "warm.csv").read_bytes()
    warm_jsonl = (out_dir / "warm.jsonl").read_bytes()
    rows = read_rows(out_dir / "warm.csv")
    checks = {
        "serial_rows_equal_sweep_rows": True,
        "sweep_outputs_byte_identical": True,
        "pt_band": not band_failures(rows),
    }
    attempted = trials * len(rows)
    missed = not_converged(rows)

    walls, rss, serial_s, trial_ms = [], [], [], []
    spent = {"sweep": 0.0, "serial": 0.0}
    last = {"sweep": warm_wall, "serial": warm_wall * threads}
    while True:
        need_sweep = len(walls) < MIN_TIMED_SWEEPS
        need_serial = len(serial_s) < MIN_SERIAL_PASSES
        if not (need_sweep or need_serial):
            kind = "sweep" if spent["sweep"] <= spent["serial"] else "serial"
            if time.monotonic() - start + last[kind] > seconds:
                break
        else:
            kind = "serial" if need_serial and (
                not need_sweep or spent["serial"] <= spent["sweep"]) \
                else "sweep"
        if kind == "sweep":
            wall, peak, _ = run_measured(
                sweep_cmd(out_dir / "timed", run_flags), err)
            walls.append(wall)
            rss.append(peak)
            if ((out_dir / "timed.csv").read_bytes() != warm_csv
                    or (out_dir / "timed.jsonl").read_bytes() != warm_jsonl):
                checks["sweep_outputs_byte_identical"] = False
            timed_rows = read_rows(out_dir / "timed.csv")
            attempted += trials * len(timed_rows)
            missed += not_converged(timed_rows)
            spent["sweep"] += wall
            last["sweep"] = wall
        else:
            t0 = time.monotonic()
            proc = subprocess.run(
                [serial, *run_flags, "--csv", str(out_dir / "serial.csv"),
                 "--jsonl", str(out_dir / "serial.jsonl"),
                 "--times", str(out_dir / "serial.times")],
                capture_output=True, text=True)
            if proc.returncode != 0:
                raise BenchError("kusdbench_serial failed: " + proc.stderr)
            summary = json.loads(proc.stdout.splitlines()[-1])
            serial_s.append(summary["serial_s"])
            for line in (out_dir / "serial.times").read_text().splitlines():
                create, run = line.split()
                trial_ms.append((float(create) + float(run)) * 1e3)
            if ((out_dir / "serial.csv").read_bytes() != warm_csv
                    or (out_dir / "serial.jsonl").read_bytes() != warm_jsonl):
                checks["serial_rows_equal_sweep_rows"] = False
            attempted += summary["trials"]
            missed += summary["not_converged"]
            spent["serial"] += time.monotonic() - t0
            last["serial"] = time.monotonic() - t0
        measure_setup(SETUP_PER_ITEM)
    measure_setup(max(0, SETUP_REPS - len(setup)))
    checks["all_trials_converged"] = missed == 0

    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "serial_s": (statistics.median(serial_s), "s"),
        "trial_ms_p50": (statistics.median(trial_ms), "ms"),
        "trial_ms_p90": (statistics.quantiles(trial_ms, n=10,
                                              method="inclusive")[8], "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(rss), "MiB"),
    }
    samples = {"wall_s": walls, "serial_s": serial_s, "setup_s": setup,
               "peak_rss_mb": rss, "warmup_wall_s": warm_wall,
               "trials_per_serial_pass": trials * len(rows),
               "band_failures": band_failures(rows)}
    return metrics, attempted, missed, checks, samples


def run_traced(bins, flags, out_dir, threads):
    """The per-layer pass: (metrics, attempted, missed, checks, samples)."""
    proc = subprocess.run(
        [str(bins / "kusdbench_trace"), *flags, "--threads", str(threads),
         "--out-dir", str(out_dir), "--spans", str(out_dir / "spans.json")],
        capture_output=True, text=True)
    if proc.returncode != 0:
        raise BenchError("kusdbench_trace failed: " + proc.stderr)
    report = json.loads(proc.stdout.splitlines()[-1])
    rows = read_rows(out_dir / "trace_sweep_journal.csv")
    checks = {name: False for name in report["failed_checks"]}
    checks["pt_band"] = not band_failures(rows)
    checks["all_trials_converged"] = (report["not_converged"] == 0
                                      and not_converged(rows) == 0)
    metrics = {name: (entry["value"], entry["unit"])
               for name, entry in report["metrics"].items()}
    return metrics, report["executions"], report["not_converged"], checks, {
        "band_failures": band_failures(rows)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small: the same paths at self-test size")
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    try:
        if not spec_path.is_file():
            raise BenchError("run from the checkout root (no BENCHMARK.json)")
        spec = json.loads(spec_path.read_text())
        threads = len(os.sched_getaffinity(0))
        targets = ["kusdbench_trace"] if args.trace else [
            "kusd_cli", "kusdbench_serial"]
        bins = build(root, targets, threads)
        out_dir = root / ".bench_out" / args.workload
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)

        table = SMALL_WORKLOADS if args.size == "small" else WORKLOADS
        flags = table[args.workload] + [
            "--seed", str(master_seed(args.workload, args.seed))]
        prov = provenance(root, bins, args.workload, args.seed, args.seconds,
                          threads)
        print("provenance: " + json.dumps(prov), flush=True)
        if args.trace:
            metrics, attempted, missed, checks, samples = run_traced(
                bins, flags, out_dir, threads)
            wanted = spec["per_layer"]
        else:
            metrics, attempted, missed, checks, samples = run_timed(
                bins, flags, args.seconds, out_dir, threads)
            wanted = spec["end_to_end"]
    except (BenchError, OSError, ValueError, KeyError) as error:
        log(f"kusdbench: {error}")
        return 2

    # The reported names and units must be exactly BENCHMARK.json's.
    # ok_frac (timed runs) is filled in once correctness is known: a failed
    # check counts every attempted trial as failed.
    if not args.trace:
        metrics["ok_frac"] = (0.0, "ratio")
    expected = {m["name"]: m["unit"] for m in wanted}
    reported = {name: unit for name, (_, unit) in metrics.items()}
    checks["metrics_match_benchmark_json"] = reported == expected
    correct = all(checks.values())
    failed = missed if correct else attempted
    if not args.trace:
        metrics["ok_frac"] = (1.0 - failed / attempted, "ratio")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (out_dir / "result.json").write_text(json.dumps(
        {"provenance": prov, "checks": checks, "samples": samples,
         "result": result}, indent=2) + "\n")
    for name, ok in sorted(checks.items()):
        if not ok:
            log(f"kusdbench: check failed: {name}")
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

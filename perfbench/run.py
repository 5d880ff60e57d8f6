#!/usr/bin/env python3
"""The repository benchmark: one workload, checked, with its metrics.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds the perfbench program from this checkout's sources (into
$CARGO_TARGET_DIR, default .bench_build), runs workload W in a fresh process
with the engine thread pool at 1, checks its outputs and prints, as the last
line of standard output, one JSON object: {"correct", "attempted", "failed",
"metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the same
seed is run again with spans on, the simulated results of both runs must be
identical, and the metrics are the per-layer ones. Spans are written to
.bench_out/<workload>.spans. A failed check exits 1 after the result line.

setup_s and requests_per_host_s are in reference seconds: wall seconds scaled
by the host's speed on a fixed reference task timed between slices of each
phase (HostClock in perfbench/bench.hpp), so that a shared host's drifting
speed does not move them. The wall-clock values and the host speed are
printed beside them.

The metric names and units come from BENCHMARK.json at the repository root.
--self-test builds and runs the benchmark's own tests (perfbench_selftest).
Seed 90210 is held out: use it only to confirm a claim made on other seeds.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-functions", "fleet-prebaked", "fleet-cowclone")
HELD_OUT_SEED = 90210
RUN_TIMEOUT_S = 170
LAYERS = ("bench", "sim", "faas", "core", "rt")

# How far a paper function's start median may sit from Fig. 3, as
# bench_harness --check allows.
PAPER_TOLERANCE = 0.10


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no program sources at {ROOT / 'src'}; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not (build_dir / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", str(build_dir), "--target", target,
                   "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir / target


def run_workload(binary, workload, seed, seconds, trace, spans=None):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, PREBAKE_THREADS="1")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"perfbench {workload} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fmt(value):
    if value is None:
        return "n/a"
    if isinstance(value, int) or float(value).is_integer():
        return f"{value:.0f}"
    return f"{value:.6g}"


def end_to_end(run, name):
    return run["host"].get(name, run["sim"].get(name))


def check(spec, run, traced=None):
    """Apply the output checks; returns a list of (name, ok, detail)."""
    c = run["counts"]
    results = [
        ("answered exactly once", c["duplicates"] == 0 and c["unanswered"] == 0,
         f"{c['attempted']} attempted, {c['answered']} answered, "
         f"{c['duplicates']} duplicate and {c['unanswered']} missing answers"),
        ("bodies equal the handlers' references",
         c["rejected"] == 0 and c["mismatched"] == 0,
         f"{c['rejected']} rejected, {c['mismatched']} differing"),
    ]
    missing = [m["name"] for m in spec["end_to_end"]
               if end_to_end(run, m["name"]) is None]
    results.append(("every end-to-end metric has enough samples",
                    not missing, ", ".join(missing) or
                    f"{c['start_ms']} start and {c['request_ms']} request "
                    "samples; each percentile has >= 10 beyond it"))
    for fn in run["paper"].get("functions", []):
        error = fn["start_ms_p50"] / fn["paper_ms"] - 1.0
        results.append((f"{fn['function']} start median within "
                        f"{PAPER_TOLERANCE:.0%} of Fig. 3",
                        abs(error) <= PAPER_TOLERANCE,
                        f"{fn['start_ms_p50']:.2f} ms vs {fn['paper_ms']:.0f} "
                        f"ms ({error:+.1%}, n={fn['n']})"))
    if traced is not None:
        keys = ("counts", "sim", "sim_layers", "paper")
        differing = [k for k in keys if run[k] != traced[k]]
        results.append(("simulated results identical traced vs untraced",
                        not differing, ", ".join(differing) or
                        "counts, sim, sim_layers and paper all equal"))
    return results


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        binary = build("perfbench_selftest")
        sys.exit(subprocess.run([str(binary)], timeout=RUN_TIMEOUT_S,
                                env=dict(os.environ, PREBAKE_THREADS="1"))
                 .returncode)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    binary = build("perfbench")
    run = run_workload(binary, args.workload, args.seed, args.seconds, 0)
    traced = None
    if args.trace == 1:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"{args.workload}.spans"
        traced = run_workload(binary, args.workload, args.seed, args.seconds,
                              1, spans)

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}"
          f"{' (held-out seed)' if args.seed == HELD_OUT_SEED else ''}")
    host = run["host"]
    print(f"  rounds in reference seconds: set-up s {host['setup_s_each']}, "
          f"req/s {host['rate_each']}")
    print(f"  rounds in wall seconds: set-up s {host['setup_wall_s_each']}, "
          f"req/s {host['wall_rate_each']}; timed phases "
          f"{host['timed_s']:.3f} s in total")
    print(f"  host speed in the timed phases, reference host = 1: "
          f"{host['host_speed_each']}")
    for m in spec["end_to_end"]:
        print(f"  {m['name']:<22} {fmt(end_to_end(run, m['name'])):>14} "
              f"{m['unit']}")
    # Always 0 here, so not a metric: the result line carries it as
    # attempted/failed.
    print(f"  {'failed_share':<22} {fmt(run['sim']['failed_share']):>14} ratio")

    layers = {}
    if traced is not None:
        layers = {**traced["sim_layers"], **traced["host_layers"]}
        layers["bench.tracing_overhead_s"] = (traced["host"]["timed_s"] -
                                              host["timed_s"])
        print(f"  per-layer ({traced['spans']} spans in {spans.name}; "
              "n/a = the workload does not reach that call):")
        for m in spec["per_layer"]:
            print(f"    {m['name']:<30} {fmt(layers.get(m['name'])):>14} "
                  f"{m['unit']}")
        shares = sum(layers[f"{layer}.self_share"] for layer in LAYERS)
        print(f"  traced timed phase {traced['host']['timed_s']:.3f} s vs "
              f"untraced {host['timed_s']:.3f} s: tracing overhead "
              f"{layers['bench.tracing_overhead_s']:+.3f} s; layer self "
              f"times cover {shares:.2%}, uncovered remainder "
              f"{layers['bench.uncovered_share']:.2%}")

    results = check(spec, run, traced)
    for name, ok, detail in results:
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    correct = all(ok for _, ok, _ in results)

    if args.trace == 0:
        metrics = {m["name"]: {"value": end_to_end(run, m["name"]),
                               "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    else:
        # A call the workload never reaches reports 0.
        metrics = {m["name"]: {"value": layers.get(m["name"]) or 0,
                               "unit": m["unit"]}
                   for m in spec["per_layer"]}
    print(json.dumps({"correct": correct,
                      "attempted": run["counts"]["attempted"],
                      "failed": run["counts"]["failed"],
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Host-time benchmark of the CA3DMM library.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds the library and the benchmark from source (Release) into
.bench_build/perfbench at the checkout root, then runs the perfbench binary.
Host speed differs from one process to the next, so an untraced run uses
several fresh processes. When a cold set-up costs under CHEAP_SETUP_S, the
timed window is split over processes of about SLICE_S seconds each, and
op_cpu_p50_s and ops_per_cpu_s are taken over the ops of all of them.
Otherwise the binary is also started in --setup-only mode two to eight
times (more while set-up is cheap). Either way setup_s is the median of
every cold set-up. The binary's report is passed through; the last stdout
line is one JSON object {correct, attempted, failed, metrics} whose metrics
are exactly the end_to_end (--trace 0) or per_layer (--trace 1) names in
BENCHMARK.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")
# Set-up samples: at least MIN, more while they are cheap (fresh processes).
SETUP_MIN_SAMPLES = 3
SETUP_MAX_SAMPLES = 9
SETUP_BUDGET_S = 3.0
# Workloads whose cold set-up is cheaper than this time their window in
# slices of about SLICE_S seconds, one fresh process each.
CHEAP_SETUP_S = 1.0
SLICE_S = 2.5
UNTRACED_PHASE = 1  # perfbench's phase index of the untraced window
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("library sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target", *targets],
                   check=True, stdout=sys.stderr)


def last_json(stdout):
    lines = stdout.rstrip("\n").split("\n")
    return lines[:-1], json.loads(lines[-1])


def run_binary(args, out=OUT):
    """Runs the benchmark binary; returns (report lines, result object)."""
    cmd = [os.path.join(BUILD, "perfbench"), "--out", out, *args]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}")
    return last_json(proc.stdout)


def read_result(out, workload, seed):
    """The untraced ops as (wall s, process CPU s), and every end-to-end
    value, from the result file a process wrote."""
    with open(os.path.join(out, f"{workload}-seed{seed}-result.json")) as f:
        res = json.load(f)
    ops = [(wall, cpu) for phase, wall, cpu in res["ops"]
           if phase == UNTRACED_PHASE]
    return ops, {k: v["value"] for k, v in res["end_to_end"].items()}


def run_timed(common, workload, seed, seconds, count):
    """Times `seconds` as `count` fresh processes. Returns the first one's
    report lines, a result whose op metrics cover every process's ops, and
    each process's setup_s."""
    lines, merged = None, None
    ops, window, window_cpu, setup = [], 0.0, 0.0, []
    for i in range(count):
        out = os.path.join(OUT, f"slice{i}") if count > 1 else OUT
        ls, r = run_binary([*common, "--seconds", repr(seconds / count),
                            "--trace", "0"], out)
        o, e2e = read_result(out, workload, seed)
        ops += o
        # Each process's windows, recovered from its rates over them.
        window += len(o) / e2e["ops_per_s"]
        window_cpu += len(o) / e2e["ops_per_cpu_s"]
        setup.append(e2e["setup_s"])
        if merged is None:
            lines, merged = ls, r
        else:
            merged["correct"] = merged["correct"] and r["correct"]
            merged["attempted"] += r["attempted"]
            merged["failed"] += r["failed"]
    m = merged["metrics"]
    m["op_cpu_p50_s"]["value"] = statistics.median(cpu for _, cpu in ops)
    m["ops_per_cpu_s"]["value"] = len(ops) / window_cpu
    if count > 1:
        lines.append(
            f"e2e    {count} processes of {seconds / count:.3g} s, {len(ops)} "
            f"untraced ops: op_cpu_p50_s {m['op_cpu_p50_s']['value']:.6g}, "
            f"ops_per_cpu_s {m['ops_per_cpu_s']['value']:.6g}, op_wall_p50_s "
            f"{statistics.median(w for w, _ in ops):.6g}, ops_per_s "
            f"{len(ops) / window:.6g}")
    return lines, merged, setup


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_metrics(result, names):
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        raise RuntimeError(f"result lacks metrics: {', '.join(missing)}")
    result["metrics"] = {n: result["metrics"][n] for n in names}
    return result


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    a = ap.parse_args(argv)

    if a.selftest:
        build(["perfbench_tests"])
        return subprocess.run([os.path.join(BUILD, "perfbench_tests")],
                              cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    if not a.workload:
        ap.error("--workload is required")

    build(["perfbench"])
    common = ["--workload", a.workload, "--seed", str(a.seed)]
    if a.trace or a.workload == "all":
        lines, result = run_binary(
            [*common, "--seconds", repr(a.seconds), "--trace", str(a.trace)])
        for line in lines:
            print(line)
        if a.workload != "all":
            check_metrics(result, expected_metrics(a.trace))
        print(json.dumps(result), flush=True)
        return 0

    # A cheap set-up times the window in slices; a dear one gets set-up
    # samples of its own, the timed run contributing one more.
    setup = []
    while not setup or (setup[0] >= CHEAP_SETUP_S and (
            len(setup) + 1 < SETUP_MIN_SAMPLES or (
                len(setup) + 1 < SETUP_MAX_SAMPLES
                and sum(setup) < SETUP_BUDGET_S))):
        _, r = run_binary([*common, "--seconds", "1", "--setup-only"])
        if not r["correct"]:
            raise RuntimeError("a set-up run failed its output check")
        setup.append(r["metrics"]["setup_s"]["value"])
    slices = max(1, round(a.seconds / SLICE_S)) if setup[0] < CHEAP_SETUP_S else 1
    lines, result, timed_setup = run_timed(common, a.workload, a.seed,
                                           a.seconds, slices)
    setup += timed_setup
    result["metrics"]["setup_s"]["value"] = statistics.median(setup)
    lines.append(f"e2e    setup_s median of {len(setup)} fresh processes: "
                 + ", ".join(f"{s:.4f}" for s in setup))
    for line in lines:
        print(line)
    check_metrics(result, expected_metrics(a.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError,
            KeyError) as e:
        log(f"error: {e}")
        sys.exit(1)

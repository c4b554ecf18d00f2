"""xchern benchmark: run one workload for a while and print its metrics.

    python3 bench/run.py --workload {cocycles,dga,heat} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout.  The seed makes the inputs; xchern
receives only the generated spec files.  Each pass of the workload runs in a
fresh single-threaded process, one at a time (one client, closed loop), so
every pass starts with empty memos like a cold ``xchern`` command.  Passes
repeat while the next one fits in S seconds (at least one runs), and the
run reports medians over passes.  Set-up is also sampled by extra processes
that stop at the first check.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of traced passes (each paired with an untraced pass for the overhead).  The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# How much work a pass does depends on string-hash order (set iteration in
# the exact layers): with random hash seeds one cocycles pass took 11 s to
# 17 s on the same inputs.  A fixed seed makes every pass repeat the same
# work, so the spread left is the machine's.
os.environ["PYTHONHASHSEED"] = "0"

import argparse
import hashlib
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import generators
import layers
import workloads

WORKLOADS = ("cocycles", "dga", "heat")
SETUP_PROBES = 10
DEADLINE_S = 170.0     # every run, builds aside, must end within 180 s
OUT_DIR = os.path.join(ROOT, ".bench_out")

END_TO_END_UNITS = {"setup_s": "s", "verdict_s": "s", "peak_rss_mb": "MB"}


LAYER_UNITS = dict(layers.UNITS, **{"trace.verdict_s": "s",
                                    "trace.overhead_ratio": "ratio"})


def provenance(numpy_version):
    """nproc, Python and numpy versions (numpy as the worker imported it),
    and the code under test: the git
    commit when there is one, and always a digest of src/."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(base, f)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "commit": commit,
            "src_sha256": digest.hexdigest(),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


class Runner:
    def __init__(self, manifest_path, t_start, trace_file):
        self.manifest_path = manifest_path
        self.trace_file = trace_file
        self.t_start = t_start
        self.crashes = []

    def pass_(self, setup_only=False, trace_file=None):
        """Run one worker process to completion; returns its result dict,
        or None when it crashed or ran out of time."""
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               self.manifest_path]
        if setup_only:
            cmd.append("--setup-only")
        if trace_file:
            cmd += ["--trace", trace_file]
        budget = DEADLINE_S - (time.monotonic() - self.t_start)
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT,
                                  capture_output=True, text=True,
                                  timeout=max(1.0, budget))
        except subprocess.TimeoutExpired:
            self.crashes.append("worker timed out")
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            self.crashes.append(proc.stderr[-2000:])
            return None
        return json.loads(lines[-1])


def median(values):
    return statistics.median(values) if values else None


def measure(runner, seconds, trace):
    """Passes while the next one is expected to fit in `seconds`."""
    untraced, traced = [], []
    t0 = time.monotonic()
    longest = 0.0
    while True:
        t = time.monotonic()
        if trace:
            pair = [runner.pass_(), runner.pass_(trace_file=runner.trace_file)]
            if None in pair:
                return untraced, traced, False
            untraced.append(pair[0])
            traced.append(pair[1])
        else:
            res = runner.pass_()
            if res is None:
                return untraced, traced, False
            untraced.append(res)
        longest = max(longest, time.monotonic() - t)
        if time.monotonic() - t0 + longest > seconds:
            return untraced, traced, True


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    t_start = time.monotonic()

    if not os.path.isfile(os.path.join(ROOT, "src", "xchern", "cli.py")):
        print("error: no xchern source under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        man = generators.generate(args.workload, args.seed, work,
                                  os.path.join(ROOT, "specs"))
        manifest_path = os.path.join(work, "manifest.json")
        with open(manifest_path, "w") as fh:
            json.dump(man, fh, indent=1, sort_keys=True)
        runner = Runner(manifest_path, t_start, os.path.join(
            OUT_DIR, "trace-%s.npz" % args.workload))
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                res = runner.pass_(setup_only=True)
                if res is not None:
                    setups.append(res["setup_s"])
        untraced, traced, complete = measure(runner, args.seconds,
                                             args.trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = untraced + traced
    per_pass = workloads.total_operations(workloads.cases(man))
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    if not complete:
        # the pass that crashed or timed out attempted every operation
        attempted += per_pass
        failed += per_pass
    correct = complete and failed == 0 and len(setups) == (
        0 if args.trace else SETUP_PROBES)
    for r in passes:
        for note in r["notes"]:
            print("mismatch: %s" % note, file=sys.stderr)
    for crash in runner.crashes:
        print("worker failed: %s" % crash, file=sys.stderr)

    units = LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics = {}
    if not args.trace:
        setups += [r["setup_s"] for r in untraced]
        values = {"setup_s": median(setups),
                  "verdict_s": median([r["verdict_s"] for r in untraced]),
                  "peak_rss_mb": median([r["peak_rss_mb"] for r in untraced])}
    else:
        values = {}
        for key in traced[0]["layers"] if traced else ():
            values[key] = median([r["layers"][key] for r in traced])
        if traced:
            values["trace.verdict_s"] = median([r["verdict_s"]
                                                for r in traced])
            values["trace.overhead_ratio"] = values["trace.verdict_s"] / \
                median([r["verdict_s"] for r in untraced])
            absent = traced[0]["absent"]
            if absent:
                print("absent: %s" % ", ".join(absent), file=sys.stderr)
    for key, value in values.items():
        if value is not None:
            metrics[key] = {"value": value, "unit": units[key]}

    error_rate = failed / attempted if attempted else 1.0
    info = {"workload": args.workload, "seed": args.seed,
            "passes": len(untraced), "traced_passes": len(traced),
            "setup_samples": len(setups),
            "verdict_error_rate": error_rate,
            "provenance": provenance(passes[0].get("numpy")
                                     if passes else None)}
    if args.trace and traced:
        info["isolation"] = isolation(args.workload, values, traced[0])
        info["spans"] = traced[0]["spans"]
        info["traced_peak_rss_mb"] = traced[0]["peak_rss_mb"]
    for key, m in metrics.items():
        print("%-28s %14.6g %s" % (key, m["value"], m["unit"]))
    print("%-28s %14.6g %s" % ("verdict_error_rate", error_rate, "ratio"))
    print("info: %s" % json.dumps(info, sort_keys=True))
    result = {"correct": bool(correct), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    with open(os.path.join(OUT_DIR, "result-%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as fh:
        json.dump(dict(result, info=info), fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


def isolation(workload, values, traced):
    """The layer isolation each workload claims, checked on a traced run.
    On heat the exact layers see only the load-time certificates of the
    base algebra, which every spec load repeats."""
    def zero(*keys):
        return all(values.get(k) == 0 for k in keys)
    jlo_calls = ("jlo.jlo_component_calls", "jlo.cs_component_calls",
                 "jlo.chi_hat_T_calls")
    claims = {}
    if workload == "cocycles":
        claims["relations_build_s >= verdict_s / 2"] = \
            values.get("xcomplex.relations_build_s", 0) >= \
            values.get("trace.verdict_s", 0) / 2
        claims["jlo idle"] = zero(*jlo_calls)
    elif workload == "dga":
        claims["jlo idle"] = zero(*jlo_calls)
        claims["no relations builds"] = zero("xcomplex.relations_builds")
    else:
        claims["no scalar calls outside certificates"] = \
            traced["scalar_calls_outside_certificates"] == 0
        claims["no relations builds"] = zero("xcomplex.relations_builds")
    return claims


if __name__ == "__main__":
    sys.exit(main())

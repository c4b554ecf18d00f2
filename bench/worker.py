"""One pass of a workload in a fresh process: set-up, then every case in a
closed loop.  Prints one JSON line with the pass's measurements.

    python3 bench/worker.py MANIFEST --t0 T [--setup-only] [--trace FILE]

T is the CLOCK_MONOTONIC reading taken by the parent just before it started
this process, so setup_s includes interpreter start-up.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import workloads as W


class Context:
    """Objects loaded during set-up, shared by the library cases."""

    def __init__(self, manifest):
        self.manifest = manifest
        self.algebras = {}
        self.triples = {}
        self.perturbed = None


def import_program():
    """Import xchern from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    import xchern
    where = os.path.dirname(os.path.abspath(xchern.__file__))
    if where != os.path.join(SRC, "xchern"):
        raise ImportError("xchern imported from %s, not %s" % (where, SRC))
    import xchern.cli
    return xchern.cli


def load_specs(cli, ctx):
    """Load and certify the workload's specs through the CLI's loaders:
    associativity and unit of algebras, F^2 = 1 and evenness of rho of
    Fredholm modules, the quasihomomorphism checks, the spectral triples."""
    man = ctx.manifest
    for name in W.spec_names(man["workload"]):
        spec = cli.load_spec(man["specs"][name])
        kind = spec["kind"]
        if kind == "algebra":
            ctx.algebras[name] = cli.load_algebra(spec)
        elif kind == "quasihom":
            cli.load_quasihom(spec)
        elif kind == "fredholm":
            cli.load_fredholm(spec)
        elif kind == "spectral_triple":
            ctx.triples[name] = cli.load_spectral_triple(spec)
        else:
            raise ValueError("unexpected spec kind %r" % kind)


def run_cli(cli, case):
    """Run one command; returns (failed operations, note).  A rejection
    case fails when the exit code differs.  Otherwise every expected check
    whose status differs or is missing fails, and so does every unexpected
    check in the report."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(case.argv + ["--emit", "json"])
    if not case.expect or code not in (0, 2):
        if code == case.exit_code:
            return 0, None
        return case.operations, "exit %s, expected %s" % (code,
                                                          case.exit_code)
    got = [(c["name"], c["status"]) for c in json.loads(out.getvalue())
           ["checks"]]
    missing = sum(1 for e in case.expect if e not in got)
    extra = sum(1 for g in got if g not in case.expect)
    if missing or extra:
        return max(missing, extra), "checks %s, expected %s" % (
            got, case.expect)
    if code != case.exit_code:
        return 1, "exit %s, expected %s" % (code, case.exit_code)
    return 0, None


def run_case(cli, ctx, case):
    try:
        if isinstance(case, W.Cli):
            return run_cli(cli, case)
        status = case.fn(ctx)
        if status != case.expect:
            return 1, "status %s, expected %s" % (status, case.expect)
        return 0, None
    except Exception:
        return case.operations, traceback.format_exc()


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("manifest")
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", default=None,
                   help="trace the pass and write its spans to this file")
    args = p.parse_args(argv)
    with open(args.manifest) as fh:
        man = json.load(fh)

    cli = import_program()
    tracer = None
    if args.trace:
        import layers
        from tracer import Tracer
        tracer = Tracer()
        layers.install(tracer)
    ctx = Context(man)
    load_specs(cli, ctx)
    case_list = W.cases(man)

    t_first = time.monotonic()
    result = {"setup_s": t_first - args.t0}
    if not args.setup_only:
        failed, notes = 0, []
        for case in case_list:
            f, note = run_case(cli, ctx, case)
            failed += f
            if note:
                notes.append("%s: %s" % (case.label, note))
        result["verdict_s"] = time.monotonic() - t_first
        result["attempted"] = W.total_operations(case_list)
        result["failed"] = failed
        result["notes"] = notes
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if "numpy" in sys.modules:
        result["numpy"] = sys.modules["numpy"].__version__
    if tracer is not None:
        import layers
        spans = tracer.spans()
        values, absent = layers.metrics(tracer, spans)
        result["layers"] = values
        result["absent"] = absent
        result["scalar_calls_outside_certificates"] = \
            layers.scalar_calls_outside_certificates(spans)
        result["spans"] = len(spans["start"])
        tracer.write(args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

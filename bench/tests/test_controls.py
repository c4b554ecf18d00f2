"""The negative controls must fail on the program as it is, and the verdict
oracle must count a wrong verdict as a failed operation."""

import json
import os
import random

import pytest

import generators as G
import workloads as W
import worker

SPECS = os.path.join(worker.ROOT, "specs")


@pytest.fixture(scope="module")
def cli():
    return worker.import_program()


def context(cli, workload, seed, tmp_path):
    man = G.generate(workload, seed, str(tmp_path), SPECS)
    ctx = worker.Context(man)
    worker.load_specs(cli, ctx)
    return man, ctx


def controls(man):
    return [c for c in W.cases(man) if c.expect != "pass" and (
        isinstance(c, W.Lib) or c.exit_code != 0)]


@pytest.mark.parametrize("workload", ["cocycles", "dga", "heat"])
@pytest.mark.parametrize("seed", [1, 2])
def test_every_workload_has_a_control_that_is_met(cli, workload, seed,
                                                  tmp_path):
    man, ctx = context(cli, workload, seed, tmp_path)
    found = controls(man)
    assert found
    for case in found:
        assert worker.run_case(cli, ctx, case) == (0, None), case.label


@pytest.mark.parametrize("seed", range(4))
def test_perturbed_map_fails_both_checks(cli, seed, tmp_path):
    from xchern import xcomplex as X
    _, ctx = context(cli, "cocycles", seed, tmp_path)
    bad, good, xt = W.perturbed_map(ctx)
    assert X.maps_equal(good, good, xt.even_basis(), xt.odd_basis())["ok"]
    assert X.verify_chain_map(good)["ok"]
    assert not X.maps_equal(bad, good, xt.even_basis(),
                            xt.odd_basis())["ok"]
    assert not X.verify_chain_map(bad)["ok"]


@pytest.mark.parametrize("seed", range(4))
def test_flipped_transgression_exceeds_tolerance(cli, seed, tmp_path):
    _, ctx = context(cli, "heat", seed, tmp_path)
    for name, (_, triple) in ctx.triples.items():
        for slot in (0, 1):
            assert W.transgression_residual(triple, slot, 1) <= \
                W.TRANSGRESSION_TOLERANCE
            assert W.transgression_residual(triple, slot, -1) > \
                100 * W.TRANSGRESSION_TOLERANCE, (name, slot)


def test_rejections_exit_3(cli, tmp_path):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps(G.nonassociative_spec(random.Random(0))))
    assert worker.run_cli(cli, W.Cli(["verify-dga", str(spec)], [],
                                     exit_code=3)) == (0, None)
    dual = os.path.join(SPECS, "dual.json")
    for n, parity in ((0, "even"), (1, "odd")):
        window = 2 * n + (parity == "odd") + 1
        case = W.Cli(["universal", dual, "--n", str(n), "--parity", parity,
                      "--window", str(window)], [], exit_code=3)
        assert worker.run_cli(cli, case) == (0, None)


def test_oracle_counts_wrong_verdicts(cli):
    fredholm = os.path.join(SPECS, "fredholm.json")
    right = W.Cli(["pair", fredholm],
                  W.passing(["index pairing %d" % i for i in range(3)]))
    assert worker.run_cli(cli, right) == (0, None)
    # a report that says pass where fail is expected scores an error
    wrong = W.Cli(["pair", fredholm], [("index pairing 0", "fail")] +
                  W.passing(["index pairing 1", "index pairing 2"]))
    failed, note = worker.run_cli(cli, wrong)
    assert failed == 1 and note.startswith("checks")
    # a check missing from the expectation also scores an error
    short = W.Cli(["pair", fredholm], W.passing(["index pairing 0"]))
    failed, note = worker.run_cli(cli, short)
    assert failed == 2 and note.startswith("checks")

"""Malformed input by property: every small mutation of a spec under specs/
is either run or turned away.

Each mutant replaces one value of a spec with a small value or drops one
key or list item, and runs in process through cli.main with small flags.
It must exit 0, 2 or 3; an exception escaping main fails the test.  The
mutants come from a fixed seed, so the run is the same every time.
"""

import copy
import json
import os
import random

import pytest

from xchern.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPECS = os.path.join(ROOT, "specs")
MUTANTS_PER_SPEC = 150

# no size above a few units, so that no mutant can start much work
SMALL = [0, 1, 2, -1, 1.5, True, None, "", "0", "1", "2", "-1", "1/2",
         "sqrt(pi)", "1+i", "unit", "x", [], {}, [[]], [0, 0], {"0": "1"}]

COMMANDS = {
    "algebra": ["verify-dga", "--max-degree", "2"],
    "quasihom": ["chern", "--n", "0"],
    "extension": ["chern", "--n", "0"],
    "fredholm": ["pair"],
    "spectral_triple": ["jlo", "--n", "0", "--T", "2"],
}


def _sites(node, path=()):
    """Paths to every value below the root of a JSON tree."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _sites(child, path + (key,))


def _mutant(spec, path, value, drop):
    out = copy.deepcopy(spec)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    if drop:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(value)
    return out


def _mutants(spec, rng):
    sites = list(_sites(spec))
    for _ in range(MUTANTS_PER_SPEC):
        path = rng.choice(sites)
        drop = rng.random() < 0.2
        value = rng.choice(SMALL)
        yield path, ("drop" if drop else value), _mutant(spec, path, value,
                                                         drop)


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(SPECS)
                                        if f.endswith(".json")))
def test_every_mutant_exits_0_2_or_3(name, tmp_path, capsys):
    with open(os.path.join(SPECS, name)) as fh:
        spec = json.load(fh)
    command, *flags = COMMANDS[spec["kind"]]
    rng = random.Random("%s:5" % name)
    path_file = str(tmp_path / name)
    bad = []
    for path, change, mutant in _mutants(spec, rng):
        with open(path_file, "w") as fh:
            json.dump(mutant, fh)
        try:
            code = main([command, path_file] + flags)
        except Exception as exc:  # any exception escaping main fails
            code = "%s: %s" % (type(exc).__name__, exc)
        if code not in (0, 2, 3):
            bad.append((path, change, code))
    capsys.readouterr()
    assert not bad, bad[:5]

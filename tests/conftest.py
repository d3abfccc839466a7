import importlib.util
import sys
from pathlib import Path

import pytest

from irrbase.affine import build_agl
from irrbase.perm import _compose_tbl
from irrbase.wreath import build_wreath

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    # derandomized: the same examples on every run, so the suite stays deterministic
    settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
    settings.load_profile("tier1")


ROOT = Path(__file__).resolve().parent.parent


def bench_workloads():
    """``bench/workloads.py`` as a module: the steps the benchmark runs and their inputs."""
    path = ROOT / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up while built
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    return workloads


def brute_closure(gens, degree):
    """Independent closure oracle: multiply image tables until closed.

    Deliberately avoids the package's chain machinery so BSGS orders can be
    checked against it.
    """
    ident = tuple(range(degree))
    tbls = [tuple(v - 1 for v in g.images) for g in gens]
    els = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for a in frontier:
            for g in tbls:
                c = tuple(g[v] for v in a)
                if c not in els:
                    els.add(c)
                    new.append(c)
        frontier = new
    return els


def min_coset_rep(h, y):
    """The lexicographically least table of the right coset Hy: the reference for
    ``group._coset_key``, whose key is this table's inverse.

    The greedy walk down H's chain on y itself: at each level the base point's
    image is made least over the level's orbit, by taking the transversal u to
    the orbit point of least image first, then y.
    """
    for lvl in h._levels:
        c = min(lvl.orbit, key=y.__getitem__)
        if c != lvl.point:
            y = _compose_tbl(lvl.orbit[c], y)
    return y


@pytest.fixture(scope="session")
def agl71():
    return build_agl(7, 1)


@pytest.fixture(scope="session")
def agl32():
    return build_agl(3, 2)


@pytest.fixture(scope="session")
def agl52():
    return build_agl(5, 2)


@pytest.fixture(scope="session")
def wreath52():
    return build_wreath(5, 2)

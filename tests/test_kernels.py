"""Backend parity: the compiled kernels must match the pure twins exactly.

Where the extension is not installed, the committed ``_speedups.c`` is built
with the C compiler into a temporary directory and loaded from there; the
tests skip, giving the reason, when no compiler or no ``Python.h`` is found.
"""
import importlib
import importlib.util
import random
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from quandlekit._kernels import _pure


@pytest.fixture(scope="module")
def speedups(tmp_path_factory):
    """The compiled kernels: the installed extension, or else the committed
    C source built at -O0 outside the source tree."""
    try:
        return importlib.import_module("quandlekit._kernels._speedups")
    except ImportError:
        pass
    source = Path(_pure.__file__).with_name("_speedups.c")
    compiler = shlex.split(sysconfig.get_config_var("CC") or "cc")
    include = sysconfig.get_paths()["include"]
    if shutil.which(compiler[0]) is None:
        pytest.skip(f"no C compiler {compiler[0]!r} to build {source.name}")
    if not Path(include, "Python.h").is_file():
        pytest.skip(f"no Python.h in {include} to build {source.name}")
    target = (tmp_path_factory.mktemp("speedups")
              / ("_speedups" + sysconfig.get_config_var("EXT_SUFFIX")))
    build = subprocess.run(
        [*compiler, "-O0", "-shared", "-fPIC", f"-I{include}",
         str(source), "-o", str(target)],
        capture_output=True, text=True, timeout=300)
    assert build.returncode == 0, build.stderr[-2000:]
    spec = importlib.util.spec_from_file_location(
        "quandlekit._kernels._speedups", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # the module enters itself in sys.modules; take it out, so that the
    # package (reloaded by test_pure_env_override) keeps the pure backend
    del sys.modules[spec.name]
    return module


def random_perm(rng, n):
    return tuple(rng.sample(range(n), n))


def test_backend_reports_a_name(speedups):
    from quandlekit import _kernels

    assert _kernels.BACKEND in ("pure", "cython")
    assert _pure.BACKEND == "pure"
    assert speedups.BACKEND == "cython"


def test_closure_matches_on_random_generator_sets(speedups):
    rng = random.Random(101)
    for _ in range(40):
        n = rng.randint(1, 9)
        gens = [random_perm(rng, n) for _ in range(rng.randint(0, 3))]
        a = _pure.closure_elements(n, gens, 10 ** 6)
        b = speedups.closure_elements(n, gens, 10 ** 6)
        assert a == b  # same elements in the same BFS order


def test_closure_cap_matches(speedups):
    gens = [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)]
    assert _pure.closure_elements(5, gens, 10) is None
    assert speedups.closure_elements(5, gens, 10) is None
    assert _pure.closure_elements(5, gens, 120) is not None
    assert speedups.closure_elements(5, gens, 120) is not None


def test_closure_cap_boundary_exact_order(speedups):
    gens = [(1, 2, 0)]
    assert _pure.closure_elements(3, gens, 3) is not None
    assert speedups.closure_elements(3, gens, 3) is not None
    assert _pure.closure_elements(3, gens, 2) is None
    assert speedups.closure_elements(3, gens, 2) is None


def test_a1_matches_on_random_tables(speedups):
    rng = random.Random(202)
    for _ in range(40):
        n = rng.randint(1, 7)
        table = [tuple(rng.randrange(n) for _ in range(n)) for _ in range(n)]
        assert _pure.a1_violations(table) == speedups.a1_violations(table)
        assert (_pure.a1_violations(table, limit=1)
                == speedups.a1_violations(table, limit=1))


def test_a1_clean_on_golden(golden, speedups):
    rows = [p.images for p in golden.translations()]
    assert _pure.a1_violations(rows) == []
    assert speedups.a1_violations(rows) == []


def test_conjugation_table_matches(golden, speedups):
    elems = [p.images for p in golden.translations()]
    assert (_pure.conjugation_table(elems, 12)
            == speedups.conjugation_table(elems, 12))


def test_conjugation_table_detects_unclosed_sets(speedups):
    elems = [(1, 0, 2), (0, 2, 1)]
    assert _pure.conjugation_table(elems, 3) is None
    assert speedups.conjugation_table(elems, 3) is None


def test_pure_env_override(monkeypatch):
    import importlib
    import quandlekit._kernels as kernels

    monkeypatch.setenv("QUANDLEKIT_PURE", "1")
    reloaded = importlib.reload(kernels)
    try:
        assert reloaded.BACKEND == "pure"
    finally:
        monkeypatch.delenv("QUANDLEKIT_PURE")
        importlib.reload(kernels)


def test_the_parity_build_leaves_the_pure_backend_selected(speedups):
    # runs after test_pure_env_override, whose reload would select a built
    # copy left in sys.modules
    from quandlekit import _kernels

    if speedups.__file__.startswith(str(Path(_pure.__file__).parent)):
        pytest.skip("the extension is installed beside the pure kernels")
    assert _kernels.BACKEND == "pure"

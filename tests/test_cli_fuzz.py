"""Boundary fuzz of the command line: every run ends with a documented exit
code (0, 1, 2, 3 or 64) and no exception escapes ``main``.

Specs are drawn from the ``construct`` grammar, input files are small RTBL
and PERM files with mutated tokens, lines and headers, and scans are of
degree or order at most 6, some with an ``--out`` path.  Everything
that would be built is sized from its spec or header first: orders,
degrees and row counts stay small, and a header that names a large size
has too few rows for it, so nothing large is built.
"""
import contextlib
import io
import math

from hypothesis import HealthCheck, given, settings, strategies as st

from quandlekit.cli import main
from quandlekit.perm import all_partitions

EXIT_CODES = {0, 1, 2, 3, 64}

FUZZ = settings(max_examples=120, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])


def _run(argv):
    """The exit code and stdout of one run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue()


def _exit_code(argv):
    return _run(argv)[0]


def _cap():
    return st.one_of(st.just([]),
                     st.integers(1, 200).map(lambda c: ["--cap", str(c)]))


# -- construct specs -------------------------------------------------------------

_int_list = st.lists(st.integers(-2, 7), max_size=4).map(
    lambda xs: ",".join(map(str, xs)))
_junk = st.sampled_from(["", "x", ",", "1,,2", "=", "-", "2.5", "9" * 30])


@st.composite
def _cycles(draw, degree):
    """1-based cycle text of a permutation of the given degree, or now and
    then of points out of range."""
    points = list(draw(st.permutations(range(1, degree + 1))))
    if draw(st.integers(0, 9)) == 9:
        points.append(draw(st.sampled_from([0, degree + 1, *points[:1]])))
    cut = draw(st.integers(0, len(points)))
    cycles = [part for part in (points[:cut], points[cut:]) if len(part) > 1]
    return "".join("(" + ",".join(map(str, c)) + ")" for c in cycles) or "()"


@st.composite
def _conj_spec(draw):
    d = draw(st.integers(0, 5))
    parts = draw(st.sampled_from(all_partitions(d))) if d else ()
    if draw(st.integers(0, 4)) == 4:
        parts = draw(st.lists(st.integers(-1, 5), max_size=5))
    return f"conj d={d} type={','.join(map(str, parts))}"


@st.composite
def _affine_spec(draw):
    orders = draw(st.lists(st.integers(1, 6), min_size=1, max_size=2))
    if draw(st.integers(0, 4)) == 4:
        orders.append(draw(st.integers(-1, 0)))
    size = math.prod(max(o, 1) for o in orders)
    how = draw(st.sampled_from(["multiplier", "multiplier", "images"]))
    if how == "multiplier":
        alpha = str(draw(st.integers(-3, 8)))
    else:
        alpha = ",".join(map(str, draw(st.one_of(
            st.permutations(range(size)),
            st.lists(st.integers(-1, size), min_size=1, max_size=size + 1)))))
    return f"affine orders={','.join(map(str, orders))} alpha={alpha}"


@st.composite
def _homog_spec(draw, group_path):
    """A group file of degree at most 4 and a spec over it; the conjugator
    is mostly the identity or a generator, so that it lies in the group."""
    degree = draw(st.integers(1, 4))
    gens = draw(st.lists(_cycles(degree), max_size=3))
    group_path.write_text(f"perm {degree}\n" + "".join(g + "\n" for g in gens))
    sub = draw(st.one_of(
        st.lists(st.integers(1, max(len(gens), 1)), max_size=2).map(
            lambda xs: ",".join(map(str, xs))),
        _int_list))
    conjugator = draw(st.one_of(st.sampled_from(["()", *gens]),
                                _cycles(degree), _junk))
    prefix = draw(st.sampled_from(["conj:", "conj:", "conj:", "auto:"]))
    return f"homog group={group_path} sub={sub} alpha={prefix}{conjugator}"


@st.composite
def _mangled(draw, spec):
    """The spec, or the spec with one token dropped, doubled or replaced."""
    toks = spec.split()
    how = draw(st.sampled_from(["keep", "keep", "drop", "double", "replace"]))
    if how != "keep" and toks:
        i = draw(st.integers(0, len(toks) - 1))
        if how == "drop":
            del toks[i]
        elif how == "double":
            toks.insert(i, toks[i])
        else:
            toks[i] = draw(st.one_of(_junk, _int_list.map(lambda v: f"k={v}")))
    return " ".join(toks)


@FUZZ
@given(data=st.data())
def test_construct_specs_end_with_an_exit_code(tmp_path_factory, data):
    group_path = tmp_path_factory.getbasetemp() / "fuzz-group.perm"
    spec = data.draw(data.draw(st.sampled_from(
        [_conj_spec(), _affine_spec(), _homog_spec(group_path)])))
    argv = [*data.draw(_cap()), "construct", data.draw(_mangled(spec))]
    assert _exit_code(argv) in EXIT_CODES, argv


# -- input files -------------------------------------------------------------------

SEED_FILES = [
    "rtbl 1\n1\n",
    "rtbl 3\n1 3 2\n3 2 1\n2 1 3\n",
    "rtbl 3\n2 3 1\n2 3 1\n2 3 1\n",
    "rtbl 4\n1 4 2 3\n3 2 4 1\n4 1 3 2\n2 3 1 4\n",
    "rtbl 2\n1 1\n2 2\n",
    "perm 3\n(2,3)\n(1,3)\n(1,2)\n",
    "perm 4\n(2,4,3)\n(1,3,4)\n(1,4,2)\n(1,2,3)\n",
    "perm 3\n(1,2,3)\n(1,2,3)\n(1,2,3)\n",
    "perm 2\n()\n# comment\n()\n",
]

_token = st.one_of(
    st.integers(-2, 6).map(str),
    st.sampled_from(["rtbl", "perm", "1000000000", "0", "x", "#", "(", ")",
                     "(1,2)", "(1,1)", "(9)", "()", "1,2", "", "\t"]),
)


@st.composite
def _mutated_file(draw):
    lines = [line.split(" ") for line in
             draw(st.sampled_from(SEED_FILES)).splitlines()]
    for _ in range(draw(st.integers(0, 3))):
        how = draw(st.sampled_from(["token", "token", "delete", "duplicate",
                                    "insert"]))
        i = draw(st.integers(0, len(lines) - 1)) if lines else 0
        if how == "token" and lines:
            j = draw(st.integers(0, len(lines[i])))
            if j == len(lines[i]):
                lines[i].append(draw(_token))
            else:
                lines[i][j] = draw(_token)
        elif how == "delete" and lines:
            del lines[i]
        elif how == "duplicate" and lines:
            lines.insert(i, list(lines[i]))
        else:
            lines.insert(i, draw(st.lists(_token, max_size=3)))
    return "".join(" ".join(line) + "\n" for line in lines)


@FUZZ
@given(data=st.data())
def test_input_files_end_with_an_exit_code(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz-input.txt"
    path.write_text(data.draw(_mutated_file()))
    command = data.draw(st.sampled_from(["validate", "analyze"]))
    flags = data.draw(st.sampled_from([[], ["--json"]]))
    argv = [*data.draw(_cap()), command, str(path), *flags]
    assert _exit_code(argv) in EXIT_CODES, (argv, path.read_text())


# -- scans and output paths ----------------------------------------------------------


@st.composite
def _scan_argv(draw):
    mode = draw(st.sampled_from(["--sym", "--alt", "--enumerate"]))
    argv = ["scan", mode, str(draw(st.integers(1, 6)))]
    if draw(st.booleans()):
        argv += ["--bound", str(draw(st.integers(1, 8)))]
    if draw(st.integers(0, 3)) == 3:
        argv.append("--racks")  # a usage error without --enumerate
    if draw(st.booleans()):
        argv.append("--json")
    return [*draw(_cap()), *argv]


@FUZZ
@given(data=st.data())
def test_scans_and_out_paths_end_with_an_exit_code(tmp_path_factory, data):
    argv = data.draw(_scan_argv())
    code, out = _run(argv)
    assert code in EXIT_CODES, argv
    root = tmp_path_factory.mktemp("out")
    where = data.draw(st.sampled_from(["file", "directory", "missing parent"]))
    path = {"file": root / "scan.txt", "directory": root,
            "missing parent": root / "missing" / "scan.txt"}[where]
    out_code, out_text = _run(["--out", str(path), *argv])
    assert out_text == "", argv
    if where != "file":
        # the output cannot be written: a run that gets that far is a usage error
        assert out_code == (64 if code in (0, 1) else code), (where, argv)
    elif code in (0, 1):
        assert (out_code, path.read_text()) == (code, out), argv
    else:
        assert (out_code, path.exists()) == (code, False), argv

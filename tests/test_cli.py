"""End-to-end command-line behavior: formats, determinism, exit codes."""
import hashlib
import json

import pytest

from quandlekit import (
    Permutation,
    PermutationGroup,
    emit_rtbl,
    is_isomorphic,
    parse_rack_file,
    trivial_quandle,
)
from quandlekit.cli import main
from quandlekit.fixtures import fixture_text


@pytest.fixture()
def fixture_path(tmp_path):
    path = tmp_path / "smallquandle-12-4.perm"
    path.write_text(fixture_text())
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- validate ------------------------------------------------------------------


def test_validate_fixture(capsys, fixture_path):
    code, out, _ = run(capsys, "validate", fixture_path)
    assert code == 0
    assert out == "quandle, n=12\n"


def test_validate_trivial_rtbl(capsys, tmp_path):
    path = tmp_path / "trivial-3.rtbl"
    path.write_text(emit_rtbl(trivial_quandle(3)))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0
    assert out == "quandle, n=3\n"


def test_validate_names_the_corrupted_row(capsys, tmp_path):
    path = tmp_path / "bad.rtbl"
    path.write_text("rtbl 2\n1 1\n2 1\n")
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0
    assert "not-a-rack" in out
    assert "A2 fails at (1)" in out


def test_validate_json(capsys, fixture_path):
    code, out, _ = run(capsys, "validate", fixture_path, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"n": 12, "verdict": "quandle", "witnesses": []}


def test_parse_error_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.rtbl"
    path.write_text("rtbl x\n")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 64
    assert "line 1" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/file.rtbl")
    assert code == 64


def assert_usage_exit(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 64
    assert out == ""
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize("command", ["validate", "analyze"])
def test_undecodable_file_exit_code(capsys, tmp_path, command):
    path = tmp_path / "binary.rtbl"
    path.write_bytes(b"rtbl 1\n\xff\n")
    err = assert_usage_exit(capsys, command, str(path))
    assert f"cannot read {path}" in err


@pytest.mark.parametrize("content", [b"perm 3\n(1,2)\xff\n", None])
def test_unreadable_homog_group_file_exit_code(capsys, tmp_path, content):
    path = tmp_path / "group.perm"
    if content is not None:
        path.write_bytes(content)
    err = assert_usage_exit(capsys, "construct",
                            f"homog group={path} sub= alpha=conj:()")
    assert f"cannot read {path}" in err


def test_out_into_a_missing_directory_exit_code(capsys, tmp_path):
    target = tmp_path / "absent" / "x"
    err = assert_usage_exit(capsys, "--out", str(target), "scan", "--sym", "3")
    assert f"cannot write {target}" in err


def test_out_onto_a_directory_exit_code(capsys, tmp_path, fixture_path):
    err = assert_usage_exit(capsys, "--out", str(tmp_path), "analyze",
                            fixture_path)
    assert f"cannot write {tmp_path}" in err


@pytest.mark.parametrize("command", ["validate", "analyze"])
def test_perm_file_with_a_repeated_point_exit_code(capsys, tmp_path, command):
    path = tmp_path / "dup.perm"
    path.write_text("perm 2\n(1,2)(2,1)\n()\n")
    code, _, err = run(capsys, command, str(path))
    assert code == 64
    assert "line 2" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("header", ["perm 0", "perm -3"])
@pytest.mark.parametrize("command", ["validate", "analyze"])
def test_perm_file_with_a_non_positive_degree_exit_code(capsys, tmp_path,
                                                         command, header):
    path = tmp_path / "empty.perm"
    path.write_text(header + "\n")
    code, out, err = run(capsys, command, str(path))
    assert code == 64
    assert out == ""
    assert "degree must be positive" in err
    assert "Traceback" not in err


# A rack file reaches the reader through validate and analyze; a PERM group
# file through construct homog.
RACK_FILE_ERRORS = [
    ("", "empty input"),
    ("# a comment\n\n", "empty input"),
    ("tabl 3\n", "unknown format header 'tabl'"),
    ("RTBL 1\n1\n", "unknown format header 'RTBL'"),
    ("rtbl\n", "line 1: expected 'rtbl <n>' header, got 'rtbl'"),
    ("rtbl 1 1\n1\n", "line 1: expected 'rtbl <n>' header, got 'rtbl 1 1'"),
    ("perm 1 1\n()\n", "line 1: expected 'perm <n>' header, got 'perm 1 1'"),
    ("# size\nrtbl x\n", "line 2: bad size 'x'"),
    ("perm 1.5\n()\n", "line 1: bad degree '1.5'"),
    ("rtbl 0\n", "line 1: size must be positive, got 0"),
    ("rtbl -2\n", "line 1: size must be positive, got -2"),
    ("perm 0\n", "line 1: degree must be positive, got 0"),
    ("perm -2\n", "line 1: degree must be positive, got -2"),
    ("rtbl 3\n1 2 3\n1 x 3\n", "expected 3 table rows, found 2"),
    ("rtbl 2\n1 2\n2 1\n1 2\n", "expected 2 table rows, found 3"),
    ("perm 3\n(1,2)\n(1,x)\n", "PERM rack input needs 3 permutations, found 2"),
    ("perm 2\n()\n()\n()\n", "PERM rack input needs 2 permutations, found 3"),
]

GROUP_FILE_ERRORS = [
    ("", "empty PERM input"),
    ("rtbl 1\n1\n", "line 1: expected 'perm <n>' header, got 'rtbl 1'"),
    ("perm\n", "line 1: expected 'perm <n>' header, got 'perm'"),
    ("perm 2 2\n(1,2)\n", "line 1: expected 'perm <n>' header, got 'perm 2 2'"),
    ("\nperm x\n(1,2)\n", "line 2: bad degree 'x'"),
    ("perm 0\n", "line 1: degree must be positive, got 0"),
    ("perm -2\n(1,2)\n", "line 1: degree must be positive, got -2"),
]


@pytest.mark.parametrize("text,message", RACK_FILE_ERRORS)
@pytest.mark.parametrize("command", ["validate", "analyze"])
def test_rack_file_header_and_row_count_messages(capsys, tmp_path, command,
                                                 text, message):
    path = tmp_path / "rack.txt"
    path.write_text(text)
    assert run(capsys, command, str(path)) == (64, "", f"quandlekit: {message}\n")


@pytest.mark.parametrize("text,message", GROUP_FILE_ERRORS)
def test_group_file_header_messages(capsys, tmp_path, text, message):
    path = tmp_path / "group.perm"
    path.write_text(text)
    assert run(capsys, "construct", f"homog group={path} sub= alpha=conj:()") == (
        64, "", f"quandlekit: {message}\n")


# -- analyze ------------------------------------------------------------------------


def test_analyze_fixture_text(capsys, fixture_path):
    code, out, _ = run(capsys, "analyze", fixture_path)
    assert code == 0
    assert "profile: 1^1 2^1 3^1 6^1" in out
    assert "hayashi: holds" in out
    assert "primitive: no" in out
    assert "block witness: {1,5,9} {2,6,10} {3,7,11} {4,8,12}" in out


def test_analyze_trivial_2(capsys, tmp_path):
    path = tmp_path / "trivial-2.rtbl"
    path.write_text(emit_rtbl(trivial_quandle(2)))
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert "connected: no" in out
    assert "profile: n/a" in out


def test_analyze_json_is_valid(capsys, fixture_path):
    code, out, _ = run(capsys, "analyze", fixture_path, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["profile"] == "1^1 2^1 3^1 6^1"
    assert payload["hayashi"] == "holds"
    assert payload["primitive"] is False


def test_analyze_cap_exceeded(capsys, fixture_path):
    code, _, err = run(capsys, "--cap", "5", "analyze", fixture_path)
    assert code == 3
    assert "resource limit" in err


def test_analyze_rejects_non_rack(capsys, tmp_path):
    path = tmp_path / "bad.rtbl"
    path.write_text("rtbl 2\n1 1\n2 1\n")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 64
    assert "not a rack" in err


# -- construct ------------------------------------------------------------------------


def test_construct_transposition_class(capsys):
    code, out, _ = run(capsys, "construct", "conj d=3 type=2,1")
    assert code == 0
    rack = parse_rack_file(out)
    assert rack.n == 3
    assert rack.is_quandle


def test_construct_affine_notes_connectedness(capsys):
    code, out, _ = run(capsys, "construct", "affine orders=5 alpha=2")
    assert code == 0
    assert "connected: yes" in out
    assert parse_rack_file(out).n == 5


def test_construct_disconnected_class(capsys, tmp_path):
    code, out, _ = run(capsys, "construct", "conj d=4 type=2,2")
    assert code == 0
    path = tmp_path / "c.rtbl"
    path.write_text(out)
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert "connected: no" in out


def test_construct_homogeneous(capsys, tmp_path):
    group_file = tmp_path / "s3.perm"
    group_file.write_text("perm 3\n(1,2)\n(1,2,3)\n")
    code, out, _ = run(
        capsys, "construct",
        f"homog group={group_file} sub=1 alpha=conj:(1,2)")
    assert code == 0
    rack = parse_rack_file(out)
    assert rack.n == 3
    assert rack.is_quandle


def test_construct_round_trip_is_isomorphic_with_identity(capsys, tmp_path):
    code, out, _ = run(capsys, "construct", "affine orders=7 alpha=3")
    path = tmp_path / "a.rtbl"
    path.write_text(out)
    rack = parse_rack_file(path.read_text())
    again = parse_rack_file(emit_rtbl(rack))
    witness = is_isomorphic(rack, again)
    assert witness.found and witness.bijection.is_identity()


def test_construct_bad_spec(capsys):
    code, _, err = run(capsys, "construct", "conj d=4 type=3,3")
    assert code == 64
    assert "partition" in err
    code, _, _ = run(capsys, "construct", "mystery a=1")
    assert code == 64


@pytest.mark.parametrize("spec", ["conj d=0 type=", "affine orders= alpha=1"])
def test_construct_rejects_degenerate_specs(capsys, spec):
    assert_usage_exit(capsys, "construct", spec)


@pytest.mark.parametrize("spec,key", [
    ("conj d=3 type=2,1 type=3", "type"),
    ("affine orders=7 alpha=3 orders=5", "orders"),
    ("homog group={group} sub= alpha=conj:(1,2) sub=", "sub"),
])
def test_construct_rejects_a_repeated_key(capsys, tmp_path, spec, key):
    group_file = tmp_path / "s3.perm"
    group_file.write_text("perm 3\n(1,2)\n(1,2,3)\n")
    err = assert_usage_exit(capsys, "construct", spec.format(group=group_file))
    assert f"repeats the key {key}" in err


def test_construct_homogeneous_with_the_trivial_subgroup(capsys, tmp_path):
    group_file = tmp_path / "s3.perm"
    group_file.write_text("perm 3\n(1,2)\n(1,2,3)\n")
    code, out, _ = run(capsys, "construct",
                       f"homog group={group_file} sub= alpha=conj:(1,2)")
    assert code == 0
    assert parse_rack_file(out).n == 6


def test_construct_rejects_non_automorphism(capsys):
    code, _, err = run(capsys, "construct", "affine orders=4 alpha=2")
    assert code == 64


@pytest.mark.parametrize("spec", [
    "affine orders=,3 alpha=1",
    "conj d=3 type=3,",
    "conj d=3 type=2,,1",
])
def test_construct_rejects_an_empty_list_item(capsys, spec):
    err = assert_usage_exit(capsys, "construct", spec)
    assert "expected comma-separated integers" in err


@pytest.mark.parametrize("cap", [["--cap", "1000"], []],
                         ids=["cap-1000", "default-cap"])
def test_construct_conj_checks_the_class_size_before_listing(capsys,
                                                             monkeypatch, cap):
    def forbidden(*args, **kwargs):
        raise AssertionError("the class was listed")

    monkeypatch.setattr(PermutationGroup, "conjugacy_class", forbidden)
    code, out, err = run(capsys, *cap, "construct", "conj d=1000 type=1000")
    assert code == 3
    assert out == ""
    limit = cap[1] if cap else "1000000"
    assert f"conjugacy class exceeds cap {limit}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,stage,size", [
    (["construct", "conj d=9 type=9"],
     "class quandle of cycle type 9^1 in degree 9", 40320),
    (["construct", "conj d=1000 type=2" + ",1" * 998],
     "class quandle of cycle type 1^998 2^1 in degree 1000", 499500),
], ids=["conj-9-cycles", "conj-s1000-transpositions"])
def test_class_table_bound_exits_3_before_listing(capsys, monkeypatch,
                                                  argv, stage, size):
    def forbidden(*args, **kwargs):
        raise AssertionError("the class was listed")

    # each class fits the default cap, but its table passes 2^25 entries
    monkeypatch.setattr(PermutationGroup, "conjugacy_class", forbidden)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err == (f"quandlekit: resource limit: {stage}: table of "
                   f"{size}^2 = {size * size} entries exceeds "
                   "the table bound 33554432\n")


@pytest.mark.parametrize("argv", [["scan", "--sym", "6"],
                                  ["scan", "--alt", "7"]],
                         ids=["sym-6", "alt-7"])
def test_class_scans_read_no_table_bound(capsys, monkeypatch, argv):
    # a scan builds no table (scan --alt 6 builds the split halves' tables
    # for their witness, so degree 7 is the alternating case)
    from quandlekit import racktable
    from test_output_pins import PINS

    monkeypatch.setattr(racktable, "TABLE_BOUND", 0)
    code, out, err = run(capsys, *argv)
    assert (code, hashlib.sha256(out.encode()).hexdigest(), err) == (
        *PINS[" ".join(argv)], "")


def test_degree_9_scan_checks_the_cap_before_listing(capsys, monkeypatch):
    # the 9-cycles, the first class scanned, number 40320
    def forbidden(*args, **kwargs):
        raise AssertionError("the class was listed")

    monkeypatch.setattr(PermutationGroup, "conjugacy_class", forbidden)
    assert run(capsys, "--cap", "40000", "scan", "--sym", "9",
               "--bound", "9") == (
        3, "", "quandlekit: resource limit: conjugacy class exceeds cap "
               "40000\n")


def _table_bound_line(stage, size, bound=33554432):
    return (f"quandlekit: resource limit: {stage}: table of {size}^2 = "
            f"{size * size} entries exceeds the table bound {bound}\n")


def _no_permutation_parsed(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a permutation line was expanded")

    monkeypatch.setattr(Permutation, "parse", forbidden)


@pytest.mark.parametrize("command", ["validate", "analyze"])
def test_perm_rack_line_count_is_checked_before_any_line(capsys, tmp_path,
                                                         monkeypatch, command):
    path = tmp_path / "huge.perm"
    path.write_text("perm 1000000000\n(1,2)\n")
    _no_permutation_parsed(monkeypatch)
    assert run(capsys, command, str(path)) == (
        64, "", "quandlekit: PERM rack input needs 1000000000 permutations, "
                "found 1\n")


def test_perm_degree_past_the_table_bound_exits_3_unexpanded(
        capsys, tmp_path, monkeypatch):
    # a PERM rack of degree n is an n^2 table; 5792^2 fits 2^25, 5793^2 does not
    rack = tmp_path / "rack.perm"
    rack.write_text("perm 5793\n" + "()\n" * 5793)
    group = tmp_path / "group.perm"
    group.write_text("perm 1000000000\n(1,2)\n")
    with monkeypatch.context() as patched:
        _no_permutation_parsed(patched)
        assert run(capsys, "validate", str(rack)) == (
            3, "", _table_bound_line("PERM input of degree 5793", 5793))
        spec = f"homog group={group} sub=1 alpha=conj:()"
        assert run(capsys, "construct", spec) == (
            3, "", _table_bound_line("PERM input of degree 1000000000",
                                     1000000000))
    group.write_text("perm 5792\n(1,2)\n")
    code, out, err = run(capsys, "construct",
                         f"homog group={group} sub=1 alpha=conj:()")
    assert (code, out.splitlines()[-2:], err) == (0, ["rtbl 1", "1"], "")


@pytest.mark.parametrize("orders,size", [
    ("100003", 100003), ("100003,100003", 10000600009)])
def test_affine_table_bound_exits_3_before_listing(capsys, orders, size):
    assert run(capsys, "construct", f"affine orders={orders} alpha=2") == (
        3, "", _table_bound_line(f"affine quandle of orders {orders}", size))


def test_affine_and_homog_tables_are_sized_from_the_spec(capsys, tmp_path,
                                                         monkeypatch):
    from quandlekit import racktable

    group = tmp_path / "s3.perm"
    group.write_text("perm 3\n(1,2)\n(1,2,3)\n")
    homog = f"homog group={group} sub= alpha=conj:()"
    # Z_5 has 5 points, S3 over the trivial subgroup 6 cosets
    for spec, size, stage in [
            ("affine orders=5 alpha=2", 5, "affine quandle of orders 5"),
            (homog, 6, "homogeneous quandle of |G|=6, |H|=1")]:
        monkeypatch.setattr(racktable, "TABLE_BOUND", size * size)
        code, out, err = run(capsys, "construct", spec)
        assert (code, f"rtbl {size}" in out, err) == (0, True, "")
        monkeypatch.setattr(racktable, "TABLE_BOUND", size * size - 1)
        assert run(capsys, "construct", spec) == (
            3, "", _table_bound_line(stage, size, size * size - 1))


def test_homog_cosets_are_sized_before_alpha_is_mapped(capsys, tmp_path,
                                                      monkeypatch):
    # S8 over the trivial subgroup: 40320 cosets pass the table bound
    group = tmp_path / "s8.perm"
    group.write_text("perm 8\n(1,2)\n(1,2,3,4,5,6,7,8)\n")

    def forbidden(*args, **kwargs):
        raise AssertionError("alpha was mapped")

    monkeypatch.setattr(Permutation, "conj", forbidden)
    assert run(capsys, "construct",
               f"homog group={group} sub= alpha=conj:()") == (
        3, "", _table_bound_line("homogeneous quandle of |G|=40320, |H|=1",
                                 40320))


@pytest.mark.parametrize("spec", ["conj d=x type=1", "affine orders=5 alpha=x"])
def test_construct_non_integer_exit_code(capsys, spec):
    code, out, err = run(capsys, "construct", spec)
    assert code == 64
    assert out == ""
    assert "'x'" in err
    assert "Traceback" not in err


# -- scan ---------------------------------------------------------------------------------


def test_scan_sym_4(capsys):
    code, out, _ = run(capsys, "scan", "--sym", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "symmetric-group classes, degree 4"
    assert len([l for l in lines if l.startswith("  type=")]) == 4
    assert sum("connected=True" in l for l in lines) == 2
    assert out.endswith("total: 4\n")


def test_scan_enumerate_5(capsys):
    code, out, _ = run(capsys, "scan", "--enumerate", "5")
    assert code == 0
    rows = [l for l in out.splitlines() if l.startswith("  index=")]
    assert len(rows) == 3
    assert all("hayashi=holds" in l for l in rows)


def test_scan_enumerate_racks(capsys):
    code, out, _ = run(capsys, "scan", "--enumerate", "3", "--racks")
    assert code == 0
    assert "connected racks with 3 elements" in out
    assert any("kind=rack" in l for l in out.splitlines())


def test_scan_alt_5_shows_split_classes(capsys):
    code, out, _ = run(capsys, "scan", "--alt", "5")
    assert code == 0
    split_rows = [l for l in out.splitlines() if "(split " in l]
    assert len(split_rows) == 2
    assert all("size=12" in l for l in split_rows)


def test_scan_bound_exit_code(capsys):
    code, _, err = run(capsys, "scan", "--sym", "9")
    assert code == 3
    assert "resource limit" in err


def test_scan_sym_checks_each_class_size_before_listing(capsys, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the class was listed")

    # the 11-cycles of S11 number 10! > 1000000, the default cap
    monkeypatch.setattr(PermutationGroup, "conjugacy_class", forbidden)
    code, out, err = run(capsys, "scan", "--sym", "11", "--bound", "11")
    assert code == 3
    assert out == ""
    assert err == ("quandlekit: resource limit: "
                   "conjugacy class exceeds cap 1000000\n")


def test_scan_json(capsys):
    code, out, _ = run(capsys, "scan", "--sym", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["scan"] == "symmetric-group classes, degree 3"
    assert payload["summary"]["count"] == 2


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scan"])
    assert exc.value.code == 64


@pytest.mark.parametrize("argv", [
    ["--sym", "0"], ["--alt", "-2"], ["--enumerate", "0"], ["--sym", "x"],
])
def test_scan_rejects_a_non_positive_size(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["scan", *argv])
    assert exc.value.code == 64
    err = capsys.readouterr().err
    assert "positive integer" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["--cap", "-5", "scan", "--sym", "4"],
    ["--cap", "0", "scan", "--sym", "4"],
    ["scan", "--enumerate", "4", "--bound", "-2"],
    ["scan", "--sym", "4", "--bound", "0"],
])
def test_cap_and_bound_reject_values_below_one(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 64
    err = capsys.readouterr().err
    assert "positive integer" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("mode", [["--sym", "4"], ["--alt", "4"]])
def test_scan_racks_needs_enumerate(capsys, mode):
    code, out, err = run(capsys, "scan", *mode, "--racks")
    assert code == 64
    assert out == ""
    assert "--racks needs --enumerate" in err
    assert "Traceback" not in err


def test_seed_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--seed", "1", "scan", "--sym", "3"])
    assert exc.value.code == 64


# -- theorem harnesses ------------------------------------------------------------------


def assert_theorem_exit(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "THEOREM FALSIFIED" in err
    assert "Traceback" not in err
    return err


@pytest.fixture()
def failing_verdicts(monkeypatch):
    """Every divisibility verdict the harnesses compute reads as failing."""
    from quandlekit import conjecture

    monkeypatch.setattr(conjecture, "hayashi_check",
                        lambda p: conjecture.HayashiVerdict(False, ((2, 3),)))


def test_primitive_harness_wiring_in_analyze(capsys, tmp_path, failing_verdicts):
    from quandlekit import affine_quandle, make_affine_spec

    path = tmp_path / "affine-5.rtbl"
    path.write_text(emit_rtbl(affine_quandle(make_affine_spec([5], 2)).rack))
    assert_theorem_exit(capsys, "analyze", str(path))


def test_k_tilde_block_harness_wiring_in_analyze(capsys, fixture_path,
                                                monkeypatch):
    monkeypatch.setattr(PermutationGroup, "is_block", lambda self, cells: False)
    err = assert_theorem_exit(capsys, "analyze", fixture_path)
    assert "not a block system" in err


def test_intersection_harness_wiring_in_analyze(capsys, fixture_path,
                                               monkeypatch):
    from quandlekit import analysis

    # the translations of the golden quandle have order 6
    monkeypatch.setattr(analysis, "_fiber_orbit_length", lambda X, x, z: 4)
    err = assert_theorem_exit(capsys, "analyze", fixture_path)
    assert "does not divide |F| = 6" in err


def test_primitive_harness_wiring_in_enumerate(capsys, failing_verdicts):
    assert_theorem_exit(capsys, "scan", "--enumerate", "5")


@pytest.mark.parametrize("argv", [["--alt", "5"], ["--sym", "4"]])
def test_class_harness_wiring(capsys, failing_verdicts, argv):
    assert_theorem_exit(capsys, "scan", *argv)


def _swap_in_row_0(table):
    table = [list(row) for row in table]
    table[0][0], table[0][1] = table[0][1], table[0][0]
    return table


# scan --sym builds no table; scan --alt 4 builds those of the split 3-cycles
@pytest.mark.parametrize("argv", [
    ["construct", "conj d=4 type=3,1"], ["scan", "--alt", "4"],
])
def test_conjugation_construction_promise(capsys, monkeypatch, argv):
    from quandlekit import _kernels

    conjugation_table = _kernels.conjugation_table
    monkeypatch.setattr(_kernels, "conjugation_table",
                        lambda *a: _swap_in_row_0(conjugation_table(*a)))
    assert_theorem_exit(capsys, *argv)


@pytest.mark.parametrize("argv", [
    ["scan", "--enumerate", "3"], ["scan", "--enumerate", "3", "--racks"],
])
def test_enumeration_promise(capsys, monkeypatch, argv):
    from quandlekit import constructors

    search = constructors._search_connected_tables
    monkeypatch.setattr(constructors, "_search_connected_tables",
                        lambda *a, **k: [_swap_in_row_0(t) for t in search(*a, **k)])
    assert_theorem_exit(capsys, *argv)


def test_enumeration_sizes_each_class_before_listing(capsys, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the class was listed")

    # the search's first class at order 11, type 10,1, has 11!/10 elements
    monkeypatch.setattr(PermutationGroup, "conjugacy_class", forbidden)
    code, out, err = run(capsys, "scan", "--enumerate", "11", "--bound", "11")
    assert code == 3
    assert out == ""
    assert err == ("quandlekit: resource limit: "
                   "conjugacy class exceeds cap 1000000\n")


@pytest.mark.parametrize("extra", [[], ["--racks"]])
def test_cap_reaches_enumeration(capsys, extra):
    # the largest class the order-5 searches build, type 4,1, has 30 elements
    argv = ["scan", "--enumerate", "5", *extra]
    code, default_out, _ = run(capsys, *argv)
    assert code == 0
    assert run(capsys, "--cap", "30", *argv) == (0, default_out, "")
    code, out, err = run(capsys, "--cap", "29", *argv)
    assert code == 3
    assert out == ""
    assert "conjugacy class exceeds cap 29" in err
    assert "Traceback" not in err


def test_enumeration_builds_no_class_table(capsys, monkeypatch):
    from quandlekit import racktable

    argv = ["scan", "--enumerate", "5"]
    code, default_out, _ = run(capsys, *argv)
    assert code == 0
    monkeypatch.setattr(racktable, "TABLE_BOUND", 0)
    assert run(capsys, *argv) == (0, default_out, "")


def test_alt_splitting_criterion_harness(capsys, monkeypatch):
    from quandlekit import conjecture

    criterion = conjecture._splits_in_alternating
    monkeypatch.setattr(conjecture, "_splits_in_alternating",
                        lambda parts: not criterion(parts))
    assert "splitting criterion" in assert_theorem_exit(capsys, "scan", "--alt", "5")


def test_alt_halving_harness(capsys, monkeypatch):
    from quandlekit import conjecture

    # in a cyclic group every class has one element: the 5-cycles "split"
    # into classes of size 1, not 12
    monkeypatch.setattr(
        conjecture, "alternating_group",
        lambda d, cap: PermutationGroup(
            d, [Permutation.from_cycles(d, [list(range(d))])], cap=cap))
    assert "not halved" in assert_theorem_exit(capsys, "scan", "--alt", "5")


def test_alt_disjoint_halves_harness(capsys, monkeypatch):
    from quandlekit import conjecture

    class IdentitySwap:
        @staticmethod
        def from_cycles(degree, cycles):
            return Permutation.identity(degree)

    # conjugating by the identity gives the first half again
    monkeypatch.setattr(conjecture, "Permutation", IdentitySwap)
    assert "not disjoint" in assert_theorem_exit(capsys, "scan", "--alt", "5")


def test_quandle_enumeration_promise_excludes_racks(capsys, monkeypatch):
    from quandlekit import constructors

    cyclic = tuple(tuple((y + 1) % 3 for y in range(3)) for _ in range(3))
    monkeypatch.setattr(constructors, "_search_connected_tables",
                        lambda *a, **k: [cyclic])
    assert_theorem_exit(capsys, "scan", "--enumerate", "3")


# -- determinism ---------------------------------------------------------------------------


def test_byte_identical_reruns(capsys, fixture_path):
    outputs = []
    for _ in range(2):
        _, out, _ = run(capsys, "analyze", fixture_path, "--json")
        outputs.append(out)
    assert outputs[0] == outputs[1]
    outputs = []
    for _ in range(2):
        _, out, _ = run(capsys, "scan", "--sym", "4")
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_out_flag_writes_file(capsys, tmp_path, fixture_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "--out", str(target), "analyze", fixture_path,
                       "--json")
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["n"] == 12

"""Table validation, translations, isomorphism, fingerprints, file formats."""
import pytest
from hypothesis import given, strategies as st

from quandlekit import (
    NotARack,
    ParseError,
    Permutation,
    RackTable,
    dihedral_quandle,
    emit_rtbl,
    fingerprint,
    is_isomorphic,
    parse_perm_file,
    parse_rack_file,
    parse_rtbl,
    trivial_quandle,
    validate,
)
from quandlekit.errors import DegreeMismatch
from quandlekit.fixtures import fixture_text

from oracle_utils import is_homomorphic_image


# -- validation -------------------------------------------------------------


def test_trivial_quandle_validates():
    assert validate([[0, 1, 2]] * 3).verdict == "quandle"


def test_golden_table_is_a_quandle(golden):
    assert golden.kind == "quandle"
    assert golden.diagnosis.witnesses == ()


def test_duplicate_rows_fail_bijectivity():
    diag = validate([[0, 0], [0, 0]])
    assert diag.verdict == "not-a-rack"
    assert {w.at for w in diag.witnesses_for("A2")} == {(0,), (1,)}


def test_constant_transposition_rows_form_a_rack_not_a_quandle():
    # both translations equal (1,2): distributivity holds, idempotence fails
    diag = validate([[1, 0], [1, 0]])
    assert diag.verdict == "rack"
    assert not diag.witnesses_for("A1")
    assert {w.at for w in diag.witnesses_for("A3")} == {(0,), (1,)}


def test_distributivity_violation_is_witnessed():
    # rows are permutations but the table is not self-distributive
    diag = validate([[0, 2, 1], [1, 2, 0], [2, 1, 0]])
    assert diag.verdict == "not-a-rack"
    assert diag.witnesses_for("A1")


def test_out_of_range_entry_is_an_error_not_a_witness():
    with pytest.raises(ValueError):
        validate([[0, 3], [1, 0]])


def test_all_violations_reported():
    diag = validate([[1, 1, 1], [0, 0, 0], [2, 2, 2]])
    assert len(diag.witnesses_for("A2")) == 3


# -- translations ---------------------------------------------------------------


def test_trivial_quandle_translations_are_identity():
    X = trivial_quandle(4)
    for x in range(4):
        assert X.phi(x).is_identity()


def test_golden_first_and_last_rows(golden):
    assert golden.phi(0) == Permutation.parse(
        "(1)(5,9)(2,4,3)(6,12,7,10,8,11)", 12)
    assert golden.phi(11) == Permutation.parse(
        "(12)(4,8)(9,10,11)(1,6,3,5,2,7)", 12)


def test_phi_requires_a_rack():
    X = RackTable([[0, 0], [0, 0]])
    with pytest.raises(NotARack):
        X.phi(0)


@pytest.mark.parametrize("point", [-1, 12])
def test_phi_rejects_a_point_out_of_range(golden, point):
    with pytest.raises(ValueError, match=f"point {point} out of range 0..11"):
        golden.phi(point)


@pytest.mark.parametrize("x, y", [(-1, 0), (12, 0), (0, -1), (0, 12)])
def test_op_rejects_a_point_out_of_range(golden, x, y):
    bad = x if not 0 <= x < 12 else y
    with pytest.raises(ValueError, match=f"point {bad} out of range 0..11"):
        golden.op(x, y)


def test_rows_round_trip_through_from_permutation_rows(golden):
    rebuilt = RackTable.from_permutation_rows(list(golden.translations()))
    assert rebuilt == golden
    for x in range(golden.n):
        assert rebuilt.table[x] == golden.phi(x).images


def test_from_permutation_rows_identity_rows():
    rows = [Permutation.identity(3)] * 3
    assert RackTable.from_permutation_rows(rows) == trivial_quandle(3)


def test_from_permutation_rows_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        RackTable.from_permutation_rows([Permutation.identity(3)] * 2)


def test_from_permutation_rows_reports_failed_axioms():
    rows = [Permutation.parse("(1,2)", 2)] * 2
    X = RackTable.from_permutation_rows(rows)
    assert X.kind == "rack"
    assert X.diagnosis.witnesses_for("A3")


# -- the translation relation -------------------------------------------------------


def test_translation_relation_over_catalog(catalog):
    # phi(x) . phi(y) == phi(x |> y) . phi(x) for every pair
    for name, X in catalog:
        for x in range(X.n):
            px = X.phi(x)
            for y in range(X.n):
                lhs = px * X.phi(y)
                rhs = X.phi(X.op(x, y)) * px
                assert lhs == rhs, name


# -- isomorphism ---------------------------------------------------------------------


def test_self_isomorphism(golden):
    w = is_isomorphic(golden, golden)
    assert w.found
    assert is_homomorphic_image(golden, golden, w.bijection)


def test_trivial_vs_dihedral_not_isomorphic():
    w = is_isomorphic(trivial_quandle(3), dihedral_quandle(3))
    assert not w.found


def test_relabeled_golden_is_isomorphic(golden):
    sigma = Permutation.from_cycles(12, [[0, 1]])
    w = is_isomorphic(golden, golden.relabel(sigma))
    assert w.found
    assert is_homomorphic_image(golden, golden.relabel(sigma), w.bijection)


def test_different_sizes_are_not_isomorphic():
    assert not is_isomorphic(trivial_quandle(2), trivial_quandle(3)).found


def test_isomorphism_is_symmetric_on_catalog(catalog):
    for name, X in catalog:
        for other_name, Y in catalog:
            if Y.n != X.n:
                continue
            assert is_isomorphic(X, Y).found == is_isomorphic(Y, X).found


@given(st.permutations(range(6)))
def test_relabeling_preserves_isomorphism_class(images):
    X = dihedral_quandle(6)
    Y = X.relabel(Permutation(images))
    w = is_isomorphic(X, Y)
    assert w.found
    assert is_homomorphic_image(X, Y, w.bijection)


# -- fingerprints -----------------------------------------------------------------


@given(st.permutations(range(5)))
def test_fingerprint_is_relabeling_invariant(images):
    X = dihedral_quandle(5)
    assert fingerprint(X.relabel(Permutation(images))) == fingerprint(X)


def test_fingerprint_separates_trivial_from_dihedral():
    assert fingerprint(trivial_quandle(3)) != fingerprint(dihedral_quandle(3))


def test_golden_fingerprint_carries_the_common_type(golden):
    assert fingerprint(golden).count("1^1 2^1 3^1 6^1") == 12


# -- file formats -------------------------------------------------------------------


def test_parse_golden_perm_file(golden):
    X = parse_rack_file(fixture_text())
    assert X == golden


def test_rtbl_round_trip(golden):
    text = emit_rtbl(golden)
    assert parse_rtbl(text) == golden
    assert emit_rtbl(parse_rtbl(text)) == text


def test_rtbl_round_trip_preserves_comments_out():
    text = emit_rtbl(trivial_quandle(2), comment="two lines\nof comment")
    assert text.startswith("# two lines\n# of comment\nrtbl 2\n")
    assert parse_rtbl(text) == trivial_quandle(2)


def test_perm_file_round_trip(golden):
    # PERM text in its canonical shape: the header, then one cycle string
    # per line
    text = "perm 12\n" + "".join(
        t.cycle_string() + "\n" for t in golden.translations())
    degree, perms = parse_perm_file(text)
    assert degree == 12
    assert list(perms) == list(golden.translations())
    assert "perm 12\n" + "".join(p.cycle_string() + "\n" for p in perms) == text


def test_rtbl_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_rtbl("rtbl 2\n1 2\n1 3\n")
    assert "line 3" in str(err.value)


def test_perm_file_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_perm_file("perm 3\n(1,2)\n(1,4)\n")
    assert "line 3" in str(err.value)


def test_unknown_header_rejected():
    with pytest.raises(ParseError):
        parse_rack_file("tabl 3\n")


def test_rtbl_wrong_row_count():
    with pytest.raises(ParseError):
        parse_rtbl("rtbl 3\n1 2 3\n2 1 3\n")

"""The class scans read each record off conjugation by class elements; the
table path they replaced stays here as the oracle.

The oracle builds the operation table of every class (or split half), as
the scans once did, and reads connectedness, the profile and the split
witness off it.  In degree 7 the tables pass 256 points, where the n³
distributivity scan that validates them would take most of a minute; it is
skipped there, as a conjugation table satisfies A1 by construction and the
construction promise is tested on the tables that are still built.
"""
import hashlib

import pytest

from quandlekit import _kernels, analysis, conjecture
from quandlekit.cli import main
from quandlekit.conjecture import (
    ClassScanRecord,
    _class_inner_order,
    _conjugation_action,
    _splits_in_alternating,
    alternating_class_scan,
    hayashi_check,
    intersection_evidence,
    symmetric_class_scan,
)
from quandlekit.constructors import (
    ClassQuandle,
    rack_from_conjugation_closed,
    symmetric_class_quandle,
)
from quandlekit.perm import (
    Permutation,
    PermutationGroup,
    all_partitions,
    _unchecked,
    alternating_group,
    canonical_of_cycle_type,
    orbit_partition,
    symmetric_class,
)

from test_output_pins import PINS


def _class_record(quandle, parts, split=None, check_witness=False):
    """A scan record read off the class quandle's table."""
    rack = quandle.rack
    connected = analysis.is_connected(rack)
    prof = analysis.profile(rack) if connected else None
    witness_ok = None
    if check_witness and connected and split is not None:
        witness_ok = intersection_evidence(rack, 0).trivial_witness is not None
    return ClassScanRecord(
        parts=parts,
        class_size=rack.n,
        element_order=quandle.labels[0].order(),
        connected=connected,
        profile=prof,
        hayashi=None if prof is None else hayashi_check(prof),
        split=split,
        split_witness_ok=witness_ok,
    )


def _noncentral(d):
    return [parts for parts in all_partitions(d) if any(p != 1 for p in parts)]


def _table_sym_records(d):
    return [_class_record(symmetric_class_quandle(d, parts), parts)
            for parts in _noncentral(d)]


def _alternating_halves(d):
    """(parts, split label or None, class) for the noncentral classes of
    the alternating group of degree d, split halves separately."""
    A = alternating_group(d)
    swap = Permutation.from_cycles(d, [[0, 1]]) if d > 1 else None
    out = []
    for parts in _noncentral(d):
        rep = canonical_of_cycle_type(d, parts)
        if rep.sign() != 1:
            continue
        first = A.conjugacy_class(rep)
        if not _splits_in_alternating(parts):
            out.append((parts, None, first))
            continue
        out.append((parts, "a", first))
        out.append((parts, "b", A.conjugacy_class(swap.conj(rep))))
    return out


def _table_alt_records(d):
    return [
        _class_record(ClassQuandle(*rack_from_conjugation_closed(half), d),
                      parts, split=split, check_witness=d <= 6)
        for parts, split, half in _alternating_halves(d)
    ]


def _skip_a1_in_degree_7(d, monkeypatch):
    if d == 7:
        monkeypatch.setattr(_kernels, "a1_violations",
                            lambda rows, limit=-1: [])


@pytest.mark.parametrize("d", range(1, 8))
def test_symmetric_scan_matches_the_table_path(d, monkeypatch):
    records = symmetric_class_scan(d)
    _skip_a1_in_degree_7(d, monkeypatch)
    assert records == _table_sym_records(d)


@pytest.mark.parametrize("d", range(1, 8))
def test_alternating_scan_matches_the_table_path(d, monkeypatch):
    records = alternating_class_scan(d)
    _skip_a1_in_degree_7(d, monkeypatch)
    assert records == _table_alt_records(d)


@pytest.mark.parametrize("d", range(3, 7))
def test_split_half_inner_order_is_the_listed_inner_group(d):
    halves = [(parts, half) for parts, split, half in _alternating_halves(d)
              if split is not None]
    assert halves
    for parts, half in halves:
        connected, _, generators = _conjugation_action(half)
        assert connected
        rack, _ = rack_from_conjugation_closed(half)
        assert _class_inner_order(generators) == analysis.inner_order(rack), parts


def test_generators_generate_the_group_of_the_class():
    for d in range(2, 7):
        for parts in _noncentral(d):
            cls = symmetric_class(d, parts)
            _, _, generators = _conjugation_action(cls)
            assert generators[0] == cls[0]
            full = PermutationGroup(d, cls).element_set()
            assert PermutationGroup(d, generators).element_set() == full, parts


# -- the command line -------------------------------------------------------------


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


GROUP_CLOSURE = "quandlekit: resource limit: group closure on {} points exceeds cap {}\n"
CLASS_CAP = "quandlekit: resource limit: conjugacy class exceeds cap {}\n"

# rc, sha256 of stdout and stderr, recorded from the table path
CAP_EXITS = {
    "--cap 150 scan --alt 6": (3, _sha(""), GROUP_CLOSURE.format(72, 150)),
    "--cap 200 scan --alt 6": (3, _sha(""), GROUP_CLOSURE.format(72, 200)),
    "--cap 360 scan --alt 6": (0, PINS["scan --alt 6"][1], ""),
    "--cap 11 scan --alt 4": (3, _sha(""), GROUP_CLOSURE.format(4, 11)),
    "--cap 12 scan --alt 4": (0, PINS["scan --alt 4"][1], ""),
    "--cap 1 scan --alt 3": (3, _sha(""), CLASS_CAP.format(1)),
    "--cap 2 scan --alt 3": (0, PINS["scan --alt 3"][1], ""),
    "--cap 500 scan --sym 6": (0, PINS["scan --sym 6"][1], ""),
}


@pytest.mark.parametrize("argv", sorted(CAP_EXITS))
def test_cap_exits_are_unchanged(capsys, argv):
    code, out, err = _run(capsys, argv.split())
    assert (code, _sha(out), err) == CAP_EXITS[argv]


def _forbidden(*args, **kwargs):
    raise AssertionError("forbidden call")


@pytest.mark.parametrize("mode", ["--sym", "--alt"])
def test_degree_7_scans_build_no_table(capsys, monkeypatch, mode):
    monkeypatch.setattr(_kernels, "conjugation_table", _forbidden)
    monkeypatch.setattr(_kernels, "a1_violations", _forbidden)
    code, out, err = _run(capsys, ["scan", mode, "7"])
    assert (code, _sha(out), err) == (*PINS[f"scan {mode} 7"], "")



@pytest.mark.parametrize("rows,message", [
    ({1}, "translations of unequal cycle type"),
    (range(99), "quandle profile must start with length 1"),
], ids=["second-generator", "every-generator"])
def test_profile_harness_wiring(capsys, monkeypatch, rows, message):
    # the conjugations by the listed generators of the 4-cycles of S4 (the
    # first class scanned) read as fixed-point-free cycles
    formed = []

    def reading(images):
        formed.append(images)
        if len(formed) - 1 in rows:
            n = len(images)
            return _unchecked(tuple((i + 1) % n for i in range(n)))
        return _unchecked(images)

    monkeypatch.setattr(conjecture, "_unchecked", reading)
    code, out, err = _run(capsys, ["scan", "--sym", "4"])
    assert (code, out) == (2, "")
    assert message in err


def _generators_oracle(cls):
    """The generators of the loop that generating_points replaced: a class
    element joins unless it lies in an orbit, under the conjugations by the
    generators so far, that meets a generator; the orbits are recomputed
    after each generator joins."""
    index = {p: i for i, p in enumerate(cls)}
    taken, rows, known = [], [], set()
    for k, p in enumerate(cls):
        if k in known:
            continue
        taken.append(k)
        rows.append([index[p.conj(q)] for q in cls])
        orbits = orbit_partition(len(cls), rows)
        known = set().union(*(o for o in orbits if not o.isdisjoint(taken)))
    return [cls[k] for k in taken]


@pytest.mark.parametrize("d", range(2, 9))
def test_generators_match_the_orbit_loop(d):
    classes = [symmetric_class(d, parts) for parts in _noncentral(d)]
    classes += [half for _, _, half in _alternating_halves(d)]
    for cls in classes:
        assert _conjugation_action(cls)[2] == _generators_oracle(cls), cls[0]


def test_degree_8_classes_need_at_most_8_generators():
    # a class element joins only when it lies outside the closure of the
    # generators before it, so a disconnected class stops short of trying
    # every element outside one orbit
    for parts in _noncentral(8):
        cls = symmetric_class(8, parts)
        generators = _conjugation_action(cls)[2]
        assert len(generators) <= 8, parts

"""The text report, rendered from the JSON dict, against the rendering from
the report's fields that it replaced (``oracle_utils.report_text``)."""
import random

import pytest

import quandlekit as qk
from quandlekit import Permutation, RackTable
from quandlekit.conjecture import full_report

from oracle_utils import report_text
from test_table_evidence import _differential_racks


def _disjoint_union(X, Y):
    """The points of X, then those of Y; each point acts by its own table
    on its part and trivially on the other."""
    n, m = X.n, Y.n
    rows = [list(r) + list(range(n, n + m)) for r in X.table]
    rows += [list(range(n)) + [n + v for v in r] for r in Y.table]
    return RackTable(rows)


def _disconnected_racks():
    d3 = qk.dihedral_quandle(3)
    return [
        ("trivial-2", qk.trivial_quandle(2)),
        ("trivial-5", qk.trivial_quandle(5)),
        ("dihedral-4", qk.dihedral_quandle(4)),
        ("dihedral-6", qk.dihedral_quandle(6)),
        ("affine-z6-a5",
         qk.affine_quandle(qk.make_affine_spec([6], 5)).rack),
        ("dihedral-3+trivial-2", _disjoint_union(d3, qk.trivial_quandle(2))),
        ("cycle-rack-3+trivial-1",
         _disjoint_union(qk.cyclic_permutation_rack(3), qk.trivial_quandle(1))),
        ("golden+dihedral-3", _disjoint_union(qk.smallquandle_12_4(), d3)),
    ]


def _relabelings(racks, seeds=3):
    out = []
    for name, X in racks:
        for seed in range(seeds):
            images = list(range(X.n))
            random.Random(f"{name}:{seed}").shuffle(images)
            out.append((f"{name}@{seed}", X.relabel(Permutation(images))))
    return out


@pytest.fixture(scope="module")
def reports():
    # blocks of 5 points with two-digit labels, past the set's cells of 2-3
    differential = _differential_racks() + [
        ("affine-z25-a2", qk.affine_quandle(qk.make_affine_spec([25], 2)).rack)]
    disconnected = _disconnected_racks()
    by_name = dict(differential)
    relabeled = _relabelings(
        [(name, by_name[name]) for name in
         ("golden-12", "class-s5-(3, 2)", "affine-z13-a5", "affine-z25-a2",
          "rack-6-1")]
        + disconnected)
    assert not any(qk.is_connected(X) for _, X in disconnected)
    return [(name, full_report(X))
            for name, X in differential + disconnected + relabeled]


def test_text_equals_the_field_rendering(reports):
    for name, rep in reports:
        assert rep.to_text() == report_text(rep), name


def test_the_inputs_reach_every_kind_of_line(reports):
    lines = {line for _, rep in reports for line in report_text(rep).splitlines()}
    for fragment in ("connected: no", "faithful: no", "fiber size: non-uniform",
                     "profile: n/a", "note: rack profile", "primitive: yes",
                     "primitive: no", "primitive: n/a", "block witness:",
                     "hayashi: holds", "hayashi: n/a",
                     "trivial-intersection witness: element",
                     "trivial-intersection witness: none",
                     "trivial-intersection witness: n/a", "uniform: yes",
                     "block system: yes"):
        assert any(fragment in line for line in lines), fragment

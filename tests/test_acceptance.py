"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
happen.  Criteria marked ``slow`` are the long sweeps (quandle orders 7-8).

Criterion 5 asserts the stated case analysis for degree 4 verbatim,
including "3 connected classes".  The computation (confirmed by two
independent oracles: a raw-tuple orbit closure and a sympy class
computation) finds 2: the 3-cycle class splits into two alternating-group
classes of size 4, so its conjugation quandle has two inner orbits and is
not connected.  The assertion is kept as stated rather than weakened, and
fails honestly; see the repository notes for the analysis.
"""
import time
from collections import Counter

import pytest

import quandlekit as qk
from quandlekit.cli import main


def report(num, ok, summary):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {summary}")


def timed(budget_s):
    """Context manager asserting the stated runtime budget."""
    class _Timer:
        def __enter__(self):
            self.t0 = time.time()
            return self

        def __exit__(self, *exc):
            self.elapsed = time.time() - self.t0
            if exc[0] is None:
                assert self.elapsed < budget_s, (
                    f"stated runtime budget {budget_s}s exceeded: "
                    f"{self.elapsed:.1f}s")
            return False

    return _Timer()


def test_criterion_01_golden_fixture(golden):
    with timed(1.0):
        assert golden.kind == "quandle"
        assert golden.n == 12
        assert qk.is_faithful(golden)
        assert qk.fibers(golden).f == 1
        assert len(set(golden.table)) == 12
        assert qk.is_connected(golden)
        assert str(qk.profile(golden)) == "1^1 2^1 3^1 6^1"
    report(1, True, "fixture ingests as a faithful connected quandle with "
                    "profile 1^1 2^1 3^1 6^1")


def test_criterion_02_block_system(golden):
    with timed(1.0):
        G = qk.inner_group(golden)
        cells = [{0, 4, 8}, {1, 5, 9}, {2, 6, 10}, {3, 7, 11}]
        assert G.is_block(cells)
        assert not G.is_primitive()
    report(2, True, "{1,5,9} {2,6,10} {3,7,11} {4,8,12} is a block system; "
                    "inner action imprimitive")


def test_criterion_03_two_part_multiset(golden):
    with timed(1.0):
        listed = [5, 9, 6, 10, 7, 11, 8, 12, 1, 9, 2, 10, 3, 11, 4, 12,
                  1, 5, 2, 6, 3, 7, 4, 8]
        expected = Counter(p - 1 for p in listed)
        counts = qk.lambda_part(golden, 2)
        assert counts == expected
        assert all(counts[p] == 2 for p in range(12))
    report(3, True, "2-part equals the 24-element multiset; every point "
                    "occurs 2 = a*k/f times")


def test_criterion_04_k_tilde_parts(golden):
    with timed(1.0):
        for x in range(12):
            assert len(golden.phi(x).k_tilde_part(2)) == 3
            assert len(golden.phi(x).k_tilde_part(3)) == 4
        cells = {golden.phi(x).k_tilde_part(2) for x in range(12)}
        assert qk.inner_group(golden).is_block(sorted(cells, key=min))
    report(4, True, "2~-parts have 3 points, 3~-parts 4; the 2~-part "
                    "partition is a block system")


def test_criterion_05_symmetric_class_scans():
    failures = []
    with timed(300.0):
        d3 = {r.parts: r for r in qk.symmetric_class_scan(3)}
        if sum(1 for r in d3.values() if r.connected) != 1:
            failures.append("degree 3 connected-class count")
        d4 = {r.parts: r for r in qk.symmetric_class_scan(4)}
        if d4[(2, 2)].connected:
            failures.append("degree 4: (2,2) class must be disconnected")
        d4_connected = sum(1 for r in d4.values() if r.connected)
        if d4_connected != 3:
            failures.append(
                f"degree 4: stated 3 connected classes, computed "
                f"{d4_connected} (the (3,1) class splits in the alternating "
                f"group, hence is disconnected)")
        for d in (5, 6, 7):
            for rec in qk.symmetric_class_divisibility_check(d):
                if rec.connected and not rec.hayashi.holds:
                    failures.append(f"degree {d}: {rec.parts} fails")
    report(5, not failures,
           "symmetric-class scans d=3..7"
           + ("" if not failures else f" [{'; '.join(failures)}]"))
    assert not failures, "; ".join(failures)


def test_criterion_06_primitive_instances_satisfy_divisibility(catalog):
    with timed(300.0):
        checked = 0
        for n in range(1, 9):
            for X in qk.enumerate_connected_quandles(n):
                result = qk.primitive_divisibility_check(X)
                if result.primitive:
                    assert result.hayashi.holds
                    checked += 1
        for name, X in catalog:
            result = qk.primitive_divisibility_check(X)
            if result.primitive:
                assert result.hayashi.holds
                checked += 1
        assert checked > 0
    report(6, True, f"every primitive instance over orders 1..8 plus the "
                    f"catalog satisfies the divisibility ({checked} checked)")


def test_criterion_06_theorem_code_wiring(monkeypatch, capsys):
    # a harness violation must surface as the dedicated CI exit code
    def boom(*a, **k):
        raise qk.TheoremViolation("synthetic violation for wiring check")

    monkeypatch.setattr(qk.conjecture, "symmetric_class_scan", boom)
    code = main(["scan", "--sym", "3"])
    capsys.readouterr()
    assert code == 2
    report("6b", True, "theorem falsification exits with code 2")


def test_criterion_07_intersection_equivalence(catalog):
    with timed(60.0):
        checked = 0
        for name, X in catalog:
            if not qk.is_faithful(X):
                continue
            result = qk.divisibility_crosscheck(X)
            assert result.forward_ok, name
            assert result.converse_ok, name
            checked += 1
        assert checked >= 10
    report(7, True, f"trivial-intersection witness <=> divisibility on "
                    f"{checked} faithful connected instances")


def test_criterion_08_action_suite(golden, catalog):
    with timed(5.0):
        for name, X in catalog:
            for sigma in qk.inner_group(X).generators:
                for x in range(X.n):
                    assert sigma.conj(X.phi(x)) == X.phi(sigma(x)), name
        for name, X in catalog:
            if qk.is_faithful(X):
                assert qk.center_check(X), name
        t3 = [qk.Permutation.parse(s, 3) for s in ("(1,2)", "(1,3)", "(2,3)")]
        assert qk.conjugation_rack_quotient_check(t3)
        assert qk.inner_group(
            qk.constructors.rack_from_conjugation_closed(t3)[0]).order() == 6
        d4 = [qk.Permutation.parse(s, 4)
              for s in ("(1,2)(3,4)", "(1,3)(2,4)", "(1,4)(2,3)")]
        assert qk.conjugation_rack_quotient_check(d4)
        assert qk.inner_group(
            qk.constructors.rack_from_conjugation_closed(d4)[0]).order() == 1
    report(8, True, "conjugation covariance, trivial centers, and the "
                    "|Inn| = |G|/|Z| identities (6=6/1, 1=4/4)")


def test_criterion_09_fibers_and_orbit_divisibility(catalog):
    with timed(60.0):
        for name, X in catalog:
            assert qk.fibers(X).uniform, name
        for name, X in catalog:
            for x in range(X.n):
                for y in range(X.n):
                    sizes = qk.orbit_divisibility(X, x, y)
                    assert sizes.lam % sizes.lam_bar == 0, name
    report(9, True, "uniform fiber sizes and conjugation-orbit divisibility "
                    "across the catalog")


def test_criterion_10_enumeration_regression():
    with timed(60.0):
        counts = [len(qk.enumerate_connected_quandles(n)) for n in range(1, 7)]
        assert counts == [1, 0, 1, 1, 3, 2]
    report(10, True, "connected-quandle counts for orders 1..6 match the "
                     "independent oracle: 1, 0, 1, 1, 3, 2")


@pytest.mark.slow
def test_criterion_10_slow_orders():
    with timed(600.0):
        assert len(qk.enumerate_connected_quandles(7)) == 5
        assert len(qk.enumerate_connected_quandles(8)) == 3
    report("10s", True, "orders 7 and 8 give 5 and 3 connected quandles")


def test_criterion_11_affine_instances():
    with timed(10.0):
        doubling = qk.affine_quandle(qk.make_affine_spec([5], 2))
        assert doubling.beta_bijective
        assert qk.is_connected(doubling.rack)
        assert str(qk.profile(doubling.rack)) == "1^1 4^1"
        assert qk.hayashi_check(qk.profile(doubling.rack)).holds
        swap = qk.affine_quandle(
            qk.make_affine_spec([2, 2], lambda t: (t[1], t[0])))
        assert not swap.beta_bijective
        assert not qk.is_connected(swap.rack)

        import random

        rng = random.Random(11)
        pool = [[2], [3], [4], [5], [6], [2, 2], [2, 3], [3, 3], [2, 4]]
        checked = 0
        while checked < 20:
            orders = rng.choice(pool)
            size = 1
            for o in orders:
                size *= o
            try:
                spec = qk.make_affine_spec(orders, rng.randrange(1, size + 1))
            except ValueError:
                continue
            result = qk.affine_quandle(spec)
            assert result.beta_bijective == qk.is_connected(result.rack)
            checked += 1
    report(11, True, "affine doubling mod 5 connected with profile 1^1 4^1; "
                     "coordinate swap disconnected; 20 random specs agree")

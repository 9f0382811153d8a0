"""Acceptance gate: ten criteria, each printing one PASS/FAIL line.

The lines are echoed again in the terminal summary by the conftest hook.
Budgets are wall-clock upper bounds; tolerances are pinned per criterion.
"""

import time
from fractions import Fraction
from itertools import combinations
from math import ceil, log2

from ldimkit import (Antichain, BooleanLattice, Chain, MultisetSingletonPoset,
                     SingletonPoset, b4_family, b7_family, build_bn_realizer,
                     build_singleton_realizer, check_ind_freq_claim,
                     conflict_graph, default_block_width, emit_orders_text,
                     fixture_text, id_to_set, iter_independent_sets,
                     ldim_certificate, min_m_certifying,
                     multiset_lower_bound, parse_orders_text,
                     signature_audit_report, singleton_frequency_bound,
                     solve_instance, turan_independence_floor,
                     verify_local_realizer)
from ldimkit.bounds import CERTIFY_SLACK

from tests import oracle

ACCEPTANCE_LINES: list[str] = []


def _criterion(num: int, desc: str, body) -> None:
    try:
        body()
    except BaseException:
        line = f"[criterion {num:02d}] FAIL - {desc}"
        ACCEPTANCE_LINES.append(line)
        print(line)
        raise
    line = f"[criterion {num:02d}] PASS - {desc}"
    ACCEPTANCE_LINES.append(line)
    print(line)


def test_criterion_01():
    def body():
        t0 = time.monotonic()
        P = BooleanLattice(4)
        fam = b4_family()
        rep = verify_local_realizer(P, fam)
        assert rep.accepted
        assert rep.frequency == 3 and rep.size == 4
        ok, freq, sz = oracle.check_family(P, fam)
        assert ok and freq == 3 and sz == 4
        assert time.monotonic() - t0 < 1.0

    _criterion(1, "embedded b4 certificate accepts with frequency 3, size 4",
               body)


def test_criterion_02():
    def body():
        t0 = time.monotonic()
        P = BooleanLattice(7)
        fam = b7_family()
        rep = verify_local_realizer(P, fam)
        assert rep.accepted
        assert rep.frequency == 5 and rep.size == 7
        ok, freq, sz = oracle.check_family(P, fam)
        assert ok and freq == 5 and sz == 7
        assert time.monotonic() - t0 < 5.0

    _criterion(2, "embedded b7 certificate accepts with frequency 5, size 7",
               body)


def test_criterion_03():
    def body():
        t0 = time.monotonic()
        for n in range(1, 13):
            fam = build_bn_realizer(n)
            rep = verify_local_realizer(BooleanLattice(n), fam)
            assert rep.accepted, n
            assert rep.frequency <= ceil(5 * n / 7), n
            if n >= 4:
                assert rep.frequency < n, n
        assert time.monotonic() - t0 < 300.0

    _criterion(3, "boolean builder frequency <= ceil(5n/7) for n in 1..12",
               body)


def test_criterion_04():
    def body():
        t0 = time.monotonic()
        for n in range(4, 14):
            d = default_block_width(n)
            fam = build_singleton_realizer(n)
            rep = verify_local_realizer(SingletonPoset(n), fam)
            assert rep.accepted, n
            assert rep.frequency <= 2 * n / log2(n) + 3, n
            assert rep.frequency <= max(singleton_frequency_bound(n, d)), n
        assert time.monotonic() - t0 < 300.0

    _criterion(4, "singleton builder meets both frequency bounds, n in 4..13",
               body)


def test_criterion_05():
    def body():
        instances = [
            (Chain(2), 1, 1), (Chain(3), 3, 1), (Antichain(2), 4, 2),
            (Antichain(3), 6, 2), (BooleanLattice(2), 4, 2),
            (BooleanLattice(2), 8, 2), (SingletonPoset(2), 4, 2),
            (SingletonPoset(3), 14, 2), (MultisetSingletonPoset(2, 2), 6, 2),
            (MultisetSingletonPoset(2, 3), 24, 3),
        ]
        sat_seen = 0
        for P, k, d in instances:
            result, fam = solve_instance(P, k, d)
            if result.status != "sat":
                continue
            sat_seen += 1
            rep = verify_local_realizer(P, fam)
            assert rep.accepted, P.kind
            assert rep.frequency <= d, P.kind
            ok, freq, _ = oracle.check_family(P, fam)
            assert ok and freq == rep.frequency, P.kind
        assert sat_seen >= 8  # the basket is satisfiable almost everywhere

    _criterion(5, "sat instances decode to verified families with freq <= d",
               body)


def test_criterion_06():
    def body():
        t0 = time.monotonic()
        for k in range(1, 7):
            assert ldim_certificate(Chain(k))[0] == 1, k
        assert ldim_certificate(Antichain(2))[0] == 2
        assert ldim_certificate(Antichain(3))[0] == 2
        assert ldim_certificate(BooleanLattice(2))[0] == 2
        B3 = BooleanLattice(3)
        v, fam = ldim_certificate(B3)
        assert v <= 3
        rep = verify_local_realizer(B3, fam)
        assert rep.accepted and rep.frequency <= v
        probe, _ = solve_instance(B3, 16, 2)
        assert v == (2 if probe.status == "sat" else 3)
        assert time.monotonic() - t0 < 600.0

    _criterion(6, "exact ldim on chains, antichains, boolean:2, boolean:3",
               body)


def test_criterion_07():
    def body():
        # (a) closed forms against exact rational arithmetic, 1e-9 relative
        for n in range(2, 120):
            for size in (0, 1, n // 2, n, 2 * n, 5 * n + 3):
                rep = turan_independence_floor(n, size)
                floor_ref = Fraction(n * n, 2 * (size + n))
                ell_ref = Fraction(n * n, 2 * size + n + 2) + 1
                assert abs(rep.bound - floor_ref) <= 1e-9 * floor_ref
                assert abs(rep.ell - ell_ref) <= 1e-9 * ell_ref
        # (b) occurrence claim on every tested family, n <= 8
        families = [(n, build_singleton_realizer(n)) for n in range(4, 9)]
        result, found = solve_instance(SingletonPoset(4), 6, 4)
        assert result.status == "sat"
        families.append((4, found))
        for n, fam in families:
            G = conflict_graph(fam, n)
            checked = 0
            for I in iter_independent_sets(G, max_size=n - 2):
                assert check_ind_freq_claim(n, fam, I), (n, I)
                checked += 1
            assert checked > 0

    _criterion(7, "turan formulas to 1e-9; occurrence claim on n <= 8",
               body)


def test_criterion_08():
    def body():
        t0 = time.monotonic()
        assert multiset_lower_bound(2, 25).bound > 1 + CERTIFY_SLACK
        assert multiset_lower_bound(2, 24).bound <= 1
        assert min_m_certifying(2) == 25
        for n in range(2, 9):
            m = min_m_certifying(n)  # terminates, with bracketing guard
            assert multiset_lower_bound(n, m).certifying
            assert not multiset_lower_bound(n, m - 1).certifying
        for n, m in [(1, 2), (2, 10), (3, 7), (5, 1000), (8, 10**9)]:
            assert multiset_lower_bound(n, m).bound < n
        assert time.monotonic() - t0 < 1.0

    _criterion(8, "multiset bound brackets at n=2; threshold search n in 2..8",
               body)


def test_criterion_09():
    def body():
        t0 = time.monotonic()
        for n, m in [(2, 3), (3, 2)]:
            P = MultisetSingletonPoset(n, m)
            d, fam = ldim_certificate(P)
            rep = signature_audit_report(n, m, fam)
            assert rep.ok, (n, m)
            assert rep.interval_count <= 2 * rep.frequency * rep.singleton_count
            assert rep.frequency <= d
            assert rep.distinct_signatures == rep.mplus_count
        assert time.monotonic() - t0 < 600.0

    _criterion(9, "signature audit on sat-found multiset singleton realizers",
               body)


def test_criterion_10():
    def body():
        messy = "# comment\n\n 0  8\t1 9 2 3 11 4 6 7 12 14 13 15 \n\t\n"
        rows = parse_orders_text(messy)
        normalized = emit_orders_text(rows)
        assert normalized == "0 8 1 9 2 3 11 4 6 7 12 14 13 15\n"
        assert emit_orders_text(parse_orders_text(normalized)) == normalized
        for which in ("b4", "b7"):
            text = fixture_text(which)
            assert emit_orders_text(parse_orders_text(text)) == text
        assert fixture_text("b4").splitlines()[0] == \
            "0 8 1 9 2 3 11 4 6 7 12 14 13 15"
        assert id_to_set(13) == {1, 3, 4}

    _criterion(10, "orders text round-trips byte-stable; 13 -> {1,3,4}",
               body)

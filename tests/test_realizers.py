import json

import pytest

from ldimkit import realizers
from ldimkit import (Antichain, BooleanLattice, Chain, ContractError,
                     RangeError, RealizerFamily, SingletonPoset, as_family,
                     b4_family, b7_family, build_bn_realizer,
                     build_standard_realizer, frequency, lift_product,
                     product, size, validate_ple, verify_local_realizer)
from ldimkit.realizers import (COMPARABLE_PAIR_NEVER_WITNESSED,
                               COMPARABLE_PAIR_REVERSED, DUPLICATE_IN_PLE,
                               INCOMPARABLE_PAIR_ONE_SIDED,
                               ORDER_VIOLATION_IN_PLE, PAIR_NEVER_CO_OCCURS)

from tests import oracle


def test_family_basics():
    fam = RealizerFamily([(1, 2), (2, 1), (1,)])
    assert size(fam) == 3 and fam.size == 3
    assert frequency(fam) == 3 and fam.frequency == 3
    assert fam.occurrences(2) == 2
    assert fam.occurrences(99) == 0
    assert as_family(fam) is fam
    assert as_family([(1, 2)]) == RealizerFamily([(1, 2)])
    assert len(RealizerFamily([])) == 0
    assert frequency(RealizerFamily([])) == 0


def test_validate_ple():
    P = SingletonPoset(3)  # ids 1..7
    rep = validate_ple(P, (4, 2, 6, 1, 3, 5, 7))
    assert rep.accepted and rep.frequency == 1 and rep.size == 1
    rep = validate_ple(Chain(2), (1, 0))
    assert not rep.accepted
    assert rep.violation_kinds == {ORDER_VIOLATION_IN_PLE}
    rep = validate_ple(Chain(3), ())
    assert rep.accepted and rep.frequency == 0


def test_fixture_families_frozen_stats():
    for P, fam, freq, sz in [(BooleanLattice(4), b4_family(), 3, 4),
                             (BooleanLattice(7), b7_family(), 5, 7)]:
        rep = verify_local_realizer(P, fam)
        assert rep.accepted
        assert rep.frequency == freq and rep.size == sz
        ok, ofreq, osz = oracle.check_family(P, fam)
        assert (ok, ofreq, osz) == (True, freq, sz)


def test_single_total_order_accepted_iff_chain():
    C = Chain(4)
    rep = verify_local_realizer(C, [(0, 1, 2, 3)])
    assert rep.accepted and rep.frequency == 1
    B = BooleanLattice(2)
    rep = verify_local_realizer(B, [(0, 1, 2, 3)])
    assert not rep.accepted
    assert INCOMPARABLE_PAIR_ONE_SIDED in rep.violation_kinds


def test_empty_family():
    rep = verify_local_realizer(Chain(2), [])
    assert not rep.accepted and rep.frequency == 0 and rep.size == 0
    assert rep.violation_kinds == {COMPARABLE_PAIR_NEVER_WITNESSED}
    rep = verify_local_realizer(Chain(1), [])
    assert not rep.accepted
    assert rep.violation_kinds == {PAIR_NEVER_CO_OCCURS}
    rep = verify_local_realizer(Chain(1), [(0,)])
    assert rep.accepted and rep.frequency == 1


def test_each_violation_kind():
    B = BooleanLattice(2)  # 0 < 1,2 < 3; 1 || 2
    good = [(0, 1, 2, 3), (0, 2, 1, 3)]
    assert verify_local_realizer(B, good).accepted

    rep = verify_local_realizer(B, [(0, 1, 1, 2, 3), (0, 2, 1, 3)])
    assert DUPLICATE_IN_PLE in rep.violation_kinds
    v = next(v for v in rep.violations if v.kind == DUPLICATE_IN_PLE)
    assert v.a == v.b == 1 and v.ple == 0

    rep = verify_local_realizer(B, [(1, 0, 2, 3), (0, 2, 1, 3)])
    assert ORDER_VIOLATION_IN_PLE in rep.violation_kinds
    v = next(v for v in rep.violations if v.kind == ORDER_VIOLATION_IN_PLE)
    assert (v.a, v.b, v.ple) == (0, 1, 0)

    rep = verify_local_realizer(B, [(0, 1, 3), (0, 2, 3)])
    assert rep.violation_kinds == {PAIR_NEVER_CO_OCCURS}
    v = rep.violations[0]
    assert (v.a, v.b, v.ple) == (1, 2, None)

    rep = verify_local_realizer(B, good + [(3, 1)])
    assert COMPARABLE_PAIR_REVERSED in rep.violation_kinds
    v = next(v for v in rep.violations if v.kind == COMPARABLE_PAIR_REVERSED)
    assert (v.a, v.b, v.ple) == (1, 3, 2)

    rep = verify_local_realizer(Chain(2), [(0,), (1,)])
    assert COMPARABLE_PAIR_NEVER_WITNESSED in rep.violation_kinds

    rep = verify_local_realizer(B, [(0, 1, 2, 3)])
    assert INCOMPARABLE_PAIR_ONE_SIDED in rep.violation_kinds
    v = next(v for v in rep.violations
             if v.kind == INCOMPARABLE_PAIR_ONE_SIDED)
    assert (v.a, v.b) == (1, 2)


def test_out_of_range_ids_raise():
    with pytest.raises(RangeError):
        verify_local_realizer(Chain(2), [(0, 5)])
    with pytest.raises(RangeError):
        validate_ple(SingletonPoset(2), (0, 1))


def test_report_json_shape():
    rep = verify_local_realizer(BooleanLattice(2), [(0, 1, 3), (0, 2, 3)])
    payload = json.loads(rep.to_json())
    assert set(payload) == {"accepted", "frequency", "size", "violations"}
    assert payload["accepted"] is False
    assert payload["violations"] == [
        {"kind": PAIR_NEVER_CO_OCCURS, "a": 1, "b": 2, "ple": None}]


def test_violation_cap():
    A = Antichain(30)
    rep = verify_local_realizer(A, [], max_violations_per_kind=10)
    assert len(rep.violations) == 10
    assert not rep.accepted


def test_build_standard_realizer():
    for n in (1, 2, 3, 5):
        fam = build_standard_realizer(n)
        rep = verify_local_realizer(BooleanLattice(n), fam)
        assert rep.accepted and rep.size == max(n, 1)
        assert rep.frequency == n if n > 1 else rep.frequency == 1


def test_lift_product_b4_squared():
    P = BooleanLattice(4)
    fam = b4_family()
    lifted = lift_product(P, P, fam, fam)
    PP = product(P, P)
    rep = verify_local_realizer(PP, lifted)
    assert rep.accepted
    assert rep.frequency <= 6 and rep.size == 8
    # the product order is boolean:8 under the combined-id convention
    B8 = BooleanLattice(8)
    rep8 = verify_local_realizer(B8, lifted)
    assert rep8.accepted and rep8.frequency == rep.frequency


def test_lift_product_rejects_invalid_input():
    C = Chain(2)
    with pytest.raises(ContractError):
        lift_product(C, C, [(1, 0)], [(0, 1)])


def test_lift_with_chain_keeps_frequency():
    P = BooleanLattice(2)
    fam = RealizerFamily([(0, 1, 2, 3), (0, 2, 1, 3)])
    lifted = lift_product(P, Chain(1), fam, [(0,)])
    rep = verify_local_realizer(product(P, Chain(1)), lifted)
    assert rep.accepted and rep.frequency == 3  # 2 from P + 1 from the chain


def test_build_bn_realizer_small():
    from math import ceil
    for n in (1, 2, 3, 4, 5, 7, 8):
        fam = build_bn_realizer(n)
        rep = verify_local_realizer(BooleanLattice(n), fam)
        assert rep.accepted
        assert rep.frequency <= ceil(5 * n / 7)
        ok, ofreq, _ = oracle.check_family(BooleanLattice(n), fam)
        assert ok and ofreq == rep.frequency


@pytest.mark.parametrize("n", [8, 12])
def test_build_bn_realizer_does_not_self_verify(monkeypatch, n):
    from math import ceil
    expected = build_bn_realizer(n)
    assert expected.frequency == ceil(5 * n / 7)
    if n == 8:  # verifying boolean:12 takes seconds
        assert verify_local_realizer(BooleanLattice(n), expected).accepted

    def refuse(*args, **kwargs):
        raise AssertionError("build_bn_realizer verified a family")

    monkeypatch.setattr(realizers, "verify_local_realizer", refuse)
    assert build_bn_realizer(n) == expected

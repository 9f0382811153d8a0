import hashlib
import json
import operator
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ldimkit import realizers
import numpy as np
from ldimkit import (Antichain, BooleanLattice, Chain, MultisetLattice,
                     ParameterError, Poset, ProductPoset, RangeError,
                     RealizerFamily, SingletonPoset, b4_family, b7_family, build_bn_realizer, build_poset,
                     build_singleton_realizer, build_standard_realizer,
                     canonical_linear_extension, lift_product, validate_ple,
                     verify_local_realizer)
from ldimkit.realizers import (COMPARABLE_PAIR_NEVER_WITNESSED,
                               COMPARABLE_PAIR_REVERSED, DUPLICATE_IN_PLE,
                               INCOMPARABLE_PAIR_ONE_SIDED,
                               ORDER_VIOLATION_IN_PLE, PAIR_NEVER_CO_OCCURS,
                               Violation)

from tests import oracle


def test_family_basics():
    fam = RealizerFamily([(1, 2), (2, 1), (1,)])
    assert fam.size == 3 and fam.frequency == 3
    assert fam.occurrences(2) == 2
    assert fam.occurrences(99) == 0
    repeated = RealizerFamily([(1, 2, 1), (1,)])
    assert repeated.frequency == repeated.occurrences(1) == 2
    again = RealizerFamily(fam)  # re-wrapping keeps the member tuples
    assert again == fam and all(map(operator.is_, again.ples, fam.ples))
    assert RealizerFamily([[1, 2]]) == RealizerFamily([(1, 2)])
    assert len(RealizerFamily([])) == 0
    assert RealizerFamily([]).frequency == 0


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
    # member 0 repeats 0 after 1, but each element counts at its first
    # position, so only member 1 reverses 0 < 1
    rep = verify_local_realizer(Chain(2), [(0, 1, 0), (1, 0)])
    v = next(v for v in rep.violations if v.kind == COMPARABLE_PAIR_REVERSED)
    assert (v.a, v.b, v.ple) == (0, 1, 1)

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
    # at cap 0 nothing is listed, yet a fault of each kind still rejects:
    # a duplicate, an order violation with its reversed pair, a comparable
    # pair never witnessed, a pair never co-occurring, a one-sided pair, and
    # the faulty variants of a built family
    cases = [(Chain(2), [(0, 1, 1)]), (Chain(2), [(1, 0)]),
             (Chain(2), [(0,), (1,)]), (Antichain(2), [(0,), (1,)]),
             (Antichain(2), [(0, 1)])]
    cases += [(BooleanLattice(4), f) for f in _faulty_variants(b4_family())[1:]]
    for P, family in cases:
        rep = verify_local_realizer(P, family, max_violations_per_kind=0)
        assert not rep.accepted and rep.violations == ()
        rep = validate_ple(P, family[0], max_violations_per_kind=0)
        assert rep.accepted == validate_ple(P, family[0]).accepted
        assert rep.violations == ()


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
    PP = ProductPoset(P, P)
    rep = verify_local_realizer(PP, lifted)
    assert rep.accepted
    assert rep.frequency <= 6 and rep.size == 8
    # the product order is boolean:8 under the combined-id convention
    B8 = BooleanLattice(8)
    rep8 = verify_local_realizer(B8, lifted)
    assert rep8.accepted and rep8.frequency == rep.frequency


def test_lift_with_chain_keeps_frequency():
    P = BooleanLattice(2)
    fam = RealizerFamily([(0, 1, 2, 3), (0, 2, 1, 3)])
    lifted = lift_product(P, Chain(1), fam, [(0,)])
    rep = verify_local_realizer(ProductPoset(P, Chain(1)), lifted)
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


def test_oversize_poset_refused_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError):
            verify_local_realizer(BooleanLattice(24), [])
        # one packed row fits the budget, but its predicate would be
        # evaluated on all 43M columns
        with pytest.raises(ParameterError):
            build_poset("multiset:16:3").up_rows([0])
        # the member scan asks for the rows before it allocates its own
        with pytest.raises(ParameterError):
            validate_ple(build_poset("multiset:16:3"), [0, 1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("ple, accepted, order_violations",
                         [([0, 1, 3], True, 0), ([3, 1], False, 1)])
def test_member_scan_buffer_fits_the_member(ple, accepted, order_violations):
    """On 4M elements a packed row is 512 KiB: the scan's buffer holds the
    member's rows, not a block of 256."""
    P = BooleanLattice(22)
    tracemalloc.start()
    try:
        report = validate_ple(P, ple)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.accepted is accepted
    assert [v.kind for v in report.violations] == (
        [ORDER_VIOLATION_IN_PLE] * order_violations)
    assert peak < 8 << 20


def _faulty_variants(family):
    """The family as it is, without its last member, and with its first
    member reversed and one of its elements repeated."""
    members = [list(m) for m in family]
    first = members[0][::-1] + [members[0][1]]
    return [family, members[:-1], [first] + members[1:]]


def _built_variants(P):
    """The faulty variants of the family built for boolean:12 or
    singleton:12."""
    return _faulty_variants(build_bn_realizer(12)
                            if isinstance(P, BooleanLattice)
                            else build_singleton_realizer(12))


@pytest.mark.parametrize("spec", ["boolean:12", "singleton:12"])
def test_verify_reads_no_dense_matrix(monkeypatch, spec):
    P = build_poset(spec)
    variants = _built_variants(P)

    def reports(P):
        return ([verify_local_realizer(P, f).to_json() for f in variants]
                + [validate_ple(P, f[0]).to_json() for f in variants])

    with monkeypatch.context() as m:  # the rows packed from the predicate
        m.setattr(type(P), "_rows", Poset._rows)
        expected = reports(build_poset(spec))
    assert json.loads(expected[0])["accepted"]
    assert not json.loads(expected[2])["accepted"]

    def refuse(self):
        raise AssertionError("the verifier read the dense matrix")

    monkeypatch.setattr(Poset, "leq_matrix", refuse)
    assert reports(P) == expected


@pytest.mark.parametrize("spec", ["boolean:12", "singleton:12"])
def test_verify_asks_rows_by_block(monkeypatch, spec):
    P = build_poset(spec)
    variants = _built_variants(P)
    expected = [verify_local_realizer(P, f).to_json() for f in variants]
    assert json.loads(expected[0])["accepted"]
    assert not json.loads(expected[2])["accepted"]

    for name in ("up_rows", "down_rows"):
        def by_block(self, idx=None, rows=getattr(Poset, name)):
            assert idx is not None, "the verifier asked for every row"
            return rows(self, idx)

        monkeypatch.setattr(Poset, name, by_block)
    assert [verify_local_realizer(P, f).to_json() for f in variants] == expected


def test_verify_peak_memory():
    P = SingletonPoset(12)
    family = build_singleton_realizer(12)
    matrix_bytes = P.ground_size * 8 * ((P.ground_size + 63) // 64)
    tracemalloc.start()
    try:
        assert verify_local_realizer(P, family).accepted
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * matrix_bytes  # one N-row array and block temporaries


def test_accept_pass_holds_no_n_row_array(monkeypatch):
    P = SingletonPoset(13)
    family = RealizerFamily(build_singleton_realizer(13))
    matrix_bytes = P.ground_size * 8 * ((P.ground_size + 63) // 64)
    verify_local_realizer(P, family)  # warm-up

    def refuse(*args):
        raise AssertionError("an accepted family reached the reject pass")

    monkeypatch.setattr(realizers, "_list_violations", refuse)
    tracemalloc.start()
    try:
        assert verify_local_realizer(P, family).accepted
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < matrix_bytes / 2  # tiles of rows, not N rows


def test_reject_pass_holds_no_n_row_array():
    P = SingletonPoset(13)
    family = RealizerFamily(build_singleton_realizer(13)[:-1])
    matrix_bytes = P.ground_size * 8 * ((P.ground_size + 63) // 64)
    verify_local_realizer(P, family)  # warm-up
    tracemalloc.start()
    try:
        assert not verify_local_realizer(P, family).accepted
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < matrix_bytes / 2  # tiles of rows, not N rows


def test_set_bits_unpacks_only_nonzero_words():
    """One bit in each of 100 rows of a 256-row mask 128 words wide: listing
    them unpacks 100 words, not the 100 rows (0.8 MB at a byte a column)."""
    mask = np.zeros((256, 128), dtype=np.uint64)
    rows = np.arange(0, 200, 2)
    cols = rows * 37 % (64 * 128)
    mask[rows, cols >> 6] = realizers._ONE << (cols & 63).astype(np.uint64)
    assert [x.tolist() for x in realizers._set_bits(mask, 50)[1:]] == [
        rows[:50].tolist(), cols[:50].tolist()]
    tracemalloc.start()
    try:
        found, r, c = realizers._set_bits(mask, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found and (r.tolist(), c.tolist()) == (rows.tolist(), cols.tolist())
    assert peak < 100 * 128 * 64 / 4


# ------------------------------------------------- property test vs. oracle


class _Relabelled(Poset):
    """A poset with its ids permuted, so that id order is no longer a linear
    extension (it is one for every built-in kind)."""

    def __init__(self, base: Poset):
        self.kind = f"relabelled-{base.kind}"
        self.ground_size, self.id_offset = base.ground_size, base.id_offset
        ids = list(base.element_ids())
        self.to_base = dict(zip(ids, random.Random(3).sample(ids, len(ids))))
        self.perm = base.indices_of([self.to_base[a] for a in ids])
        self.base = base

    def _leq_index(self, i, j):
        return self.base._leq_index(self.perm[i], self.perm[j])


PROPERTY_POSETS = ("chain:1", "chain:4", "antichain:1", "antichain:5",
                   "boolean:2", "boolean:3", "boolean:4", "singleton:3",
                   "singleton:4", "multiset-singleton:2:3",
                   "relabelled-boolean:3", "relabelled-singleton:4",
                   "antichain:65",  # 65 elements: two words, a tail tile
                   "chain:70")  # comparable pairs: two words, the last partial
MUTATIONS = ("drop-member", "omit", "reverse", "swap", "repeat")


def _base_family(P):
    """A local realizer where one is at hand, so that mutations land near
    valid families; otherwise two linear extensions, by strict down-set
    size and then by id ascending and descending."""
    if isinstance(P, BooleanLattice):
        return build_standard_realizer(P.n)
    if isinstance(P, SingletonPoset):
        return build_singleton_realizer(P.n)
    if isinstance(P, ProductPoset):
        return lift_product(P.p, P.q, _base_family(P.p), _base_family(P.q))
    if isinstance(P, MultisetLattice) and P.n > 1:  # chain:m times the rest
        rest = MultisetLattice(P.n - 1, P.m)
        return lift_product(Chain(P.m), rest, _base_family(Chain(P.m)),
                            _base_family(rest))
    canon = canonical_linear_extension(P)
    sizes = np.bitwise_count(P.down_rows()).sum(axis=1)
    return [canon, sorted(canon, key=lambda a: (sizes[P.index_of(a)], -a))]


def _property_poset(spec):
    if spec.startswith("relabelled-"):
        return _Relabelled(build_poset(spec.removeprefix("relabelled-")))
    if "*" in spec:
        return ProductPoset(*map(build_poset, spec.split("*")))
    return build_poset(spec)


@st.composite
def families(draw, specs=PROPERTY_POSETS):
    P = _property_poset(draw(st.sampled_from(specs)))
    ids = list(P.element_ids())
    members = [list(m) for m in _base_family(P)] if draw(st.booleans()) else []
    members += draw(st.lists(st.permutations(ids), max_size=2))
    members += draw(st.lists(st.lists(st.sampled_from(ids),
                                      max_size=len(ids) + 2), max_size=2))
    for op, x, y in draw(st.lists(st.tuples(
            st.sampled_from(MUTATIONS), st.integers(0, 99), st.integers(0, 99)),
            max_size=4)):
        if not members:
            break
        m = members[x % len(members)]
        if op == "drop-member":
            members.remove(m)
        elif op == "reverse":
            m.reverse()
        elif m and op == "omit":
            del m[y % len(m)]
        elif m and op == "swap":
            j, k = y % len(m), x % len(m)
            m[j], m[k] = m[k], m[j]
        elif m and op == "repeat":
            m.insert(y % (len(m) + 1), m[x % len(m)])
    cap = draw(st.sampled_from((1, 3, 100)))
    return P, [tuple(m) for m in members], cap


def _expected(found, kinds, cap):
    return tuple(sorted(
        (Violation(kind, a, b, ple) for kind in kinds
         for a, b, ple in found[kind][:cap]),
        key=lambda v: (v.kind, v.a, v.b, -1 if v.ple is None else v.ple)))


@settings(max_examples=300, deadline=None)
@given(families())
def test_verifier_matches_oracle(case):
    P, family, cap = case
    rep = verify_local_realizer(P, family, max_violations_per_kind=cap)
    assert (rep.accepted, rep.frequency, rep.size) == oracle.check_family(P, family)
    found = oracle.violations(P, family)
    assert rep.violations == _expected(found, found, cap)
    assert rep.accepted == (not any(found.values()))

    member = family[0] if family else tuple(P.element_ids())[::-1]
    rep = validate_ple(P, member, max_violations_per_kind=cap)
    found = oracle.violations(P, [member])
    scan = (DUPLICATE_IN_PLE, ORDER_VIOLATION_IN_PLE)
    assert rep.violations == _expected(found, scan, cap)
    assert rep.accepted == (not any(found[k] for k in scan))


TILED_POSETS = ("chain:1", "antichain:1", "chain:70", "antichain:70",
                "boolean:7", "singleton:8", "multiset:3:3",
                "boolean:3*chain:9")


@st.composite
def valid_families(draw, specs):
    """A local realizer, its members in any order, some of them twice."""
    P = _property_poset(draw(st.sampled_from(specs)))
    members = draw(st.permutations([tuple(m) for m in _base_family(P)]))
    members += draw(st.lists(st.sampled_from(members), max_size=2))
    return P, members, 100


@settings(max_examples=150, deadline=None)
@given(st.one_of(valid_families(TILED_POSETS), families(TILED_POSETS)),
       st.sampled_from((8, 136, 1 << 20)), st.sampled_from((7, 256)))
# 0 and 69 never co-occur: only the last row, a tile of its own, shows it
@example((Chain(70), [tuple(range(69)), tuple(range(1, 70))], 100), 8, 7)
def test_accept_pass_matches_reject_pass(case, tile_bytes, block):
    """With tiles of one row up to one tile for all, the accept pass accepts
    exactly the families the reject pass accepts, with the same report."""
    P, family, cap = case
    decisions = []

    def accept_pass(P, members, run=realizers._accepts):
        decisions.append(run(P, members))
        return decisions[-1]

    with (mock.patch.object(realizers, "_TILE_BYTES", tile_bytes),
          mock.patch.object(realizers, "_ROW_BLOCK", block)):
        with mock.patch.object(realizers, "_accepts", accept_pass):
            report = verify_local_realizer(P, family, cap)
        with mock.patch.object(realizers, "_accepts", lambda *args: False):
            listed = verify_local_realizer(P, family, cap)
    assert (decisions == [True]) == listed.accepted
    assert report == listed


# ------------------------------------------------------------ golden reports
#
# Reports pinned from the dense verifier that preceded the bit-packed one:
# any change to which violations are listed, their order or the JSON layout
# shows here.  Every report is pinned by the SHA-256 of its to_json(indent=2)
# text at caps 1, 3 and 100; the cap-1 texts are also spelled out.

GOLDEN_CASES = (
    "b4-swapped", "b4-dropped", "b4-repeated", "b4-shuffled",
    "b7-swapped", "b7-dropped", "b7-repeated", "b7-shuffled",
    "antichain30-empty", "chain4-reversed",
)


def _golden_case(name):
    if name == "antichain30-empty":
        return Antichain(30), []
    if name == "chain4-reversed":
        return Chain(4), [(3, 2, 1, 0)]
    base, fault = name.split("-")
    P, members = {"b4": (BooleanLattice(4), b4_family()),
                  "b7": (BooleanLattice(7), b7_family())}[base]
    members = [list(m) for m in members]
    if fault == "swapped":  # first comparable pair of member 0, placed p < q
        m = members[0]
        p, q = next((p, q) for p in range(len(m)) for q in range(p + 1, len(m))
                    if P.leq(m[p], m[q]))
        m[p], m[q] = m[q], m[p]
    elif fault == "dropped":
        members.pop()
    elif fault == "repeated":
        members[1].append(members[1][2])
    else:
        rng = random.Random(7)
        for m in members:
            rng.shuffle(m)
    return P, [tuple(m) for m in members]


@pytest.mark.parametrize("name", GOLDEN_CASES)
def test_golden_reports(name):
    P, family = _golden_case(name)
    for cap, digest in zip((1, 3, 100), GOLDEN_SHA256[name]):
        text = verify_local_realizer(
            P, family, max_violations_per_kind=cap).to_json(indent=2)
        if cap == 1:
            assert text == GOLDEN_CAP_1[name]
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (cap, text)


@pytest.mark.parametrize("block", [1, 7])
def test_row_blocks(monkeypatch, block):
    monkeypatch.setattr(realizers, "_ROW_BLOCK", block)
    for name in GOLDEN_CASES:
        test_golden_reports(name)
    test_verifier_matches_oracle()
    test_violation_cap()  # cap 0 with violations past the first chunk


def test_validate_ple_reads_each_row_once(monkeypatch):
    P = BooleanLattice(12)
    asked = []

    def counting(self, idx=None, rows=Poset.up_rows):
        asked.append(len(idx))
        return rows(self, idx)

    monkeypatch.setattr(BooleanLattice, "up_rows", counting)
    assert not validate_ple(P, range(19, -1, -1)).accepted
    assert sum(asked) == 20


def test_reject_pass_with_uint8_indices():
    """On 256 elements the members hold their indices as uint8, while one
    tile holds all 256 rows."""
    P = BooleanLattice(8)
    family = build_bn_realizer(8)[:-1]
    report = verify_local_realizer(P, family)
    assert not report.accepted
    with mock.patch.object(realizers, "_TILE_BYTES", 8):
        assert verify_local_realizer(P, family) == report


@pytest.mark.parametrize("tile_bytes", [8, 136])
def test_reject_tiles(monkeypatch, tile_bytes):
    """Tiles of one row (8 bytes) and of a few rows (136) on both passes."""
    monkeypatch.setattr(realizers, "_TILE_BYTES", tile_bytes)
    for name in GOLDEN_CASES:
        test_golden_reports(name)
    test_verifier_matches_oracle()


def test_each_reversal_read_once(monkeypatch):
    """The reject pass reads the up rows of a block once for its pair checks
    and once more only at the rows that hold a reversed pair."""
    P, family = _golden_case("b7-swapped")
    asked = []

    def counting(self, idx=None, rows=Poset.up_rows):
        asked.append(len(idx))
        return rows(self, idx)

    monkeypatch.setattr(BooleanLattice, "up_rows", counting)
    assert not verify_local_realizer(P, family).accepted
    # the accept pass reads at most N, the pair checks N
    assert sum(asked) < 3 * P.ground_size


def test_reject_pass_lists_only_dirty_blocks(monkeypatch):
    """The reject pass lists pairs only in the blocks of rows that fail the
    row test: on b7-swapped, the blocks of the three elements of its
    violations."""
    monkeypatch.setattr(realizers, "_ROW_BLOCK", 7)
    P, family = _golden_case("b7-swapped")
    asked = []

    def counting(P, members, planes, walk=realizers._dirty_blocks):
        for block in walk(P, members, planes):
            if planes == 2:  # the reject pass
                asked.extend(block[0].tolist())
            yield block

    monkeypatch.setattr(realizers, "_dirty_blocks", counting)
    report = verify_local_realizer(P, family)
    assert not report.accepted
    blocks = sorted({P.index_of(x) // 7 for v in report.violations
                     for x in (v.a, v.b)})
    assert blocks == [0, 4]
    assert asked == [r for k in blocks for r in range(7 * k, 7 * k + 7)]


GOLDEN_SHA256 = {
    "b4-swapped": (
        "a45320dc1a8b0605d52cfdf6cb05fc0c60c0123e1eab8f5f0eaecd7b604ab93e",
        "a45320dc1a8b0605d52cfdf6cb05fc0c60c0123e1eab8f5f0eaecd7b604ab93e",
        "a45320dc1a8b0605d52cfdf6cb05fc0c60c0123e1eab8f5f0eaecd7b604ab93e",
    ),
    "b4-dropped": (
        "afa62ad099d12374efea393938d5c903af5877ff7724e5c741107a8b88b8063d",
        "3860b6a59de656fe541a137e3ed5e1987826ddc81ec31eb448486b78f6637d12",
        "570e19c47d89e25c4fa708e68f28ca0cf6b4c0bd8e035a89616dd80b2475933c",
    ),
    "b4-repeated": (
        "8e5bf3e9142f6b6ea5e94c107dc05c1507d1e30e2aeb3056736ec5e696246dfd",
        "8e5bf3e9142f6b6ea5e94c107dc05c1507d1e30e2aeb3056736ec5e696246dfd",
        "8e5bf3e9142f6b6ea5e94c107dc05c1507d1e30e2aeb3056736ec5e696246dfd",
    ),
    "b4-shuffled": (
        "cf47693215ad070aaa06dffde105d9a517cfac2ca8b18abb4772a9668f19e6a6",
        "8b838969de06f1dfba155478097807aed8b4000c64f176c32df02444f9df2936",
        "c6b4bd333434351c271f9dd4c7d09eaa2ba0923684d446383683d241abdeb950",
    ),
    "b7-swapped": (
        "f742eb8b255be1d0241afdbc31fc182f8822a58837ba5a22d5d17263af970b10",
        "e1c97fbca1fc7edefd75b9386de04ac951d1760652a2ceb806bd85f7d33f7751",
        "e1c97fbca1fc7edefd75b9386de04ac951d1760652a2ceb806bd85f7d33f7751",
    ),
    "b7-dropped": (
        "0c4fbdf700b1e5b32109e60565a581a91c79d679447bf0ff8057da7ef0fefb2e",
        "14516b47437a11fc280968e934995f6869e51cb661b203e777e8c5f60bcf0cbc",
        "785bd2716cad89b8a5ea641bfed97a41b5be98cfd367cc95acd910bb6261e802",
    ),
    "b7-repeated": (
        "6e06f1e94171f878aa6fd0b7774f4a2b28d5070e0023ba4f626093efd315547a",
        "6e06f1e94171f878aa6fd0b7774f4a2b28d5070e0023ba4f626093efd315547a",
        "6e06f1e94171f878aa6fd0b7774f4a2b28d5070e0023ba4f626093efd315547a",
    ),
    "b7-shuffled": (
        "3bed628139ab6892a41f82b731149d5c059ea437b00ac3e96c45e1ac2aa00ede",
        "f31c335aa94cb0a679aecf668a1c6e81dd8cb37a6a9d6217e96910750cce3ba2",
        "81a87b33c4fd3e649ac7c0f6b215f2b853ad51b752a843dd07f805728cdeb1b5",
    ),
    "antichain30-empty": (
        "2677af37a9af13b93bbc02372eb22160c321d355c5c9c9f65e0c8f5c0168b5c7",
        "69df0f2c9e9c29b2d44781a8ccc9231ba32a83df846eade69d12acefbb626ce9",
        "0a99fd439ee6a8cfb719158e9fd0d42d235c8a6f826ba87b4b4572a035c3536e",
    ),
    "chain4-reversed": (
        "b0f57303c353a8094b0d436fe6966e3b5da130f7f71f11f5ff572618d13a1fd1",
        "e311edb3512387d1e0985879e2c86d64f308fe27dfa887278533e9e0036e1272",
        "d1862da274ac91c3d3dad15248abc95dd19204e3b1e2075db4d5d51ddd85f2f7",
    ),
}

GOLDEN_CAP_1 = {
    "b4-swapped": """\
{
  "accepted": false,
  "frequency": 3,
  "size": 4,
  "violations": [
    {
      "kind": "comparable-pair-reversed",
      "a": 0,
      "b": 8,
      "ple": 0
    },
    {
      "kind": "order-violation-in-ple",
      "a": 0,
      "b": 8,
      "ple": 0
    }
  ]
}""",
    "b4-dropped": """\
{
  "accepted": false,
  "frequency": 3,
  "size": 3,
  "violations": [
    {
      "kind": "incomparable-pair-one-sided",
      "a": 1,
      "b": 2,
      "ple": null
    }
  ]
}""",
    "b4-repeated": """\
{
  "accepted": false,
  "frequency": 3,
  "size": 4,
  "violations": [
    {
      "kind": "duplicate-in-ple",
      "a": 5,
      "b": 5,
      "ple": 1
    }
  ]
}""",
    "b4-shuffled": """\
{
  "accepted": false,
  "frequency": 3,
  "size": 4,
  "violations": [
    {
      "kind": "comparable-pair-never-witnessed",
      "a": 0,
      "b": 2,
      "ple": null
    },
    {
      "kind": "comparable-pair-reversed",
      "a": 0,
      "b": 1,
      "ple": 2
    },
    {
      "kind": "incomparable-pair-one-sided",
      "a": 1,
      "b": 10,
      "ple": null
    },
    {
      "kind": "order-violation-in-ple",
      "a": 4,
      "b": 14,
      "ple": 0
    }
  ]
}""",
    "b7-swapped": """\
{
  "accepted": false,
  "frequency": 5,
  "size": 7,
  "violations": [
    {
      "kind": "comparable-pair-reversed",
      "a": 1,
      "b": 33,
      "ple": 0
    },
    {
      "kind": "order-violation-in-ple",
      "a": 1,
      "b": 33,
      "ple": 0
    }
  ]
}""",
    "b7-dropped": """\
{
  "accepted": false,
  "frequency": 5,
  "size": 6,
  "violations": [
    {
      "kind": "comparable-pair-never-witnessed",
      "a": 0,
      "b": 2,
      "ple": null
    },
    {
      "kind": "incomparable-pair-one-sided",
      "a": 2,
      "b": 68,
      "ple": null
    }
  ]
}""",
    "b7-repeated": """\
{
  "accepted": false,
  "frequency": 5,
  "size": 7,
  "violations": [
    {
      "kind": "duplicate-in-ple",
      "a": 34,
      "b": 34,
      "ple": 1
    }
  ]
}""",
    "b7-shuffled": """\
{
  "accepted": false,
  "frequency": 5,
  "size": 7,
  "violations": [
    {
      "kind": "comparable-pair-never-witnessed",
      "a": 0,
      "b": 2,
      "ple": null
    },
    {
      "kind": "comparable-pair-reversed",
      "a": 0,
      "b": 2,
      "ple": 6
    },
    {
      "kind": "incomparable-pair-one-sided",
      "a": 1,
      "b": 30,
      "ple": null
    },
    {
      "kind": "order-violation-in-ple",
      "a": 15,
      "b": 31,
      "ple": 0
    }
  ]
}""",
    "antichain30-empty": """\
{
  "accepted": false,
  "frequency": 0,
  "size": 0,
  "violations": [
    {
      "kind": "pair-never-co-occurs",
      "a": 0,
      "b": 1,
      "ple": null
    }
  ]
}""",
    "chain4-reversed": """\
{
  "accepted": false,
  "frequency": 1,
  "size": 1,
  "violations": [
    {
      "kind": "comparable-pair-never-witnessed",
      "a": 0,
      "b": 1,
      "ple": null
    },
    {
      "kind": "comparable-pair-reversed",
      "a": 0,
      "b": 1,
      "ple": 0
    },
    {
      "kind": "order-violation-in-ple",
      "a": 2,
      "b": 3,
      "ple": 0
    }
  ]
}""",
}


def _lift_by_loops(P, Q, family_p, family_q):
    """lift_product, element by element."""
    canon_p = [P.index_of(a) for a in canonical_linear_extension(P)]
    canon_q = [Q.index_of(a) for a in canonical_linear_extension(Q)]
    n = P.ground_size
    return ([tuple(P.index_of(a) + n * qy for a in ple for qy in canon_q)
             for ple in family_p]
            + [tuple(px + n * Q.index_of(a) for a in ple for px in canon_p)
               for ple in family_q])


def _singleton_orders_by_loops(n, d):
    """The singleton construction's orders, set by set."""
    from ldimkit.singletons import block_partition

    L = tuple(canonical_linear_extension(SingletonPoset(n)))
    orders = [L, L[:n][::-1] + L[n:][::-1]]
    for block in block_partition(n, d).blocks:
        block_mask = sum(1 << (x - 1) for x in block)
        for j in range(1, 1 << len(block)):
            j_mask = j << (block[0] - 1)
            orders.append(tuple(
                a for a in range(1, 1 << n) if a.bit_count() >= 2
                and a & block_mask == block_mask & ~j_mask) + tuple(
                1 << (x - 1) for x in block if j_mask >> (x - 1) & 1))
    return orders


def _is_id_family(family) -> bool:
    return all(ids.dtype == np.int64 and not ids.flags.writeable
               for ids in family.arrays)


def test_builders_match_their_loop_versions():
    from ldimkit import build_singleton_plan

    for n in range(1, 6):
        fam = build_standard_realizer(n)
        canon = canonical_linear_extension(BooleanLattice(n))
        assert _is_id_family(fam) and list(fam) == [
            tuple(a for a in canon if not a >> i & 1)
            + tuple(a for a in canon if a >> i & 1) for i in range(n)]
    cases = [(BooleanLattice(4), BooleanLattice(3), b4_family(),
              build_standard_realizer(3)),
             (Chain(3), SingletonPoset(3), [(0, 1, 2), (2,)],
              build_singleton_realizer(3, 1)),
             (Antichain(2), Chain(1), [(1, 0), (0, 1)], [(0,)])]
    for P, Q, fp, fq in cases:
        lifted = lift_product(P, Q, fp, fq)
        assert _is_id_family(lifted)
        assert list(lifted) == _lift_by_loops(P, Q, fp, fq)
    for n, d in [(2, 1), (3, 2), (5, 2), (6, 3), (7, 7), (9, 3)]:
        plan = build_singleton_plan(n, d)
        assert _is_id_family(plan.family())
        assert list(plan.family()) == _singleton_orders_by_loops(n, d)


def test_family_storage():
    fam = RealizerFamily([(3, 1), [2], np.array([5, 4], dtype=np.uint8)])
    assert _is_id_family(fam) and list(fam) == [(3, 1), (2,), (5, 4)]
    assert fam.occurrences(4) == 1 and fam.frequency == 1
    ids = np.array([7, 8])
    held = RealizerFamily([ids])
    assert held.arrays[0] is ids and not ids.flags.writeable
    with pytest.raises(ValueError):
        held.arrays[0][0] = 1
    big = RealizerFamily([(1, 1 << 63)])
    assert big.arrays[0].dtype == object and list(big) == [(1, 1 << 63)]
    with pytest.raises(RangeError, match=f"element id {1 << 80} out of range"):
        verify_local_realizer(Chain(2), [(0, 1), (1 << 80, -5)])
    assert RealizerFamily(fam) is fam
    assert RealizerFamily([(1, 2)]) != RealizerFamily([(1, 2), ()])

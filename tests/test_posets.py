import numpy as np
import pytest

from ldimkit import (Antichain, BooleanLattice, Chain, MultisetLattice,
                     MultisetSingletonPoset, ParameterError, ProductPoset,
                     RangeError, SingletonPoset, build_poset,
                     canonical_linear_extension, id_to_set, set_to_id)

from tests import oracle
from tests.test_realizers import _Relabelled


def test_id_set_roundtrip():
    assert id_to_set(13) == frozenset({1, 3, 4})
    assert set_to_id({1, 3, 4}) == 13
    assert id_to_set(0) == frozenset()
    for eid in range(64):
        assert set_to_id(id_to_set(eid)) == eid


def test_boolean_ground_and_leq():
    P = BooleanLattice(4)
    assert P.ground_size == 16
    assert list(P.element_ids()) == list(range(16))
    # {1,3} <= {1,3,4}
    assert P.leq(5, 13)
    assert not P.leq(13, 5)
    assert P.leq(0, 15) and P.leq(7, 7)
    for a in P.element_ids():
        for b in P.element_ids():
            assert P.leq(a, b) == oracle.brute_leq_boolean(a, b)


def test_singleton_poset_relation():
    P = SingletonPoset(3)
    assert P.ground_size == 7
    assert list(P.element_ids()) == list(range(1, 8))
    assert P.leq(1, 3) and P.leq(2, 3) and P.leq(4, 5)
    assert not P.leq(3, 7)      # two-element sets are incomparable to others
    assert not P.leq(1, 2)
    assert not P.leq(3, 1)      # no set-above-singleton order
    assert P.leq(3, 3)
    assert sorted(P.singleton_type_ids()) == [1, 2, 4]


def _assert_same_poset(P, Q):
    """Same ids, same order and same packed rows."""
    assert list(P.element_ids()) == list(Q.element_ids())
    assert np.array_equal(P.leq_matrix(), Q.leq_matrix())
    assert np.array_equal(P.up_rows(), Q.up_rows())
    assert np.array_equal(P.down_rows(), Q.down_rows())


def test_multiset_lattice_matches_boolean_at_m2():
    # BooleanLattice keeps its own class for its word-table rows
    for n in range(1, 9):
        _assert_same_poset(MultisetLattice(n, 2), BooleanLattice(n))


def test_singleton_is_multiset_singleton_at_m2():
    for n in range(1, 9):
        S = SingletonPoset(n)
        assert S.kind == f"singleton:{n}"
        assert S.singleton_type_ids() == [1 << i for i in range(n)]
        _assert_same_poset(S, MultisetSingletonPoset(n, 2))


def test_multiset_singleton_subposet():
    P = MultisetSingletonPoset(2, 3)
    assert P.ground_size == 8           # ids 1..8
    assert sorted(P.singleton_type_ids()) == [1, 2, 3, 6]  # powers of one type
    # singleton (1,0) = id 1 is below (2,1) = id 5
    assert P.leq(1, 5)
    assert not P.leq(5, 1)
    assert not P.leq(1, 2)              # two singleton-types incomparable
    assert not P.leq(4, 5)              # (1,1) and (2,1): both multi-support
    with pytest.raises(RangeError):
        P.leq(0, 5)


def test_order_axioms_small():
    posets = [BooleanLattice(3), SingletonPoset(3), MultisetLattice(2, 3),
              MultisetSingletonPoset(2, 3), Chain(4), Antichain(4),
              ProductPoset(Chain(2), Antichain(3))]
    for P in posets:
        ids = list(P.element_ids())
        for a in ids:
            assert P.leq(a, a)
        for a in ids:
            for b in ids:
                if a != b and P.leq(a, b):
                    assert not P.leq(b, a)
                for c in ids:
                    if P.leq(a, b) and P.leq(b, c):
                        assert P.leq(a, c)


def test_leq_matrix_agrees_with_scalar():
    for P in (BooleanLattice(3), SingletonPoset(4), MultisetLattice(2, 3),
              MultisetSingletonPoset(3, 2), Chain(5), Antichain(5),
              ProductPoset(BooleanLattice(2), Chain(3))):
        M = P.leq_matrix()
        ids = list(P.element_ids())
        for i, a in enumerate(ids):
            for j, b in enumerate(ids):
                assert M[i, j] == P.leq(a, b), (P.kind, a, b)


def test_boolean_leq_matrix_row_blocks():
    # 512 elements: the matrix unpacks eight 64-bit words per row
    ids = np.arange(512)
    M = BooleanLattice(9).leq_matrix()
    assert M.dtype == bool and M.shape == (512, 512)
    assert np.array_equal(M, (ids[:, None] | ids[None, :]) == ids[None, :])


def _strict_rows(M):
    """Rows of a bool matrix minus its diagonal, packed as up_rows packs
    them: column j at bit j % 64 of uint64 word j // 64."""
    n = len(M)
    out = np.zeros((n, 8 * ((n + 63) // 64)), np.uint8)
    out[:, :(n + 7) // 8] = np.packbits(M & ~np.eye(n, dtype=bool), axis=1,
                                        bitorder="little")
    return out.view("<u8")


def test_structural_rows_match_packed_matrix():
    posets = [BooleanLattice(n) for n in range(1, 11)]
    posets += [SingletonPoset(n) for n in range(1, 11)]
    posets += [Chain(1), Chain(4), Antichain(1), Antichain(5)]
    # multiset-singleton:4:5 (N = 624) and 6:4 (N = 4095) cross 64-bit word
    # and 256-row block edges
    posets += [MultisetSingletonPoset(n, m) for n, m in (
        (1, 3), (3, 2), (7, 2), (2, 3), (5, 3), (3, 4), (6, 4), (2, 5),
        (4, 5))]
    rng = np.random.default_rng(11)
    for P in posets:
        ids = np.arange(P.ground_size)
        leq = P._leq_index(ids[:, None], ids)  # the order predicate
        assert np.array_equal(P.leq_matrix(), leq), P.kind
        up, down = _strict_rows(leq), _strict_rows(leq.T)
        assert np.array_equal(P.up_rows(), up), P.kind
        assert np.array_equal(P.down_rows(), down), P.kind
        idx = rng.integers(0, P.ground_size, 9)
        assert np.array_equal(P.up_rows(idx), up[idx]), P.kind
        assert np.array_equal(P.down_rows(idx), down[idx]), P.kind


@pytest.mark.parametrize("P, brute", [
    (MultisetLattice(3, 7), oracle.brute_leq_multiset),           # N = 343
    (MultisetSingletonPoset(4, 5), oracle.brute_leq_multiset_singleton),  # 624
    (MultisetSingletonPoset(2, 3), oracle.brute_leq_multiset_singleton),
    # the singleton order checked against no bitmask code: m = 2, N = 511
    (SingletonPoset(9), oracle.brute_leq_multiset_singleton),
])
def test_multiset_order_matches_brute_force(P, brute):
    # N = 343, 511 and 624 span more than one 256-row block and cross 64-bit
    # word edges; N = 8 fits in one word
    ids = list(P.element_ids())
    elements = [oracle.multiplicities(a, P.n, P.m) for a in ids]
    ref = np.array([[brute(x, y) for y in elements] for x in elements])
    assert np.array_equal(P.leq_matrix(), ref)
    up, down = _strict_rows(ref), _strict_rows(ref.T)
    assert np.array_equal(P.up_rows(), up)
    assert np.array_equal(P.down_rows(), down)
    n = P.ground_size
    idx = np.unique(np.concatenate((np.random.default_rng(5).integers(0, n, 30),
                                    [0, 63, 64, 255, 256, n - 1])))
    idx = idx[idx < n]
    assert np.array_equal(P.up_rows(idx), up[idx])
    assert np.array_equal(P.down_rows(idx), down[idx])
    for i in idx.tolist():
        for j, b in enumerate(ids):
            assert P.leq(ids[i], b) == ref[i, j]
            assert P.leq(b, ids[i]) == ref[j, i]


def test_product_structure():
    P = ProductPoset(BooleanLattice(2), Chain(3))
    assert P.ground_size == 12
    # combined id = idx_P + size_P * idx_Q: 1 + 4 * 0 is ({1}, 0), 3 + 4 * 2
    # is ({1, 2}, 2) and 2 + 4 * 2 is ({2}, 2)
    assert P.leq(1, 11)
    assert not P.leq(1, 10)
    assert P.leq(10, 11) and not P.leq(11, 10)
    assert not P.leq(4 * 2 + 0, 4 * 1 + 3)
    # matrix = kron(Q, P), packed rows alike
    for p, q in ((BooleanLattice(2), Chain(3)),
                 (MultisetLattice(2, 3), SingletonPoset(4)),
                 (Antichain(3),
                  ProductPoset(Chain(2), MultisetSingletonPoset(2, 3))),
                 (SingletonPoset(5), BooleanLattice(3))):
        P = ProductPoset(p, q)
        kron = np.kron(q.leq_matrix(), p.leq_matrix())
        assert np.array_equal(P.leq_matrix(), kron), P.kind
        assert np.array_equal(P.up_rows(), _strict_rows(kron)), P.kind
        assert np.array_equal(P.down_rows(), _strict_rows(kron.T)), P.kind


def test_boolean_product_is_boolean():
    # the builder's running poset: ids px + 2**a * qy are the joined bitmasks
    for a in range(1, 5):
        for b in range(1, 5):
            P = ProductPoset(BooleanLattice(a), BooleanLattice(b))
            B = BooleanLattice(a + b)
            assert P.element_ids() == B.element_ids()
            assert np.array_equal(P.up_rows(), B.up_rows()), (a, b)
            assert np.array_equal(P.down_rows(), B.down_rows()), (a, b)
            assert (canonical_linear_extension(P)
                    == canonical_linear_extension(B)), (a, b)


def test_canonical_extension_pinned():
    for n in range(1, 11):
        assert canonical_linear_extension(BooleanLattice(n)) == sorted(
            range(1 << n), key=lambda a: (a.bit_count(), a))
    for n in range(2, 11):
        assert canonical_linear_extension(SingletonPoset(n)) == sorted(
            range(1, 1 << n), key=lambda a: (a.bit_count(), a))
    for k in (1, 5, 300):
        assert canonical_linear_extension(Chain(k)) == list(range(k))
        assert canonical_linear_extension(Antichain(k)) == list(range(k))


def test_multi_support_ids_match_digits():
    for n in range(1, 4):
        for m in range(2, 5):
            P = MultisetSingletonPoset(n, m)
            assert P.multi_support_ids() == [
                a for a in P.element_ids()
                if sum(d > 0 for d in oracle.multiplicities(a, n, m)) >= 2]


def test_canonical_linear_extension():
    assert canonical_linear_extension(BooleanLattice(2)) == [0, 1, 2, 3]
    for P in (BooleanLattice(3), SingletonPoset(3), MultisetLattice(2, 3),
              MultisetLattice(3, 3), MultisetSingletonPoset(2, 3),
              Antichain(4), ProductPoset(Chain(2), BooleanLattice(2)),
              _Relabelled(SingletonPoset(4))):
        ext = canonical_linear_extension(P)
        assert sorted(ext) == sorted(P.element_ids())
        pos = {a: i for i, a in enumerate(ext)}
        for a in P.element_ids():
            for b in P.element_ids():
                if a != b and P.leq(a, b):
                    assert pos[a] < pos[b]


def test_build_poset_specs():
    assert build_poset("boolean:3").kind == "boolean:3"
    assert build_poset("singleton:4").ground_size == 15
    assert build_poset("multiset:2:3").ground_size == 9
    assert build_poset("multiset-singleton:2:3").ground_size == 8
    assert build_poset("chain:5").ground_size == 5
    assert build_poset("antichain:2").ground_size == 2
    for bad in ("nosuch:3", "boolean", "boolean:2:3", "chain:x", "",
                "multiset:4"):
        with pytest.raises(ParameterError):
            build_poset(bad)


def test_ground_sets_of_2_63_or_more_are_refused():
    # ids are int64; the sizes at the edge are computed, the rest refused
    # without computing 2^n or m^n
    assert BooleanLattice(62).ground_size == 1 << 62
    assert SingletonPoset(63).ground_size == (1 << 63) - 1
    assert MultisetLattice(39, 3).ground_size == 3 ** 39
    assert Chain((1 << 63) - 1).ground_size == (1 << 63) - 1
    for make in (lambda: BooleanLattice(63), lambda: SingletonPoset(64),
                 lambda: MultisetLattice(40, 3),
                 lambda: MultisetSingletonPoset(20000, 3),
                 lambda: BooleanLattice(100000), lambda: Chain(1 << 63),
                 lambda: Antichain(1 << 63),
                 lambda: ProductPoset(BooleanLattice(40), Chain(1 << 23))):
        with pytest.raises(ParameterError, match="2\\^63 or more elements"):
            make()


def test_range_errors():
    P = BooleanLattice(2)
    with pytest.raises(RangeError):
        P.check_id(4)
    with pytest.raises(RangeError):
        P.index_of(-1)
    S = SingletonPoset(2)
    with pytest.raises(RangeError):
        S.check_id(0)  # ids start at 1

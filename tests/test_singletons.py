import pytest

from ldimkit import (ParameterError, SingletonPoset, block_partition,
                     build_singleton_plan, build_singleton_realizer,
                     default_block_width, singleton_frequency_bound,
                     verify_local_realizer)

from tests import oracle


def test_default_block_width_frozen():
    assert default_block_width(2) == 1
    assert default_block_width(4) == 1
    assert default_block_width(8) == 2
    assert default_block_width(13) == 2
    assert default_block_width(16) == 2
    with pytest.raises(ParameterError):
        default_block_width(1)


def test_frequency_bound_frozen():
    assert singleton_frequency_bound(8, 2) == (5, 6)
    assert singleton_frequency_bound(4, 1) == (3, 6)
    assert singleton_frequency_bound(16, 2) == (5, 10)


def test_block_partition():
    part = block_partition(7, 3)
    assert part.r == 3
    assert part.blocks == ((1, 2, 3), (4, 5, 6), (7,))
    assert block_partition(6, 2).blocks == ((1, 2), (3, 4), (5, 6))
    with pytest.raises(ParameterError):
        block_partition(4, 0)
    with pytest.raises(ParameterError):
        block_partition(4, 5)


def test_plan_shape():
    n = 4
    fam = build_singleton_plan(n, 2).family()
    # L and L', then 2 blocks of width 2 -> 3 nonempty J per block
    assert fam.size == 2 + 6
    # L' is L with its n singletons reversed, then its larger sets reversed
    assert fam[1] == fam[0][:n][::-1] + fam[0][n:][::-1]


def test_small_realizers_verify():
    for n, d in [(2, 1), (3, 1), (4, 2), (5, 2), (6, 3)]:
        P = SingletonPoset(n)
        fam = build_singleton_realizer(n, d)
        rep = verify_local_realizer(P, fam)
        assert rep.accepted, (n, d, rep.violations[:3])
        assert rep.frequency <= max(singleton_frequency_bound(n, d))
        ok, freq, _ = oracle.check_family(P, fam)
        assert ok and freq == rep.frequency


def test_default_width_realizers_verify():
    for n in (4, 6, 9):
        P = SingletonPoset(n)
        fam = build_singleton_realizer(n)
        rep = verify_local_realizer(P, fam)
        assert rep.accepted
        d = default_block_width(n)
        assert rep.frequency <= max(singleton_frequency_bound(n, d))


def test_occurrence_accounting():
    # singleton x in a block of width w appears in L, L', and the 2^(w-1)
    # orders whose J contains x; a big set appears in L, L', and one order
    # per block it does not fully cover.
    n, d = 6, 2
    plan = build_singleton_plan(n, d)
    fam = plan.family()
    part = plan.partition
    for x in range(1, n + 1):
        w = len(next(b for b in part.blocks if x in b))
        assert fam.occurrences(1 << (x - 1)) == 2 + 2 ** (w - 1)
    full = (1 << n) - 1
    for A in range(1, 1 << n):
        if A.bit_count() < 2:
            continue
        covered = sum(1 for b in part.blocks
                      if all(A >> (x - 1) & 1 for x in b))
        assert fam.occurrences(A) == 2 + part.r - covered, A
    assert fam.occurrences(full) == 2


def test_parameter_errors():
    with pytest.raises(ParameterError):
        build_singleton_plan(1)
    with pytest.raises(ParameterError):
        build_singleton_realizer(4, 9)

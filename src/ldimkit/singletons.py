"""An explicit low-frequency local realizer of the singleton poset.

The ground set [n] is split into r = ceil(n/d) blocks of width d.  The
family consists of two global orders L and L' (all singletons below all
larger sets, with both layers reversed between the two), plus one order per
block i and nonempty subset J of the block: the sets whose trace on block i
misses exactly J, followed by the singletons of J.  The realized frequency
is at most max(2^d + 1, r + 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError
from .realizers import RealizerFamily


def default_block_width(n: int) -> int:
    """max(1, ceil(log2 n - log2 log2 n)); defined for n >= 2."""
    if n < 2:
        raise ParameterError(f"default_block_width needs n >= 2, got {n}")
    return max(1, math.ceil(math.log2(n) - math.log2(math.log2(n))))


def singleton_frequency_bound(n: int, d: int) -> tuple[int, int]:
    """(2^d + 1, ceil(n/d) + 2); their max bounds the realized frequency."""
    _validate(n, d)
    return (1 << d) + 1, -(-n // d) + 2


@dataclass(frozen=True)
class BlockPartition:
    """[n] split into r = ceil(n/d) consecutive blocks of width d (the last
    block may be shorter)."""

    n: int
    d: int
    r: int
    blocks: tuple[tuple[int, ...], ...]


def _validate(n: int, d: int) -> None:
    if n < 2:
        raise ParameterError(f"singleton construction needs n >= 2, got {n}")
    if not 1 <= d <= n:
        raise ParameterError(f"block width must satisfy 1 <= d <= n, got {d}")


def block_partition(n: int, d: int) -> BlockPartition:
    _validate(n, d)
    r = -(-n // d)
    blocks = tuple(
        tuple(x for x in range(d * i + 1, d * (i + 1) + 1) if x <= n)
        for i in range(r))
    return BlockPartition(n=n, d=d, r=r, blocks=blocks)


@dataclass(frozen=True)
class SingletonRealizerPlan:
    """The full construction: global orders L and L' plus the per-block
    orders, each tagged with its (block index, J) pair."""

    partition: BlockPartition
    L: tuple[int, ...]
    L_prime: tuple[int, ...]
    block_orders: tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]
    # entries are (block index, J as ascending ground elements, the order)

    def family(self) -> RealizerFamily:
        return RealizerFamily(
            [self.L, self.L_prime] + [order for _, _, order in self.block_orders])


def build_singleton_plan(n: int, d: int | None = None) -> SingletonRealizerPlan:
    if d is None:
        d = default_block_width(n)
    partition = block_partition(n, d)
    top = 1 << n

    singles = [1 << (x - 1) for x in range(1, n + 1)]
    bigs = sorted((a for a in range(1, top) if a.bit_count() >= 2),
                  key=lambda a: (a.bit_count(), a))
    L = tuple(singles + bigs)
    L_prime = tuple(singles[::-1] + bigs[::-1])

    block_orders = []
    for i, block in enumerate(partition.blocks, start=1):
        block_mask = sum(1 << (x - 1) for x in block)
        # nonempty J <= block, ascending by mask for determinism
        sub = 0
        j_masks = []
        while True:
            sub = (sub - block_mask) & block_mask
            if sub == 0:
                break
            j_masks.append(sub)
        for j_mask in sorted(j_masks):
            trace = block_mask & ~j_mask  # sets counted here meet the block in this trace
            a_group = [a for a in range(1, top)
                       if a.bit_count() >= 2 and (a & block_mask) == trace]
            s_group = [1 << (x - 1) for x in block if j_mask >> (x - 1) & 1]
            j_elems = tuple(x for x in block if j_mask >> (x - 1) & 1)
            block_orders.append((i, j_elems, tuple(a_group + s_group)))

    return SingletonRealizerPlan(
        partition=partition, L=L, L_prime=L_prime,
        block_orders=tuple(block_orders))


def build_singleton_realizer(n: int, d: int | None = None) -> RealizerFamily:
    """Build the block-construction local realizer of singleton:n.

    ``d`` defaults to default_block_width(n).  The result verifies on
    SingletonPoset(n) with frequency at most max(2^d + 1, ceil(n/d) + 2).
    """
    return build_singleton_plan(n, d).family()

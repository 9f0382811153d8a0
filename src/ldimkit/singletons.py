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

import numpy as np

from .errors import ParameterError
from .posets import SingletonPoset, canonical_linear_extension
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


def _validate(n: int, d: int | None = None) -> None:
    if n < 2:
        raise ParameterError(f"singleton construction needs n >= 2, got {n}")
    if d is not None and not 1 <= d <= n:
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
    orders, each tagged with its (block index, J) pair.  The orders are
    held once, as the id arrays of ``family()``, L and L' first; ``L``,
    ``L_prime`` and ``block_orders`` read them as tuples."""

    partition: BlockPartition
    tags: tuple[tuple[int, tuple[int, ...]], ...]
    # (block index, J as ascending ground elements) of each block order
    orders: RealizerFamily

    def family(self) -> RealizerFamily:
        return self.orders

    @property
    def L(self) -> tuple[int, ...]:
        return self.orders[0]

    @property
    def L_prime(self) -> tuple[int, ...]:
        return self.orders[1]

    @property
    def block_orders(self) -> tuple[tuple[int, tuple[int, ...],
                                          tuple[int, ...]], ...]:
        """(block index, J, the order) of each block order."""
        return tuple((i, J, order) for (i, J), order
                     in zip(self.tags, self.orders.ples[2:]))


def build_singleton_plan(n: int, d: int | None = None) -> SingletonRealizerPlan:
    _validate(n)  # before the default width, which has its own n >= 2 check
    partition = block_partition(n, default_block_width(n) if d is None else d)

    # the canonical order: singletons by id, then larger sets by (size, id)
    L = np.array(canonical_linear_extension(SingletonPoset(n)))
    orders = [L, np.concatenate([L[:n][::-1], L[n:][::-1]])]
    ids = np.arange(1, 1 << n)
    sets = ids[np.bitwise_count(ids) >= 2]  # by id
    tags = []
    for i, block in enumerate(partition.blocks, start=1):
        low, width = block[0] - 1, len(block)  # a block is a run of elements
        # the sets grouped by their trace on the block, in id order inside
        # each group
        trace = sets >> low & ((1 << width) - 1)
        order = np.argsort(trace, kind="stable")
        grouped = sets[order]
        starts = np.searchsorted(trace[order], np.arange((1 << width) + 1))
        for j in range(1, 1 << width):  # nonempty J <= block, by mask
            # the order: the sets that meet the block in its elements
            # outside J, then the singletons of J
            rest = ((1 << width) - 1) ^ j
            j_elems = tuple(x for x in block if j >> (x - 1 - low) & 1)
            tags.append((i, j_elems))
            orders.append(np.concatenate([
                grouped[starts[rest]:starts[rest + 1]],
                [1 << (x - 1) for x in j_elems]]))

    return SingletonRealizerPlan(partition=partition, tags=tuple(tags),
                                 orders=RealizerFamily(orders))


def build_singleton_realizer(n: int, d: int | None = None) -> RealizerFamily:
    """Build the block-construction local realizer of singleton:n.

    ``d`` defaults to default_block_width(n).  The result verifies on
    SingletonPoset(n) with frequency at most max(2^d + 1, ceil(n/d) + 2).
    """
    return build_singleton_plan(n, d).family()

"""Partial linear extensions, realizer families, and the local-realizer verifier.

A partial linear extension (PLE) is an ordered sequence of distinct element
ids that never places ``b`` before ``a`` when ``a < b`` in the poset.  A
family of PLEs is a *local realizer* when every pair of distinct elements
co-occurs in some member, comparable pairs are never reversed, and
incomparable pairs appear in both orders across the family.  The *frequency*
of a family is the maximum number of members containing any one element; the
*size* is the number of members.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import ContractError, ParameterError
from .posets import (_ONE, _ROW_BLOCK, BooleanLattice, Chain, Poset,
                     canonical_linear_extension)

Ple = tuple[int, ...]

DUPLICATE_IN_PLE = "duplicate-in-ple"
ORDER_VIOLATION_IN_PLE = "order-violation-in-ple"
PAIR_NEVER_CO_OCCURS = "pair-never-co-occurs"
COMPARABLE_PAIR_REVERSED = "comparable-pair-reversed"
COMPARABLE_PAIR_NEVER_WITNESSED = "comparable-pair-never-witnessed"
INCOMPARABLE_PAIR_ONE_SIDED = "incomparable-pair-one-sided"

VIOLATION_KINDS = (
    DUPLICATE_IN_PLE,
    ORDER_VIOLATION_IN_PLE,
    PAIR_NEVER_CO_OCCURS,
    COMPARABLE_PAIR_REVERSED,
    COMPARABLE_PAIR_NEVER_WITNESSED,
    INCOMPARABLE_PAIR_ONE_SIDED,
)


@dataclass(frozen=True)
class Violation:
    """One broken condition; ``ple`` is the member index when the violation
    is tied to a specific member, else None."""

    kind: str
    a: int
    b: int
    ple: int | None = None

    def to_json_dict(self) -> dict:
        return vars(self).copy()


@dataclass(frozen=True)
class VerificationReport:
    accepted: bool
    frequency: int
    size: int
    violations: tuple[Violation, ...]

    def to_json_dict(self) -> dict:
        return {**vars(self),
                "violations": [v.to_json_dict() for v in self.violations]}

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)

    @property
    def violation_kinds(self) -> set[str]:
        return {v.kind for v in self.violations}


class RealizerFamily:
    """An immutable list of PLEs with cached per-element member counts.
    Wrapping a family again reuses its member tuples."""

    def __init__(self, ples: Iterable[Sequence[int]]):
        self.ples: tuple[Ple, ...] = tuple(tuple(p) for p in ples)

    @cached_property
    def _member_counts(self) -> Counter:
        """element id -> number of members containing it; a member counts
        each of its elements once, as the verifier does."""
        return Counter(a for ple in self.ples for a in set(ple))

    @property
    def size(self) -> int:
        return len(self.ples)

    @cached_property
    def frequency(self) -> int:
        return max(self._member_counts.values(), default=0)

    def occurrences(self, a: int) -> int:
        """Number of distinct members containing element a."""
        return self._member_counts[a]

    def __len__(self) -> int:
        return len(self.ples)

    def __iter__(self):
        return iter(self.ples)

    def __getitem__(self, i):
        return self.ples[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, RealizerFamily) and self.ples == other.ples

    def __hash__(self):
        return hash(self.ples)

    def __repr__(self) -> str:
        return f"<RealizerFamily size={self.size} frequency={self.frequency}>"


# The swap steps of a 64 x 64 bit transpose (Hacker's Delight, 7-3): step s
# swaps bit c + s of row r with bit c of row r + s, where r and c have bit s
# clear (``mask`` keeps those c).
_SWAPS = tuple((np.uint64(s), np.uint64(mask)) for s, mask in (
    (32, 0x00000000FFFFFFFF), (16, 0x0000FFFF0000FFFF),
    (8, 0x00FF00FF00FF00FF), (4, 0x0F0F0F0F0F0F0F0F),
    (2, 0x3333333333333333), (1, 0x5555555555555555)))


def _placed_so_far(arr: np.ndarray, carry, out: np.ndarray) -> np.ndarray:
    """Row q of ``out``: the packed set of elements arr[0..q], plus the set
    ``carry``."""
    out[:] = 0
    out[np.arange(arr.size), arr >> 6] = _ONE << (arr & 63).astype(np.uint64)
    out[0] |= carry
    return np.bitwise_or.accumulate(out, axis=0, out=out)


def _transposed_rows(matrix: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Rows start..stop-1 of the bit transpose of a packed matrix whose rows
    are padded with zero rows to a whole number of 64-row tiles: row r of
    the result has bit c set iff row c of ``matrix`` has bit r set."""
    W = matrix.shape[1]
    first, k = start >> 6, ((stop - 1) >> 6) + 1 - (start >> 6)
    # tiles[i, t, j]: word first + j of row 64 t + i
    strip = matrix[:, first:first + k].reshape(W, 64, k)
    tiles = strip.transpose(1, 0, 2).copy()
    swap = np.empty(32 * W * k, dtype=np.uint64)
    for s, mask in _SWAPS:
        lo, hi = tiles.reshape(-1, 2, int(s) * W * k).transpose(1, 0, 2)
        diff = np.right_shift(lo, s, out=swap.reshape(lo.shape))
        diff ^= hi
        diff &= mask
        hi ^= diff
        diff <<= s
        lo ^= diff
    # now bit i of tiles[b, t, j] is bit 64 (first + j) + b of row 64 t + i
    rows = tiles.transpose(2, 0, 1).reshape(64 * k, W)
    return rows[start & 63:(start & 63) + stop - start]


def _set_bits(mask: np.ndarray, cap: int) -> tuple[bool, np.ndarray, np.ndarray]:
    """Whether a packed matrix has a set bit, plus the (row, column) of every
    set bit in its first nonzero rows, in row-major order: as many rows as
    it takes to hold ``cap`` bits."""
    found = bool(mask.any())
    if not found or cap <= 0:
        return found, np.empty(0, np.intp), np.empty(0, np.intp)
    per_row = np.bitwise_count(mask).sum(axis=1)
    rows = np.flatnonzero(per_row)
    rows = rows[:np.searchsorted(np.cumsum(per_row[rows]), cap) + 1]
    bits = np.unpackbits(mask[rows].astype("<u8", copy=False).view(np.uint8),
                         axis=1, bitorder="little")
    r, cols = np.nonzero(bits)
    return True, rows[r], cols


class _ViolationLog:
    """Lists at most ``cap`` violations of each kind; ``clean`` holds until
    one is found, listed or not."""

    def __init__(self, cap: int):
        self.cap = cap
        self.items: list[Violation] = []
        self.listed: Counter = Counter()
        self.clean = True

    def room(self, kind: str) -> int:
        """How many more violations of ``kind`` may be listed."""
        return max(self.cap - self.listed[kind], 0)

    def add(self, kind: str, a: int, b: int, ple: int | None = None) -> None:
        self.clean = False
        if self.room(kind):
            self.listed[kind] += 1
            self.items.append(Violation(kind, a, b, ple))

    def sorted_items(self) -> tuple[Violation, ...]:
        return tuple(sorted(
            self.items,
            key=lambda v: (v.kind, v.a, v.b, -1 if v.ple is None else v.ple)))


def _member_indices(P: Poset, ple: Ple, i: int,
                    log: _ViolationLog) -> np.ndarray:
    """Element indices of member i, deduplicated, in placement order; each
    repeated element is logged once."""
    arr = P.indices_of(np.asarray(ple, dtype=np.int64))
    uniq, first_pos, counts = np.unique(arr, return_index=True,
                                        return_counts=True)
    for idx in uniq[counts > 1]:
        a = P.id_at(int(idx))
        log.add(DUPLICATE_IN_PLE, a, a, i)
    return arr[np.sort(first_pos)]


def _scan_member(P: Poset, arr: np.ndarray, i: int, log: _ViolationLog):
    """Scan member i's deduplicated placements ``arr`` in row blocks, each
    against the packed strict up-sets of its elements.  Logs the block's
    order violations, then yields the block and its ``_placed_so_far``
    rows, which carry over from the previous block."""
    carry = np.uint64(0)
    order = placed_buf = hits = None
    for start in range(0, arr.size, _ROW_BLOCK):
        block = arr[start:start + _ROW_BLOCK]
        up = P.up_rows(block)  # first, so an oversize poset is refused early
        if placed_buf is None:  # reused by every block of the member
            placed_buf = np.empty((min(arr.size, _ROW_BLOCK), up.shape[1]),
                                  dtype=np.uint64)
            hits = np.empty_like(placed_buf)
        placed = _placed_so_far(block, carry, placed_buf[:block.size])
        # b placed before block[q] although block[q] < b in P
        room = log.room(ORDER_VIOLATION_IN_PLE)
        found, q, b = _set_bits(
            np.bitwise_and(placed, up, out=hits[:block.size]), room)
        del up  # not held while the caller works on the block
        log.clean &= not found
        if q.size:
            if order is None:
                order = np.argsort(arr)
            p = order[np.searchsorted(arr, b, sorter=order)]
            for k in np.lexsort((p, q))[:room]:
                log.add(ORDER_VIOLATION_IN_PLE, P.id_at(int(block[q[k]])),
                        P.id_at(int(b[k])), i)
        yield block, placed
        carry = placed[-1].copy()  # the next block overwrites ``placed``


def _first_reversing_members(P: Poset, family: RealizerFamily,
                             pairs: list[tuple[int, int]]) -> list[int]:
    """For each index pair (a, b), a < b in P, the first member that places
    b before a, each element at its first occurrence as the scan reads it."""
    a, b = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    found = np.full(a.size, -1)
    for i, ple in enumerate(family.ples):
        open_ = found < 0
        if not open_.any():
            break
        arr = P.indices_of(np.asarray(ple, dtype=np.int64))
        if arr.size < 2:
            continue
        uniq, first = np.unique(arr, return_index=True)
        ia = np.searchsorted(uniq, a).clip(max=uniq.size - 1)
        ib = np.searchsorted(uniq, b).clip(max=uniq.size - 1)
        hit = (open_ & (uniq[ia] == a) & (uniq[ib] == b)
               & (first[ib] < first[ia]))
        found[hit] = i
    return found.tolist()


def validate_ple(P: Poset, ple: Sequence[int],
                 max_violations_per_kind: int = 100) -> VerificationReport:
    """Check one sequence for duplicates and order consistency with P."""
    ple = tuple(ple)
    log = _ViolationLog(max_violations_per_kind)
    if ple:
        arr = _member_indices(P, ple, 0, log)
        for _ in _scan_member(P, arr, 0, log):
            pass
    return VerificationReport(
        accepted=log.clean,
        frequency=1 if ple else 0,
        size=1,
        violations=log.sorted_items(),
    )


def verify_local_realizer(P: Poset, family,
                          max_violations_per_kind: int = 100
                          ) -> VerificationReport:
    """Check whether a family of PLEs is a local realizer of P.

    Accepts iff (i) every member is a valid PLE, (ii) every pair of distinct
    elements co-occurs in some member (for a one-element poset: the element
    appears at least once), (iii) every incomparable pair occurs in both
    orders across the family, and (iv) every strictly comparable pair is
    witnessed in order and never reversed.  Violations are reported per kind,
    canonically sorted, capped at ``max_violations_per_kind`` each.

    Pair bookkeeping is bit-packed: a set of elements is a row of
    W = ceil(N/64) uint64 words, element index j at bit j % 64 of word
    j // 64, so the N-row matrix below takes about N*W*8 bytes.  The order is
    read only as the strict up- and down-sets of a block of rows at a time,
    from ``P.up_rows(block)`` and ``P.down_rows(block)``, which the
    built-in kinds pack straight from their structure.  Each member is
    scanned once, in blocks of rows: OR-accumulating one-hot rows of its
    deduplicated placements gives, for each position q, the elements placed
    at or before q; AND-ed with the up-set of the element at q, that is q's
    order violations.  The same rows are OR-ed into ``earlier`` (placed
    at or before x in some member), the only N-row matrix, allocated once
    the packed-byte budget has admitted P.  ``later`` (placed after x in
    some member) is its bit transpose off the diagonal, built for one block
    of rows at a time from a column strip of ``earlier`` by 64 x 64 bit
    tile transposes.  The pair checks then run on blocks of rows as word
    operations (never witnessed ``up & ~later``, reversed
    ``up & earlier``, never co-occurring ``incomparable & ~(earlier |
    later)``, one-sided ``incomparable & (earlier ^ later)``), where a
    block's incomparable pairs a < b in index order come from its up and
    down rows; coordinates are decoded only from nonzero rows.

    The capped violations listed for each kind are the first ones in this
    order: duplicates by member, then element index; order violations by
    member, then the position of the later-placed element, then that of the
    earlier one; pair violations by element index (a, then b).  Only listed
    reversed pairs are traced back to the first member that reverses them.
    The listed violations are then sorted by (kind, a, b, ple).
    """
    family = RealizerFamily(family)
    N = P.ground_size
    log = _ViolationLog(max_violations_per_kind)

    P._packed_indices(None)  # the budget, before the N-row array
    W = (N + 63) // 64
    earlier = np.zeros((64 * W, W), dtype=np.uint64)  # whole 64-row tiles
    occurrences = np.zeros(N, dtype=np.int64)
    for i, ple in enumerate(family.ples):
        arr = _member_indices(P, ple, i, log)
        occurrences[arr] += 1
        for block, placed in _scan_member(P, arr, i, log):
            earlier[block] |= placed  # sets the diagonal too, which no mask reads

    if N == 1:
        lone = P.id_at(0)
        if occurrences[0] == 0:
            log.add(PAIR_NEVER_CO_OCCURS, lone, lone)
    else:
        def listed(start: int, mask: np.ndarray, room: int):
            """The first ``room`` (a, b) index pairs of a block's ``mask``."""
            found, rows, cols = _set_bits(mask, room)
            log.clean &= not found
            return zip((rows[:room] + start).tolist(), cols[:room].tolist())

        def collect(kind: str, start: int, mask: np.ndarray) -> None:
            for ai, bi in listed(start, mask, log.room(kind)):
                log.add(kind, P.id_at(ai), P.id_at(bi))

        reversed_ = []  # listed reversed pairs, whose members are found last

        index_order = Chain(N)  # its strict up-sets: the pairs a < b by index
        for start in range(0, N, _ROW_BLOCK):
            stop = min(start + _ROW_BLOCK, N)
            rows = np.arange(start, stop)
            # later[a] holds b iff some member places b after a: for a != b,
            # that is bit a of earlier[b]
            up_b, earlier_b, later_b = (P.up_rows(rows), earlier[start:stop],
                                        _transposed_rows(earlier, start, stop))
            incomparable = index_order.up_rows(rows) & ~(up_b | P.down_rows(rows))
            # comparable pairs, oriented a < b in P by construction of `up_b`
            collect(COMPARABLE_PAIR_NEVER_WITNESSED, start, up_b & ~later_b)
            reversed_ += listed(start, up_b & earlier_b,
                                log.cap - len(reversed_))
            collect(PAIR_NEVER_CO_OCCURS, start,
                    incomparable & ~(earlier_b | later_b))
            collect(INCOMPARABLE_PAIR_ONE_SIDED, start,
                    incomparable & (earlier_b ^ later_b))

        for (ai, bi), member in zip(
                reversed_, _first_reversing_members(P, family, reversed_)):
            log.add(COMPARABLE_PAIR_REVERSED, P.id_at(ai), P.id_at(bi), member)

    return VerificationReport(
        accepted=log.clean,
        frequency=int(occurrences.max(initial=0)),
        size=family.size,
        violations=log.sorted_items(),
    )


def lift_product(P: Poset, Q: Poset, family_p, family_q,
                 check_inputs: bool = True) -> RealizerFamily:
    """Combine local realizers of P and Q into one of ProductPoset(P, Q).

    Each member L of the P-family lifts to the order on
    {(x, y) : x in L, y in Q} sorted primarily by position in L and
    secondarily by the canonical linear extension of Q; members of the
    Q-family lift symmetrically.  The result has size |F_P| + |F_Q| and
    frequency at most F_P.frequency + F_Q.frequency.

    With ``check_inputs`` (the default) both input families are verified
    first and a failing one raises ContractError; pass False only for
    families already known to be local realizers of their factor.
    """
    family_p, family_q = RealizerFamily(family_p), RealizerFamily(family_q)
    if check_inputs:
        for poset, fam, side in ((P, family_p, "P"), (Q, family_q, "Q")):
            report = verify_local_realizer(poset, fam)
            if not report.accepted:
                raise ContractError(
                    f"input family for factor {side} ({poset.kind}) fails "
                    f"verification with {len(report.violations)} violation(s)")
    np_size = P.ground_size
    canon_p = [P.index_of(a) for a in canonical_linear_extension(P)]
    canon_q = [Q.index_of(a) for a in canonical_linear_extension(Q)]
    lifted: list[Ple] = []
    for ple in family_p.ples:
        cols = [P.index_of(a) for a in ple]
        lifted.append(tuple(px + np_size * qy for px in cols for qy in canon_q))
    for ple in family_q.ples:
        rows = [Q.index_of(a) for a in ple]
        lifted.append(tuple(px + np_size * qy for qy in rows for px in canon_p))
    return RealizerFamily(lifted)


def build_standard_realizer(n: int) -> RealizerFamily:
    """n full linear extensions of boolean(n): order i places every set
    containing i above every set missing i, canonical order inside each block.
    Forms a local realizer of frequency n."""
    if n < 1:
        raise ParameterError(f"build_standard_realizer needs n >= 1, got {n}")
    canon = canonical_linear_extension(BooleanLattice(n))
    members = []
    for i in range(n):
        bit = 1 << i
        members.append(tuple(a for a in canon if not a & bit)
                       + tuple(a for a in canon if a & bit))
    return RealizerFamily(members)


def build_bn_realizer(n: int) -> RealizerFamily:
    """A local realizer of boolean(n) with frequency at most ceil(5n/7).

    Decomposes n = 7a + 4b + c greedily (maximize a, then b in {0,1},
    c in {0..3}) and composes a copies of the embedded 7-table, b copies of
    the embedded 4-table, and a standard realizer of the remainder via
    repeated product lifting; the realized frequency is 5a + 3b + c.

    The result is not verified here: every factor is a fixed certificate or
    a standard realizer, and each lifting step preserves the local-realizer
    property, so callers verify the finished family once if they need to.
    """
    from .fixtures import b4_family, b7_family

    if n < 1:
        raise ParameterError(f"build_bn_realizer needs n >= 1, got {n}")
    a, rem = divmod(n, 7)
    b = 1 if rem >= 4 else 0
    c = rem - 4 * b

    factors: list[tuple[Poset, RealizerFamily]] = []
    factors += [(BooleanLattice(7), b7_family())] * a
    factors += [(BooleanLattice(4), b4_family())] * b
    if c:
        factors.append((BooleanLattice(c), build_standard_realizer(c)))

    # the product of boolean(p) and boolean(q) is boolean(p + q) with the
    # same ids: the lifted id px + 2**p * qy is the bitmask of the joined set
    poset, family = factors[0]
    for q_poset, q_family in factors[1:]:
        family = lift_product(poset, q_poset, family, q_family,
                              check_inputs=False)
        poset = BooleanLattice(poset.n + q_poset.n)
    return family

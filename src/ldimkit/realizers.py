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
from .posets import BooleanLattice, Chain, Poset, canonical_linear_extension

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


_ONE = np.uint64(1)

# Rows per block in the member scan and the pair checks, so that the only
# whole N x W arrays the verifier holds are ``up``, ``earlier`` and ``later``.
_ROW_BLOCK = 256


def _placed_so_far(arr: np.ndarray, carry, words: int) -> np.ndarray:
    """Row q: the packed set of elements arr[0..q], plus the set ``carry``,
    in rows of ``words`` words."""
    placed = np.zeros((arr.size, words), dtype=np.uint64)
    placed[np.arange(arr.size), arr >> 6] = _ONE << (arr & 63).astype(np.uint64)
    placed[0] |= carry
    return np.bitwise_or.accumulate(placed, axis=0, out=placed)


def _set_bits(mask: np.ndarray, cap: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Number of set bits in a packed matrix, plus the (row, column) of every
    set bit in its first nonzero rows, in row-major order: as many rows as
    it takes to hold ``cap`` bits."""
    per_row = np.bitwise_count(mask).sum(axis=1)
    count = int(per_row.sum())
    if not count or cap <= 0:
        return count, np.empty(0, np.intp), np.empty(0, np.intp)
    rows = np.flatnonzero(per_row)
    rows = rows[:np.searchsorted(np.cumsum(per_row[rows]), cap) + 1]
    bits = np.unpackbits(mask[rows].astype("<u8", copy=False).view(np.uint8),
                         axis=1, bitorder="little")
    r, cols = np.nonzero(bits)
    return count, rows[r], cols


class _ViolationLog:
    """Collects violations with a per-kind cap and total counts."""

    def __init__(self, cap: int):
        self.cap = cap
        self.items: list[Violation] = []
        self.totals: dict[str, int] = {k: 0 for k in VIOLATION_KINDS}

    def add(self, kind: str, a: int, b: int, ple: int | None = None) -> None:
        self.totals[kind] += 1
        if self.totals[kind] <= self.cap:
            self.items.append(Violation(kind, a, b, ple))

    @property
    def clean(self) -> bool:
        return not any(self.totals.values())

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


def _scan_member(P: Poset, up_rows, arr: np.ndarray, i: int,
                 log: _ViolationLog):
    """Scan member i's deduplicated placements ``arr`` in row blocks;
    ``up_rows(block)`` gives the packed strict up-sets of a block's elements.
    Logs the block's order violations, then yields the block and its
    ``_placed_so_far`` rows, which carry over from the previous block."""
    carry = np.uint64(0)
    order = None
    for start in range(0, arr.size, _ROW_BLOCK):
        block = arr[start:start + _ROW_BLOCK]
        up = up_rows(block)  # first, so an oversize poset is refused early
        placed = _placed_so_far(block, carry, up.shape[1])
        # b placed before block[q] although block[q] < b in P
        room = max(log.cap - log.totals[ORDER_VIOLATION_IN_PLE], 0)
        count, q, b = _set_bits(placed & up, room)
        del up  # not held while the caller works on the block
        if q.size:
            if order is None:
                order = np.argsort(arr)
            p = order[np.searchsorted(arr, b, sorter=order)]
            listed = np.lexsort((p, q))[:room]
            for k in listed:
                log.add(ORDER_VIOLATION_IN_PLE, P.id_at(int(block[q[k]])),
                        P.id_at(int(b[k])), i)
            count -= listed.size
        log.totals[ORDER_VIOLATION_IN_PLE] += count
        yield block, placed
        carry = placed[-1]


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
        for _ in _scan_member(P, P.up_rows, arr, 0, log):
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
    j // 64, so each N-row matrix below takes N*W*8 bytes.  ``up`` holds
    each element's strict up-set, from ``P.up_rows()``, which the built-in
    kinds pack straight from their structure.  Each member is scanned once,
    in blocks of rows: OR-accumulating one-hot rows of its deduplicated
    placements gives, for each position q, the elements placed at or before
    q; AND-ed with the up-set of the element at q, that is q's order
    violations.  The same rows are OR-ed into ``earlier`` (placed before x
    in some member) and their complement within the member into ``later``.
    These three are the only N-row matrices.  The pair checks then run on
    blocks of rows as word operations (never witnessed ``up & ~later``,
    reversed ``up & earlier``, never co-occurring ``incomparable & ~(earlier
    | later)``, one-sided ``incomparable & (earlier ^ later)``), where a
    block's incomparable pairs a < b in index order come from its rows of
    ``P.down_rows()`` and ``up``; coordinates are decoded only from nonzero
    rows.

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

    up = P.up_rows()
    earlier = np.zeros_like(up)
    later = np.zeros_like(up)
    occurrences = np.zeros(N, dtype=np.int64)
    for i, ple in enumerate(family.ples):
        arr = _member_indices(P, ple, i, log)
        occurrences[arr] += 1
        member = np.zeros(up.shape[1], dtype=np.uint64)
        np.bitwise_or.at(member, arr >> 6, _ONE << (arr & 63).astype(np.uint64))
        for block, placed in _scan_member(P, up.__getitem__, arr, i, log):
            earlier[block] |= placed  # sets the diagonal too, which no mask reads
            later[block] |= member & ~placed

    if N == 1:
        lone = P.id_at(0)
        if occurrences[0] == 0:
            log.add(PAIR_NEVER_CO_OCCURS, lone, lone)
    else:
        # per pair kind: the (a, b) indices listed so far, and the count
        listed = {kind: [] for kind in (
            COMPARABLE_PAIR_NEVER_WITNESSED, COMPARABLE_PAIR_REVERSED,
            PAIR_NEVER_CO_OCCURS, INCOMPARABLE_PAIR_ONE_SIDED)}
        counts = dict.fromkeys(listed, 0)

        def collect(kind: str, start: int, mask: np.ndarray) -> None:
            room = max(log.cap - len(listed[kind]), 0)
            count, rows, cols = _set_bits(mask, room)
            listed[kind] += zip((rows[:room] + start).tolist(), cols[:room].tolist())
            counts[kind] += count

        index_order = Chain(N)  # its strict up-sets: the pairs a < b by index
        for start in range(0, N, _ROW_BLOCK):
            stop = min(start + _ROW_BLOCK, N)
            up_b, earlier_b, later_b = (up[start:stop], earlier[start:stop],
                                        later[start:stop])
            rows = np.arange(start, stop)
            incomparable = index_order.up_rows(rows) & ~(up_b | P.down_rows(rows))
            # comparable pairs, oriented a < b in P by construction of `up`
            collect(COMPARABLE_PAIR_NEVER_WITNESSED, start, up_b & ~later_b)
            collect(COMPARABLE_PAIR_REVERSED, start, up_b & earlier_b)
            collect(PAIR_NEVER_CO_OCCURS, start,
                    incomparable & ~(earlier_b | later_b))
            collect(INCOMPARABLE_PAIR_ONE_SIDED, start,
                    incomparable & (earlier_b ^ later_b))

        reversing = _first_reversing_members(
            P, family, listed[COMPARABLE_PAIR_REVERSED])
        for kind, pairs in listed.items():
            members = (reversing if kind == COMPARABLE_PAIR_REVERSED
                       else [None] * len(pairs))
            for (ai, bi), member in zip(pairs, members):
                log.add(kind, P.id_at(ai), P.id_at(bi), member)
            log.totals[kind] += counts[kind] - len(pairs)

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

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

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

# posets before numpy: the compile order of ldimkit.cli's docstring
from .posets import (_ONE, _ROW_BLOCK, _TILE_BYTES, BooleanLattice, Poset,
                     _clear_diagonal, _index_prefix, canonical_linear_extension)

import numpy as np

from .errors import ParameterError

Ple = tuple[int, ...]

DUPLICATE_IN_PLE = "duplicate-in-ple"
ORDER_VIOLATION_IN_PLE = "order-violation-in-ple"
PAIR_NEVER_CO_OCCURS = "pair-never-co-occurs"
COMPARABLE_PAIR_REVERSED = "comparable-pair-reversed"
COMPARABLE_PAIR_NEVER_WITNESSED = "comparable-pair-never-witnessed"
INCOMPARABLE_PAIR_ONE_SIDED = "incomparable-pair-one-sided"


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
        import json

        return json.dumps(self.to_json_dict(), indent=indent)

    @property
    def violation_kinds(self) -> set[str]:
        return {v.kind for v in self.violations}


def _id_array(member) -> np.ndarray:
    """A member as a read-only array of element ids.  An int64 array is
    held as it is; anything else is copied into one.  A member with an id
    beyond int64, which no poset has, is kept as an object array of Python
    ints, so that the range check names that id."""
    if not (isinstance(member, np.ndarray) and member.dtype == np.int64):
        if not isinstance(member, (np.ndarray, Sequence)):
            member = tuple(member)
        try:
            member = np.array(member, dtype=np.int64)
        except OverflowError:
            member = np.array(member, dtype=object)
    member.setflags(write=False)
    return member


class RealizerFamily:
    """An immutable list of PLEs, held only as one read-only id array per
    member (``arrays``); an int64 array passed in is held as it is and
    made read-only.  The tuple view (``ples``, iteration, indexing) is
    built on first use.  Wrapping a family again returns that family."""

    def __new__(cls, ples: Iterable[Sequence[int]] = ()):
        return ples if isinstance(ples, cls) else super().__new__(cls)

    def __init__(self, ples: Iterable[Sequence[int]]):
        if ples is not self:
            self.arrays: tuple[np.ndarray, ...] = tuple(map(_id_array, ples))

    @cached_property
    def ples(self) -> tuple[Ple, ...]:
        return tuple(tuple(arr.tolist()) for arr in self.arrays)

    @cached_property
    def _member_counts(self) -> Counter:
        """element id -> number of members containing it; a member counts
        each of its elements once, as the verifier does."""
        return Counter(chain.from_iterable(
            set(arr.tolist()) for arr in self.arrays))

    @property
    def size(self) -> int:
        return len(self.arrays)

    @cached_property
    def frequency(self) -> int:
        return max(self._member_counts.values(), default=0)

    def occurrences(self, a: int) -> int:
        """Number of distinct members containing element a."""
        return self._member_counts[a]

    def __len__(self) -> int:
        return len(self.arrays)

    def __iter__(self):
        return iter(self.ples)

    def __getitem__(self, i):
        return self.ples[i]

    def __eq__(self, other) -> bool:
        return (isinstance(other, RealizerFamily)
                and len(self.arrays) == len(other.arrays)
                and all(map(np.array_equal, self.arrays, other.arrays)))

    def __hash__(self):
        return hash(self.ples)

    def __repr__(self) -> str:
        return f"<RealizerFamily size={self.size} frequency={self.frequency}>"


def _prefix_rows(arr: np.ndarray, pos: np.ndarray, buf: np.ndarray):
    """For each chunk of at most ``_ROW_BLOCK`` of the ascending positions
    ``pos`` in the placements ``arr``, yields their elements x and, in row
    q of ``buf``, the packed set of elements placed at or before x[q].  The
    placements between two of ``pos`` go to the later one's row, and the
    last row of a chunk carries over to the next.  A row of ``buf`` has a
    spare word: with a stride of whole 4 KiB pages, the column-wise
    accumulate would miss the cache on every word (3x slower at W = 512)."""
    stride = buf.shape[1]
    carry, prev = np.uint64(0), 0
    for c in range(0, pos.size, _ROW_BLOCK):
        p = pos[c:c + _ROW_BLOCK]
        row = np.repeat(np.arange(p.size), np.diff(p, prepend=prev - 1))
        placed, rows = arr[prev:p[-1] + 1], buf[:p.size, :stride - 1]
        rows[:] = 0
        # distinct elements set distinct bits, so adding them is OR-ing
        np.add.at(buf[:p.size].reshape(-1), row * stride + (placed >> 6),
                  _ONE << (placed & 63).astype(np.uint64))
        rows[0] |= carry
        yield arr[p], np.bitwise_or.accumulate(rows, axis=0, out=rows)
        # the next chunk overwrites buf
        carry, prev = rows[-1].copy(), p[-1] + 1


def _set_bits(mask: np.ndarray, cap: int) -> tuple[bool, np.ndarray, np.ndarray]:
    """Whether a packed matrix has a set bit, plus the (row, column) of every
    set bit in its first nonzero rows, in row-major order: as many rows as
    it takes to hold ``cap`` bits.  Only their nonzero words are unpacked."""
    found = bool(mask.any())
    if not found or cap <= 0:
        return found, np.empty(0, np.intp), np.empty(0, np.intp)
    last = np.searchsorted(np.cumsum(np.bitwise_count(mask).sum(axis=1)), cap)
    r, w = np.nonzero(mask[:last + 1])
    j = np.flatnonzero(np.unpackbits(
        mask[r, w].astype("<u8", copy=False).view(np.uint8), bitorder="little"))
    return True, r[j >> 6], 64 * w[j >> 6] + (j & 63)


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

    def report(self, frequency: int, size: int) -> VerificationReport:
        """Accepted while clean; the listed violations sorted."""
        return VerificationReport(self.clean, frequency, size, tuple(sorted(
            self.items,
            key=lambda v: (v.kind, v.a, v.b, -1 if v.ple is None else v.ple))))


def _member_indices(P: Poset, ple: Sequence[int], i: int,
                    log: _ViolationLog) -> np.ndarray:
    """Element indices of member i, deduplicated, in placement order; each
    repeated element is logged once."""
    arr = P.indices_of(ple)
    uniq, first_pos, counts = np.unique(arr, return_index=True,
                                        return_counts=True)
    for idx in uniq[counts > 1]:
        a = P.id_at(int(idx))
        log.add(DUPLICATE_IN_PLE, a, a, i)
    return arr[np.sort(first_pos)]


def _positions(arr: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The index in ``arr`` of each of ``values``; a value not in ``arr``
    gets an index that holds another value."""
    order = np.argsort(arr)
    return order[np.searchsorted(arr, values, sorter=order)
                 .clip(max=arr.size - 1)]


def _scan_members(P: Poset, members: list[np.ndarray], wanted: np.ndarray,
                  log: _ViolationLog) -> None:
    """Log the order violations of the deduplicated ``members``, in order:
    bit b of a member's row at a ``wanted`` element x, AND-ed with the up
    row of x, is set when b is placed before x although x < b in P.  The
    buffer holds the most wanted rows of any one member, at most
    ``_ROW_BLOCK``, and an oversize P is refused before it is allocated.
    Returns once the log is not clean and lists no more order violations."""
    most = min(max((np.count_nonzero(wanted[arr]) for arr in members),
                   default=0), _ROW_BLOCK)
    P._packed_indices(range(most))
    P.up_rows([])  # refuses the kinds that can build no row
    buf = np.empty((most, (P.ground_size + 63) // 64 + 1), dtype=np.uint64)
    for i, arr in enumerate(members):
        for x, rows in _prefix_rows(arr, np.flatnonzero(wanted[arr]), buf):
            hits = P.up_rows(x)
            hits &= rows
            room = log.room(ORDER_VIOLATION_IN_PLE)
            found, q, b = _set_bits(hits, room)
            log.clean &= not found
            if q.size:
                p = _positions(arr, b)
                for k in np.lexsort((p, q))[:room]:
                    log.add(ORDER_VIOLATION_IN_PLE, P.id_at(int(x[q[k]])),
                            P.id_at(int(b[k])), i)
            if not (log.clean or log.room(ORDER_VIOLATION_IN_PLE)):
                return


def validate_ple(P: Poset, ple: Sequence[int],
                 max_violations_per_kind: int = 100) -> VerificationReport:
    """Check one sequence for duplicates and, by the member scan at each of
    its elements, order consistency with P."""
    ple = tuple(ple)
    log = _ViolationLog(max_violations_per_kind)
    if ple:
        arr = _member_indices(P, ple, 0, log)
        _scan_members(P, [arr], np.broadcast_to(True, P.ground_size), log)
    return log.report(1 if ple else 0, 1)


def _dirty_blocks(P: Poset, members: list[np.ndarray], planes: int):
    """The blocks of at most ``_ROW_BLOCK`` rows that fail the row test, in
    row order, each as its rows, its rows of ``earlier`` (and, with two planes,
    of ``later``), and its up (and down) rows.  The planes are built a tile
    of rows at a time, the tiles sharing ``_TILE_BYTES``.  Row x passes when
    ``earlier[x]`` holds every element outside the strict up-set of x and
    none inside it, and ``later[x]`` likewise for the strict down-set, x
    aside."""
    N = P.ground_size
    W = (N + 63) // 64
    every = _index_prefix(np.array([N]), N)
    step = min(max(_TILE_BYTES // (8 * planes * W), 1), N)
    tiles = np.empty((planes, step, W), dtype=np.uint64)
    buf = np.empty((min(step, _ROW_BLOCK), W + 1), dtype=np.uint64)
    # each member's positions of tile t's elements, order[starts[t]:
    # starts[t + 1]], and for later its packed element set, of which its
    # rows are subsets
    groups = []
    for arr in members:
        # arr's dtype, whose stable sort is a radix sort; step may not fit it
        tile_of = (arr // np.intp(step)).astype(arr.dtype)
        order = np.argsort(tile_of, kind="stable")
        placed = None
        if planes == 2:
            placed = np.zeros(W, dtype=np.uint64)
            np.add.at(placed, arr >> 6, _ONE << (arr & 63).astype(np.uint64))
        groups.append((arr, placed, order.astype(arr.dtype), np.searchsorted(
            tile_of[order], np.arange(-(-N // step) + 1))))
    for t, first in enumerate(range(0, N, step)):
        last = min(first + step, N)
        tile = tiles[:, :last - first]
        tile.fill(0)
        for arr, placed, order, starts in groups:
            pos = order[starts[t]:starts[t + 1]].astype(np.intp)
            for x, rows in _prefix_rows(arr, pos, buf):
                # later[a] holds b iff some member places b after a; the
                # diagonal goes to earlier, which no mask reads there
                tile[0, x - first] |= rows
                if placed is not None:
                    tile[1, x - first] |= rows ^ placed
        for start in range(first, last, _ROW_BLOCK):
            stop = min(start + _ROW_BLOCK, last)
            rows = np.arange(start, stop)
            block = tile[:, start - first:stop - first]
            ends = [f(rows) for f in (P.up_rows, P.down_rows)[:planes]]
            if any(_clear_diagonal(plane ^ end ^ every, rows).any()
                   for plane, end in zip(block, ends)):
                yield rows, *block, *ends
            del ends  # before the next block's rows are built


def _accepts(P: Poset, members: list[np.ndarray]) -> bool:
    """The accept pass: whether every row of ``earlier`` passes the row
    test."""
    return not any(_dirty_blocks(P, members, 1))


def _list_violations(P: Poset, members: list[np.ndarray],
                     log: _ViolationLog) -> None:
    """The reject pass: the pair checks on each block that fails the row
    test, then the member scan at the rows of the reversed pairs."""
    N = P.ground_size
    if N == 1 and not any(arr.size for arr in members):  # no pair to check
        log.add(PAIR_NEVER_CO_OCCURS, P.id_at(0), P.id_at(0))

    def listed(start: int, mask: np.ndarray, room: int):
        """The first ``room`` (a, b) index pairs of a block's ``mask``."""
        found, rows, cols = _set_bits(mask, room)
        log.clean &= not found
        return zip((rows[:room] + start).tolist(), cols[:room].tolist())

    def collect(kind: str, start: int, mask: np.ndarray) -> None:
        for ai, bi in listed(start, mask, log.room(kind)):
            log.add(kind, P.id_at(ai), P.id_at(bi))

    reversed_ = []  # listed reversed pairs, whose members come last
    reversing = np.zeros(N, dtype=bool)  # rows a of the reversed pairs
    scratch = np.empty((0, 0), dtype=np.uint64)  # grows to the largest block
    tail = ~np.uint64(0) >> np.uint64(-N % 64)  # the last word's bits < N
    for rows, earlier_b, later_b, up_b, down_b in _dirty_blocks(P, members, 2):
        if len(scratch) < rows.size:
            scratch = np.empty_like(up_b)
        start, s = rows[0], scratch[:rows.size]
        # the pairs a < b by index that are incomparable, in place of down_b
        down_b |= up_b
        incomparable = np.invert(down_b, out=down_b)
        for w in range(start >> 6, (rows[-1] >> 6) + 1):
            incomparable[max(64 * w - start, 0):64 * w + 64 - start, :w] = 0
        incomparable[rows - start, rows >> 6] &= (
            ~_ONE << (rows & 63).astype(np.uint64))
        incomparable[:, -1] &= tail
        # comparable pairs, oriented a < b in P by construction of `up_b`
        np.invert(later_b, out=s)
        s &= up_b
        collect(COMPARABLE_PAIR_NEVER_WITNESSED, start, s)
        up_b &= earlier_b  # the reversed pairs, in place: up_b is done
        reversing[rows] = up_b.any(axis=1)
        reversed_ += listed(start, up_b, log.cap - len(reversed_))
        np.invert(np.bitwise_or(earlier_b, later_b, out=s), out=s)
        s &= incomparable
        collect(PAIR_NEVER_CO_OCCURS, start, s)
        np.bitwise_xor(earlier_b, later_b, out=s)
        s &= incomparable
        collect(INCOMPARABLE_PAIR_ONE_SIDED, start, s)
        del up_b, down_b, incomparable  # before the walk builds the next

    _scan_members(P, members, reversing, log)
    # each listed pair's first member: one that places b before a
    a, b = np.array(reversed_, dtype=np.intp).reshape(-1, 2).T
    first = np.full(a.size, -1)
    for i, arr in enumerate(members):
        if (first >= 0).all():
            break
        if arr.size:
            p = _positions(arr, np.stack((a, b)))
            first[(first < 0) & (arr[p[0]] == a) & (arr[p[1]] == b)
                  & (p[1] < p[0])] = i
    for ai, bi, member in zip(a.tolist(), b.tolist(), first.tolist()):
        log.add(COMPARABLE_PAIR_REVERSED, P.id_at(ai), P.id_at(bi), member)


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

    The members are read as the family's id arrays.  Sets of elements are
    bit-packed: a row of W = ceil(N/64) uint64 words, element index j at bit
    j % 64 of word j // 64.  The order is read only as packed strict up- and
    down-sets of a block of rows at a time, from ``P.up_rows(block)`` and
    ``P.down_rows(block)``.  Row x of ``earlier`` is the set of elements
    placed at or before x in some member, row x of ``later`` the set placed
    after x.

    One tile walk serves both passes, and neither holds an N-row array.  It
    builds ``earlier``, and for the reject pass also ``later``, a tile of
    rows at a time, and yields only the blocks of 256 rows that fail the
    row test: row x passes when ``earlier[x]`` holds every element outside
    the strict up-set of x and none inside it, and ``later[x]`` likewise for
    the strict down-set, x aside.  A passing row has no violation in any of
    the pair checks below, so skipping its block is sound.

    The accept pass deduplicates each member once and counts occurrences;
    a duplicate, or an element in no member, hands over to the reject
    pass.  It walks ``earlier`` alone, reading only up rows, and stops at
    the first failing block; none failing is acceptance.

    The reject pass, run on any other family, lists the violations in two
    steps.  The pair checks run on each failing block as word operations
    (never witnessed ``up & ~later``, reversed ``up & earlier``, never
    co-occurring ``incomparable & ~(earlier | later)``, one-sided
    ``incomparable & (earlier ^ later)``).  ``incomparable``, the pairs
    a < b by index in neither the up nor the down rows, is built in place of
    the down rows, the reversed pairs in place of the up rows, and the other
    masks in one scratch block per call; listing reads only nonzero words.
    Then one ordered member scan, the one ``validate_ple`` runs on every
    element, rebuilds each member's rows at the rows a that hold a reversed
    pair and ANDs them with their up rows: a set bit b is an order
    violation of that member.  It stops once the order violations are
    listed in full.  Last, the member listed for a reversed pair (a, b) is
    the first one that holds both and places b before a, read from each
    member's positions of the listed pairs.  The packed-byte budget of one
    block is checked first, so ``build`` and ``verify`` refuse alike.

    The capped violations listed for each kind are the first ones in this
    order: duplicates by member, then element index; order violations by
    member, then the position of the later-placed element, then that of the
    earlier one; pair violations by element index (a, then b).  The listed
    violations are then sorted by (kind, a, b, ple).
    """
    family = RealizerFamily(family)
    log = _ViolationLog(max_violations_per_kind)
    P._check_block_budget()  # build's too, before anything else
    # held through both passes, in the smallest dtype that holds an index
    index_type = np.min_scalar_type(P.ground_size - 1)
    members = [_member_indices(P, ids, i, log).astype(index_type)
               for i, ids in enumerate(family.arrays)]
    occurrences = np.zeros(P.ground_size, dtype=np.int64)
    for arr in members:
        occurrences[arr] += 1
    if not (log.clean and occurrences.all() and _accepts(P, members)):
        _list_violations(P, members, log)
    return log.report(int(occurrences.max(initial=0)), family.size)


def lift_product(P: Poset, Q: Poset, family_p, family_q) -> RealizerFamily:
    """Combine local realizers of P and Q into one of ProductPoset(P, Q).

    Each member L of the P-family lifts to the order on
    {(x, y) : x in L, y in Q} sorted primarily by position in L and
    secondarily by the canonical linear extension of Q; members of the
    Q-family lift symmetrically.  The result has size |F_P| + |F_Q| and
    frequency at most F_P.frequency + F_Q.frequency.

    The inputs are not verified here: the result is a local realizer when
    both inputs are, so callers verify what they pass in, or the lifted
    family, once.
    """
    family_p, family_q = RealizerFamily(family_p), RealizerFamily(family_q)
    np_size = P.ground_size
    canon_p = P.indices_of(canonical_linear_extension(P))
    canon_q = Q.indices_of(canonical_linear_extension(Q))
    # index px + np_size * qy, rows by position in the member, columns by
    # the other factor's canonical order
    return RealizerFamily(
        [(P.indices_of(ple)[:, None] + np_size * canon_q).ravel()
         for ple in family_p.arrays]
        + [(np_size * Q.indices_of(ple)[:, None] + canon_p).ravel()
           for ple in family_q.arrays])


def build_standard_realizer(n: int) -> RealizerFamily:
    """n full linear extensions of boolean(n): order i places every set
    containing i above every set missing i, canonical order inside each block.
    Forms a local realizer of frequency n."""
    if n < 1:
        raise ParameterError(f"build_standard_realizer needs n >= 1, got {n}")
    canon = np.array(canonical_linear_extension(BooleanLattice(n)))
    # a stable sort on bit i keeps the canonical order inside each block
    return RealizerFamily(canon[np.argsort(canon >> i & 1, kind="stable")]
                          for i in range(n))


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
        family = lift_product(poset, q_poset, family, q_family)
        poset = BooleanLattice(poset.n + q_poset.n)
    return family

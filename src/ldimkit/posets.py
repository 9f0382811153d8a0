"""Finite posets with canonical integer element encodings.

Each poset kind fixes a bijection between its ground set and a contiguous
range of integer ids:

* subset-like kinds use bitmasks: bit ``i-1`` of the id is set iff ``i`` is
  in the set, so id 13 = 0b1101 is the set {1, 3, 4};
* multiset kinds use mixed-radix codes: digit ``i-1`` in base ``m`` is the
  multiplicity of ``i``;
* chains and antichains use plain indices.

Ids are either 0-based (kinds containing the empty set / empty multiset) or
1-based (kinds that exclude it).
"""

from __future__ import annotations

import operator
from functools import cached_property, reduce
from typing import Sequence

import numpy as np

from .errors import ParameterError, RangeError

# Refuse to materialize comparability matrices above ~1G cells.  Only the SAT
# encoder and the tests read the dense matrix; the verifier does not.  Rows
# computed from the order predicate touch every cell of theirs, so they are
# refused above the same size, which also keeps their int32 indices in range.
_MATRIX_CELL_LIMIT = 1 << 30

# Packed order rows: a set of elements is a row of W = ceil(N/64) uint64
# words, element index j at bit j % 64 of word j // 64.  One array of rows
# may take at most 256 MB.  The verifier holds no N x W array, so ``build``
# and ``verify`` check the budget for one block of _ROW_BLOCK rows, and
# ``up_rows()`` with no index for all N rows.
_PACKED_BYTE_LIMIT = 1 << 28
_TILE_BYTES = 1 << 20
_ONE = np.uint64(1)

# Rows per block wherever order rows are built or read for many elements,
# so that no N-row array is held.
_ROW_BLOCK = 256
# Columns per step where a row is computed from a (rows x columns) test,
# a whole number of words, so that the test's temporaries stay small.
_COLUMN_CHUNK = 1024


def _ground(size: int, what: str) -> int:
    """``size``, refused with ParameterError from 2^63 on: ids are int64."""
    if size >= 1 << 63:
        raise ParameterError(
            f"{what} would have 2^63 or more elements; ids are int64")
    return size


def id_to_set(eid: int) -> frozenset[int]:
    """Decode a subset bitmask, e.g. 13 -> {1, 3, 4}."""
    if eid < 0:
        raise ParameterError(f"subset id must be non-negative, got {eid}")
    return frozenset(i + 1 for i in range(eid.bit_length()) if eid >> i & 1)


def set_to_id(elems) -> int:
    """Encode a set of positive integers as a bitmask, e.g. {1, 3, 4} -> 13."""
    mask = 0
    for x in elems:
        if x < 1:
            raise ParameterError(f"set elements must be >= 1, got {x}")
        mask |= 1 << (x - 1)
    return mask


def _pack(bits: np.ndarray) -> np.ndarray:
    """Rows of a 2-D bool array packed into uint64 words."""
    n = bits.shape[1]
    out = np.zeros((bits.shape[0], 8 * ((n + 63) // 64)), dtype=np.uint8)
    out[:, :(n + 7) // 8] = np.packbits(bits, axis=1, bitorder="little")
    return out.view("<u8")


def _clear_diagonal(rows: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Drop bit idx[r] from row r, in place."""
    rows[np.arange(idx.size), idx >> 6] &= ~(_ONE << (idx & 63).astype(np.uint64))
    return rows


def _index_prefix(idx: np.ndarray, n: int) -> np.ndarray:
    """Packed rows of {j : j < i} for each i in idx, over n columns."""
    k = np.clip(idx[:, None] - 64 * np.arange((n + 63) // 64), 0, 64)
    return np.where(k == 64, ~np.uint64(0),
                    (_ONE << (k & 63).astype(np.uint64)) - _ONE)


def _dominated(da, db):
    """Digitwise da <= db, on ints or broadcasting arrays."""
    return reduce(operator.and_, map(operator.le, da, db))


def _support(digits):
    """The number of positive digits, on ints or arrays."""
    return sum(d > 0 for d in digits)


class Poset:
    """Base class: a finite poset on a contiguous integer id range."""

    kind: str = "abstract"
    ground_size: int = 0
    id_offset: int = 0

    # ------------------------------------------------------------------ ids

    def element_ids(self) -> range:
        return range(self.id_offset, self.id_offset + self.ground_size)

    def check_id(self, a: int) -> None:
        if not self.id_offset <= a < self.id_offset + self.ground_size:
            raise RangeError(f"element id {a} out of range for {self.kind}")

    def index_of(self, a: int) -> int:
        self.check_id(a)
        return a - self.id_offset

    def id_at(self, idx: int) -> int:
        if not 0 <= idx < self.ground_size:
            raise RangeError(f"index {idx} out of range for {self.kind}")
        return idx + self.id_offset

    def indices_of(self, ids: Sequence[int]) -> np.ndarray:
        """Vectorized index_of with range validation."""
        try:
            arr = np.asarray(ids, dtype=np.int64)
        except OverflowError:  # an id beyond int64: name the first bad one
            for a in ids:
                self.check_id(a)
            raise
        if arr.size:
            lo = self.id_offset
            hi = lo + self.ground_size
            bad = (arr < lo) | (arr >= hi)
            if bad.any():
                raise RangeError(
                    f"element id {int(arr[bad][0])} out of range for {self.kind}")
        return arr - self.id_offset

    # ---------------------------------------------------------------- order

    def _leq_index(self, i, j):
        """Whether the element at index i is <= the one at index j, on ints
        or on broadcasting index arrays; each kind states its order here
        and nowhere else."""
        raise NotImplementedError

    def leq(self, a: int, b: int) -> bool:
        return bool(self._leq_index(self.index_of(a), self.index_of(b)))

    def _check_cells(self) -> None:
        n = self.ground_size
        if n * n > _MATRIX_CELL_LIMIT:
            raise ParameterError(
                f"{self.kind}: comparability matrix would need {n * n} cells")

    @cached_property
    def _leq_matrix(self) -> np.ndarray:
        self._check_cells()
        n = self.ground_size
        mat = np.unpackbits(self.up_rows().view(np.uint8), axis=1, count=n,
                            bitorder="little").view(bool)
        np.fill_diagonal(mat, True)
        mat.setflags(write=False)
        return mat

    def leq_matrix(self) -> np.ndarray:
        """Read-only boolean matrix M[i, j] = (id_at(i) <= id_at(j))."""
        return self._leq_matrix

    def up_rows(self, idx=None) -> np.ndarray:
        """Packed strict up-sets of the elements at indices ``idx`` (all of
        them by default): bit j of row r is set iff id_at(idx[r]) <
        id_at(j).  Refused with ParameterError above the packed-byte budget,
        before anything is allocated."""
        return self._rows(self._packed_indices(idx), up=True)

    def down_rows(self, idx=None) -> np.ndarray:
        """Packed strict down-sets, laid out as in ``up_rows``."""
        return self._rows(self._packed_indices(idx), up=False)

    def _check_block_budget(self) -> None:
        self._packed_indices(range(min(self.ground_size, _ROW_BLOCK)))

    def _packed_indices(self, idx) -> np.ndarray:
        rows = self.ground_size if idx is None else len(idx)
        need = rows * 8 * ((self.ground_size + 63) // 64)
        if need > _PACKED_BYTE_LIMIT:
            raise ParameterError(
                f"{self.kind}: packed order rows would need {need} bytes")
        if idx is None:
            return np.arange(self.ground_size)
        return np.asarray(idx, dtype=np.int64)

    def _rows(self, idx: np.ndarray, up: bool) -> np.ndarray:
        """The packed strict up-sets (``up``) or down-sets of the elements at
        indices ``idx``; kinds with structural rows state them here.  This
        one packs ``_leq_index`` ``_ROW_BLOCK`` rows at a time, on int32
        indices: int64 ones double the per-block temporaries and about
        double the time of the multiset predicates."""
        self._check_cells()
        cols = np.arange(self.ground_size, dtype=np.int32)
        rows = np.empty((idx.size, (self.ground_size + 63) // 64), np.uint64)
        for start in range(0, idx.size, _ROW_BLOCK):
            block = idx[start:start + _ROW_BLOCK, None].astype(np.int32)
            bits = (self._leq_index(block, cols) if up
                    else self._leq_index(cols, block))
            rows[start:start + _ROW_BLOCK] = _pack(bits)
        return _clear_diagonal(rows, idx)

    def __repr__(self) -> str:
        return f"<Poset {self.kind} ({self.ground_size} elements)>"


class BooleanLattice(Poset):
    """All subsets of [n] ordered by inclusion; ids are bitmasks."""

    def __init__(self, n: int):
        if n < 1:
            raise ParameterError(f"boolean lattice needs n >= 1, got {n}")
        self.n = n
        self.kind = f"boolean:{n}"
        self.ground_size = _ground(1 << min(n, 63),
                                   f"boolean lattice with n={n}")

    def _leq_index(self, i, j):
        return (i | j) == j

    def _rows(self, idx: np.ndarray, up: bool) -> np.ndarray:
        """Column y = 64 w + b lies above x iff x >> 6 is a subset of w and
        x & 63 of b, so word w of x's up row is a 64-entry table at x & 63
        when x >> 6 is a subset of w, and 0 otherwise; down rows swap the
        roles."""
        def subset(a, b):
            return (a & b) == a

        b = np.arange(64)
        # the smallest dtype that holds a word index keeps the R x W
        # temporaries a quarter of the result's size or less
        words = np.arange((self.ground_size + 63) // 64)
        words = words.astype(np.min_scalar_type(words[-1]))
        hi = (idx >> 6).astype(words.dtype)[:, None]
        if up:
            table, keep = subset(b[:, None], b), subset(hi, words)
        else:
            table, keep = subset(b, b[:, None]), subset(words, hi)
        rows = np.where(keep, _pack(table)[idx & 63], np.uint64(0))
        if self.ground_size < 64:
            rows &= (_ONE << np.uint64(self.ground_size)) - _ONE
        return _clear_diagonal(rows, idx)


class _Multisets(Poset):
    """Multisets over [n] with every multiplicity below m, encoded as
    mixed-radix ids; the two multiset kinds differ in id offset and order."""

    def __init__(self, name: str, n: int, m: int):
        if n < 1:
            raise ParameterError(f"{name} poset needs n >= 1, got {n}")
        if m < 2:
            raise ParameterError(f"{name} poset needs m >= 2, got {m}")
        self.n = n
        self.m = m
        self.kind = f"{name}:{n}:{m}"
        # m**64 - 1 >= 2**63 already, so a larger n is refused uncomputed
        self.ground_size = _ground(m ** min(n, 64) - self.id_offset,
                                   f"{name} poset with n={n}, m={m}")

    def _digits_at(self, i) -> list:
        """Digit t of the id at index i, for each t in [n]: the multiplicity
        of t + 1, on ints or arrays."""
        eid = i + self.id_offset
        return [eid // self.m**t % self.m for t in range(self.n)]


class MultisetLattice(_Multisets):
    """Multisets over [n] with all multiplicities < m, ordered pointwise."""

    def __init__(self, n: int, m: int):
        super().__init__("multiset", n, m)

    def _leq_index(self, i, j):
        return _dominated(self._digits_at(i), self._digits_at(j))


class MultisetSingletonPoset(_Multisets):
    """Nonzero bounded multisets over [n]; A < B only when A has exactly one
    positive multiplicity, B has at least two, and A is pointwise below B.

    Every strict relation runs from a singleton type c * m**t (multiplicity
    c of t + 1, nothing else) up to a multi-support element, so only the
    singleton-type rows of ``up_rows`` and the multi-support rows of
    ``down_rows`` are nonempty; both are built from the digits."""

    id_offset = 1

    def __init__(self, n: int, m: int):
        super().__init__("multiset-singleton", n, m)

    def _leq_index(self, i, j):
        da, db = self._digits_at(i), self._digits_at(j)
        return (i == j) | (_dominated(da, db) & (_support(da) == 1)
                           & (_support(db) >= 2))

    def singleton_type_ids(self) -> list[int]:
        """Ids with exactly one positive multiplicity, ascending."""
        return (self._types[0] + self.id_offset).tolist()

    def multi_support_ids(self) -> list[int]:
        """Ids with at least two positive multiplicities, ascending: every
        nonzero id that is not a singleton type."""
        rest = np.setdiff1d(np.arange(self.ground_size), self._types[0])
        return (rest + self.id_offset).tolist()

    @cached_property
    def _types(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each singleton type c * m**t, t-major: its index c * m**t - 1
        (ascending), m**t and c."""
        t, c = np.divmod(np.arange(self.n * (self.m - 1)), self.m - 1)
        power = self.m ** t
        return (c + 1) * power - 1, power, c + 1

    def _above(self, i, k):
        """Whether the element at index i lies above singleton type k, on
        broadcasting arrays: its digit t is at least c, and it is not a
        singleton type itself, so it has a second positive digit."""
        cols, power, c = self._types
        single = cols[np.searchsorted(cols, i).clip(max=cols.size - 1)] == i
        return ((i + 1) % (self.m * power[k]) >= c[k] * power[k]) & ~single

    def _rows(self, idx: np.ndarray, up: bool) -> np.ndarray:
        rows = np.zeros((idx.size, (self.ground_size + 63) // 64), np.uint64)
        cols = self._types[0]
        if up:
            # only singleton types have nonempty up-sets, built by a (types x
            # columns) test over _COLUMN_CHUNK columns at a time, run only
            # when idx holds one
            s = np.searchsorted(cols, idx).clip(max=cols.size - 1)
            hit = np.flatnonzero(cols[s] == idx)
            if hit.size:
                for c in range(0, self.ground_size, _COLUMN_CHUNK):
                    chunk = np.arange(c, min(c + _COLUMN_CHUNK,
                                             self.ground_size))
                    rows[hit, c >> 6:(c + _COLUMN_CHUNK) >> 6] = _pack(
                        self._above(chunk, s[hit, None]))
            return rows
        # held[r, k]: the element at idx[r] lies above type k (column cols[k])
        held = self._above(idx[:, None], np.arange(cols.size))
        words, first = np.unique(cols >> 6, return_index=True)
        rows[:, words] = np.bitwise_or.reduceat(
            held.astype(np.uint64) << (cols & 63).astype(np.uint64), first,
            axis=1)
        return rows


class SingletonPoset(MultisetSingletonPoset):
    """Nonempty subsets of [n]; the only strict relations are
    singleton < set of size >= 2 under inclusion.  This is
    multiset-singleton:n:2 with the same ids (bitmasks), under its own
    kind string."""

    def __init__(self, n: int):
        _Multisets.__init__(self, "singleton", n, 2)
        self.kind = f"singleton:{n}"


class Chain(Poset):
    """A total order on k elements."""

    def __init__(self, k: int):
        if k < 1:
            raise ParameterError(f"chain needs k >= 1, got {k}")
        self.kind = f"chain:{k}"
        self.ground_size = _ground(k, f"chain with k={k}")

    def _leq_index(self, i, j):
        return i <= j

    def _rows(self, idx: np.ndarray, up: bool) -> np.ndarray:
        n = self.ground_size
        if up:
            return _index_prefix(np.array([n]), n) & ~_index_prefix(idx + 1, n)
        return _index_prefix(idx, n)


class Antichain(Poset):
    """k pairwise incomparable elements."""

    def __init__(self, k: int):
        if k < 1:
            raise ParameterError(f"antichain needs k >= 1, got {k}")
        self.kind = f"antichain:{k}"
        self.ground_size = _ground(k, f"antichain with k={k}")

    def _leq_index(self, i, j):
        return i == j

    def _rows(self, idx: np.ndarray, up: bool) -> np.ndarray:
        return np.zeros((idx.size, (self.ground_size + 63) // 64), np.uint64)


class ProductPoset(Poset):
    """Componentwise order on pairs, re-encoded into a single id:
    combined id = index_in_P + |P| * index_in_Q (P occupies the low part,
    so products of bitmask/mixed-radix posets concatenate their codes)."""

    def __init__(self, p: Poset, q: Poset):
        self.p = p
        self.q = q
        self.kind = f"product({p.kind},{q.kind})"
        self.ground_size = _ground(p.ground_size * q.ground_size, self.kind)

    def _leq_index(self, i, j):
        size = self.p.ground_size
        return (self.p._leq_index(i % size, j % size)
                & self.q._leq_index(i // size, j // size))


def canonical_linear_extension(p: Poset) -> list[int]:
    """Deterministic total order extending p: ids by the size of their
    strict down-set, then by id.  a < b in p makes down(a) a proper subset
    of down(b), so this extends every order.  The sizes are counted from
    ``down_rows`` a block of rows at a time, so that no N-row array is held."""
    n = p.ground_size
    sizes = np.concatenate([
        np.bitwise_count(p.down_rows(range(s, min(s + _ROW_BLOCK, n)))).sum(1)
        for s in range(0, n, _ROW_BLOCK)])
    return (np.argsort(sizes, kind="stable") + p.id_offset).tolist()


def build_poset(spec: str) -> Poset:
    """Build a poset from a spec string.

    Grammar: ``boolean:<n>``, ``singleton:<n>``, ``multiset:<n>:<m>``,
    ``multiset-singleton:<n>:<m>``, ``chain:<k>``, ``antichain:<k>``.
    """
    parts = str(spec).strip().split(":")
    name, raw_args = parts[0], parts[1:]
    try:
        args = [int(s) for s in raw_args]
    except ValueError:
        raise ParameterError(f"non-integer parameter in poset spec {spec!r}") from None
    table = {
        "boolean": (BooleanLattice, 1),
        "singleton": (SingletonPoset, 1),
        "multiset": (MultisetLattice, 2),
        "multiset-singleton": (MultisetSingletonPoset, 2),
        "chain": (Chain, 1),
        "antichain": (Antichain, 1),
    }
    if name not in table:
        raise ParameterError(f"unknown poset kind {name!r} in spec {spec!r}")
    cls, arity = table[name]
    if len(args) != arity:
        raise ParameterError(
            f"poset kind {name!r} takes {arity} parameter(s), got {len(args)}")
    return cls(*args)

"""Independent order and family checks for the benchmark.

Nothing here imports ldimkit.  The order of each poset kind comes from bit
or digit arithmetic on element ids, and a family is judged from one position
array per member.  The program's ``leq_matrix`` and ``realizers`` are never
used, so a fault in them cannot hide a fault in what they produce.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Above this many elements the incomparable pairs are checked on a seeded
# sample; every comparable pair is always checked.
EXACT_PAIR_LIMIT = 1024
INCOMPARABLE_SAMPLE = 200_000


def _digits(ids: np.ndarray, n: int, m: int) -> np.ndarray:
    """Mixed-radix digits, digit t of an id is the multiplicity of t+1."""
    out = np.empty(ids.shape + (n,), dtype=np.int64)
    v = ids.astype(np.int64)
    for t in range(n):
        out[..., t] = v % m
        v = v // m
    return out


class RefPoset:
    """A poset kind given by its spec string, ordered by id arithmetic."""

    def __init__(self, spec: str):
        name, *args = spec.split(":")
        args = [int(a) for a in args]
        self.spec = spec
        self.kind = name
        if name == "boolean":
            (self.n,) = args
            self.lo, self.size = 0, 1 << self.n
        elif name == "singleton":
            (self.n,) = args
            self.lo, self.size = 1, (1 << self.n) - 1
        elif name in ("chain", "antichain"):
            (k,) = args
            self.lo, self.size = 0, k
        elif name in ("multiset", "multiset-singleton"):
            self.n, self.m = args
            self.lo = 1 if name == "multiset-singleton" else 0
            self.size = self.m ** self.n - self.lo
        else:
            raise ValueError(f"no reference order for {spec!r}")
        self._comparable = None

    @property
    def ids(self) -> np.ndarray:
        return np.arange(self.lo, self.lo + self.size, dtype=np.int64)

    def leq(self, a, b) -> np.ndarray:
        """Elementwise a <= b for id arrays (broadcasting)."""
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        if self.kind == "boolean":
            return (a | b) == b
        if self.kind == "singleton":
            below = ((a | b) == b) & (np.bitwise_count(a) == 1) \
                & (np.bitwise_count(b) >= 2)
            return (a == b) | below
        if self.kind == "chain":
            return a <= b
        if self.kind == "antichain":
            return a == b
        da, db = _digits(a, self.n, self.m), _digits(b, self.n, self.m)
        dominated = (da <= db).all(axis=-1)
        if self.kind == "multiset":
            return dominated
        support_a = (da > 0).sum(axis=-1)
        support_b = (db > 0).sum(axis=-1)
        return (a == b) | (dominated & (support_a == 1) & (support_b >= 2))

    def comparable_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """All strictly comparable pairs (a < b) as index arrays."""
        if self._comparable is None:
            ids = self.ids
            lows, highs = [], []
            for start in range(0, self.size, 256):
                rows = ids[start:start + 256, None]
                mask = self.leq(rows, ids[None, :])
                mask[np.arange(rows.shape[0]), start + np.arange(rows.shape[0])] = False
                r, c = np.nonzero(mask)
                lows.append(r + start)
                highs.append(c)
            self._comparable = (np.concatenate(lows), np.concatenate(highs))
        return self._comparable


@dataclass
class CheckResult:
    accepted: bool
    frequency: int
    size: int
    problems: dict[str, int] = field(default_factory=dict)


def positions(P: RefPoset, members) -> tuple[np.ndarray, list[int]]:
    """Member x element matrix of first-occurrence positions, -1 if absent,
    and the indices of members that repeat an element."""
    pos = np.full((len(members), P.size), -1, dtype=np.int64)
    repeats = []
    for i, member in enumerate(members):
        idx = np.asarray(member, dtype=np.int64) - P.lo
        if idx.size and (idx.min() < 0 or idx.max() >= P.size):
            raise ValueError(f"member {i} holds an id outside {P.spec}")
        unique, first = np.unique(idx, return_index=True)
        if unique.size != idx.size:
            repeats.append(i)
        pos[i, unique] = first
    return pos, repeats


def _orientations(pos: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Per pair: some member places a before b, some places b before a."""
    pa, pb = pos[:, a], pos[:, b]
    both = (pa >= 0) & (pb >= 0)
    return (both & (pa < pb)).any(axis=0), (both & (pb < pa)).any(axis=0)


def _incomparable_pairs(P: RefPoset, rng: np.random.Generator):
    if P.size <= EXACT_PAIR_LIMIT:
        a, b = np.triu_indices(P.size, 1)
    else:
        a = rng.integers(0, P.size, INCOMPARABLE_SAMPLE)
        b = rng.integers(0, P.size, INCOMPARABLE_SAMPLE)
    ids = P.ids
    keep = (a != b) & ~P.leq(ids[a], ids[b]) & ~P.leq(ids[b], ids[a])
    return a[keep], b[keep]


def check_family(P: RefPoset, members, seed: int = 0) -> CheckResult:
    """Decide acceptance, frequency and size of a family of id sequences.

    Every comparable pair and every member are checked exactly.  Incomparable
    pairs are checked exactly up to EXACT_PAIR_LIMIT elements and on a
    sample drawn from ``seed`` above it.
    """
    members = [tuple(m) for m in members]
    pos, repeats = positions(P, members)
    frequency = int((pos >= 0).sum(axis=0).max(initial=0))
    problems: dict[str, int] = {}
    if repeats:
        problems["duplicate"] = len(repeats)
    if P.size == 1:
        if not (pos >= 0).any():
            problems["uncovered"] = 1
    else:
        lo_idx, hi_idx = P.comparable_pairs()
        forward, backward = _orientations(pos, lo_idx, hi_idx)
        if backward.any():
            problems["reversed"] = int(backward.sum())
        if not forward.all():
            problems["unwitnessed"] = int((~forward).sum())
        a, b = _incomparable_pairs(P, np.random.default_rng(seed))
        forward, backward = _orientations(pos, a, b)
        together = forward | backward
        if not together.all():
            problems["never-together"] = int((~together).sum())
        if (together & ~(forward & backward)).any():
            problems["one-sided"] = int((together & ~(forward & backward)).sum())
    return CheckResult(not problems, frequency, len(members), problems)

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
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import ContractError, ParameterError
from .posets import BooleanLattice, Poset, canonical_linear_extension, product

Ple = tuple[int, ...]
PartialLinearExtension = Ple  # exported alias; a PLE is just an id sequence

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
        return {"kind": self.kind, "a": self.a, "b": self.b, "ple": self.ple}


@dataclass(frozen=True)
class VerificationReport:
    accepted: bool
    frequency: int
    size: int
    violations: tuple[Violation, ...]

    def to_json_dict(self) -> dict:
        return {
            "accepted": self.accepted,
            "frequency": self.frequency,
            "size": self.size,
            "violations": [v.to_json_dict() for v in self.violations],
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)

    @property
    def violation_kinds(self) -> set[str]:
        return {v.kind for v in self.violations}


class RealizerFamily:
    """An immutable list of PLEs with a cached per-element occurrence index."""

    def __init__(self, ples: Iterable[Sequence[int]]):
        self.ples: tuple[Ple, ...] = tuple(tuple(p) for p in ples)

    @cached_property
    def occurrence_index(self) -> dict[int, tuple[tuple[int, int], ...]]:
        """element id -> ((member index, position), ...) in member order."""
        index: dict[int, list[tuple[int, int]]] = {}
        for i, ple in enumerate(self.ples):
            for pos, a in enumerate(ple):
                index.setdefault(a, []).append((i, pos))
        return {a: tuple(v) for a, v in index.items()}

    @property
    def size(self) -> int:
        return len(self.ples)

    @cached_property
    def frequency(self) -> int:
        occ = self.occurrence_index
        return max((len({i for i, _ in v}) for v in occ.values()), default=0)

    def occurrences(self, a: int) -> int:
        """Number of distinct members containing element a."""
        return len({i for i, _ in self.occurrence_index.get(a, ())})

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


def as_family(obj) -> RealizerFamily:
    """Coerce a RealizerFamily or an iterable of id sequences into a family."""
    if isinstance(obj, RealizerFamily):
        return obj
    return RealizerFamily(obj)


def frequency(family) -> int:
    """Maximum over elements of the number of members containing it."""
    return as_family(family).frequency


def size(family) -> int:
    """Number of members in the family."""
    return as_family(family).size


def _argwhere_capped(mask: np.ndarray, cap: int) -> tuple[int, list[tuple[int, int]]]:
    """Total count of true cells plus at most ``cap`` of their coordinates,
    scanned in row-major order without materializing every coordinate."""
    count = int(mask.sum())
    coords: list[tuple[int, int]] = []
    if count:
        step = 2048
        for start in range(0, mask.shape[0], step):
            if len(coords) >= cap:
                break
            block = np.argwhere(mask[start:start + step])
            for i, j in block[:cap - len(coords)]:
                coords.append((int(i) + start, int(j)))
    return count, coords


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


def _check_member(P: Poset, leq: np.ndarray, ple: Ple, i: int,
                  log: _ViolationLog) -> np.ndarray:
    """Validate one member; returns its element indices (deduplicated,
    in placement order) for aggregate bookkeeping."""
    arr = P.indices_of(np.asarray(ple, dtype=np.int64))
    if arr.size == 0:
        return arr
    uniq, first_pos = np.unique(arr, return_index=True)
    if uniq.size != arr.size:
        counts = np.bincount(arr, minlength=P.ground_size)
        for idx in np.flatnonzero(counts > 1):
            a = P.id_at(int(idx))
            log.add(DUPLICATE_IN_PLE, a, a, i)
        arr = arr[np.sort(first_pos)]
    if arr.size >= 2:
        sub = leq[np.ix_(arr, arr)]
        # position p < q means arr[p] placed first; arr[q] <= arr[p] in P is
        # a reversal (strictness is automatic: diagonal is excluded and
        # duplicates were removed above)
        count, coords = _argwhere_capped(np.tril(sub, -1), log.cap)
        for q, p in coords:
            log.add(ORDER_VIOLATION_IN_PLE,
                    P.id_at(int(arr[q])), P.id_at(int(arr[p])), i)
        log.totals[ORDER_VIOLATION_IN_PLE] += count - len(coords)
    return arr


def _first_reversing_member(P: Poset, family: RealizerFamily,
                            a: int, b: int) -> int | None:
    """Index of the first member placing b before a (ids, a < b in P)."""
    pos_a = dict(family.occurrence_index.get(a, ()))
    for i, pos in family.occurrence_index.get(b, ()):
        if i in pos_a and pos < pos_a[i]:
            return i
    return None


def validate_ple(P: Poset, ple: Sequence[int],
                 max_violations_per_kind: int = 100) -> VerificationReport:
    """Check one sequence for duplicates and order consistency with P."""
    ple = tuple(ple)
    log = _ViolationLog(max_violations_per_kind)
    if ple:
        _check_member(P, P.leq_matrix(), ple, 0, log)
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
    """
    family = as_family(family)
    N = P.ground_size
    leq = P.leq_matrix()
    log = _ViolationLog(max_violations_per_kind)

    before = np.zeros((N, N), dtype=bool)
    occurrences = np.zeros(N, dtype=np.int64)
    for i, ple in enumerate(family.ples):
        arr = _check_member(P, leq, ple, i, log)
        if arr.size == 0:
            continue
        occurrences[arr] += 1
        if arr.size >= 2:
            placed = np.triu(np.ones((arr.size, arr.size), dtype=bool), 1)
            before[np.ix_(arr, arr)] |= placed

    if N == 1:
        lone = P.id_at(0)
        if occurrences[0] == 0:
            log.add(PAIR_NEVER_CO_OCCURS, lone, lone)
    else:
        eye = np.eye(N, dtype=bool)
        strict = leq & ~eye
        co_occurs = before | before.T

        def report_pairs(kind: str, mask: np.ndarray, with_member: bool = False):
            count, coords = _argwhere_capped(mask, max_violations_per_kind)
            for ai, bi in coords:
                a, b = P.id_at(ai), P.id_at(bi)
                member = _first_reversing_member(P, family, a, b) if with_member else None
                log.add(kind, a, b, member)
            log.totals[kind] += count - len(coords)

        # comparable pairs, oriented a < b in P by construction of `strict`
        report_pairs(COMPARABLE_PAIR_NEVER_WITNESSED, strict & ~before)
        report_pairs(COMPARABLE_PAIR_REVERSED, strict & before.T, with_member=True)

        # incomparable pairs, deduplicated to index-ascending orientation
        incomparable = np.triu(~(leq | leq.T), 1)
        report_pairs(PAIR_NEVER_CO_OCCURS, incomparable & ~co_occurs)
        report_pairs(INCOMPARABLE_PAIR_ONE_SIDED,
                     incomparable & co_occurs & ~(before & before.T))

    return VerificationReport(
        accepted=log.clean,
        frequency=int(occurrences.max(initial=0)),
        size=family.size,
        violations=log.sorted_items(),
    )


def lift_product(P: Poset, Q: Poset, family_p, family_q,
                 check_inputs: bool = True) -> RealizerFamily:
    """Combine local realizers of P and Q into one of product(P, Q).

    Each member L of the P-family lifts to the order on
    {(x, y) : x in L, y in Q} sorted primarily by position in L and
    secondarily by the canonical linear extension of Q; members of the
    Q-family lift symmetrically.  The result has size |F_P| + |F_Q| and
    frequency at most frequency(F_P) + frequency(F_Q).

    With ``check_inputs`` (the default) both input families are verified
    first and a failing one raises ContractError; pass False only for
    families already known to be local realizers of their factor.
    """
    family_p, family_q = as_family(family_p), as_family(family_q)
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

    poset, family = factors[0]
    for q_poset, q_family in factors[1:]:
        family = lift_product(poset, q_poset, family, q_family,
                              check_inputs=False)
        poset = product(poset, q_poset)
    return family

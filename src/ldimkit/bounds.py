"""Lower-bound machinery: the conflict-graph/Turán route for singleton
orders and the counting bound for multiset lattices, plus the signature
audit that certifies the interval argument on concrete realizers.

The formulas load no numpy; the functions that read a family import the
posets and the verifier when they run.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from itertools import combinations, groupby
from math import ceil, log2

from .errors import ContractError, ParameterError, RangeError

CERTIFY_SLACK = 1e-9


# ---------------------------------------------------------------- conflict


@dataclass(frozen=True)
class ConflictGraph:
    n: int
    edges: frozenset[tuple[int, int]]

    def is_independent(self, vertices) -> bool:
        vs = set(vertices)
        return not any(u in vs and v in vs for u, v in self.edges)


def conflict_graph(family, n: int) -> ConflictGraph:
    """Conflict graph on ground elements 1..n of a singleton order family.

    Each member containing at least two singletons contributes the edge
    joining the two greatest singletons it places (the last two in member
    order).
    """
    from .realizers import RealizerFamily

    if n < 1:
        raise ParameterError(f"need n >= 1, got {n}")
    family = RealizerFamily(family)
    top = (1 << n) - 1
    edges = set()
    for member in family:
        singles = []
        for eid in member:
            if not 1 <= eid <= top:
                raise RangeError(f"element id {eid} outside [1, {top}]")
            if eid.bit_count() == 1:
                singles.append(eid.bit_length())  # singleton {x} has id 2^(x-1)
        if len(singles) >= 2:
            u, v = singles[-2], singles[-1]
            if u != v:
                edges.add((min(u, v), max(u, v)))
    return ConflictGraph(n, frozenset(edges))


def independent_set(G: ConflictGraph) -> tuple[int, ...]:
    """An independent set, sorted: a maximum one for n <= 20, by exact
    branch-and-bound; beyond that a greedy min-degree pick, which is
    maximal (no vertex can be added) but need not be maximum."""
    adj = {v: set() for v in range(1, G.n + 1)}
    for u, v in G.edges:
        adj[u].add(v)
        adj[v].add(u)

    if G.n > 20:
        chosen: list[int] = []
        alive = set(adj)
        while alive:
            v = min(alive, key=lambda u: (len(adj[u] & alive), u))
            chosen.append(v)
            alive -= adj[v] | {v}
        return tuple(sorted(chosen))

    best: list[int] = []

    def grow(alive: frozenset[int], picked: list[int]) -> None:
        nonlocal best
        if len(picked) + len(alive) <= len(best):
            return
        if not alive:
            if len(picked) > len(best):
                best = list(picked)
            return
        v = max(alive, key=lambda u: (len(adj[u] & alive), -u))
        if adj[v] & alive:
            grow(alive - {v}, picked)  # exclude the branching vertex
        grow(alive - adj[v] - {v}, picked + [v])

    grow(frozenset(adj), [])
    return tuple(sorted(best))


def iter_independent_sets(G: ConflictGraph, max_size: int | None = None):
    """All independent vertex sets (as sorted tuples), smallest first."""
    limit = G.n if max_size is None else max_size
    for r in range(limit + 1):
        for combo in combinations(range(1, G.n + 1), r):
            if G.is_independent(combo):
                yield combo


def check_ind_freq_claim(n: int, family, independent) -> bool:
    """Check the occurrence claim: for an independent set I of size at most
    n - 2, the complement element [n] \\ I appears in at least |I| members."""
    from .posets import SingletonPoset
    from .realizers import RealizerFamily, verify_local_realizer

    fam = RealizerFamily(family)
    ind = sorted(set(independent))
    if any(not 1 <= v <= n for v in ind):
        raise ParameterError(f"independent set {ind} not within [1, {n}]")
    if len(ind) > n - 2:
        raise ParameterError(
            f"claim applies to sets of size <= n - 2 = {n - 2}, got {len(ind)}")
    P = SingletonPoset(n)
    report = verify_local_realizer(P, fam)
    if not report.accepted:
        raise ContractError("family is not a valid local realizer")
    G = conflict_graph(fam, n)
    if not G.is_independent(ind):
        raise ContractError(f"{ind} is not independent in the conflict graph")
    complement_id = ((1 << n) - 1) ^ sum(1 << (v - 1) for v in ind)
    return fam.occurrences(complement_id) >= len(ind)


# ------------------------------------------------------------------- turan


@dataclass(frozen=True, kw_only=True)
class BoundReport:
    """Fields in JSON key order; the JSON leaves out those that are None."""

    n: int
    m: int | None = None
    c: float | None = None
    size: int | None = None
    bound: float
    ceiling: int
    certifying: bool
    ell: float | None = None
    ell_ceiling: int | None = None

    def to_json_dict(self) -> dict:
        return {k: v for k, v in vars(self).items() if v is not None}

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)


def turan_independence_floor(n: int, realizer_size: int) -> BoundReport:
    """Independence guarantees from a size bound on singleton realizers.

    With c = size / n, Turán applied to the conflict graph guarantees an
    independent set of size at least n / (2(c + 1)); the sharper count over
    edge multiplicities gives ell = n^2 / ((2c + 1) n + 2) + 1.
    """
    if n < 2:
        raise ParameterError(f"need n >= 2, got {n}")
    if realizer_size < 0:
        raise ParameterError(f"need size >= 0, got {realizer_size}")
    c = realizer_size / n
    floor = n / (2 * (c + 1))
    ell = n * n / ((2 * c + 1) * n + 2) + 1
    return BoundReport(
        n=n, bound=floor, ceiling=ceil(floor), certifying=False,
        c=c, size=realizer_size, ell=ell, ell_ceiling=ceil(ell))


# ---------------------------------------------------------------- multiset


def multiset_lower_bound(n: int, m: int) -> BoundReport:
    """Counting lower bound for the local dimension of the multiset lattice:
    (n log2 m - log2 n) / log2(3 n^2 m).  Certifying when it exceeds n - 1,
    i.e. beats the trivial ceiling witnessed by products of chains."""
    if n < 1 or m < 2:
        raise ParameterError(f"need n >= 1 and m >= 2, got n={n}, m={m}")
    bound = (n * log2(m) - log2(n)) / log2(3 * n * n * m)
    certifying = n >= 2 and bound > (n - 1) + CERTIFY_SLACK
    return BoundReport(n=n, m=m, bound=bound, ceiling=ceil(bound),
                       certifying=certifying)


def min_m_certifying(n: int) -> int:
    """Smallest m for which multiset_lower_bound(n, m) is certifying.

    m has about n log2(3 n^2) bits, so the search is refused with
    ParameterError once its upper end passes the decimal digits that
    ``sys.get_int_max_str_digits()`` lets an int print with (n >= 699 at
    the default 4300)."""
    if n < 2:
        raise ParameterError(f"need n >= 2, got {n}")
    digits = sys.get_int_max_str_digits()  # 0: no limit
    too_long = 10 ** digits if digits else None
    lo, hi = 2, 4  # m = 2 never certifies: its bound < n / log2(6n^2) < n - 1
    while not multiset_lower_bound(n, hi).certifying:
        lo, hi = hi, hi * 2
        if too_long is not None and hi >= too_long:
            raise ParameterError(
                f"min-m for n={n}: the search passed m of more than {digits} "
                "decimal digits, the int printing limit "
                "(sys.get_int_max_str_digits())")
    while hi - lo > 1:  # invariant: lo not certifying, hi certifying
        mid = (lo + hi) // 2
        if multiset_lower_bound(n, mid).certifying:
            hi = mid
        else:
            lo = mid
    return hi


# --------------------------------------------------------------- signature


@dataclass(frozen=True)
class SignatureAuditReport:
    n: int
    m: int
    ok: bool
    interval_count: int
    interval_bound: int
    singleton_count: int
    mplus_count: int
    distinct_signatures: int
    frequency: int

    def to_json_dict(self) -> dict:
        return vars(self).copy()

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)


def signature_audit_report(n: int, m: int, family) -> SignatureAuditReport:
    """Audit the interval-signature argument on a verified realizer of the
    multiset singleton order.

    Concatenating the members that touch singleton types, with a separator
    after each member, splits the non-singleton elements into maximal runs
    ("intervals").  Each multi-support element must land in a nonempty,
    pairwise-distinct set of intervals, and the interval count must respect
    k <= 2 * frequency * #singleton-types.
    """
    from .posets import MultisetSingletonPoset
    from .realizers import RealizerFamily, verify_local_realizer

    if n > 8 or m ** n > 256:  # 2^9 > 256: m^n is not computed for large n
        raise ParameterError(
            f"signature audit is limited to m^n <= 256, got {m}^{n}")
    P = MultisetSingletonPoset(n, m)
    fam = RealizerFamily(family)
    report = verify_local_realizer(P, fam)
    if not report.accepted:
        raise ContractError("family is not a valid local realizer")

    singleton_ids = set(P.singleton_type_ids())
    mplus_ids = list(P.multi_support_ids())

    # the runs of non-singleton elements between singleton types, in each
    # member that holds one
    intervals = [set(run) for member in fam
                 if any(eid in singleton_ids for eid in member)
                 for single, run in groupby(member, singleton_ids.__contains__)
                 if not single]

    signatures = {eid: tuple(eid in iv for iv in intervals)
                  for eid in mplus_ids}

    nonzero = all(any(sig) for sig in signatures.values())
    distinct = len(set(signatures.values()))
    interval_bound = 2 * report.frequency * len(singleton_ids)
    ok = (nonzero and distinct == len(mplus_ids)
          and len(intervals) <= interval_bound)
    return SignatureAuditReport(
        n=n, m=m, ok=ok,
        interval_count=len(intervals), interval_bound=interval_bound,
        singleton_count=len(singleton_ids), mplus_count=len(mplus_ids),
        distinct_signatures=distinct, frequency=report.frequency)

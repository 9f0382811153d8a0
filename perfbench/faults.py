"""Seeded faulty families for the verify-reject workload, and the check of
the verifier's report against what was planted.

A planted family starts from a valid local realizer and gets three faults:
one member dropped, one comparable pair swapped inside a member, and one
element repeated inside another member.  Each fault is recorded with its
kind, elements and member, so the report can be checked for it.  A shuffled
family has every member permuted, which breaks the order-dependent
conditions many times over, so those kinds reach their caps.
"""

from __future__ import annotations

import numpy as np

from checker import RefPoset, positions

CAP = 100
SWAP_TRIES = 64   # comparable pairs sampled for the swap
SWAP_NEAR = 16    # a swap this close adds few other violations
LOST_PAIR_SAMPLES = 4096
DUPLICATE = "duplicate-in-ple"
ORDER = "order-violation-in-ple"
NEVER_TOGETHER = "pair-never-co-occurs"
REVERSED = "comparable-pair-reversed"
UNWITNESSED = "comparable-pair-never-witnessed"
ONE_SIDED = "incomparable-pair-one-sided"


def _order_violations(P: RefPoset, pos: np.ndarray) -> int:
    lo, hi = P.comparable_pairs()
    pa, pb = pos[:, lo], pos[:, hi]
    return int(((pa >= 0) & (pb >= 0) & (pb < pa)).sum())


def _swap(P: RefPoset, members: list[list[int]], rng):
    """Swap an element of the first member that holds a comparable pair
    with the nearest later element above it.  Pairs are sampled until the
    two are at most SWAP_NEAR places apart (else the closest is taken)."""
    pos, _ = positions(P, members)
    lo, hi = P.comparable_pairs()
    held = (pos[:, lo] >= 0) & (pos[:, hi] >= 0)
    s = int(np.flatnonzero(held.any(axis=1))[0])
    candidates = np.flatnonzero(held[s])
    m = np.asarray(members[s], dtype=np.int64)
    best = None
    for k in candidates[rng.integers(0, candidates.size, SWAP_TRIES)]:
        p = int(pos[s, lo[k]])
        later = np.flatnonzero(P.leq(m[p], m[p + 1:]) & (m[p + 1:] != m[p]))
        q = p + 1 + int(later[0])
        if best is None or q - p < best[1] - best[0]:
            best = (p, q)
        if q - p <= SWAP_NEAR:
            break
    p, q = best
    a, b = members[s][p], members[s][q]
    members[s][p], members[s][q] = b, a
    return s, p, q, a, b


def plant_faults(P: RefPoset, family, rng: np.random.Generator):
    """Return (faulty members, faults).  Each fault is a dict with the
    violation ``kind``, elements ``a``, ``b`` and member ``ple`` that the
    verifier must report, and a ``fault`` name.

    The members touched are fixed: the last is dropped, the first that
    holds a comparable pair gets the swap, and the first other one the
    repeat.  The seed picks the pair and the element, so every seed gives
    a family of the same shape, and the same work and memory to verify."""
    for _ in range(8):
        rest = [list(m) for m in family]
        dropped = rest.pop()
        s, p, q, a, b = _swap(P, rest, rng)
        if _order_violations(P, positions(P, rest)[0]) >= CAP:
            continue
        near_swap = set(rest[s][p:q + 1])
        j = 1 if s == 0 else 0
        choices = [k for k, e in enumerate(rest[j]) if e not in near_swap]
        at = choices[int(rng.integers(len(choices)))]
        e = rest[j][at]
        rest[j].insert(int(rng.integers(at + 1, len(rest[j]) + 1)), e)

        witness = _lost_pair(P, dropped, positions(P, rest)[0], rng)
        if witness is None:
            continue
        faults = [
            {"fault": "member-dropped", "member": len(rest), **witness},
            {"fault": "pair-swapped", "kind": ORDER, "a": a, "b": b, "ple": s},
            {"fault": "pair-swapped", "kind": REVERSED, "a": a, "b": b, "ple": s},
            {"fault": "element-repeated", "kind": DUPLICATE, "a": e, "b": e,
             "ple": j},
        ]
        return rest, faults
    raise ValueError(f"could not plant faults in {P.spec}")


def _lost_pair(P: RefPoset, dropped, pos: np.ndarray, rng):
    """A pair ordered x before y in the dropped member and in no remaining
    member, with the violation it must now raise; None if none is found."""
    m = np.asarray(dropped, dtype=np.int64)
    if m.size < 2:
        return None
    p = rng.integers(0, m.size, LOST_PAIR_SAMPLES)
    q = rng.integers(0, m.size, LOST_PAIR_SAMPLES)
    p, q = np.minimum(p, q), np.maximum(p, q)
    keep = p < q
    x, y = m[p[keep]] - P.lo, m[q[keep]] - P.lo
    px, py = pos[:, x], pos[:, y]
    both = (px >= 0) & (py >= 0)
    lost = np.flatnonzero(~(both & (px < py)).any(axis=0))
    if not lost.size:
        return None
    k = int(lost[0])
    x_id, y_id = int(x[k]) + P.lo, int(y[k]) + P.lo
    if P.leq(x_id, y_id):
        return {"kind": UNWITNESSED, "a": x_id, "b": y_id, "ple": None}
    kind = ONE_SIDED if both[:, k].any() else NEVER_TOGETHER
    return {"kind": kind, "a": min(x_id, y_id), "b": max(x_id, y_id),
            "ple": None}


def shuffle_members(family, rng: np.random.Generator) -> list[list[int]]:
    return [[int(v) for v in rng.permutation(np.asarray(m))] for m in family]


def _genuine(P: RefPoset, members, pos: np.ndarray, v: dict) -> bool:
    """Whether one reported violation really holds in the family."""
    kind, a, b, ple = v["kind"], v["a"], v["b"], v["ple"]
    ai, bi = a - P.lo, b - P.lo
    pa, pb = pos[:, ai], pos[:, bi]
    both = (pa >= 0) & (pb >= 0)
    if kind == DUPLICATE:
        return a == b and list(members[ple]).count(a) >= 2
    strict = a != b and bool(P.leq(a, b))
    incomparable = a < b and not P.leq(a, b) and not P.leq(b, a)
    if kind == ORDER:
        return strict and bool(both[ple] and pb[ple] < pa[ple])
    if kind == REVERSED:
        reversing = np.flatnonzero(both & (pb < pa))
        return strict and reversing.size > 0 and int(reversing[0]) == ple
    if kind == UNWITNESSED:
        return strict and ple is None and not (both & (pa < pb)).any()
    if kind == NEVER_TOGETHER:
        return incomparable and ple is None and not both.any()
    if kind == ONE_SIDED:
        forward, backward = (both & (pa < pb)).any(), (both & (pb < pa)).any()
        return incomparable and ple is None and forward != backward
    return False


def check_report(P: RefPoset, members, report: dict, faults=(),
                 full_kinds=()) -> list[str]:
    """Problems with a verifier report on a faulty family: empty if the
    report is right.  ``faults`` must each be listed unless their kind is
    at its cap; each kind in ``full_kinds`` must reach the cap."""
    errors = []
    violations = report["violations"]
    if report["accepted"]:
        errors.append("faulty family accepted")
    key = [(v["kind"], v["a"], v["b"], -1 if v["ple"] is None else v["ple"])
           for v in violations]
    if key != sorted(key):
        errors.append("violations not in canonical order")
    per_kind: dict[str, int] = {}
    for v in violations:
        per_kind[v["kind"]] = per_kind.get(v["kind"], 0) + 1
    errors += [f"{k}: {n} listed, cap is {CAP}"
               for k, n in per_kind.items() if n > CAP]
    errors += [f"{k}: {per_kind.get(k, 0)} listed, expected the cap"
               for k in full_kinds if per_kind.get(k, 0) != CAP]
    pos, _ = positions(P, members)
    bad = [v for v in violations if not _genuine(P, members, pos, v)]
    errors += [f"reported violation does not hold: {v}" for v in bad[:3]]
    listed = {(v["kind"], v["a"], v["b"], v["ple"]) for v in violations}
    for f in faults:
        if (f["kind"], f["a"], f["b"], f["ple"]) not in listed \
                and per_kind.get(f["kind"], 0) < CAP:
            errors.append(f"planted fault missing from report: {f}")
    return errors

"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive and quadratic: position dictionaries,
pairwise loops, exhaustive subset scans.  None of it shares code with the
vectorized implementations under test; the SAT encoder and decoder here go
through VarMap's checked scalar lookups, one variable at a time.
"""

from __future__ import annotations

from itertools import combinations, permutations

from ldimkit import DecodeError, RealizerFamily, VarMap


def check_family(P, family) -> tuple[bool, int, int]:
    """(accepted, frequency, size) by brute force over all element pairs."""
    members = [list(m) for m in family]
    positions = []
    for member in members:
        if len(set(member)) != len(member):
            return False, _freq(members), len(members)
        positions.append({a: i for i, a in enumerate(member)})

    ids = list(P.element_ids())
    id_set = set(ids)
    for member in members:
        for a in member:
            if a not in id_set:
                raise ValueError(f"id {a} outside ground set")

    if len(ids) == 1:
        lone = ids[0]
        covered = any(lone in pos for pos in positions)
        return covered, _freq(members), len(members)

    ok = True
    for a, b in combinations(ids, 2):
        a_le_b, b_le_a = P.leq(a, b), P.leq(b, a)
        found_ab = found_ba = False
        for pos in positions:
            if a in pos and b in pos:
                if pos[a] < pos[b]:
                    found_ab = True
                else:
                    found_ba = True
        if a_le_b and b_le_a:
            continue  # reflexive pairs never reach here (a != b)
        if a_le_b:
            if not found_ab or found_ba:
                ok = False
        elif b_le_a:
            if not found_ba or found_ab:
                ok = False
        else:
            if not (found_ab and found_ba):
                ok = False
    return ok, _freq(members), len(members)


def _freq(members) -> int:
    counts: dict[int, int] = {}
    for member in members:
        for a in set(member):
            counts[a] = counts.get(a, 0) + 1
    return max(counts.values(), default=0)


def brute_max_independent(n: int, edges) -> int:
    """Maximum independent set size by exhaustive subset scan (n <= ~16)."""
    edge_set = {frozenset(e) for e in edges}
    best = 0
    for r in range(n, 0, -1):
        if r <= best:
            break
        for combo in combinations(range(1, n + 1), r):
            if not any(frozenset(e) <= set(combo) for e in edge_set):
                best = r
                break
    return best


def brute_leq_boolean(a: int, b: int) -> bool:
    return (a | b) == b


def multiplicities(eid: int, n: int, m: int) -> tuple[int, ...]:
    """The multiplicity of each of 1..n in multiset id eid: its base-m
    digits, least significant first."""
    return tuple(eid // m**t % m for t in range(n))


def brute_leq_multiset(x: tuple, y: tuple) -> bool:
    """Multiset inclusion on multiplicity vectors: every multiplicity of x
    at most that of y."""
    return all(a <= b for a, b in zip(x, y))


def brute_leq_multiset_singleton(x: tuple, y: tuple) -> bool:
    """x <= y in the multiset-singleton poset: equal, or x has one positive
    multiplicity, y at least two, and x is included in y."""
    def support(e):
        return len([d for d in e if d > 0])
    return x == y or (support(x) == 1 and support(y) >= 2
                      and brute_leq_multiset(x, y))


def violations(P, family) -> dict[str, list[tuple]]:
    """Every violation of each kind as (a, b, ple), by brute force over
    positions, in the order whose first entries a capped report lists:
    duplicates by member, then id; order violations by member, then the
    position of the later-placed element, then the earlier one; pair
    violations by (a, b).  Repeated elements count at their first position."""
    found: dict[str, list[tuple]] = {k: [] for k in (
        "duplicate-in-ple", "order-violation-in-ple", "pair-never-co-occurs",
        "comparable-pair-reversed", "comparable-pair-never-witnessed",
        "incomparable-pair-one-sided")}
    members = [list(m) for m in family]
    firsts = []
    for i, member in enumerate(members):
        for a in sorted(set(member)):
            if member.count(a) > 1:
                found["duplicate-in-ple"].append((a, a, i))
        seen: list[int] = []
        for a in member:
            if a not in seen:
                seen.append(a)
        for q, a in enumerate(seen):
            for b in seen[:q]:
                if P.leq(a, b):
                    found["order-violation-in-ple"].append((a, b, i))
        firsts.append({a: pos for pos, a in enumerate(seen)})

    ids = list(P.element_ids())
    if len(ids) == 1:
        if not any(ids[0] in pos for pos in firsts):
            found["pair-never-co-occurs"].append((ids[0], ids[0], None))
        return found
    for a in ids:
        for b in ids:
            if a == b:
                continue
            ab = any(a in pos and b in pos and pos[a] < pos[b] for pos in firsts)
            ba = any(a in pos and b in pos and pos[b] < pos[a] for pos in firsts)
            if P.leq(a, b):
                if not ab:
                    found["comparable-pair-never-witnessed"].append((a, b, None))
                if ba:  # the first member with b first placed before a
                    first = next(i for i, pos in enumerate(firsts)
                                 if a in pos and b in pos and pos[b] < pos[a])
                    found["comparable-pair-reversed"].append((a, b, first))
            elif a < b and not P.leq(b, a):
                if not (ab or ba):
                    found["pair-never-co-occurs"].append((a, b, None))
                elif not (ab and ba):
                    found["incomparable-pair-one-sided"].append((a, b, None))
    return found


def clauses(P, vm, d, symmetry_break=False, trim=True):
    """The clauses of encode(P, vm.k, d, symmetry_break) in encode's order.
    ``vm`` may be VarMap(P, k) or a VarMap with auxiliary roles: x, y and z
    ids are the same in all, and the auxiliary ids come from
    VarMap(P, k, d, symmetry_break).  With ``trim=False``, also the clauses
    that encode leaves out because the reverse units settle them."""
    vm = VarMap(P, vm.k, d, symmetry_break)
    ids = list(P.element_ids())
    k = vm.k
    orders = range(1, k + 1)

    def below(a, b):
        return a != b and P.leq(a, b)

    # each used triple is ordered transitively (covers both chain directions,
    # since the reversed triple contributes the mirrored clause), unless P
    # orders b below a, c below b or a below c
    for i in orders:
        for a, b, c in permutations(ids, 3):
            if trim and (below(b, a) or below(c, b) or below(a, c)):
                continue
            yield [
                -vm.z(a, i), -vm.z(b, i), -vm.z(c, i),
                -vm.before(a, b, i), -vm.before(b, c, i), vm.before(a, c, i),
            ]

    # pairs of (index, id); ids[j] sits at index j of the leq matrix
    leq = P.leq_matrix().tolist()
    pairs = list(combinations(enumerate(ids), 2))

    # comparable pairs: witnessed at least once, never reversed
    for (ai, a), (bi, b) in pairs:
        if leq[ai][bi]:
            lo, hi = a, b
        elif leq[bi][ai]:
            lo, hi = b, a
        else:
            continue
        yield [vm.before(lo, hi, i) for i in orders]
        for i in orders:
            yield [-vm.before(hi, lo, i)]

    # incomparable pairs: both orders occur
    for (ai, a), (bi, b) in pairs:
        if not leq[ai][bi] and not leq[bi][ai]:
            yield [vm.before(a, b, i) for i in orders]
            yield [vm.before(b, a, i) for i in orders]

    # coupling between pair variables and usage variables; a comparable
    # pair keeps the clauses of its witness variable w and the four-clause,
    # which its reverse unit on r leaves open
    for a, b in combinations(ids, 2):
        for i in orders:
            x, y = vm.before(a, b, i), vm.before(b, a, i)
            za, zb = vm.z(a, i), vm.z(b, i)
            four = [-za, -zb, x, y]
            if P.leq(a, b) or P.leq(b, a):
                w, r = (y, x) if P.leq(b, a) else (x, y)
                yield from ([-w, za], [-w, zb], four)
                if not trim:
                    yield from ([-r, za], [-r, zb], [-x, -y])
            else:
                yield from ([-x, za], [-x, zb], [-y, za], [-y, zb], four,
                            [-x, -y])

    # frequency cap, when d < k: Sinz's sequential counter, s(a, i, j) for
    # "at least j of z(a, 1..i)", one kind of clause at a time, element by
    # element
    if d < k:
        s = vm.s
        for a in ids:                       # z(a, i) counts: s(a, i, 1)
            for i in range(1, k):
                yield [-vm.z(a, i), s(a, i, 1)]
        for a in ids:                       # a count carries forward
            for i in range(2, k):
                for j in range(1, d + 1):
                    yield [-s(a, i - 1, j), s(a, i, j)]
        for a in ids:                       # z(a, i) raises a count by one
            for i in range(2, k):
                for j in range(2, d + 1):
                    yield [-vm.z(a, i), -s(a, i - 1, j - 1), s(a, i, j)]
        for a in ids:                       # no z(a, i) after a count of d
            for i in range(2, k + 1):
                yield [-vm.z(a, i), -s(a, i - 1, d)]
        for a in ids:                       # one order counts at most one
            for j in range(2, d + 1):
                yield [-s(a, 1, j)]

    if symmetry_break:
        yield from _lex_chain(vm, ids, d)

    # a one-element ground set has no pairs, so require the element directly
    if len(ids) == 1:
        yield [vm.z(ids[0], i) for i in orders]


def _lex_chain(vm, ids, d):
    # symmetry break: column i of z (element ids in index order, the first
    # most significant) is lexicographically >= column i + 1, with e(i, j)
    # for "the columns agree on the first j elements"
    a0, k = ids[0], vm.k
    for i in range(1, k):
        x0, y0 = vm.z(a0, i), vm.z(a0, i + 1)
        yield [x0, -y0]
        if len(ids) > 1:
            yield [x0, vm.e(i, 1)]
            yield [-y0, vm.e(i, 1)]
    for i in range(1, k):
        for j, a in enumerate(ids[1:], start=1):
            yield [-vm.e(i, j), vm.z(a, i), -vm.z(a, i + 1)]
    for i in range(1, k):
        for j, a in enumerate(ids[1:-1], start=1):
            yield [-vm.e(i, j), vm.z(a, i), vm.e(i, j + 1)]
            yield [-vm.e(i, j), -vm.z(a, i + 1), vm.e(i, j + 1)]
    # so the orders that use the first element come first, at most d of them
    yield [vm.z(a0, 1)]
    for i in range(d + 1, k + 1):
        yield [-vm.z(a0, i)]


def clause_count(P, k, d, symmetry_break=False):
    """len(encode(P, k, d, symmetry_break)[0].clauses), counted by brute
    force over the triples and pairs of P; the counter and lex families,
    which P does not shape, by their per-element and per-neighbour sizes."""
    ids = list(P.element_ids())
    n = len(ids)

    def below(a, b):
        return a != b and P.leq(a, b)

    triples = sum(1 for a, b, c in permutations(ids, 3)
                  if not (below(b, a) or below(c, b) or below(a, c)))
    comparable = sum(1 for a, b in combinations(ids, 2)
                     if P.leq(a, b) or P.leq(b, a))
    incomparable = n * (n - 1) // 2 - comparable
    total = k * triples + comparable * (1 + k + 3 * k) \
        + incomparable * (2 + 6 * k)
    if d < k:
        # per element: k - 1 first counts, (k - 2) d carries, (k - 2)(d - 1)
        # raises, k - 1 caps and d - 1 units
        total += n * ((k - 1) + (k - 2) * d + (k - 2) * (d - 1) + (k - 1)
                      + (d - 1))
    if symmetry_break:
        # per pair of neighbouring orders: 1 on the first element, 2 more
        # with a second element, 1 on each other element and 2 more on each
        # but the last; then z(A0, 1) and -z(A0, i) for i > d
        total += (k - 1) * (1 + 2 * (n > 1) + (n - 1) + 2 * max(0, n - 2))
        total += 1 + max(0, k - d)
    return total + (n == 1)


def not_implied_by_propagation(clauses, lemmas):
    """The lemmas that unit propagation over ``clauses`` does not derive
    (reverse unit propagation): with a lemma's literals all set false,
    propagation must reach a falsified clause.  Level-0 units are
    propagated once; each lemma's assignment is undone after its check."""
    holding = {}                        # literal -> clauses holding it
    for clause in clauses:
        for lit in clause:
            holding.setdefault(lit, []).append(clause)
    value = {}                          # variable -> True/False

    def holds(lit):
        v = value.get(abs(lit))
        return None if v is None else v == (lit > 0)

    def propagate(trail, start):
        """Propagate the literals set true in trail[start:]; True on a
        conflict."""
        head = start
        while head < len(trail):
            false_lit = -trail[head]
            head += 1
            for clause in holding.get(false_lit, ()):
                open_lits = []
                for lit in clause:
                    h = holds(lit)
                    if h:
                        break
                    if h is None:
                        open_lits.append(lit)
                else:
                    if not open_lits:
                        return True
                    if len(open_lits) == 1:
                        value[abs(open_lits[0])] = open_lits[0] > 0
                        trail.append(open_lits[0])
        return False

    trail = []
    for clause in clauses:
        if len(clause) == 1:
            if holds(clause[0]) is False:
                return []               # the clauses alone are refuted
            if holds(clause[0]) is None:
                value[abs(clause[0])] = clause[0] > 0
                trail.append(clause[0])
    if propagate(trail, 0):
        return []                       # the clauses alone are refuted
    missed = []
    for lemma in lemmas:
        start = len(trail)
        refuted = False
        for lit in lemma:
            h = holds(lit)
            if h:
                refuted = True
                break
            if h is None:
                value[abs(lit)] = lit < 0
                trail.append(-lit)
        # cheap literals first: the fewer clauses a false literal sits in,
        # the sooner its visit is done; the outcome does not depend on it
        trail[start:] = sorted(trail[start:],
                               key=lambda t: len(holding.get(-t, ())))
        if not refuted and not propagate(trail, start):
            missed.append(lemma)
        for lit in trail[start:]:
            del value[abs(lit)]
        del trail[start:]
    return missed


def decode_realizer(model, varmap, P):
    """The family decode_realizer(model, varmap, P) returns, or its
    DecodeError."""
    model = frozenset(model)
    members = []
    for i in range(1, varmap.k + 1):
        used = [a for a in P.element_ids() if varmap.z(a, i) in model]
        ranked = sorted(
            used,
            key=lambda a: -sum(1 for b in used
                               if b != a and varmap.before(a, b, i) in model))
        for p in range(len(ranked)):
            for q in range(p + 1, len(ranked)):
                if varmap.before(ranked[p], ranked[q], i) not in model:
                    raise DecodeError(
                        f"order {i}: before-relation on used elements is not "
                        f"a total order")
        if ranked:
            members.append(tuple(ranked))
    return RealizerFamily(members)


def parse_dimacs(text):
    """(variable_count, clauses) of DIMACS text, line by line and token by
    token with int(); raises ValueError where parse_dimacs raises
    FormatError."""
    variable_count = declared_clauses = None
    clauses, current = [], []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"bad DIMACS header: {raw!r}")
            variable_count, declared_clauses = int(parts[2]), int(parts[3])
            continue
        for token in line.split():
            lit = int(token)
            if lit == 0:
                clauses.append(current)
                current = []
            else:
                current.append(lit)
    if current:
        clauses.append(current)
    if variable_count is None:
        raise ValueError("missing DIMACS 'p cnf' header")
    if declared_clauses != len(clauses):
        raise ValueError(
            f"header declares {declared_clauses} clauses, found {len(clauses)}")
    return variable_count, clauses

"""SAT encoding of bounded-frequency local realizers, model decoding, and
exact search.

By default instances are decided in-process by the CDCL solver of
``ldimkit.cdcl``, fed straight from the clause generator.  An external
DIMACS solver is opt-in: pass ``solver_command`` (the CLI's ``--solver``).
The DIMACS and model I/O it needs lives in ``ldimkit.dimacs``, and the
verifier in ``ldimkit.realizers``, which only the decoder imports; the
names the package exports from ``dimacs``, and ``RealizerFamily`` and
``verify_local_realizer``, are read from there on each access as
attributes of this module.  Which command loads which module is stated
once, in ``ldimkit.cli``.

The instance encode(P, k, d) is satisfiable iff P has a local realizer with
at most k partial linear extensions and frequency at most d.  Variables per
order index i in [k]: for each unordered pair {A, B} (canonically oriented
A < B by id) an x variable ("A before B in L_i") and a y variable ("B before
A in L_i"); for each element A a z variable ("A used in L_i").  Lookups
accept either pair orientation, so there are N(N-1)k pair variables plus Nk
usage variables.  Two auxiliary roles follow them:

* s(A, i, j), "at least j of z(A, 1..i) are true", for i < k and j <= d:
  the frequency cap is Sinz's sequential counter (LTseq, CP 2005) over
  each element's usage row, 2kd + k - 3d - 1 clauses per element, where a
  binomial cap would take C(k, d+1).  With d >= k there is no cap and no s.
* e(i, j), "orders i and i+1 use the same elements among the first j
  element indices", for i < k and 1 <= j < N, only with the symmetry
  break: a lex-leader chain (Crawford, Ginsberg, Luks & Roy, KR 1996)
  orders the usage columns z(., 1) >= z(., 2) >= ... lexicographically,
  element index 0 most significant, in 3N - 2 clauses per pair of
  neighbours.  With the units z(A0, 1) and -z(A0, i) for i > d (A0 the
  element at index 0) it removes the k! relabellings of the orders, so an
  unsat d is refuted once.  ``solve_instance`` and ``ldim_certificate``
  always break the symmetry; ``encode`` does when asked, since a realizer
  whose members are not in the lex-leader order is then no model.

Only what P leaves open is encoded.  For a comparable pair A < B, k unit
clauses set the reverse variable before(B, A, i) false, and no clause that
those units satisfy, or that a kept clause resolved with them subsumes, is
emitted.  So the transitivity clause of an index triple (a, b, c) is kept
only when b < a, c < b and a < c all fail in P, and a comparable pair keeps
three of its six coupling clauses per order: the two that tie its witness
variable to usage, and the four-clause.  The formula has the models of the
full one, each dropped clause follows from the kept ones by unit
propagation, and the reverse variables stay in the layout.

``VarMap`` alone knows that layout: ``variable_count`` counts the x, y
and z variables, which name a family, and ``total_count`` every variable
of the formula.  Besides the checked scalar lookups ``before``, ``z``,
``s`` and ``e`` it gives the same variables as int64 tables indexed by
element index and order (``before_table``, ``z_table``, ``s_table``,
``e_table``).  The clause generator gathers each clause family from
those tables in int64 blocks and hands their rows on as lists, about a
thousand at a time, so neither a solver nor a DIMACS file fed from
``encode(..., stream=True)`` holds a whole family as Python lists: the
file's header count comes from ``expected_clause_count``, and the writer
checks it against the stream.

A model is an int64 array of the true variables, from either backend.
The decoder marks them in a bool vector over the variables and ranks each
order's used elements from their before-variables alone, computed for that
order; it reads no auxiliary variable and no N x N x k table.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property
from importlib import import_module

import numpy as np

from .errors import BoundExceededError, DecodeError, ParameterError
from .posets import Poset, _pack


class VarMap:
    """Bijection between SAT variables and their roles.

    Pair block first: for pair index p and order i, variable 2(pk + i - 1) + 1
    is x(A, B, i) and the following even id is y(A, B, i).  Usage block after:
    z(A, i) = N(N-1)k + index(A)*k + i.  ``variable_count`` counts these,
    the variables that name a family; they are the same for every d and
    break.

    ``VarMap(P, k, d, symmetry_break)`` adds the auxiliary variables of
    encode(P, k, d, symmetry_break) above them, up to ``total_count``, the
    formula's variable count; ``VarMap(P, k)`` has none.  Counter block,
    only when d < k: s(A, i, j) = "at least j of z(A, 1..i) are true" for
    i < k and j <= d is variable_count + (index(A)*(k-1) + i - 1)*d + j.  Lex
    block last, after ``s_block`` and only with the break: e(i, j) =
    "orders i and i+1 use the same elements among indices < j" for i < k
    and 1 <= j < N is s_block + (i - 1)*(N-1) + j.

    ``before_table[index(A), index(B), i - 1]`` is before(A, B, i), 0 where
    A = B; ``z_table[index(A), i - 1]`` is z(A, i);
    ``s_table[index(A), i - 1, j - 1]`` is s(A, i, j) and
    ``e_table[i - 1, j - 1]`` is e(i, j).  They are read-only int64 arrays
    of shape N x N x k, N x k, N x (k-1) x w and (k-1) x m, built on first
    use, where w is d (0 without a counter) and m is N-1 (0 without the
    break).
    """

    def __init__(self, P: Poset, k: int, d: int | None = None,
                 symmetry_break: bool = False):
        if k < 1:
            raise ParameterError(f"need k >= 1, got {k}")
        if d is not None and d < 1:
            raise ParameterError(f"need d >= 1, got {d}")
        self.P = P
        self.k = k
        self.d = d
        self.symmetry_break = symmetry_break
        self.n = P.ground_size
        self.pair_block = self.n * (self.n - 1) * k
        self.variable_count = self.pair_block + self.n * k
        # j ranges of s (a cap of d >= k orders needs no counter) and of e
        self.counter_width = d if d is not None and d < k else 0
        self.lex_width = self.n - 1 if symmetry_break else 0
        self.s_block = (self.variable_count
                        + self.n * (k - 1) * self.counter_width)
        self.total_count = self.s_block + (k - 1) * self.lex_width

    def _pair_var(self, lo, hi, i0, reverse):
        # x (reverse 0) or y (reverse 1) of index pair lo < hi in 0-based
        # order i0, and 0 where lo == hi; ints or broadcasting int64 arrays
        p = lo * (2 * self.n - lo - 1) // 2 + (hi - lo - 1)
        return (2 * (p * self.k + i0) + 1 + reverse) * (lo != hi)

    def _z_var(self, ai, i0):
        return self.pair_block + ai * self.k + i0 + 1

    def _s_var(self, ai, i0, j0):
        return (self.variable_count
                + (ai * (self.k - 1) + i0) * self.counter_width + j0 + 1)

    def _e_var(self, i0, j0):
        return self.s_block + i0 * self.lex_width + j0 + 1

    def _check_order(self, i: int) -> None:
        if not 1 <= i <= self.k:
            raise ParameterError(f"order index {i} not in [1, {self.k}]")

    def _check_aux(self, role: str, i: int, j: int, width: int) -> None:
        if not width:
            raise ParameterError(
                f"VarMap(k={self.k}, d={self.d}, symmetry_break="
                f"{self.symmetry_break}) has no {role} variables")
        if not (1 <= i < self.k and 1 <= j <= width):
            raise ParameterError(f"{role}(i={i}, j={j}) needs 1 <= i <= "
                                 f"{self.k - 1} and 1 <= j <= {width}")

    def before(self, a: int, b: int, i: int) -> int:
        """Variable for 'a placed before b in L_i' (either orientation)."""
        self._check_order(i)
        ai, bi = self.P.index_of(a), self.P.index_of(b)
        if ai == bi:
            raise ParameterError(f"pair variables need distinct elements, got {a}")
        return self._pair_var(min(ai, bi), max(ai, bi), i - 1, ai > bi)

    def z(self, a: int, i: int) -> int:
        self._check_order(i)
        return self._z_var(self.P.index_of(a), i - 1)

    def s(self, a: int, i: int, j: int) -> int:
        """Counter variable 'at least j of z(a, 1..i) are true'."""
        self._check_aux("s", i, j, self.counter_width)
        return self._s_var(self.P.index_of(a), i - 1, j - 1)

    def e(self, i: int, j: int) -> int:
        """Lex variable 'orders i and i+1 use the same elements among the
        first j element indices'."""
        self._check_aux("e", i, j, self.lex_width)
        return self._e_var(i - 1, j - 1)

    @cached_property
    def before_table(self) -> np.ndarray:
        idx = np.arange(self.n, dtype=np.int64)
        a, b = idx[:, None, None], idx[None, :, None]
        return _read_only(self._pair_var(np.minimum(a, b), np.maximum(a, b),
                                         np.arange(self.k, dtype=np.int64),
                                         a > b))

    @cached_property
    def z_table(self) -> np.ndarray:
        return _read_only(self._z_var(
            np.arange(self.n, dtype=np.int64)[:, None],
            np.arange(self.k, dtype=np.int64)))

    @cached_property
    def s_table(self) -> np.ndarray:
        ai, i0, j0 = np.indices((self.n, self.k - 1, self.counter_width),
                                dtype=np.int64)
        return _read_only(self._s_var(ai, i0, j0))

    @cached_property
    def e_table(self) -> np.ndarray:
        i0, j0 = np.indices((self.k - 1, self.lex_width), dtype=np.int64)
        return _read_only(self._e_var(i0, j0))


def _read_only(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


@dataclass
class CnfFormula:
    """A CNF formula.  ``clauses`` is a list, or a one-pass iterator of
    ``declared`` clauses, as ``encode(..., stream=True)`` gives it."""
    variable_count: int
    clauses: Iterable[list[int]]
    declared: int | None = None

    @property
    def clause_count(self) -> int:
        return len(self.clauses) if self.declared is None else self.declared


@dataclass(frozen=True)
class SolverResult:
    status: str  # "sat" | "unsat": any other answer is refused on parsing
    # the true variables, an int64 array: results are never compared
    model: np.ndarray | None = None


# Instances above 2**24 clauses are refused: at about 180 bytes for each
# clause a solver holds, that is about 3 GB.  boolean:5 at d = 4, the largest
# query in view, has about 1.9M.
_CLAUSE_LIMIT = 1 << 24


def encode(P: Poset, k: int, d: int, symmetry_break: bool = False,
           stream: bool = False) -> tuple[CnfFormula, VarMap]:
    """Emit the clause families for 'P has a local realizer with at most k
    orders and frequency at most d'.

    Without the symmetry break, any such realizer, its members in any order
    and padded with empty orders, is a model once the counter variables are
    propagated from its z values.  With it, only the order that
    ``ldim_certificate`` describes is; the instance stays satisfiable
    exactly when the plain one is, and the search solves that one.

    The clauses are a list, or with ``stream`` a generator of them in the
    same order, declared ``expected_clause_count`` long, which a solver
    loads and ``write_dimacs`` writes without a list.  Refused with
    ParameterError above 2**24 clauses, before any N x N x k table is
    built."""
    vm = VarMap(P, k, d, symmetry_break)  # refuses k < 1 or d < 1
    # the count is least when every pair is comparable (4k + 1 clauses each,
    # against 6k + 2 for an incomparable one, and no triple of a chain is
    # kept), so a poset too large for that bound is refused unread
    n = P.ground_size
    total = _clause_total(n, n * (n - 1) // 2, 0, k, d, symmetry_break)
    if total <= _CLAUSE_LIMIT:
        total = expected_clause_count(P, k, d, symmetry_break)
    if total > _CLAUSE_LIMIT:
        raise ParameterError(
            f"{P.kind} with k={k}, d={d} needs at least {total} clauses, "
            f"above the limit of {_CLAUSE_LIMIT}")
    clauses = _clauses(P, vm, d)
    if stream:
        return CnfFormula(vm.total_count, clauses, total), vm
    return CnfFormula(vm.total_count, list(clauses)), vm


# rows handed on as lists at a time: enough to amortize tolist, few enough
# that a streaming consumer never holds a whole family as Python lists
_CHUNK_ROWS = 1024


def _kept_blocks(P: Poset) -> Iterator[tuple[int, np.ndarray]]:
    """The transitivity clause of index triple (a, b, c) is kept when b < a,
    c < b and a < c all fail in P (a reverse unit satisfies the clause of
    b < a or c < b, and the coupling four-clause resolved with the unit
    -before(c, a) subsumes that of a < c).  Yields (s, keep) for a block of
    a at a time, so no N x N x N array is held: keep[a - s, c] holds the b
    of the kept triples (a, b, c), packed in uint64 words."""
    open_ = ~P.leq_matrix().T  # [a, b]: a != b and not b < a
    rows, cols = _pack(open_), _pack(open_.T)
    n, words = rows.shape
    step = max(1, (1 << 14) // (n * words))
    for s in range(0, n, step):
        keep = rows[s:s + step, None] & cols
        keep *= open_[:, s:s + step].T[:, :, None]
        yield s, keep


def _open_triples(P: Poset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The kept index triples (a, b, c), in itertools.permutations order."""
    n = P.ground_size
    parts = []
    for s, keep in _kept_blocks(P):
        bits = np.unpackbits(keep.view(np.uint8), axis=2, count=n,
                             bitorder="little")
        a, b, c = np.nonzero(bits.transpose(0, 2, 1))
        parts.append((a + s, b, c))
    return tuple(np.concatenate(col) for col in zip(*parts))


def _clauses(P: Poset, vm: VarMap, d: int) -> Iterator[list[int]]:
    n, k = vm.n, vm.k
    before, z = vm.before_table, vm.z_table
    # one Python int per literal, indexed by the literal itself (negative
    # literals wrap to the end), so the clause lists share them rather than
    # each holding an int object per literal
    v = vm.total_count
    literal = np.concatenate((np.arange(v + 1), np.arange(-v, 0))).astype(object)

    def lists(block: np.ndarray) -> list:
        return literal[block].tolist()

    def rows(block: np.ndarray) -> Iterator[list[int]]:
        for start in range(0, len(block), _CHUNK_ROWS):
            yield from lists(block[start:start + _CHUNK_ROWS])

    # each used kept triple is ordered transitively (the reversed triple
    # gives the mirrored clause)
    a, b, c = _open_triples(P)
    for i in range(k):
        zi, bi = z[:, i], before[:, :, i]
        yield from rows(np.stack((-zi[a], -zi[b], -zi[c], -bi[a, b], -bi[b, c],
                                  bi[a, c]), axis=1))

    # index pairs lo < hi in itertools.combinations order
    lo, hi = np.triu_indices(n, 1)
    leq = P.leq_matrix()
    up, down = leq[lo, hi], leq[hi, lo]
    comparable = up | down

    # comparable pairs: witnessed at least once, never reversed
    low = np.where(up, lo, hi)[comparable]
    high = np.where(up, hi, lo)[comparable]
    witness, reverse = before[low, high], -before[high, low, :, None]
    step = max(1, _CHUNK_ROWS // (k + 1))
    for s in range(0, len(low), step):
        for w, units in zip(lists(witness[s:s + step]),
                            lists(reverse[s:s + step])):
            yield w
            yield from units

    # incomparable pairs: both orders occur
    a, b = lo[~comparable], hi[~comparable]
    yield from rows(np.stack((before[a, b], before[b, a]), axis=1)
                    .reshape(-1, k))

    # coupling between pair variables and usage variables, per pair and
    # order: a placed pair's elements are used, two used elements are placed,
    # and one way round only.  A comparable pair's reverse unit satisfies the
    # three clauses that hold the reverse variable negated, so it keeps the
    # two binaries of its witness variable, put first, and the four-clause
    x, y = before[lo, hi], before[hi, lo]
    za, zb = z[lo], z[hi]
    w, r = np.where(down[:, None], y, x), np.where(down[:, None], x, y)
    twos = np.stack((-w, za, -w, zb, -r, za, -r, zb), axis=-1)
    twos = twos.reshape(len(lo), k, 4, 2)
    fours = np.stack((-za, -zb, x, y), axis=-1)
    pairs = np.stack((-x, -y), axis=-1)
    step = max(1, _CHUNK_ROWS // (6 * k))
    for s in range(0, len(lo), step):
        for comp, pair_twos, pair_fours, pair_pairs in zip(
                comparable[s:s + step].tolist(), lists(twos[s:s + step]),
                lists(fours[s:s + step]), lists(pairs[s:s + step])):
            for two, four, pair in zip(pair_twos, pair_fours, pair_pairs):
                yield from two[:2] if comp else two
                yield four
                if not comp:
                    yield pair

    # frequency cap: no element is used in d+1 distinct orders, by Sinz's
    # sequential counter (LTseq) over each element's usage row
    if vm.counter_width:
        cnt = vm.s_table
        # z(a, i) -> s(a, i, 1)
        yield from rows(np.stack((-z[:, :-1], cnt[:, :, 0]), axis=-1)
                        .reshape(-1, 2))
        # s(a, i-1, j) -> s(a, i, j)
        yield from rows(np.stack((-cnt[:, :-1], cnt[:, 1:]), axis=-1)
                        .reshape(-1, 2))
        # z(a, i) and s(a, i-1, j-1) -> s(a, i, j)
        zi = np.broadcast_to(z[:, 1:-1, None], cnt[:, 1:, 1:].shape)
        yield from rows(np.stack((-zi, -cnt[:, :-1, :-1], cnt[:, 1:, 1:]),
                                 axis=-1).reshape(-1, 3))
        # z(a, i) -> not s(a, i-1, d): no (d+1)-th use
        yield from rows(np.stack((-z[:, 1:], -cnt[:, :, -1]), axis=-1)
                        .reshape(-1, 2))
        # one order counts at most one use
        yield from rows(-cnt[:, 0, 1:].reshape(-1, 1))

    if vm.symmetry_break:
        yield from _lex_chain(vm, d, rows)

    # a one-element ground set has no pairs, so require the element directly
    if n == 1:
        yield lists(z[0])


def _lex_chain(vm: VarMap, d: int, rows) -> Iterator[list[int]]:
    # symmetry break: usage columns z(., i) >= z(., i+1) in lex order, the
    # element at index 0 most significant; e(i, j) holds while the columns
    # agree on indices < j
    z, e = vm.z_table, vm.e_table
    col, nxt = z[:, :-1].T, z[:, 1:].T
    # index 0: column i holds a0 if column i+1 does; they agree on it
    # unless column i holds it alone
    first = [(col[:, 0], -nxt[:, 0])]
    if vm.n > 1:
        first += [(col[:, 0], e[:, 0]), (-nxt[:, 0], e[:, 0])]
    yield from rows(np.array(first, dtype=np.int64).transpose(2, 0, 1)
                    .reshape(-1, 2))
    # index j >= 1, under e(i, j): the same, with e(i, j+1) for agreement
    yield from rows(np.stack((-e, col[:, 1:], -nxt[:, 1:]), axis=-1)
                    .reshape(-1, 3))
    yield from rows(np.stack((-e[:, :-1], col[:, 1:-1], e[:, 1:],
                              -e[:, :-1], -nxt[:, 1:-1], e[:, 1:]), axis=-1)
                    .reshape(-1, 3))
    # ... which puts the orders using the element at index 0 first, and at
    # most d of them
    yield from rows(z[:1, :1])
    yield from rows(-z[0, d:, None])


def expected_clause_count(P: Poset, k: int, d: int,
                          symmetry_break: bool = False) -> int:
    """Clause total of encode(P, k, d, symmetry_break), from the kept
    transitivity triples and the comparable pairs of P."""
    n = P.ground_size
    comparable = int(np.count_nonzero(P.leq_matrix())) - n
    kept = sum(int(np.bitwise_count(keep).sum())
               for _, keep in _kept_blocks(P))
    return _clause_total(n, comparable, kept, k, d, symmetry_break)


def _clause_total(N: int, n_comparable: int, kept_triples: int, k: int,
                  d: int, symmetry_break: bool) -> int:
    n_incomparable = N * (N - 1) // 2 - n_comparable
    total = k * kept_triples                   # transitivity
    total += n_comparable * (1 + k)            # comparable obligations
    total += 2 * n_incomparable                # incomparable obligations
    total += k * (3 * n_comparable + 6 * n_incomparable)   # coupling
    if d < k:
        total += N * (2 * k * d + k - 3 * d - 1)   # sequential counter
    if symmetry_break:
        total += (k - 1) * (3 * N - 2)         # lex chain on usage columns
        total += 1 + max(0, k - d)             # first element's usage units
    if N == 1:
        total += 1                             # lone-element coverage
    return total


# before-variables that decode_realizer computes at a time
_DECODE_ENTRIES = 1 << 14


def decode_realizer(model, varmap: VarMap, P: Poset) -> RealizerFamily:
    """Rebuild the realizer family from the true variables of a model, an
    int64 array as ``SolverResult.model`` holds it or a sequence of ints.

    Order i consists of the elements whose z variable is true, sorted by the
    pairwise before-variables; raises DecodeError if those do not induce a
    total order.  Empty orders are dropped.  Variables outside
    1..variable_count are ignored.  Each order's before-variables are
    computed for its used elements only, a block of rows at a time, so no
    N x N x k table is built.
    """
    from .realizers import RealizerFamily

    literals = np.asarray(model, dtype=np.int64)
    # the literals mark in place: those below 1 clip to the unused variable
    # 0, those above variable_count to a last slot that no lookup reads
    true = np.zeros(varmap.variable_count + 2, dtype=bool)
    np.put(true, literals, True, mode="clip")
    true[0] = False
    elements = np.arange(varmap.n, dtype=np.int64)
    ids = np.asarray(P.element_ids())
    members = []
    for i in range(varmap.k):
        used = np.flatnonzero(true[varmap._z_var(elements, i)])
        rel = np.empty((used.size, used.size), dtype=bool)
        step = max(1, _DECODE_ENTRIES // max(1, used.size))
        for s in range(0, used.size, step):
            a = used[s:s + step, None]
            # a diagonal cell reads variable 0, which is never true
            rel[s:s + step] = true[varmap._pair_var(
                np.minimum(a, used), np.maximum(a, used), i, a > used)]
        # most elements after it first; ties keep id order, like sorted()
        rank = np.argsort(-rel.sum(axis=1), kind="stable")
        if np.triu(~rel[rank[:, None], rank], 1).any():
            raise DecodeError(
                f"order {i + 1}: before-relation on used elements is not "
                f"a total order")
        if used.size:
            members.append(ids[used[rank]])
    return RealizerFamily(members)


def decode_verified(model, varmap: VarMap, P: Poset, d: int) -> RealizerFamily:
    """Decode a sat model and verify the family against P and frequency d.

    A family that fails verification or exceeds frequency d raises
    DecodeError, since it signals an encoding or solver inconsistency.
    """
    from .realizers import verify_local_realizer

    family = decode_realizer(model, varmap, P)
    report = verify_local_realizer(P, family)
    if not report.accepted:
        raise DecodeError("decoded family fails verification")
    if report.frequency > d:
        raise DecodeError(
            f"decoded family has frequency {report.frequency} > d={d}")
    return family


def solve_instance(P: Poset, k: int, d: int, solver_command=None
                   ) -> tuple[SolverResult, RealizerFamily | None]:
    """Encode with the symmetry break, solve, and decode on sat.

    With no ``solver_command`` the clauses stream from the encoder into the
    in-process CDCL solver through ``Solver.load_trusted``: no file, no
    subprocess.  Otherwise the DIMACS file goes to a temporary directory and
    the external solver runs through ``dimacs.run_solver``; ``satshim``
    loads the same clauses in the same order, so it finds the in-process
    solver's model.

    On sat the family comes from decode_verified, so it is a verified local
    realizer of frequency at most d.
    """
    formula, vm = encode(P, k, d, symmetry_break=True, stream=True)
    if solver_command is None:
        from .cdcl import Solver

        solver = Solver(vm.total_count)
        solver.load_trusted(formula.clauses)
        result = (SolverResult("sat", np.array(solver.model, dtype=np.int64))
                  if solver.solve() else SolverResult("unsat"))
    else:
        import tempfile
        from pathlib import Path

        from .dimacs import run_solver, write_dimacs

        with tempfile.TemporaryDirectory() as tmp:
            cnf_path = Path(tmp) / "instance.cnf"
            write_dimacs(formula, vm, cnf_path)
            result = run_solver(cnf_path, solver_command)
    if result.status != "sat":
        return result, None
    return result, decode_verified(result.model, vm, P, d)


def ldim_certificate(P: Poset, d_max: int | None = None,
                     solver_command=None) -> tuple[int, RealizerFamily]:
    """Least d whose instance is satisfiable, with the decoded witness.

    Uses k = max(1, floor(d*N/2)) orders, which is always enough.  For
    N >= 2 every element lies in some pair, and each pair is witnessed by a
    member holding both of its elements, so dropping the one-element
    members of a frequency-d realizer leaves a realizer; each remaining
    member holds at least two of the at most d*N element occurrences.  For
    N = 1 one order suffices.

    Each instance carries the symmetry break, which keeps every answer.
    Take a realizer of frequency at most d with at most k members, pad it
    with empty orders to k and sort the orders by usage column,
    lex-descending with element index 0 most significant.  The padded
    family is still a realizer of frequency at most d, so the counter
    holds; consecutive columns are in lex order, so the lex chain holds;
    some order uses the element A0 at index 0 (it lies in some pair, or it
    is the only element), and the sort puts the at most d orders that use
    it first, so z(A0, 1) and -z(A0, i) for i > d hold.  Hence the instance
    with the break is satisfiable whenever the instance without it is, and
    an unsat answer stands for every order of the members.

    A poset with an incomparable pair starts at d = 2, with no query: a
    realizer orders that pair both ways, in two members that each hold both
    of its elements, so both have frequency at least 2.  P is a chain
    exactly when its leq matrix, which the encoder reads too, holds
    N(N+1)/2 true cells; a chain's d = 1 query is still solved, by
    ``solver_command`` when one is given.  A poset too large for even the
    least d = 1 instance is left to ``encode``, which refuses it unread.
    """
    limit = P.ground_size if d_max is None else d_max
    if limit < 1:
        raise ParameterError(f"d_max must be >= 1, got {limit}")
    n = P.ground_size
    skip = (_clause_total(n, n * (n - 1) // 2, 0, max(1, n // 2), 1, True)
            <= _CLAUSE_LIMIT
            and np.count_nonzero(P.leq_matrix()) < n * (n + 1) // 2)
    for d in range(2 if skip else 1, limit + 1):
        k = max(1, d * n // 2)
        result, family = solve_instance(P, k, d, solver_command)
        if result.status == "sat":
            return d, family
    raise BoundExceededError(
        f"no local realizer of frequency <= {limit} found for {P.kind}")


def __getattr__(name: str):
    # the opt-in path's public names, those the package exports from
    # ``dimacs``, and two of the verifier's, read from their module on each
    # access (PEP 562); private names are not read through this module
    from . import _MODULE_OF

    module = _MODULE_OF.get(name)
    if module == "dimacs" or name in ("RealizerFamily",
                                      "verify_local_realizer"):
        return getattr(import_module(f".{module}", __package__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

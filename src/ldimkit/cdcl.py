"""A conflict-driven clause-learning SAT solver in pure Python.

The design is MiniSat's (Eén & Sörensson, SAT 2003): two watched literals
per clause, first-UIP conflict analysis with learnt-clause minimisation,
activity-based branching with phase saving, and Luby restarts.  Binary
clauses live in implication lists instead of watched clause objects.

Literals are DIMACS integers.  Every per-literal table has 2V+1 slots and is
indexed by the literal itself: a negative literal -v lands in slot 2V+1-v by
Python's negative indexing, so negation is plain ``-lit``.

Usage: ``Solver(V)``, then ``load_trusted(clauses)``, then ``solve()``,
which returns True (the model is in ``model``) or False.  ``load_trusted``
is the one way clauses enter and files them unchecked: the encoder of
``ldimkit.sat`` writes well-formed clauses, and ``satshim`` checks DIMACS
input before loading it.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

RESTART_UNIT = 100      # conflicts per Luby unit
LEARNT_LIMIT = 1000     # learnt clauses kept before the first reduction
ACTIVITY_DECAY = 0.95
RESCALE_LIMIT = 1e100


def luby(i: int) -> int:
    """The i-th term (from 0) of the Luby sequence 1 1 2 1 1 2 4 ..."""
    size, seq = 1, 0
    while size < i + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != i:
        size = (size - 1) >> 1
        seq -= 1
        i %= size
    return 1 << seq


class Solver:
    """One CNF instance over variables 1..variable_count."""

    def __init__(self, variable_count: int):
        if variable_count < 0:
            raise ValueError(f"need variable_count >= 0, got {variable_count}")
        n = variable_count
        self.variable_count = n
        self.value = [0] * (2 * n + 1)      # per literal: 1 true, -1 false, 0
        # watches[p]: clauses watching -p; implied[p]: literals that binary
        # clauses force once p is true
        self.watches = [[] for _ in range(2 * n + 1)]
        self.implied = [[] for _ in range(2 * n + 1)]
        self.level = [0] * (n + 1)
        # per variable: its clause, the other literal of a binary clause,
        # or None for a decision or a unit
        self.reason = [None] * (n + 1)
        self.activity = [0.0] * (n + 1)
        self.phase = [False] * (n + 1)
        self.seen = bytearray(n + 1)
        self.heap = [(0.0, v) for v in range(1, n + 1)]
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.learnts: list[list[int]] = []
        self.bump = 1.0
        self.ok = True
        self.model: list[int] | None = None
        self.conflicts = self.decisions = self.restarts = 0

    # ------------------------------------------------------------ clauses

    def load_trusted(self, clauses) -> bool:
        """Add clauses whose literals are nonzero, within range, and
        neither repeated nor complementary within a clause, as they are;
        the lists are kept, not copied.  Units are assigned, binary clauses
        go to the implication lists and longer ones are watched on their
        first two literals; an empty clause makes the formula unsatisfiable.
        Returns False once the formula is known to be unsatisfiable."""
        value, implied, watches = self.value, self.implied, self.watches
        for c in clauses:
            if len(c) > 2:
                watches[-c[0]].append(c)
                watches[-c[1]].append(c)
            elif len(c) == 2:
                a, b = c
                implied[-a].append(b)
                implied[-b].append(a)
            elif not c:
                self.ok = False
            elif not value[c[0]]:
                self._assign(c[0], None)
            elif value[c[0]] < 0:
                self.ok = False
        # a watched literal may already be false: propagate the whole
        # level-0 trail again, so every clause sees it
        self.qhead = 0
        return self.ok

    def _assign(self, lit: int, reason) -> None:
        self.value[lit] = 1
        self.value[-lit] = -1
        v = lit if lit > 0 else -lit
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)

    # -------------------------------------------------------- propagation

    def _propagate(self):
        """Unit propagation over the unread part of the trail; returns a
        falsified clause or None."""
        trail, value, level = self.trail, self.value, self.level
        reason = self.reason
        watches, implied = self.watches, self.implied
        lvl = len(self.trail_lim)
        head = self.qhead
        while head < len(trail):
            p = trail[head]
            head += 1
            false_lit = -p
            for q in implied[p]:
                vq = value[q]
                if vq == 0:
                    value[q] = 1
                    value[-q] = -1
                    v = q if q > 0 else -q
                    level[v] = lvl
                    reason[v] = false_lit
                    trail.append(q)
                elif vq == -1:
                    self.qhead = len(trail)
                    return [q, false_lit]
            ws = watches[p]               # compacted in place: ws[:j] stay
            i = j = 0
            end = len(ws)
            while i < end:
                c = ws[i]
                i += 1
                first = c[0]
                if first == false_lit:      # keep the false watch in c[1]
                    first = c[0] = c[1]
                    c[1] = false_lit
                if value[first] == 1:
                    ws[j] = c
                    j += 1
                    continue
                for k in range(2, len(c)):
                    lit = c[k]
                    if value[lit] != -1:
                        c[1] = lit
                        c[k] = false_lit
                        watches[-lit].append(c)
                        break
                else:
                    ws[j] = c
                    j += 1
                    if value[first] == -1:
                        ws[j:i] = []        # keep the unvisited watchers
                        self.qhead = len(trail)
                        return c
                    value[first] = 1
                    value[-first] = -1
                    v = first if first > 0 else -first
                    level[v] = lvl
                    reason[v] = c
                    trail.append(first)
            del ws[j:]
        self.qhead = head
        return None

    # ----------------------------------------------------------- learning

    def _analyze(self, conflict) -> tuple[list[int], int]:
        """First-UIP learnt clause (asserting literal first, a literal of
        the backjump level second) and the level to backjump to."""
        seen, level, reason = self.seen, self.level, self.reason
        trail, activity = self.trail, self.activity
        top = len(self.trail_lim)
        learnt = [0]
        pending = 0
        idx = len(trail)
        lits = conflict
        while True:
            for q in lits:
                v = q if q > 0 else -q
                if not seen[v] and level[v]:
                    seen[v] = 1
                    activity[v] += self.bump
                    if activity[v] > RESCALE_LIMIT:
                        self._rescale()
                    if level[v] == top:
                        pending += 1
                    else:
                        learnt.append(q)
            idx -= 1
            while not seen[abs(trail[idx])]:
                idx -= 1
            p = trail[idx]
            v = abs(p)
            seen[v] = 0
            pending -= 1
            if not pending:
                break
            r = reason[v]
            lits = (r,) if type(r) is int else r[1:]
        learnt[0] = -p

        # drop literals implied by the rest of the clause (local minimisation)
        kept = learnt[:1]
        for q in learnt[1:]:
            r = reason[abs(q)]
            if r is None:
                kept.append(q)
                continue
            for lit in ((r,) if type(r) is int else r[1:]):
                u = abs(lit)
                if not seen[u] and level[u]:
                    kept.append(q)
                    break
        for q in learnt[1:]:
            seen[abs(q)] = 0

        if len(kept) == 1:
            return kept, 0
        best = max(range(1, len(kept)), key=lambda t: level[abs(kept[t])])
        kept[1], kept[best] = kept[best], kept[1]
        return kept, level[abs(kept[1])]

    def _rescale(self) -> None:
        self.activity[:] = [a / RESCALE_LIMIT for a in self.activity]
        self.bump /= RESCALE_LIMIT
        self._rebuild_heap()

    def _rebuild_heap(self) -> None:
        value, activity = self.value, self.activity
        self.heap[:] = [(-activity[v], v)
                        for v in range(1, self.variable_count + 1)
                        if not value[v]]
        heapify(self.heap)

    def _backjump(self, target: int) -> None:
        if len(self.trail_lim) <= target:
            return
        start = self.trail_lim[target]
        value, reason, phase = self.value, self.reason, self.phase
        heap, activity = self.heap, self.activity
        for lit in self.trail[start:]:
            v = lit if lit > 0 else -lit
            value[lit] = value[-lit] = 0
            reason[v] = None
            phase[v] = lit > 0
            heappush(heap, (-activity[v], v))
        del self.trail[start:]
        del self.trail_lim[target:]
        self.qhead = start
        # stale entries pile up in the heap; keep it O(variables)
        if len(heap) > 2 * self.variable_count + 64:
            self._rebuild_heap()

    def _learn(self, learnt: list[int]) -> None:
        lit = learnt[0]
        if len(learnt) == 1:
            self._assign(lit, None)
        elif len(learnt) == 2:
            other = learnt[1]
            self.implied[-lit].append(other)
            self.implied[-other].append(lit)
            self._assign(lit, other)
        else:
            self.watches[-lit].append(learnt)
            self.watches[-learnt[1]].append(learnt)
            self.learnts.append(learnt)
            self._assign(lit, learnt)

    def _reduce_learnts(self) -> None:
        """At level 0: forget the longer half of the learnt clauses."""
        self.learnts.sort(key=len)
        keep = len(self.learnts) // 2
        dropped = {id(c) for c in self.learnts[keep:]}
        del self.learnts[keep:]
        for ws in self.watches:
            if ws:
                ws[:] = [c for c in ws if id(c) not in dropped]

    # -------------------------------------------------------------- search

    def solve(self) -> bool:
        """Decide the clauses added so far; on True, ``model`` lists the
        true variables in ascending order."""
        self.model = None
        if not self.ok or self._propagate() is not None:
            self.ok = False
            return False
        value, heap, phase = self.value, self.heap, self.phase
        max_learnts = LEARNT_LIMIT
        budget = RESTART_UNIT * luby(self.restarts)
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                if not self.trail_lim:
                    self.ok = False
                    return False
                learnt, target = self._analyze(conflict)
                self._backjump(target)
                self._learn(learnt)
                self.bump /= ACTIVITY_DECAY
                budget -= 1
                continue
            if budget <= 0:
                self._backjump(0)
                self.restarts += 1
                budget = RESTART_UNIT * luby(self.restarts)
                if len(self.learnts) > max_learnts:
                    self._reduce_learnts()
                    max_learnts += max_learnts // 10
                continue
            v = 0
            while heap:
                u = heappop(heap)[1]
                if not value[u]:
                    v = u
                    break
            if not v:
                self.model = [u for u in range(1, self.variable_count + 1)
                              if value[u] == 1]
                self._backjump(0)
                return True
            self.decisions += 1
            self.trail_lim.append(len(self.trail))
            self._assign(v if phase[v] else -v, None)


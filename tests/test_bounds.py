import json
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldimkit import (ConflictGraph, ContractError, ParameterError,
                     RangeError, build_singleton_realizer,
                     check_ind_freq_claim, conflict_graph, independent_set,
                     iter_independent_sets, min_m_certifying,
                     multiset_lower_bound, signature_audit_report,
                     solve_instance, turan_independence_floor)
from ldimkit.bounds import CERTIFY_SLACK

from tests import oracle


def test_conflict_graph_edges():
    # member (1,2,12,4): singletons 1,2,4 -> elements 1,2,3; edge {2,3}
    # member (2,8): singletons -> elements 2,4; edge {2,4}
    G = conflict_graph([(1, 2, 12, 4), (2, 8)], 4)
    assert sorted(G.edges) == [(2, 3), (2, 4)]
    assert len(G.edges) == 2
    assert G.is_independent([1, 3, 4])
    assert not G.is_independent([2, 3])
    # single-singleton and singleton-free members produce no edge
    assert not conflict_graph([(1, 12), (12, 10)], 4).edges
    with pytest.raises(RangeError):
        conflict_graph([(16,)], 4)


def test_edge_count_at_most_size():
    fam = build_singleton_realizer(8)
    G = conflict_graph(fam, 8)
    assert len(G.edges) <= len(fam)


def test_independent_set_exact_small():
    empty = ConflictGraph(5, frozenset())
    assert len(independent_set(empty)) == 5
    complete = ConflictGraph(4, frozenset(
        (a, b) for a, b in combinations(range(1, 5), 2)))
    assert len(independent_set(complete)) == 1
    path = ConflictGraph(5, frozenset([(1, 2), (2, 3), (3, 4), (4, 5)]))
    assert len(independent_set(path)) == 3
    assert independent_set(path) == (1, 3, 5)


def test_independent_set_random_vs_brute():
    rng = random.Random(11)
    for trial in range(20):
        n = rng.randint(2, 12)
        edges = frozenset(
            (a, b) for a, b in combinations(range(1, n + 1), 2)
            if rng.random() < 0.4)
        G = ConflictGraph(n, edges)
        got = independent_set(G)
        assert G.is_independent(got)
        assert len(got) == oracle.brute_max_independent(n, edges), (n, edges)


def test_independent_set_greedy_is_maximal():
    # beyond 20 vertices the set is independent and maximal, not maximum:
    # on this 8-vertex core plus 16 isolated vertices it has 19 vertices,
    # one short of the maximum
    core = frozenset({(1, 4), (1, 5), (1, 6), (1, 7), (1, 8), (2, 3), (2, 6),
                      (3, 7), (3, 8), (4, 7), (4, 8), (5, 7), (5, 8), (6, 7)})
    graphs = [ConflictGraph(24, core)]
    rng = random.Random(21)
    for n in range(21, 41):
        graphs.append(ConflictGraph(n, frozenset(
            (a, b) for a, b in combinations(range(1, n + 1), 2)
            if rng.random() < rng.choice((0.05, 0.2, 0.5)))))
    for G in graphs:
        got = independent_set(G)
        assert list(got) == sorted(set(got)) and G.is_independent(got)
        assert not any(G.is_independent(got + (v,))
                       for v in range(1, G.n + 1) if v not in got), G.n
    assert 16 + oracle.brute_max_independent(8, core) == 20
    assert len(independent_set(graphs[0])) == 19


def test_iter_independent_sets():
    G = ConflictGraph(3, frozenset([(1, 2)]))
    got = list(iter_independent_sets(G))
    assert () in got and (3,) in got and (1, 3) in got and (2, 3) in got
    assert (1, 2) not in got
    assert all(len(s) <= 1 for s in iter_independent_sets(G, max_size=1))


def test_turan_floor_frozen():
    rep = turan_independence_floor(10, 20)
    assert rep.c == 2.0
    assert rep.bound == pytest.approx(10 / 6, abs=1e-12)
    assert rep.ell == pytest.approx(100 / 52 + 1, abs=1e-12)
    assert rep.ceiling == 2 and rep.ell_ceiling == 3
    assert rep.certifying is False
    payload = json.loads(rep.to_json())
    assert payload["n"] == 10 and payload["size"] == 20
    assert "m" not in payload
    with pytest.raises(ParameterError):
        turan_independence_floor(1, 3)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 500), st.integers(0, 2000))
def test_turan_ell_beats_floor(n, size):
    rep = turan_independence_floor(n, size)
    assert rep.ell > rep.bound
    assert rep.bound > 0


def test_check_ind_freq_claim_on_constructions():
    for n in (4, 5, 6):
        fam = build_singleton_realizer(n)
        G = conflict_graph(fam, n)
        for I in iter_independent_sets(G, max_size=n - 2):
            assert check_ind_freq_claim(n, fam, I), (n, I)


def test_check_ind_freq_claim_contracts():
    fam = build_singleton_realizer(4)
    with pytest.raises(ParameterError):
        check_ind_freq_claim(4, fam, [1, 2, 3])  # too large
    with pytest.raises(ParameterError):
        check_ind_freq_claim(4, fam, [0])
    with pytest.raises(ContractError):
        check_ind_freq_claim(4, [(1, 2)], [1])  # not a realizer
    G = conflict_graph(fam, 4)
    dep = next(tuple(e) for e in G.edges)
    with pytest.raises(ContractError):
        check_ind_freq_claim(4, fam, dep)


def test_multiset_bound_frozen_brackets():
    assert multiset_lower_bound(2, 24).bound == pytest.approx(1.0, abs=1e-12)
    assert not multiset_lower_bound(2, 24).certifying
    rep = multiset_lower_bound(2, 25)
    assert rep.bound == pytest.approx(1.0071570040936237, abs=1e-12)
    assert rep.certifying
    assert min_m_certifying(2) == 25
    payload = json.loads(rep.to_json())
    assert set(payload) == {"n", "m", "bound", "ceiling", "certifying"}


def test_multiset_bound_never_certifies_n1():
    for m in (2, 10, 10**6):
        assert not multiset_lower_bound(1, m).certifying
    with pytest.raises(ParameterError):
        multiset_lower_bound(0, 2)
    with pytest.raises(ParameterError):
        multiset_lower_bound(2, 1)
    with pytest.raises(ParameterError):
        min_m_certifying(1)


def test_min_m_is_exact_threshold():
    for n in (2, 3, 4, 5):
        m = min_m_certifying(n)
        assert multiset_lower_bound(n, m).certifying
        assert not multiset_lower_bound(n, m - 1).certifying
        assert multiset_lower_bound(n, m).bound > (n - 1) + CERTIFY_SLACK


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12), st.integers(2, 10**6))
def test_multiset_bound_below_n(n, m):
    # the bound never reaches n: n*log2(m) - log2(n) < n*log2(3 n^2 m)
    assert multiset_lower_bound(n, m).bound < n


def test_signature_audit_on_solved_instance():
    from ldimkit import MultisetSingletonPoset
    P = MultisetSingletonPoset(2, 2)   # isomorphic to singleton order on [2]
    result, fam = solve_instance(P, 6, 2)
    assert result.status == "sat"
    rep = signature_audit_report(2, 2, fam)
    assert rep.ok
    assert rep.singleton_count == 2 and rep.mplus_count == 1
    assert rep.interval_count <= rep.interval_bound


def test_signature_audit_handmade():
    # singleton order on {1,2}: ids 1=(1,0), 2=(0,1), 3=(1,1)
    fam = [(1, 2, 3), (2, 1, 3), (1,), (2,)]
    rep = signature_audit_report(2, 2, fam)
    assert rep.ok and rep.frequency == 3
    assert rep.distinct_signatures == 1
    assert rep.interval_count == 2  # one trailing {3} run per long member
    payload = rep.to_json_dict()
    assert payload["ok"] is True and payload["n"] == 2


def test_signature_audit_contracts():
    with pytest.raises(ContractError):
        signature_audit_report(2, 2, [(1, 2, 3)])  # not a realizer
    with pytest.raises(ParameterError):
        signature_audit_report(4, 5, [(1,)])  # m^n > 256

import json
import math
import random

import pytest

from relaysynth.audits import (
    min_spanning_subhypergraph_cost,
    random_connected_hypergraph,
    random_tree,
    replacement_bound_holds,
)
from relaysynth.connectivity import is_feasible, verify_feasible
from relaysynth.generators import pentagon_instance, uniform_box_instance
from relaysynth.instances import (
    MetricSpace,
    Point,
    all_pairs_demands,
    make_instance,
    parse_instance,
)
from relaysynth.local_replacement import (
    HypergraphError,
    costed_hypergraph,
    local_replacement,
    max_overlapped_set,
    st_msp_scheme,
)
from relaysynth.steiner import (
    Hyperedge,
    SchemeConfig,
    build_component_hypergraph,
    mst_baseline,
    mst_pairs,
)

E2 = MetricSpace.euclidean(2)


def test_overlap_path_drops_heaviest_cycle_edge():
    assert max_overlapped_set([(0, 1, 3), (1, 2, 5)], {0, 2}) == [(1, 2, 5)]


def test_overlap_star_keeps_cheapest_spoke():
    drop = max_overlapped_set([(0, 1, 1), (0, 2, 2), (0, 3, 3)], {1, 2, 3})
    assert sorted(drop) == [(0, 2, 2), (0, 3, 3)]


def test_overlap_adjacent_pair_is_their_edge():
    assert max_overlapped_set([(0, 1, 4), (1, 2, 2)], {0, 1}) == [(0, 1, 4)]


def test_overlap_requires_group_in_tree():
    with pytest.raises(HypergraphError):
        max_overlapped_set([(0, 1, 1)], {0, 5})


def test_overlap_complement_spans_contraction():
    rng = random.Random(19)
    for _ in range(40):
        n = rng.randint(3, 8)
        tree = [(u, v, rng.randint(1, 9)) for u, v in random_tree(rng, n)]
        group = set(rng.sample(range(n), rng.randint(2, n)))
        dropped = max_overlapped_set(tree, group)
        kept = [e for e in tree if e not in dropped]
        # contracting the group over the kept edges must leave a spanning tree
        anchor = min(group)
        parent = {}

        def find(x):
            parent.setdefault(x, x)
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v, _ in kept:
            ru = find(anchor if u in group else u)
            rv = find(anchor if v in group else v)
            assert ru != rv  # no cycle after contraction
            parent[ru] = rv
        contracted_nodes = {anchor if v in group else v for v in range(n)}
        assert len({find(v) for v in contracted_nodes}) == 1  # spans


def test_replacement_selects_profitable_triple():
    hyper = costed_hypergraph(
        [0, 1, 2], [((0, 1), 1), ((1, 2), 1), ((0, 2), 1), ((0, 1, 2), 1)]
    )
    tree = [e for e in hyper.edges if e.nodes in ({0, 1}, {1, 2})]
    result = local_replacement(hyper, tree)
    assert [sorted(e.nodes) for e in result.selected] == [[0, 1, 2]]
    assert result.cost == 1
    assert not result.kept_pairs


def test_replacement_stops_without_gain():
    hyper = costed_hypergraph(
        [0, 1, 2], [((0, 1), 1), ((1, 2), 1), ((0, 1, 2), 5)]
    )
    tree = [e for e in hyper.edges if e.is_pair]
    result = local_replacement(hyper, tree)
    assert result.selected == ()
    assert result.cost == 2
    assert result.trace.stopped_early


def test_replacement_bound_tight_at_equal_start():
    # when the starting tree already matches the optimum the bound collapses
    hyper = costed_hypergraph([0, 1, 2], [((0, 1), 1), ((1, 2), 1)])
    tree = list(hyper.edges)
    result = local_replacement(hyper, tree)
    tau = min_spanning_subhypergraph_cost(3, hyper.edges)
    assert result.cost <= tau  # bound value tau * (1 + ln 1)


def test_replacement_rejects_bad_tree():
    hyper = costed_hypergraph([0, 1, 2], [((0, 1), 1), ((1, 2), 1)])
    with pytest.raises(HypergraphError):
        local_replacement(hyper, [hyper.edges[0]])


def test_replacement_keeps_duplicate_node_sets_apart():
    hyper = costed_hypergraph([0, 1, 2], [((0, 1), 1), ((0, 1), 1), ((1, 2), 1)])
    first, second, other = hyper.edges
    assert first == second and first is not second
    result = local_replacement(hyper, [second, other])
    assert result.kept_pairs[0] is second
    assert result.kept_pairs[1] is other
    with pytest.raises(HypergraphError):  # an equal edge from elsewhere
        local_replacement(hyper, [Hyperedge(frozenset((0, 1)), 1), other])


def test_replacement_output_always_spans():
    rng = random.Random(37)
    for _ in range(40):
        n = rng.randint(3, 8)
        hyper = random_connected_hypergraph(rng, n, rng.randint(0, 10))
        pair_edges = sorted(
            (e for e in hyper.edges if e.is_pair),
            key=lambda e: (e.cost, sorted(e.nodes)),
        )
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        tree = []
        for e in pair_edges:
            u, v = sorted(e.nodes)
            if find(u) != find(v):
                parent[max(find(u), find(v))] = min(find(u), find(v))
                tree.append(e)
        result = local_replacement(hyper, tree)
        # selections plus kept pairs must connect every node
        parent2 = list(range(n))

        def find2(x):
            while parent2[x] != x:
                parent2[x] = parent2[parent2[x]]
                x = parent2[x]
            return x

        for e in result.all_edges():
            vs = sorted(e.nodes)
            for v in vs[1:]:
                parent2[find2(v)] = find2(vs[0])
        assert len({find2(v) for v in range(n)}) == 1
        # committed steps strictly shrink the tree
        remaining = result.trace.start_cost
        for step in result.trace.steps:
            assert step.remaining_cost < remaining
            assert step.removed_cost > step.hyperedge_cost
            remaining = step.remaining_cost


def test_replacement_bound_on_random_hypergraphs():
    rng = random.Random(43)
    for _ in range(60):
        n = rng.randint(3, 7)
        hyper = random_connected_hypergraph(rng, n, rng.randint(0, 12))
        pair_edges = sorted(
            (e for e in hyper.edges if e.is_pair),
            key=lambda e: (e.cost, sorted(e.nodes)),
        )
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        tree = []
        for e in pair_edges:
            u, v = sorted(e.nodes)
            if find(u) != find(v):
                parent[max(find(u), find(v))] = min(find(u), find(v))
                tree.append(e)
        result = local_replacement(hyper, tree)
        tau = min_spanning_subhypergraph_cost(n, hyper.edges)
        start = sum(e.cost for e in tree)
        assert replacement_bound_holds(result.cost, tau, start)


def test_scheme_sqrt3_triangle_beats_mst():
    s3 = math.sqrt(3)
    pts = [Point.at(0, 0), Point.at(s3, 0), Point.at(s3 / 2, 1.5)]
    inst = make_instance(pts, all_pairs_demands(3, 1), E2)
    res = st_msp_scheme(inst, SchemeConfig(k=3))
    assert res.size == 1
    assert res.mst_cost == 2
    assert is_feasible(inst, res.solution)


def test_scheme_two_terminals_places_two_beads():
    inst = make_instance([Point.at(0, 0), Point.at(3, 0)], all_pairs_demands(2, 1), E2)
    res = st_msp_scheme(inst, SchemeConfig(k=2))
    assert res.size == 2


def test_scheme_pentagon_places_center():
    pts = [
        Point.at(
            math.cos(math.pi / 2 + 2 * math.pi * i / 5),
            math.sin(math.pi / 2 + 2 * math.pi * i / 5),
        )
        for i in range(5)
    ]
    inst = make_instance(pts, all_pairs_demands(5, 1), E2)
    res = st_msp_scheme(inst, SchemeConfig(k=5))
    assert res.size == 1
    assert is_feasible(inst, res.solution)


def test_scheme_zero_cost_tree_returns_immediately():
    pts = [Point.at(0, 0), Point.at(0.5, 0), Point.at(1.0, 0)]
    inst = make_instance(pts, all_pairs_demands(3, 1), E2)
    res = st_msp_scheme(inst, SchemeConfig(k=3))
    assert res.size == 0
    assert res.trace.steps == ()


def test_scheme_seven_terminals_is_pinned():
    # One size above the benchmark's scheme pool: every 3-5 subset goes
    # through the component oracle's search.
    inst = uniform_box_instance(7, 4.0, 0, "all-1")
    res = st_msp_scheme(inst)
    assert res.size == 2
    assert is_feasible(inst, res.solution)
    edges = res.hypergraph.edges
    assert len(edges) == 112
    assert sum(e.cost for e in edges) == 186
    assert sum(e.exact for e in edges) == 21


def test_scheme_ten_terminals_is_pinned():
    # Every 3-5 subset of ten terminals goes through the component oracle's
    # search; leaf frames are decided by mask, not one child at a time.
    inst = uniform_box_instance(10, 5.0, 0, "all-1")
    res = st_msp_scheme(inst)
    assert res.size == 3
    assert is_feasible(inst, res.solution)
    edges = res.hypergraph.edges
    assert len(edges) == 627
    assert sum(e.cost for e in edges) == 1981
    assert sum(e.exact for e in edges) == 45


def _sqrt3_triangle_and_far_terminal():
    # The triangle wants its one-relay 3-set; terminal 3 hangs off a bead pair.
    s3 = math.sqrt(3)
    pts = [Point.at(0, 0), Point.at(s3, 0), Point.at(s3 / 2, 1.5), Point.at(s3 + 2, 0)]
    return make_instance(pts, all_pairs_demands(4, 1), E2)


@pytest.mark.parametrize(
    "inst, k",
    [(pentagon_instance(), 5), (_sqrt3_triangle_and_far_terminal(), 3)],
    ids=["pentagon", "triangle-and-pair"],
)
def test_replacement_runs_on_the_component_hypergraph(inst, k):
    config = SchemeConfig(k=k)
    graph = build_component_hypergraph(inst, config)
    tree = [graph.edge_for((i, j)) for _, i, j in mst_pairs(inst)]
    result = local_replacement(graph, tree)
    assert all(any(e is g for g in graph.edges) for e in result.all_edges())

    scheme = st_msp_scheme(inst, config)
    assert scheme.selection == result.all_edges()
    witness_points = {p for e in scheme.selection for p in e.witness}
    assert scheme.solution.steiner
    assert set(scheme.solution.steiner) <= witness_points


# In a finite metric a pair witness is a chain of abstract beads, which the
# scheme places as chains next to the concrete relays of the other witnesses.


def _finite_instance(matrix, **fields):
    metric = {"type": "finite", "matrix": matrix, "delta": 5}
    return parse_instance(json.dumps(dict(metric=metric, **fields)))


def test_scheme_places_finite_bead_chains():
    inst = _finite_instance(
        [[0, 1, 2], [1, 0, 1], [2, 1, 0]], terminals=[0, 2], demands=[[0, 1, 1]]
    )
    res = st_msp_scheme(inst, SchemeConfig())
    assert res.size == 1
    assert res.solution.abstract
    assert not verify_feasible(inst, res.solution)


def test_scheme_finite_hub_and_bead_beat_the_bead_mst():
    # Node 0 is within unit distance of terminals 1-3; terminal 4 is two away
    # from terminals 1 and 2, so it joins through one bead.
    matrix = [
        [0, 1, 1, 1, 3],
        [1, 0, 2, 2, 2],
        [1, 2, 0, 2, 3],
        [1, 2, 2, 0, 3],
        [3, 2, 3, 3, 0],
    ]
    inst = _finite_instance(matrix, terminals=[1, 2, 3, 4], default_demand=1)
    res = st_msp_scheme(inst, SchemeConfig())
    assert res.size == 2
    assert sorted(res.solution.steiner, key=lambda p: p.is_abstract) == [
        Point.node(0),
        Point.bead(),
    ]
    assert not verify_feasible(inst, res.solution)
    assert len(mst_baseline(inst).steiner) == 3

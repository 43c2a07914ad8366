import math
import random
from fractions import Fraction

import pytest

from bruteforce import brute_min_purchase
from relaysynth import beads
from relaysynth.beads import (
    BeadEdge,
    SizeCapError,
    build_bead_graph,
    realize,
    tau_integral,
)
from relaysynth.connectivity import (
    element_maxflow,
    is_feasible,
    tau_star,
    verify_feasible,
)
from relaysynth.generators import draw_box_instance, pentagon_instance
from relaysynth.instances import (
    MetricSpace,
    Point,
    all_pairs_demands,
    bead_count,
    make_instance,
)
from relaysynth.survivable import sn_backend_primal_dual

E2 = MetricSpace.euclidean(2)


def two_terminals(d, r):
    return make_instance([Point.at(0, 0), Point.at(d, 0)], {(0, 1): r}, E2)


def test_bead_graph_positive_distance():
    inst = two_terminals(2.5, 2)
    bg = build_bead_graph(inst)
    assert [(e.copy, e.cost) for e in bg.pair_edges(0, 1)] == [(0, 2), (1, 2)]


def test_bead_graph_short_pair_gets_one_free_copy():
    inst = two_terminals(0.8, 2)
    bg = build_bead_graph(inst)
    assert [(e.copy, e.cost) for e in bg.pair_edges(0, 1)] == [(0, 0), (1, 1)]


def test_bead_graph_unit_distance_single_copy():
    inst = two_terminals(1.0, 1)
    bg = build_bead_graph(inst)
    assert [(e.copy, e.cost) for e in bg.pair_edges(0, 1)] == [(0, 0)]


def test_realize_equal_spacing():
    inst = two_terminals(3.0, 1)
    placement = realize(inst, [BeadEdge(0, 1, 0, 2)])
    assert [p.coords for p in placement.points] == [(1.0, 0.0), (2.0, 0.0)]
    assert placement.size == 2


def test_realize_zero_cost_edge_adds_nothing():
    inst = two_terminals(0.8, 1)
    placement = realize(inst, [BeadEdge(0, 1, 0, 0)])
    assert placement.points == ()
    assert is_feasible(inst, placement.solution)


def test_realize_parallel_chains_coincide_but_stay_disjoint():
    inst = two_terminals(3.0, 2)
    placement = realize(inst, [BeadEdge(0, 1, 0, 2), BeadEdge(0, 1, 1, 2)])
    assert placement.size == 4
    coords = [p.coords for p in placement.points]
    assert coords.count((1.0, 0.0)) == 2 and coords.count((2.0, 0.0)) == 2
    assert is_feasible(inst, placement.solution)  # lambda = 2 via twin chains


def test_realize_size_always_matches_cost():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(2, 5)
        pts = [Point.at(rng.uniform(0, 4), rng.uniform(0, 4)) for _ in range(n)]
        inst = make_instance(pts, {(0, 1): 2}, E2)
        bg = build_bead_graph(inst)
        selected = [e for e in bg.edges if rng.random() < 0.5]
        placement = realize(inst, selected)
        assert placement.size == sum(e.cost for e in selected)


def test_combinatorially_feasible_selection_realizes_feasible():
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randint(2, 6)
        pts = [Point.at(rng.uniform(0, 4), rng.uniform(0, 4)) for _ in range(n)]
        demands = {}
        for i in range(n):
            for j in range(i + 1, n):
                r = rng.choice((0, 1, 2))
                if r:
                    demands[(i, j)] = r
        if not demands:
            demands[(0, 1)] = 1
        unstable = [v for v in range(n) if rng.random() < 0.3]
        inst = make_instance(pts, demands, E2, unstable=unstable)
        res = tau_integral(inst)
        # the selection satisfies every demand on the terminal multigraph with
        # edge-disjoint and unstable-disjoint paths
        caps = {}
        for e in res.selected:
            caps[(e.u, e.v)] = caps.get((e.u, e.v), 0) + 1
        for (i, j), r in inst.demands.items():
            flow, _, _, _ = element_maxflow(
                caps, inst.unstable, i, j, extra_nodes=range(n)
            )
            assert flow >= r
        # and realizing the selection yields a verified feasible placement
        placement = realize(inst, res.selected)
        assert not verify_feasible(inst, placement.solution)


def test_tau_integral_examples():
    assert tau_integral(two_terminals(3.0, 1)).cost == 2
    assert tau_integral(two_terminals(3.0, 2)).cost == 4
    pts = [
        Point.at(
            math.cos(math.pi / 2 + 2 * math.pi * i / 5),
            math.sin(math.pi / 2 + 2 * math.pi * i / 5),
        )
        for i in range(5)
    ]
    pent = make_instance(pts, all_pairs_demands(5, 1), E2)
    res = tau_integral(pent)
    assert res.cost == 4  # bead spanning tree over unit-overstepping pairs
    assert res.certified


def test_tau_integral_respects_terminal_cap():
    pts = [Point.at(i * 0.3, 0) for i in range(12)]
    inst = make_instance(pts, {(0, 11): 1}, E2)
    with pytest.raises(SizeCapError):
        tau_integral(inst)


def test_tau_integral_sandwich_against_tau_star():
    rng = random.Random(29)
    for _ in range(15):
        n = rng.randint(3, 6)
        pts = [Point.at(rng.uniform(0, 4), rng.uniform(0, 4)) for _ in range(n)]
        demands = {}
        for i in range(n):
            for j in range(i + 1, n):
                r = rng.choice((0, 0, 1, 2))
                if r:
                    demands[(i, j)] = r
        if not demands:
            demands[(0, 1)] = 1
        inst = make_instance(pts, demands, E2)
        res = tau_integral(inst)
        assert res.lower_bound <= res.cost
        assert res.lower_bound == tau_star(inst).value


def test_finite_metric_abstract_realization():
    matrix = [
        [0, 3, 3],
        [3, 0, 3],
        [3, 3, 0],
    ]
    fin = MetricSpace.finite(matrix, delta=5)
    inst = make_instance(
        [Point.node(0), Point.node(1), Point.node(2)], {(0, 1): 1, (1, 2): 1}, fin
    )
    res = tau_integral(inst)
    assert res.cost == 4  # two chains of two beads each
    placement = realize(inst, res.selected)
    assert placement.solution.abstract
    assert placement.size == 4
    assert all(p.is_abstract for p in placement.points)
    assert not verify_feasible(inst, placement.solution)
    # abstract beads only carry their chain hops
    for a, b in placement.solution.edges:
        assert a < 3 or b < 3 or abs(a - b) == 1


def test_tau_integral_matches_exhaustive_minimum():
    # Differential test of the search, and of the pd backend that shares its
    # starting purchase, against every count map, cheapest first; the pool
    # mixes demands 1 and 2 with unstable terminals, and holds searches that
    # stop at ceil(tau*) and searches that run out.
    rng = random.Random(2)
    stops = set()
    for _ in range(40):
        n = rng.choice((3, 4, 4))
        pts = [Point.at(rng.uniform(0, 4.5), rng.uniform(0, 4.5)) for _ in range(n)]
        demands = {}
        for i in range(n):
            for j in range(i + 1, n):
                r = rng.choice((0, 1, 2, 2))
                if r:
                    demands[(i, j)] = r
        if not demands:
            demands[(0, 1)] = rng.choice((1, 2))
        unstable = [v for v in range(n) if rng.random() < 0.4]
        inst = make_instance(pts, demands, E2, unstable=unstable)
        costs = {
            (i, j): bead_count(inst.terminal_distance(i, j))
            for i in range(n)
            for j in range(i + 1, n)
        }
        res = tau_integral(inst)
        assert res.cost == brute_min_purchase(n, inst.demands, inst.unstable, costs)
        assert res.certified
        assert res.cost <= sn_backend_primal_dual(inst).cost
        again = tau_integral(inst)
        assert (again.nodes_explored, again.stop) == (res.nodes_explored, res.stop)
        stops.add(res.stop)
    assert stops == {"bound", "exhausted"}


def _probe_pool():
    # Ten-terminal draws; draw 0 once ran into the node cap.
    rng = random.Random(11)
    return [draw_box_instance(rng, 10, 5.0, "random") for _ in range(10)]


@pytest.fixture(scope="module")
def probe_results():
    return [tau_integral(inst) for inst in _probe_pool()]


def test_ten_terminal_pool_certified_inside_the_search(probe_results):
    results = probe_results
    assert [r.cost for r in results] == [11, 10, 10, 9, 8, 6, 7, 9, 10, 9]
    for r in results:
        assert r.certified
        assert r.stop != "node_cap"
        assert r.nodes_explored <= beads._NODE_CAP


def test_ten_terminal_pool_search_effort(probe_results):
    # Pins the search effort that the rounded incumbent buys: the pool took
    # 116,261 nodes from a greedy-patch incumbent.  A second solve of every
    # draw repeats each count and stop.
    assert sum(r.nodes_explored for r in probe_results) == 23_999
    again = [tau_integral(inst) for inst in _probe_pool()]
    assert [(r.nodes_explored, r.stop) for r in again] == [
        (r.nodes_explored, r.stop) for r in probe_results
    ]


def test_stop_reasons(monkeypatch):
    draw0 = _probe_pool()[0]
    res = tau_integral(draw0)
    assert (res.stop, res.cost, math.ceil(res.lower_bound)) == ("bound", 11, 11)

    pent = pentagon_instance()
    res = tau_integral(pent)
    assert (res.stop, res.cost, res.lower_bound) == ("exhausted", 4, Fraction(5, 2))
    assert res.certified

    assert sn_backend_primal_dual(pent).stop is None

    monkeypatch.setattr(beads, "_NODE_CAP", 1)
    res = tau_integral(pent)
    assert (res.stop, res.nodes_explored, res.certified) == ("node_cap", 1, False)

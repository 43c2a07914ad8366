import math
import random
from fractions import Fraction

import networkx as nx
import pytest
from scipy.optimize import linprog

import relaysynth.connectivity
from relaysynth.beads import realize, tau_integral
from relaysynth.connectivity import (
    Biset,
    ConnectivityError,
    CopyGraph,
    DemandViolation,
    _deficiencies,
    _unit_deficiencies,
    FractionalBeadSolution,
    NonTreeComponentError,
    WitnessEdge,
    blocks,
    copy_table,
    dfs_cycle,
    element_maxflow,
    fractional_feasible,
    half_integral_witness,
    is_feasible,
    prune_minimal,
    r_components,
    tau_star,
    verify_feasible,
    violated_cuts,
)
from relaysynth.generators import uniform_box_instance
from relaysynth.instances import (
    MetricSpace,
    Point,
    SolutionGraph,
    all_pairs_demands,
    bead_count,
    make_instance,
)

from bruteforce import (
    brute_q_connectivity,
    edge_multiplicities,
    per_pair_deficiencies,
    prune_by_rechecks,
)

E2 = MetricSpace.euclidean(2)


def pentagon_instance():
    pts = [
        Point.at(
            math.cos(math.pi / 2 + 2 * math.pi * i / 5),
            math.sin(math.pi / 2 + 2 * math.pi * i / 5),
        )
        for i in range(5)
    ]
    return make_instance(pts, all_pairs_demands(5, 1), E2)


def square_instance():
    pts = [Point.at(0, 0), Point.at(1, 0), Point.at(1, 1), Point.at(0, 1)]
    return make_instance(pts, all_pairs_demands(4, 2), E2)


# ---------------------------------------------------------------------------
# Q-connectivity


def test_single_path_through_q_node():
    edges = [(0, 2), (2, 1)]
    assert element_maxflow(edge_multiplicities(edges), {2}, 0, 1)[0] == 1


def test_cycle_gives_two_paths():
    edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
    assert element_maxflow(edge_multiplicities(edges), set(), 0, 2)[0] == 2


def test_shared_q_node_caps_at_one():
    # two u-v routes through the same interior Q-node w
    edges = [(0, 2), (2, 1), (0, 3), (3, 2), (2, 4), (4, 1)]
    assert element_maxflow(edge_multiplicities(edges), {2}, 0, 1)[0] == 1


def test_q_connectivity_rejects_equal_endpoints():
    with pytest.raises(ConnectivityError):
        element_maxflow(edge_multiplicities([(0, 1)]), set(), 0, 0)


def test_parallel_edges_counted_by_capacity():
    flow, _ = element_maxflow({(0, 1): 2}, set(), 0, 1)
    assert flow == 2


def test_oracle_equivalence_random_graphs():
    rng = random.Random(17)
    for _ in range(120):
        n = rng.randint(3, 7)
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.45:
                    edges.append((i, j))
        q = {v for v in range(n) if rng.random() < 0.4}
        u, v = rng.sample(range(n), 2)
        flow = element_maxflow(edge_multiplicities(edges), q, u, v)[0]
        assert flow == brute_q_connectivity(edges, q, u, v)


def test_menger_duality_cut_size_matches_flow():
    rng = random.Random(23)
    for _ in range(80):
        n = rng.randint(3, 7)
        caps = {}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    caps[(i, j)] = 1
        q = {v for v in range(n) if rng.random() < 0.4}
        u, v = rng.sample(range(n), 2)
        flow, biset = element_maxflow(caps, q, u, v)
        crossing = [
            (a, b)
            for (a, b) in caps
            if (a in biset.inner) != (b in biset.inner)
            and not {a, b} & biset.boundary
        ]
        assert flow == len(biset.boundary) + len(crossing)
        assert u in biset.inner
        assert v not in biset.outer


def test_capped_flow_below_limit_equals_uncapped_flow():
    # A flow that stops below its cap found no augmenting path, so the cut it
    # returns is the min cut: the whole result must equal the uncapped one.
    rng = random.Random(31)
    below = 0
    for trial in range(300):
        n = rng.randint(2, 7)
        caps = {}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    caps[(i, j)] = (
                        rng.randint(1, 2) if trial % 2
                        else Fraction(rng.randint(1, 6), 4)
                    )
        q = {v for v in range(n) if rng.random() < 0.4}
        s, t = rng.sample(range(n), 2)
        r = rng.choice((1, 2))
        capped = element_maxflow(caps, q, s, t, limit=r)
        if capped[0] < r:
            below += 1
            assert capped == element_maxflow(caps, q, s, t)
    assert below >= 100


def _networkx_cut(caps, q, s, t, nodes):
    """Max flow and residual-reachable biset of the node-split digraph, by
    networkx on capacities scaled to integers."""
    scale = math.lcm(1, *(Fraction(c).denominator for c in caps.values()))
    scaled = {e: int(c * scale) for e, c in caps.items() if c > 0}
    big = sum(scaled.values()) + scale * (len(q) + 1)
    graph = nx.DiGraph()
    for v in nodes:
        graph.add_edge((v, "in"), (v, "out"), capacity=scale if v in q - {s, t} else big)
    for (a, b), c in scaled.items():
        graph.add_edge((a, "out"), (b, "in"), capacity=c)
        graph.add_edge((b, "out"), (a, "in"), capacity=c)
    value, flows = nx.maximum_flow(graph, (s, "out"), (t, "in"))

    def residual(u, v):
        forward = graph.edges[u, v]["capacity"] - flows[u][v] if graph.has_edge(u, v) else 0
        return forward + (flows[v][u] if graph.has_edge(v, u) else 0)

    reach = {(s, "out")}
    queue = [(s, "out")]
    while queue:
        u = queue.pop()
        for v in set(graph.successors(u)) | set(graph.predecessors(u)):
            if v not in reach and residual(u, v) > 0:
                reach.add(v)
                queue.append(v)
    inner = frozenset(v for v, side in reach if side == "out")
    return Fraction(value, scale), Biset(inner, frozenset(v for v, _ in reach))


def test_element_flow_cut_matches_networkx():
    # The biset comes from the flow's last, failing search; it must be the
    # residual-reachable side of any maximum flow, here networkx's.
    rng = random.Random(61)
    reached = below = 0
    for trial in range(150):
        n = rng.randint(2, 7)
        caps = {}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    caps[(i, j)] = (
                        rng.randint(0, 2) if trial % 2
                        else Fraction(rng.randint(0, 6), 4)
                    )
        q = {v for v in range(n) if rng.random() < 0.4}
        s, t = rng.sample(range(n), 2)
        value, cut = _networkx_cut(caps, q, s, t, range(n))
        assert element_maxflow(caps, q, s, t) == (value, cut)
        r = rng.choice((1, 2))
        flow, biset = element_maxflow(caps, q, s, t, limit=r)
        if value >= r:
            reached += 1
            assert flow >= r and biset is None
        else:
            below += 1
            assert (flow, biset) == (value, cut)
    assert reached >= 30 and below >= 30


# ---------------------------------------------------------------------------
# The lowlink check against the element flow


def _random_multigraph(rng, n_terminals):
    """Seeded terminals, demands and multiplicities 0-3 over up to 30 nodes."""
    pts = [Point.at(rng.uniform(0, 3), rng.uniform(0, 3)) for _ in range(n_terminals)]
    demands = {
        (i, j): rng.choice((1, 2, 2))
        for i in range(n_terminals)
        for j in range(i + 1, n_terminals)
        if rng.random() < 0.5
    } or {(0, n_terminals - 1): 2}
    inst = make_instance(pts, demands, E2)
    n = n_terminals + rng.randint(0, 30 - n_terminals)
    density = rng.choice((1.0, 2.0, 3.5)) / n
    caps = {}
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < density:
                caps[(a, b) if rng.random() < 0.5 else (b, a)] = rng.choice((0, 1, 1, 1, 2, 3))
    q = {v for v in range(n) if rng.random() < 0.4}
    # Extra nodes past the last key stay isolated.
    return inst, caps, q, range(n + rng.randint(0, 2))


def _also_separates(caps, q, cut):
    """The far end of a flow-1 edge cut is a Q-node that separates the pair too."""
    i, j = cut.pair
    inner = cut.witness.inner
    graph = nx.Graph([k for k, c in caps.items() if c > 0])
    graph.add_nodes_from((i, j))
    for (a, b), c in caps.items():
        far = b if a in inner else a
        if c > 0 and (a in inner) != (b in inner) and far in q - {i, j}:
            graph.remove_node(far)
            return not nx.has_path(graph, i, j)
    return False


def test_unit_deficiencies_match_element_flow():
    # The lowlink pass must yield exactly the violations the capped element
    # flow yields, cut for cut, on multigraphs with zero-capacity keys,
    # parallel edges, isolated nodes and Q sometimes holding an endpoint.
    rng = random.Random(4099)
    kinds = set()
    for _ in range(400):
        inst, caps, q, nodes = _random_multigraph(rng, rng.randint(2, 8))
        fast = list(_unit_deficiencies(inst, caps, q, nodes))
        assert fast == list(_deficiencies(inst, caps, q))
        for cut in fast:
            if cut.achieved == 0:
                kinds.add("no path")
            elif cut.witness.boundary:
                kinds.add("node")
            else:
                kinds.add("edge")
                if _also_separates(caps, q, cut):
                    kinds.add("edge-node tie")
    assert kinds == {"no path", "node", "edge", "edge-node tie"}


def test_copy_graph_adjacency_follows_its_counts():
    # buy and sell update the counts and the lowlink adjacency alone; after
    # every step the adjacency must answer as one built afresh from the counts.
    rng = random.Random(8191)
    steps = 0
    for seed in range(12):
        inst = uniform_box_instance(rng.randint(3, 7), 3.0, seed)
        table = copy_table(inst)
        graph = CopyGraph(inst, table)
        for _ in range(40):
            bought = sorted(graph.counts)
            room = [p for p in table.pair_cost if graph.counts.get(p, 0) < table.max_extra[p]]
            if bought and (not room or rng.random() < 0.4):
                graph.sell(rng.choice(bought))
            else:
                graph.buy(rng.choice(room))
            fresh = _unit_deficiencies(
                inst, table.caps(graph.counts), inst.unstable, range(inst.n)
            )
            assert graph.first_deficiency() == next(fresh, None)
            steps += 1
    assert steps == 480


def test_first_deficiency_rejects_fractional_capacity():
    inst = make_instance([Point.at(0, 0), Point.at(0.5, 0)], {(0, 1): 1}, E2)
    caps = {(0, 1): Fraction(1, 2)}
    with pytest.raises(ConnectivityError):
        next(_unit_deficiencies(inst, caps, inst.unstable, range(inst.n)))


# ---------------------------------------------------------------------------
# verify_feasible / prune_minimal


def test_square_two_connected_without_relays():
    inst = square_instance()
    assert is_feasible(inst, SolutionGraph.build(inst))


def test_far_pair_reports_zero_connectivity():
    inst = make_instance([Point.at(0, 0), Point.at(3, 0)], {(0, 1): 1}, E2)
    violations = verify_feasible(inst, SolutionGraph.build(inst))
    assert len(violations) == 1
    assert violations[0].pair == (0, 1)
    assert violations[0].achieved == 0


def test_single_chain_cannot_serve_demand_two():
    inst = make_instance([Point.at(0, 0), Point.at(3, 0)], {(0, 1): 2}, E2)
    sol = SolutionGraph.build(inst, [Point.at(1, 0), Point.at(2, 0)])
    violations = verify_feasible(inst, sol)
    assert len(violations) == 1
    assert violations[0].achieved == 1
    # the witness cut is the first edge of the chain: 0 reaches nothing past it
    assert violations[0].witness == Biset(frozenset({0}), frozenset({0}))


def test_prune_removes_redundant_relay():
    # the relay's spokes are the longest edges, so they fall first and the
    # isolated relay is dropped in the node pass
    inst = make_instance([Point.at(0, 0), Point.at(0.4, 0)], {(0, 1): 1}, E2)
    sol = SolutionGraph.build(inst, [Point.at(0.2, 0.9)])
    pruned = prune_minimal(inst, sol)
    assert len(pruned.steiner) == 0
    assert set(pruned.edges) == {(0, 1)}


def test_prune_order_is_longest_edge_first():
    # with the relay on the segment, the direct edge is the longest and goes
    # first, which leaves the relay critical: pruning is order-faithful, not
    # size-minimizing
    inst = make_instance([Point.at(0, 0), Point.at(1, 0)], {(0, 1): 1}, E2)
    pruned = prune_minimal(inst, SolutionGraph.build(inst, [Point.at(0.5, 0)]))
    assert len(pruned.steiner) == 1
    assert (0, 1) not in pruned.edges


def test_prune_keeps_minimal_solution():
    inst = make_instance([Point.at(0, 0), Point.at(2, 0)], {(0, 1): 1}, E2)
    sol = SolutionGraph.build(inst, [Point.at(1, 0)])
    pruned = prune_minimal(inst, sol)
    assert len(pruned.steiner) == 1
    assert len(pruned.edges) == 2


def test_prune_square_keeps_cycle_edges():
    inst = square_instance()
    pruned = prune_minimal(inst, SolutionGraph.build(inst))
    assert set(pruned.edges) == {(0, 1), (1, 2), (2, 3), (0, 3)}


def test_prune_output_is_edge_and_node_critical():
    rng = random.Random(31)
    for _ in range(10):
        n = rng.randint(3, 6)
        pts = [Point.at(rng.uniform(0, 3), rng.uniform(0, 3)) for _ in range(n)]
        demands = {}
        for i in range(n):
            for j in range(i + 1, n):
                r = rng.choice((0, 1, 1, 2))
                if r:
                    demands[(i, j)] = r
        if not demands:
            demands[(0, 1)] = 1
        inst = make_instance(pts, demands, E2)
        res = tau_integral(inst)
        sol = realize(inst, res.selected).solution
        pruned = prune_minimal(inst, sol)
        for edge in pruned.edges:
            assert not is_feasible(inst, pruned.without_edge(edge))
        for node in pruned.steiner_ids():
            assert not is_feasible(inst, pruned.without_steiner(node))


def _random_solution(rng):
    """Seeded terminals (some unstable), Steiner points and a random edge subset."""
    n = rng.randint(3, 6)
    pts = [Point.at(rng.uniform(0, 2.5), rng.uniform(0, 2.5)) for _ in range(n)]
    demands = {
        (i, j): rng.choice((1, 2))
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.5
    } or {(0, 1): 2}
    unstable = [v for v in range(n) if rng.random() < 0.4]
    inst = make_instance(pts, demands, E2, unstable=unstable)
    steiner = [Point.at(rng.uniform(0, 2.5), rng.uniform(0, 2.5)) for _ in range(rng.randint(0, 12))]
    full = SolutionGraph.build(inst, steiner)
    keep = rng.choice((1.0, 0.9, 0.7))
    edges = {e: l for e, l in full.edges.items() if rng.random() < keep}
    return inst, SolutionGraph(inst, steiner, edges)


def test_is_feasible_matches_flow_check():
    # is_feasible reads the lowlink pass; verify_feasible runs the element
    # flow of every demand.  Their verdicts must agree.
    rng = random.Random(71)
    verdicts = set()
    for _ in range(300):
        inst, sol = _random_solution(rng)
        feasible = is_feasible(inst, sol)
        assert feasible == (not verify_feasible(inst, sol))
        verdicts.add(feasible)
    assert verdicts == {True, False}


def _random_fractional_caps(rng):
    """Seeded terminals (some unstable), demands 0-2 and Fraction pair
    capacities over the denominators 1, 2, 3, 4 and 6."""
    n = rng.randint(3, 8)
    pts = [Point.at(rng.uniform(0, 3), rng.uniform(0, 3)) for _ in range(n)]
    demands = {}
    for i in range(n):
        for j in range(i + 1, n):
            r = rng.choice((0, 1, 2, 2))
            if r:
                demands[(i, j)] = r
    unstable = [v for v in range(n) if rng.random() < 0.4]
    inst = make_instance(pts, demands or {(0, n - 1): 2}, E2, unstable=unstable)
    density = rng.choice((0.4, 0.7, 1.0))
    caps = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                den = rng.choice((1, 2, 3, 4, 6))
                caps[(i, j)] = Fraction(rng.randint(0, 2 * den), den)
    return inst, caps


def test_deficiencies_match_the_per_pair_loop(monkeypatch):
    # Skipping the pairs the triangle inequality decides and scaling the
    # capacities to integers must leave every violation as one flow per
    # pair finds it: pair, demand, flow and cut, in order.
    flows = []
    maxflow = relaysynth.connectivity.element_maxflow

    def counted(*args, **kwargs):
        flows.append(args[2:4])
        return maxflow(*args, **kwargs)

    monkeypatch.setattr(relaysynth.connectivity, "element_maxflow", counted)
    rng = random.Random(5003)
    seen = {"caps": [0, 0], "graph": [0, 0]}  # cases with a skip, with a violation
    for case in range(2000):
        flows.clear()
        if case % 2:
            kind = "graph"
            inst, sol = _random_solution(rng)
            found = verify_feasible(inst, sol)
            expected = per_pair_deficiencies(inst, dict.fromkeys(sol.edges, 1), sol.q_nodes())
        else:
            kind = "caps"
            inst, caps = _random_fractional_caps(rng)
            found = list(violated_cuts(inst, caps))
            expected = per_pair_deficiencies(inst, caps, inst.unstable)
        assert found == expected
        seen[kind][0] += len(flows) < len(inst.demand_pairs())
        seen[kind][1] += bool(found)
    assert all(skips >= 100 and violated >= 100 for skips, violated in seen.values())


def test_a_q_node_never_sits_in_the_middle_of_a_chain():
    # Terminals 1 and 2 each reach unstable terminal 0 by two disjoint
    # routes, so kappa(1, 0) = kappa(0, 2) = 2, but 0 separates 1 from 2:
    # the pair (1, 2) must run its flow and fail with 0 on the boundary.
    pts = [Point.at(0, 0), Point.at(-1.6, 0), Point.at(1.6, 0)]
    inst = make_instance(pts, all_pairs_demands(3, 2), E2, unstable=[0])
    [cut] = violated_cuts(inst, {(0, 1): 2, (0, 2): 2})
    assert cut == DemandViolation((1, 2), 2, 1, Biset(frozenset({1}), frozenset({0, 1})))

    # The same shape as a solution graph: two relays on each side of 0.
    relays = [Point.at(-0.8, 0.4), Point.at(-0.8, -0.4), Point.at(0.8, 0.4), Point.at(0.8, -0.4)]
    [cut] = verify_feasible(inst, SolutionGraph.build(inst, relays))
    inner = frozenset({1, 3, 4})
    assert cut == DemandViolation((1, 2), 2, 1, Biset(inner, inner | {0}))


def test_scaled_flow_is_the_fraction_flow_times_the_scale():
    # Capacities times the lcm D of their denominators, Q-nodes of capacity
    # D and the limit r * D give D times the Fraction flow and the same cut,
    # also when one augmenting path carries the flow from below r past it.
    rng = random.Random(6007)
    overshoots = 0
    for _ in range(300):
        inst, caps = _random_fractional_caps(rng)
        scale = math.lcm(*(c.denominator for c in caps.values()))
        scaled = {e: int(c * scale) for e, c in caps.items()}
        for (s, t, r) in inst.demand_pairs():
            flow, cut = element_maxflow(caps, inst.unstable, s, t, limit=r)
            got = element_maxflow(scaled, inst.unstable, s, t, limit=r * scale, q_cap=scale)
            assert got == (flow * scale, cut)
            overshoots += flow > r
    assert overshoots >= 500


def test_deficiencies_reject_a_float_capacity():
    inst = make_instance([Point.at(0, 0), Point.at(0.5, 0)], {(0, 1): 1}, E2)
    with pytest.raises(ConnectivityError):
        list(violated_cuts(inst, {(0, 1): 0.5}))


def test_prune_output_is_critical_under_flow_check():
    # Pruning decides with is_feasible; its output is checked here with the
    # independent flow check: every edge and every Steiner node is needed.
    rng = random.Random(73)
    pruned_count = 0
    while pruned_count < 25:
        inst, sol = _random_solution(rng)
        if verify_feasible(inst, sol):
            continue
        pruned = prune_minimal(inst, sol)
        pruned_count += 1
        assert not verify_feasible(inst, pruned)
        for edge in pruned.edges:
            assert verify_feasible(inst, pruned.without_edge(edge))
        for node in pruned.steiner_ids():
            assert verify_feasible(inst, pruned.without_steiner(node))


def _prune_cases(rng):
    """Feasible random solutions, then realized exact-backend solutions with
    extra random relays."""
    while True:
        inst, sol = _random_solution(rng)
        if is_feasible(inst, sol):
            yield inst, sol
        n = rng.randint(3, 5)
        pts = [Point.at(rng.uniform(0, 3), rng.uniform(0, 3)) for _ in range(n)]
        demands = {
            (i, j): rng.choice((1, 2))
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        } or {(0, 1): 1}
        inst = make_instance(pts, demands, E2)
        extra = [Point.at(rng.uniform(0, 3), rng.uniform(0, 3)) for _ in range(rng.randint(1, 6))]
        yield inst, realize(inst, tau_integral(inst).selected, extra).solution


def test_prune_drops_the_relays_rechecks_drop():
    # prune_minimal drops the relays its edge pass leaves isolated, with no
    # feasibility check; the oracle tries every relay with is_feasible.
    rng = random.Random(79)
    cases = dropped = 0
    for inst, sol in _prune_cases(rng):
        pruned = prune_minimal(inst, sol)
        want = prune_by_rechecks(inst, sol, is_feasible)
        assert pruned.steiner == want.steiner
        assert pruned.edges == want.edges
        cases += 1
        dropped += len(pruned.steiner) < len(sol.steiner)
        if cases >= 60 and dropped >= 25:
            break


def test_prune_rejects_infeasible_input():
    inst = make_instance([Point.at(0, 0), Point.at(3, 0)], {(0, 1): 1}, E2)
    with pytest.raises(ConnectivityError):
        prune_minimal(inst, SolutionGraph.build(inst))


# ---------------------------------------------------------------------------
# blocks and R-components


def test_blocks_of_tree_are_single_edges():
    edges = [(0, 1), (1, 2), (1, 3)]
    assert blocks(edges) == sorted(
        [frozenset({(0, 1)}), frozenset({(1, 2)}), frozenset({(1, 3)})],
        key=lambda blk: sorted(blk),
    )


def test_blocks_of_cycle_is_one_block():
    edges = [(0, 1), (1, 2), (2, 0)]
    assert blocks(edges) == [frozenset({(0, 1), (0, 2), (1, 2)})]


def test_blocks_two_triangles_sharing_a_vertex():
    edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]
    result = blocks(edges)
    assert len(result) == 2
    assert frozenset({(0, 1), (0, 2), (1, 2)}) in result
    assert frozenset({(2, 3), (2, 4), (3, 4)}) in result


def test_blocks_match_networkx_on_random_graphs():
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(3, 9)
        edges = set()
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    edges.add((i, j))
        if not edges:
            continue
        got = {blk for blk in blocks(edges)}
        g = nx.Graph(list(edges))
        want = {
            frozenset(tuple(sorted(e)) for e in comp)
            for comp in nx.biconnected_component_edges(g)
        }
        assert got == want


def test_blocks_collapse_repeated_pairs_like_networkx():
    # Repeated pairs, in either orientation, collapse to one edge; isolated
    # nodes give no block.  Sparse graphs up to 30 nodes have many cut nodes.
    rng = random.Random(43)
    for _ in range(150):
        n = rng.randint(2, 30)
        density = rng.choice((1.2, 2.0, 3.0)) / n
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < density:
                    edges += [(i, j) if rng.random() < 0.5 else (j, i)] * rng.randint(1, 3)
        rng.shuffle(edges)
        g = nx.Graph(edges)
        want = {
            frozenset(tuple(sorted(e)) for e in comp)
            for comp in nx.biconnected_component_edges(g)
        }
        got = blocks(edges, nodes=range(n + 2))
        assert set(got) == want and len(got) == len(want)


def test_r_components_star():
    edges = [(3, 0), (3, 1), (3, 2)]  # relay 3 with three terminals
    comps = r_components(edges, {0, 1, 2})
    assert len(comps) == 1
    nodes, comp_edges = comps[0]
    assert nodes == {0, 1, 2, 3}
    assert comp_edges == {(0, 3), (1, 3), (2, 3)}


def test_r_components_all_terminals_empty():
    assert r_components([(0, 1), (1, 2)], {0, 1, 2}) == []


def test_r_components_two_relay_paths():
    edges = [(0, 4), (4, 1), (2, 5), (5, 3)]
    comps = r_components(edges, {0, 1, 2, 3})
    assert len(comps) == 2
    assert {frozenset(c[0]) for c in comps} == {
        frozenset({0, 1, 4}),
        frozenset({2, 3, 5}),
    }


def test_r_components_cover_all_relay_edges():
    rng = random.Random(53)
    for _ in range(20):
        n = rng.randint(4, 9)
        terminals = set(range(n // 2))
        edges = set()
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    edges.add((i, j))
        comps = r_components(edges, terminals)
        relay_edges = {
            e for e in edges if e[0] not in terminals or e[1] not in terminals
        }
        covered = set()
        for _, comp_edges in comps:
            covered |= comp_edges
        assert covered == relay_edges


def test_r_components_match_networkx():
    # Components of the relay-relay graph, each with every edge that has a
    # relay end, in order of the smallest relay; isolated relays come in
    # through ``nodes`` only.
    rng = random.Random(61)
    isolated = 0
    for _ in range(80):
        n = rng.randint(3, 12)
        terminals = set(rng.sample(range(n), rng.randint(1, n - 1)))
        edges = [
            (a, b) if rng.random() < 0.5 else (b, a)
            for a in range(n)
            for b in range(a + 1, n)
            if rng.random() < 0.25
        ]
        nodes = range(n + rng.randint(0, 2))
        graph = nx.Graph()
        graph.add_nodes_from(v for v in nodes if v not in terminals)
        graph.add_edges_from(e for e in edges if not set(e) & terminals)
        want = []
        for comp in sorted(nx.connected_components(graph), key=min):
            comp_edges = {tuple(sorted(e)) for e in edges if set(e) & comp}
            comp_nodes = set(comp).union(*comp_edges)
            want.append((frozenset(comp_nodes), frozenset(comp_edges)))
            isolated += not comp_edges
        assert r_components(edges, terminals, nodes) == want
    assert isolated >= 20


# ---------------------------------------------------------------------------
# DFS cycles


def test_dfs_cycle_star():
    seq = dfs_cycle([(3, 0), (3, 1), (3, 2)], {0, 1, 2})
    assert seq == [(0, 0), (3, 0), (1, 0), (3, 1), (2, 0), (3, 2)]


def test_dfs_cycle_path():
    seq = dfs_cycle([(0, 2), (2, 1)], {0, 1})
    assert seq == [(0, 0), (2, 0), (1, 0), (2, 1)]


def test_dfs_cycle_two_relays():
    seq = dfs_cycle([(0, 2), (2, 3), (3, 1)], {0, 1})
    assert [v for v, _ in seq] == [0, 2, 3, 1, 3, 2]


def test_dfs_cycle_counts_match_degree():
    rng = random.Random(61)
    for _ in range(20):
        n = rng.randint(3, 9)
        edges = []
        for v in range(1, n):
            edges.append((rng.randint(0, v - 1), v))
        adj = {}
        for a, b in edges:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        leaves = {v for v in adj if len(adj[v]) == 1}
        internal = set(adj) - leaves
        seq = dfs_cycle(edges, leaves)
        counts = {}
        for v, _ in seq:
            counts[v] = counts.get(v, 0) + 1
        for v in leaves:
            assert counts[v] == 1
        for v in internal:
            assert counts[v] == len(adj[v])
        # consecutive occurrences share a tree edge
        eset = {tuple(sorted(e)) for e in edges}
        for i in range(len(seq)):
            a = seq[i][0]
            b = seq[(i + 1) % len(seq)][0]
            assert tuple(sorted((a, b))) in eset


def test_dfs_cycle_rejects_internal_terminal():
    with pytest.raises(ConnectivityError):
        dfs_cycle([(0, 1), (1, 2)], {0, 1, 2})


# ---------------------------------------------------------------------------
# Half-integral witness and the cut relaxation


def test_witness_path_relay():
    inst = make_instance([Point.at(0, 0), Point.at(2, 0)], {(0, 1): 1}, E2)
    pruned = prune_minimal(inst, SolutionGraph.build(inst, [Point.at(1, 0)]))
    witness = half_integral_witness(pruned)
    assert witness.value == 1
    assert sorted((e.cost, e.x) for e in witness.entries) == [
        (1, Fraction(1, 2)),
        (1, Fraction(1, 2)),
    ]
    assert fractional_feasible(inst, witness) is None
    assert witness.value <= Fraction(5 * 1, 2)


def test_witness_terminal_tree_costs_nothing():
    pts = [Point.at(0, 0), Point.at(0.9, 0), Point.at(1.8, 0)]
    inst = make_instance(pts, {(0, 1): 1, (1, 2): 1}, E2)
    pruned = prune_minimal(inst, SolutionGraph.build(inst))
    witness = half_integral_witness(pruned)
    assert witness.value == 0
    assert all(e.x == 1 for e in witness.entries)
    assert fractional_feasible(inst, witness) is None


def test_witness_pentagon_star_attains_packing_budget():
    inst = pentagon_instance()
    sol = SolutionGraph.build(inst, [Point.at(0, 0)])
    pruned = prune_minimal(inst, sol)
    assert len(pruned.steiner) == 1
    witness = half_integral_witness(pruned)
    assert witness.value == Fraction(5, 2)  # exactly delta * |S| / 2
    assert fractional_feasible(inst, witness) is None


def test_witness_rejects_non_tree_component():
    inst = make_instance([Point.at(0, 0), Point.at(1.8, 0)], {(0, 1): 1}, E2)
    sol = SolutionGraph.build(
        inst, [Point.at(0.9, 0.2), Point.at(0.9, -0.2)]
    )  # both relays see both terminals and each other: a relay cycle
    with pytest.raises(NonTreeComponentError):
        half_integral_witness(sol)


def test_fractional_feasible_accepts_integral_solution():
    inst = make_instance([Point.at(0, 0), Point.at(3, 0)], {(0, 1): 2}, E2)
    entries = (
        WitnessEdge(0, 1, 0, 2, Fraction(1)),
        WitnessEdge(0, 1, 1, 2, Fraction(1)),
    )
    assert fractional_feasible(inst, FractionalBeadSolution(entries)) is None


def test_fractional_feasible_flags_empty_solution():
    inst = make_instance([Point.at(0, 0), Point.at(3, 0)], {(0, 1): 1}, E2)
    violation = fractional_feasible(inst, FractionalBeadSolution(()))
    assert violation is not None
    assert violation.pair == (0, 1)
    assert violation.witness.boundary == frozenset()


def test_fractional_feasible_square_half_capacities():
    inst = square_instance()
    sides = [(0, 1), (1, 2), (2, 3), (0, 3)]
    entries = []
    for a, b in sides:
        entries.append(WitnessEdge(a, b, 0, 0, Fraction(1, 2)))
        entries.append(WitnessEdge(a, b, 1, 1, Fraction(1, 2)))
    witness = FractionalBeadSolution(tuple(entries))
    assert fractional_feasible(inst, witness) is None
    # independent check: enumerate all proper subsets of the four corners
    caps = witness.pair_capacities()
    from itertools import combinations

    for size in (1, 2, 3):
        for inner in combinations(range(4), size):
            crossing = sum(
                c
                for (a, b), c in caps.items()
                if (a in inner) != (b in inner)
            )
            assert crossing >= 2


def test_unstable_terminal_enters_separation():
    # doubled chain u = w = v with w unstable and demand 2: every plain cut
    # carries capacity 2, but removing w disconnects, so the boundary cut fires
    pts = [Point.at(0, 0), Point.at(0.9, 0), Point.at(1.8, 0)]
    inst = make_instance(pts, {(0, 2): 2}, E2, unstable=[1])
    entries = (
        WitnessEdge(0, 1, 0, 0, Fraction(1)),
        WitnessEdge(0, 1, 1, 1, Fraction(1)),
        WitnessEdge(1, 2, 0, 0, Fraction(1)),
        WitnessEdge(1, 2, 1, 1, Fraction(1)),
    )
    violation = fractional_feasible(inst, FractionalBeadSolution(entries))
    assert violation is not None
    assert violation.witness.boundary == frozenset({1})
    assert violation.pair == (0, 2)


def _nx_cut(caps, nodes, i, j, scale):
    graph = nx.Graph()
    graph.add_nodes_from(nodes)
    for (a, b), c in caps.items():
        if a in nodes and b in nodes:
            graph.add_edge(a, b, capacity=int(c * scale))
    return Fraction(nx.minimum_cut_value(graph, i, j), scale)


def test_separation_matches_networkx_cuts():
    # Verdicts against networkx min cuts: a plain cut of at least r, and for
    # r = 2 a cut of at least 1 without each unstable w; every yielded cut
    # must be violated by its own crossing capacity.
    rng = random.Random(2024)
    verdicts = set()
    for _ in range(60):
        n = rng.randint(3, 6)
        pts = [Point.at(rng.uniform(0, 3), rng.uniform(0, 3)) for _ in range(n)]
        demands = {
            (i, j): rng.choice((1, 2))
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        } or {(0, n - 1): 2}
        unstable = [v for v in range(n) if rng.random() < 0.4]
        inst = make_instance(pts, demands, E2, unstable=unstable)
        # Capacity gathers at unstable nodes, so some solutions meet every
        # plain cut and fail only once an unstable node is removed.
        entries = []
        for i in range(n):
            for j in range(i + 1, n):
                hub = i in unstable or j in unstable
                for copy in range(rng.choice((1, 2) if hub else (0, 0, 1))):
                    x = Fraction(rng.randint(2 if hub else 1, 4), 4)
                    entries.append(WitnessEdge(i, j, copy, 1, x))
        fractional = FractionalBeadSolution(tuple(entries))
        caps = fractional.pair_capacities()

        plain_ok = removal_ok = True
        for (i, j, r) in inst.demand_pairs():
            if _nx_cut(caps, set(range(n)), i, j, 4) < r:
                plain_ok = False
            for w in inst.unstable if r == 2 else ():
                if w not in (i, j):
                    rest = set(range(n)) - {w}
                    if _nx_cut(caps, rest, i, j, 4) < r - 1:
                        removal_ok = False
        verdicts.add((plain_ok, removal_ok))
        expected = plain_ok and removal_ok
        assert (fractional_feasible(inst, fractional) is None) == expected

        for cut in violated_cuts(inst, caps):
            inner, boundary = cut.witness.inner, cut.witness.boundary
            i, j = cut.pair
            assert len(boundary) <= 1 and boundary <= inst.unstable
            assert not {i, j} & boundary and (i in inner) != (j in inner)
            crossing = sum(
                c
                for (a, b), c in caps.items()
                if not {a, b} & boundary and (a in inner) != (b in inner)
            )
            assert crossing < cut.required - len(boundary)
    assert {(True, True), (True, False), (False, True)} <= verdicts


def test_tau_star_examples():
    inst = make_instance([Point.at(0, 0), Point.at(3, 0)], {(0, 1): 1}, E2)
    assert tau_star(inst).value == 2
    inst = make_instance([Point.at(0, 0), Point.at(3, 0)], {(0, 1): 2}, E2)
    assert tau_star(inst).value == 4
    assert tau_star(square_instance()).value == 0


def test_tau_star_solution_is_separation_clean():
    inst = pentagon_instance()
    res = tau_star(inst)
    assert res.value == Fraction(5, 2)
    # every pentagon pair needs one bead and has k = 1 copy, of cost 1
    entries = tuple(WitnessEdge(i, j, 0, 1, x) for (i, j), x in res.bought.items())
    assert fractional_feasible(inst, FractionalBeadSolution(entries)) is None


def test_tau_star_reports_its_lp_work(monkeypatch):
    # One CoverLP solve per cut round, and the counters repeat exactly.
    inst = uniform_box_instance(14, 6.0, 0, "random")
    first = tau_star(inst)
    rounds = []

    def counted(*args):
        rounds.append(1)
        return violated_cuts(*args)

    monkeypatch.setattr(relaysynth.connectivity, "violated_cuts", counted)
    second = tau_star(inst)
    assert second.value == first.value
    assert (second.cuts, second.lp_solves, second.pivots) == (
        first.cuts,
        first.lp_solves,
        first.pivots,
    )
    assert first.lp_solves == len(rounds) >= 2


def test_tau_star_lower_bounds_integral_optimum():
    rng = random.Random(71)
    for _ in range(15):
        n = rng.randint(3, 6)
        pts = [Point.at(rng.uniform(0, 4), rng.uniform(0, 4)) for _ in range(n)]
        demands = {}
        for i in range(n):
            for j in range(i + 1, n):
                r = rng.choice((0, 1, 2))
                if r:
                    demands[(i, j)] = r
        if not demands:
            demands[(0, 1)] = 1
        inst = make_instance(
            pts, demands, E2, unstable=[v for v in range(n) if rng.random() < 0.3]
        )
        res = tau_integral(inst)
        assert tau_star(inst).value <= res.cost


def _full_cut_lp_value(inst, unstable):
    # Copies of a pair at bead count c > 0 cost c each; a pair within unit
    # distance has one free copy and further copies of cost one.
    k = inst.max_demand
    n = inst.n
    copies = []
    for i in range(n):
        for j in range(i + 1, n):
            c = bead_count(inst.terminal_distance(i, j))
            copies += [((i, j), c or min(copy, 1)) for copy in range(k)]
    rows, rhs = [], []
    for mask in range(1, 2 ** n - 1):
        inner = {v for v in range(n) if mask >> v & 1}
        for boundary in [set()] + [{w} for w in unstable - inner]:
            for (i, j, r) in inst.demand_pairs():
                if {i, j} & boundary or (i in inner) == (j in inner):
                    continue
                rows.append([
                    -1.0 if not set(p) & boundary and (p[0] in inner) != (p[1] in inner)
                    else 0.0
                    for p, _ in copies
                ])
                rhs.append(-(r - len(boundary)))
    res = linprog(
        [c for _, c in copies], A_ub=rows, b_ub=rhs,
        bounds=[(0, 1)] * len(copies), method="highs",
    )
    assert res.status == 0
    return res.fun


def test_tau_star_matches_full_cut_lp():
    # Every biset constraint with at most one unstable boundary node, listed
    # completely, against the constraint generation of tau_star.
    rng = random.Random(5)
    boundary_binds = 0
    for _ in range(150):
        n = rng.randint(3, 5)
        pts = [Point.at(rng.uniform(0, 4), rng.uniform(0, 4)) for _ in range(n)]
        demands = {
            (i, j): rng.choice((1, 2))
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.7
        } or {(0, n - 1): 2}
        unstable = [v for v in range(n) if rng.random() < 0.7]
        inst = make_instance(pts, demands, E2, unstable=unstable)
        full = _full_cut_lp_value(inst, inst.unstable)
        assert float(tau_star(inst).value) == pytest.approx(full, abs=1e-7)
        boundary_binds += full > _full_cut_lp_value(inst, frozenset()) + 1e-7
    # Rare in the plane: a bypass of an unstable node is seldom dearer than
    # an extra copy through it.  The sample must still hold a few.
    assert boundary_binds >= 3

import math
import random
import numpy as np
import pytest

from bruteforce import (
    brute_force_opt,
    connects_by_bit_bfs,
    connects_by_union_find,
    deepening_search,
    joining_children,
    reference_universe,
)
from relaysynth import steiner
from relaysynth.connectivity import is_feasible
from relaysynth.generators import uniform_box_instance
from relaysynth.instances import (
    EPS_GEO,
    InstanceError,
    MetricSpace,
    Point,
    all_pairs_demands,
    build_unit_disk_graph,
    make_instance,
)
from relaysynth.steiner import (
    OracleBudgetError,
    SchemeConfig,
    build_candidate_universe,
    build_component_hypergraph,
    exact_component_oracle,
    mst_baseline,
    mst_pairs,
)

E2 = MetricSpace.euclidean(2)
S3 = math.sqrt(3)


def pentagon_instance():
    pts = [
        Point.at(
            math.cos(math.pi / 2 + 2 * math.pi * i / 5),
            math.sin(math.pi / 2 + 2 * math.pi * i / 5),
        )
        for i in range(5)
    ]
    return make_instance(pts, all_pairs_demands(5, 1), E2)


def sqrt3_triangle():
    pts = [Point.at(0, 0), Point.at(S3, 0), Point.at(S3 / 2, 1.5)]
    return make_instance(pts, all_pairs_demands(3, 1), E2)


def test_mst_baseline_two_terminals():
    inst = make_instance([Point.at(0, 0), Point.at(3, 0)], all_pairs_demands(2, 1), E2)
    sol = mst_baseline(inst)
    assert len(sol.steiner) == 2
    assert is_feasible(inst, sol)


def test_mst_baseline_pentagon_uses_four_beads():
    sol = mst_baseline(pentagon_instance())
    assert len(sol.steiner) == 4


def test_mst_baseline_sqrt3_triangle():
    sol = mst_baseline(sqrt3_triangle())
    assert len(sol.steiner) == 2


def test_mst_baseline_rejects_partial_demands():
    inst = make_instance([Point.at(0, 0), Point.at(1, 0), Point.at(2, 0)],
                         {(0, 1): 1}, E2)
    with pytest.raises(InstanceError):
        mst_baseline(inst)
    inst2 = make_instance([Point.at(0, 0), Point.at(1, 0)], {(0, 1): 2}, E2)
    with pytest.raises(InstanceError):
        mst_baseline(inst2)


def test_oracle_pair_distance_three():
    inst = make_instance([Point.at(0, 0), Point.at(3, 0)], all_pairs_demands(2, 1), E2)
    res = exact_component_oracle(inst, [0, 1])
    assert res.cost == 2


def test_oracle_sqrt3_triple_hits_circumcenter():
    inst = sqrt3_triangle()
    res = exact_component_oracle(inst, [0, 1, 2])
    assert res.cost == 1
    (witness,) = res.witness
    cx, cy = witness.coords
    for t in inst.terminals:
        assert math.dist((cx, cy), t.coords) <= 1 + 1e-9


def test_oracle_distance_two_triple_needs_two_relays():
    pts = [Point.at(0, 0), Point.at(2, 0), Point.at(1, S3)]
    inst = make_instance(pts, all_pairs_demands(3, 1), E2)
    res = exact_component_oracle(inst, [0, 1, 2])
    assert res.cost == 2


def test_oracle_refuses_a_subset_above_its_bound():
    inst = uniform_box_instance(steiner._MAX_SUBSET + 1, 6.0, 0, "all-1")
    with pytest.raises(InstanceError, match="limited to small subsets"):
        exact_component_oracle(inst, range(inst.n))


def test_oracle_pair_cost_equals_bead_count():
    rng = random.Random(3)
    for _ in range(15):
        d = rng.uniform(0.2, 4.0)
        inst = make_instance(
            [Point.at(0, 0), Point.at(d, 0)], all_pairs_demands(2, 1), E2
        )
        res = exact_component_oracle(inst, [0, 1])
        assert res.cost == max(math.ceil(d - 1e-9) - 1, 0)


def test_oracle_witness_reuse_keeps_table_monotone(monkeypatch):
    monkeypatch.setattr(steiner, "_MAX_CANDIDATES", 600)
    rng = random.Random(8)
    for _ in range(8):
        n = rng.randint(3, 5)
        pts = [Point.at(rng.uniform(0, 2), rng.uniform(0, 2)) for _ in range(n)]
        inst = make_instance(pts, all_pairs_demands(n, 1), E2)
        config = SchemeConfig(k=min(n, 4))
        table = {e.nodes: e for e in build_component_hypergraph(inst, config).edges}
        for nodes, entry in table.items():
            for other, sub in table.items():
                if other < nodes:
                    # a set whose witness connects a subset caps that subset
                    assert sub.cost <= entry.cost or not _connects_subset(
                        inst, entry, other
                    )


def _connects_subset(inst, entry, subset):
    from relaysynth.steiner import _witness_connects

    return _witness_connects(inst, entry.witness, subset)


def test_hypergraph_counts_and_pair_costs():
    pts = [Point.at(0, 0), Point.at(0.5, 0), Point.at(0.5, 0.4)]
    inst = make_instance(pts, all_pairs_demands(3, 1), E2)
    graph = build_component_hypergraph(inst, SchemeConfig(k=3))
    assert len(graph.edges) == 4  # three pairs and one triple
    pair = graph.edge_for([0, 1])
    assert pair.cost == 0  # within unit distance
    triple = build_component_hypergraph(sqrt3_triangle(), SchemeConfig(k=3))
    assert triple.edge_for([0, 1, 2]).cost == 1


def test_hypergraph_budget_guard(monkeypatch):
    pts = [Point.at(i * 0.5, 0) for i in range(8)]
    inst = make_instance(pts, all_pairs_demands(8, 1), E2)
    monkeypatch.setattr(steiner, "_HYPERGRAPH_BUDGET", 10)
    with pytest.raises(InstanceError, match="budget"):
        build_component_hypergraph(inst, SchemeConfig(k=8))


def test_brute_force_pentagon_center():
    opt, points = brute_force_opt(pentagon_instance(), 2)
    assert opt == 1
    (p,) = points
    assert math.hypot(*p.coords) < 1e-6  # the circumcenter


def test_brute_force_square_needs_nothing():
    pts = [Point.at(0, 0), Point.at(1, 0), Point.at(1, 1), Point.at(0, 1)]
    inst = make_instance(pts, all_pairs_demands(4, 2), E2)
    assert brute_force_opt(inst, 1)[0] == 0


def test_brute_force_collinear_double_demand():
    inst = make_instance([Point.at(0, 0), Point.at(3, 0)], {(0, 1): 2}, E2)
    opt, points = brute_force_opt(inst, 4)
    assert opt == 4


def test_brute_force_budget_exhaustion():
    inst = make_instance([Point.at(0, 0), Point.at(3, 0)], {(0, 1): 2}, E2)
    with pytest.raises(OracleBudgetError, match="within budget"):
        brute_force_opt(inst, 3)


def test_two_grid_resolutions_agree_on_triangle(monkeypatch):
    # cross-validation: a coarse candidate universe (one layer of unit-circle
    # intersections) and the default two-layer one yield the same optimum
    inst = sqrt3_triangle()
    for depth in (1, 2):
        monkeypatch.setattr(steiner, "_CANDIDATE_DEPTH", depth)
        res = exact_component_oracle(inst, [0, 1, 2])
        assert res.cost == 1


def test_finite_metric_universe_uses_matrix_nodes():
    matrix = [
        [0, 2, 2, 1],
        [2, 0, 2, 1],
        [2, 2, 0, 1],
        [1, 1, 1, 0],
    ]
    fin = MetricSpace.finite(matrix, delta=5)
    inst = make_instance(
        [Point.node(0), Point.node(1), Point.node(2)], all_pairs_demands(3, 1), fin
    )
    res = exact_component_oracle(inst, [0, 1, 2])
    assert res.cost == 1  # the hub node connects all three terminals
    assert res.witness[0].index == 3


def _relation(universe):
    """The universe's bitmask rows expanded into a boolean matrix."""
    size = len(universe.points)
    assert len(universe.rows) == size
    assert all(row >> size == 0 for row in universe.rows)
    width = (size + 7) // 8
    packed = b"".join(row.to_bytes(width, "little") for row in universe.rows)
    packed = np.frombuffer(packed, dtype=np.uint8).reshape(size, width)
    return np.unpackbits(packed, axis=1, count=size, bitorder="little").astype(bool)


def _unit_disk_relation(universe, metric):
    size = len(universe.points)
    rel = np.zeros((size, size), dtype=bool)
    for i, j in build_unit_disk_graph(universe.points, metric):
        rel[i, j] = rel[j, i] = True
    return rel


@pytest.mark.parametrize("seed", range(30))
def test_universe_adjacency_matches_unit_disk_graph_at_the_tolerance(monkeypatch, seed):
    # The numpy relation of the universe and the scalar unit-disk predicate
    # must agree, also for a terminal pair planted right at the tolerance.
    rng = random.Random(seed)
    offset = rng.choice((-EPS_GEO / 2, EPS_GEO / 2, 2 * EPS_GEO))
    x, y = rng.uniform(0, 3), rng.uniform(0, 3)
    theta = rng.uniform(0, 2 * math.pi)
    r = 1 + offset
    pts = [Point.at(x, y), Point.at(x + r * math.cos(theta), y + r * math.sin(theta))]
    pts += [Point.at(rng.uniform(0, 3), rng.uniform(0, 3)) for _ in range(2)]
    inst = make_instance(pts, all_pairs_demands(4, 1), E2)
    with monkeypatch.context() as patch:
        patch.setattr(steiner, "_CANDIDATE_DEPTH", 1)
        patch.setattr(steiner, "_MAX_CANDIDATES", 200)
        universe = build_candidate_universe(inst)
    assert bool(universe.rows[0] >> 1 & 1) == (offset < EPS_GEO)
    assert np.array_equal(_relation(universe), _unit_disk_relation(universe, E2))

    # A pair at exactly 1 + EPS_GEO is within unit distance.
    pts = [Point.at(0.0, 0.0), Point.at(1.0 + EPS_GEO, 0.0)]
    inst = make_instance(pts, all_pairs_demands(2, 1), E2)
    universe = build_candidate_universe(inst)
    assert universe.rows[0] >> 1 & 1 and universe.rows[1] & 1
    assert np.array_equal(_relation(universe), _unit_disk_relation(universe, E2))

    # A finite metric with off-diagonal entries in [1, 2] is always a metric.
    near = 1 + 1e-12
    size = 6
    matrix = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            d = rng.choice((1, near, 1 + 1e-8, 1.5, 2))
            matrix[i][j] = matrix[j][i] = d
    matrix[0][1] = matrix[1][0] = near
    fin = MetricSpace.finite(matrix, delta=5)
    term_ids = rng.sample(range(1, size), 2) + [0]
    rng.shuffle(term_ids)
    inst = make_instance([Point.node(i) for i in term_ids], all_pairs_demands(3, 1), fin)
    universe = build_candidate_universe(inst)
    relation = _relation(universe)
    assert np.array_equal(relation, _unit_disk_relation(universe, fin))
    ids = [p.index for p in universe.points]
    assert relation[ids.index(0), ids.index(1)]


def test_hypergraph_budget_counts_only_sizes_up_to_n(monkeypatch):
    # Sizes beyond n add no subsets, so a huge k costs nothing extra.
    comb = math.comb
    sizes = []

    def counted_comb(n, j):
        sizes.append(j)
        assert len(sizes) <= 100, "the budget sum runs past n"
        return comb(n, j)

    monkeypatch.setattr(math, "comb", counted_comb)
    inst = pentagon_instance()
    huge = build_component_hypergraph(inst, SchemeConfig(k=10**12))
    assert sizes == [2, 3, 4, 5]
    assert huge.edges == build_component_hypergraph(inst, SchemeConfig(k=5)).edges


def _random_node_set(rng, relation, size):
    # Half the sets grow along the relation from one point, so that both
    # outcomes of the connectivity check occur often.
    order = len(relation)
    nodes = [rng.randrange(order)]
    while len(nodes) < size:
        if rng.random() < 0.5:
            near = np.flatnonzero(relation[rng.choice(nodes)]).tolist()
            if near:
                nodes.append(rng.choice(near))
                continue
        nodes.append(rng.randrange(order))
    rng.shuffle(nodes)
    return nodes


def test_bitmask_connects_matches_union_find_reference(monkeypatch):
    outcomes = {True: 0, False: 0}
    for seed in range(10):
        rng = random.Random(seed)
        inst = uniform_box_instance(5, 3.0, seed, "all-1")
        monkeypatch.setattr(steiner, "_MAX_CANDIDATES", rng.choice((20, 40, 80)))
        universe = build_candidate_universe(inst)
        relation = _relation(universe)
        for _ in range(150):
            nodes = _random_node_set(rng, relation, rng.randint(2, 14))
            distinct = sorted(set(nodes))
            targets = rng.sample(distinct, min(len(distinct), rng.randint(1, 5)))
            expected = connects_by_union_find(relation, nodes, targets)
            got = connects_by_bit_bfs(universe.rows, nodes, targets)
            assert got == expected, (seed, nodes, targets)
            outcomes[expected] += 1
    assert min(outcomes.values()) >= 100, outcomes


def _reference_case(kind):
    """(instance, depth, cap) for one kind of cut, at the current block size."""
    if kind == "none":
        inst = uniform_box_instance(3, 1.5, 0, "all-1")
        return inst, 2, 3000
    if kind == "count3":
        # One pair needs three beads, and nothing is cut.
        inst = uniform_box_instance(6, 3.0, 1, "all-1")
        return inst, 1, 3000
    if kind in ("count1", "count2"):
        # 36 points start the bead step: origin block 1 is the count-1
        # layer, blocks 2 and 3 the two steps of the count-2 layer.
        inst = uniform_box_instance(6, 2.0, 0, "all-1")
        terminals = [p.coords for p in inst.terminals]
        blocks = [b for b, _ in reference_universe(terminals, 1, 3000, EPS_GEO)[3]]
        if kind == "count1":
            # Five points before the layer ends: at a block size of 16 that
            # point comes from the second block of pairs.
            cap = blocks.index(2) - 5
        else:
            cap = (blocks.index(3) + len(blocks)) // 2
        return inst, 1, cap
    inst = uniform_box_instance(5, 3.0, 0, "all-1")
    terminals = [p.coords for p in inst.terminals]
    origin = reference_universe(terminals, 2, 1500, EPS_GEO)[3]
    chunk = steiner._CHUNK
    # The first point that a block's second or later chunk contributes.
    first = next(i for i, (_, row) in enumerate(origin) if row >= chunk)
    if kind == "boundary":
        # The cap fills on the last new row of a chunk; the next new row,
        # in a later chunk, finds it full.
        cap = first
    else:
        cap = first - 7
        assert origin[cap][1] % chunk not in (0, chunk - 1)
    return inst, 2, cap


# No output may depend on the block size: the shipped one, a small one that
# puts many block edges inside the relation, and a large one.
@pytest.mark.parametrize("chunk", [steiner._CHUNK, 16, 1024])
@pytest.mark.parametrize(
    "kind", ["inside", "boundary", "none", "count1", "count2", "count3"]
)
def test_universe_matches_row_by_row_reference(monkeypatch, chunk, kind):
    monkeypatch.setattr(steiner, "_CHUNK", chunk)
    inst, depth, cap = _reference_case(kind)
    monkeypatch.setattr(steiner, "_CANDIDATE_DEPTH", depth)
    monkeypatch.setattr(steiner, "_MAX_CANDIDATES", cap)
    coords, adj, truncated, _ = reference_universe(
        [p.coords for p in inst.terminals], depth, cap, EPS_GEO
    )
    assert truncated == (kind in ("inside", "boundary", "count1", "count2"))

    # Rows are computed on first read, in any order, and only for points.
    shuffled = build_candidate_universe(inst)
    assert shuffled.rows._rows.count(None) == len(coords)
    packed = np.packbits(adj, axis=1, bitorder="little")
    order = list(range(len(coords)))
    random.Random(len(coords)).shuffle(order)
    for i in order:
        assert shuffled.rows[i] == int.from_bytes(packed[i].tobytes(), "little")
    with pytest.raises(IndexError):
        shuffled.rows[len(shuffled.rows)]

    universe = build_candidate_universe(inst)
    assert tuple(universe.points) == tuple(Point.at(*xy) for xy in coords)
    assert len(universe.rows) == len(coords)
    assert np.array_equal(_relation(universe), adj)
    assert universe.truncated == truncated
    for i, row in enumerate(universe.rows):
        bits = [j for j in range(len(coords)) if row >> j & 1]
        assert bits == np.flatnonzero(adj[i]).tolist()


def test_a_hypergraph_computes_only_the_rows_its_search_reads(monkeypatch):
    universes = []

    def recorded(instance):
        universes.append(build_candidate_universe(instance))
        return universes[-1]

    monkeypatch.setattr(steiner, "build_candidate_universe", recorded)
    build_component_hypergraph(pentagon_instance(), SchemeConfig())
    (universe,) = universes
    computed = len(universe.rows._rows) - universe.rows._rows.count(None)
    assert 0 < computed < len(universe.points)


def test_joining_children_match_a_bit_bfs_per_child(monkeypatch):
    # Each bit of the per-frame mask says whether adding that one point
    # connects the targets: every point is tried, chosen ones and subset
    # terminals included.
    outcomes = {True: 0, False: 0}
    terminal_children = {True: 0, False: 0}
    for seed in range(10):
        rng = random.Random(seed)
        inst = uniform_box_instance(5, 3.0, seed, "all-1")
        monkeypatch.setattr(steiner, "_MAX_CANDIDATES", rng.choice((20, 40, 80)))
        universe = build_candidate_universe(inst)
        rows, relation = universe.rows, _relation(universe)
        for _ in range(20):
            targets = rng.sample(range(inst.n), rng.randint(1, inst.n))
            nodes = targets + _random_node_set(rng, relation, rng.randint(1, 6))
            joins = joining_children(rows, nodes, targets)
            for c in range(len(rows)):
                expected = connects_by_bit_bfs(rows, nodes + [c], targets)
                assert bool(joins >> c & 1) == expected, (seed, nodes, targets, c)
                outcomes[expected] += 1
                if c in targets:
                    terminal_children[expected] += 1
    assert min(outcomes.values()) >= 100, outcomes
    assert min(terminal_children.values()) >= 100, terminal_children


def test_carried_component_masks_match_a_bfs_per_frame(monkeypatch):
    # Frames grow as the search grows them, from the targets merged one by
    # one, each child merging the components it touches.  At every frame the
    # AND of the masks is the reference's joins (one mask means every point
    # joins), and the masks OR to the frame's reach.
    frames = {"one": 0, "several": 0}
    for seed in range(10):
        rng = random.Random(seed)
        inst = uniform_box_instance(5, 3.0, seed, "all-1")
        monkeypatch.setattr(steiner, "_MAX_CANDIDATES", rng.choice((20, 40, 80)))
        rows = build_candidate_universe(inst).rows
        for _ in range(20):
            targets = sorted(rng.sample(range(inst.n), rng.randint(1, inst.n)))
            masks = []
            for t in targets:
                masks = steiner._merge_masks(masks, rows[t], t)
            chosen, barred, reach = [], 0, 0
            for t in targets:
                reach |= rows[t]
            untried = reach
            for _ in range(rng.randint(1, 5)):
                joins = -1
                for mask in masks:
                    joins &= mask
                expected = joining_children(rows, targets + chosen, targets)
                assert (-1 if len(masks) == 1 else joins) == expected, (seed, targets, chosen)
                assert untried & joins == untried & expected
                union = 0
                for mask in masks:
                    union |= mask
                assert union == reach
                frames["one" if len(masks) == 1 else "several"] += 1
                if not untried:
                    break
                c = rng.choice([b for b in range(len(rows)) if untried >> b & 1])
                low = 1 << c
                barred |= reach & ((low << 1) - 1)
                masks = steiner._merge_masks(masks, rows[c], c)
                chosen.append(c)
                reach |= rows[c]
                untried = reach & ~barred
    assert min(frames.values()) >= 100, frames


def test_a_planar_universe_builds_points_on_read(monkeypatch):
    # The search reads only rows; a Point is built for each point read.
    inst = pentagon_instance()
    coords, _ = steiner._candidate_coords(inst)
    built = []
    at = Point.at

    def counted(*xy):
        built.append(xy)
        return at(*xy)

    monkeypatch.setattr(Point, "at", staticmethod(counted))
    universe = build_candidate_universe(inst)
    assert built == []
    assert len(universe.points) == len(coords) == len(universe.rows)
    for i, xy in enumerate(coords):
        assert universe.points[i] == at(*xy)
    assert built == coords


def _outcome(search, *args):
    try:
        return search(*args)
    except OracleBudgetError:
        return "budget"


def test_the_search_accepts_what_a_bit_bfs_accepts(monkeypatch):
    # The mask-tested search and the reference search with a BFS per leaf
    # find the same set, or run out of states at the same count.
    monkeypatch.setattr(steiner, "_MAX_CANDIDATES", 60)
    monkeypatch.setattr(steiner, "_STATE_CAP", 3000)
    for seed in range(6):
        rng = random.Random(seed)
        inst = uniform_box_instance(5, 3.0, seed, "all-1")
        universe = build_candidate_universe(inst)
        rows = universe.rows
        for _ in range(4):
            subset = sorted(rng.sample(range(inst.n), rng.randint(2, inst.n)))

            def by_bfs(chosen):
                return connects_by_bit_bfs(rows, subset + list(chosen), subset)

            for size in range(4):
                masked = _outcome(steiner._deepening_search, universe, subset, size)
                bfs = _outcome(deepening_search, rows, subset, size, 3000, by_bfs, False)
                assert masked == bfs, (seed, subset, size)


def _least_cap(search):
    """The least state cap at which ``search(cap)`` completes, by doubling
    and then bisection, with its outcome at that cap."""
    lo, hi = 0, 1
    while True:
        try:
            outcome = search(hi)
            break
        except OracleBudgetError:
            lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            outcome = search(mid)
            hi = mid
        except OracleBudgetError:
            lo = mid
    return hi, outcome


def test_the_search_needs_exactly_the_states_of_the_seen_set_search(monkeypatch):
    # Each set is generated once, along its least valid order, and the sets
    # come in the order in which the reference's seen-set DFS first meets
    # them: both find the same set at the same state count, or exhaust the
    # size at the same count.
    outcomes = {"hit": 0, "exhausted": 0}
    for seed in range(12):
        rng = random.Random(seed)
        n = rng.randint(4, 6)
        inst = uniform_box_instance(n, rng.choice((2.0, 3.0, 4.0)), seed, "all-1")
        monkeypatch.setattr(steiner, "_CANDIDATE_DEPTH", rng.choice((1, 2)))
        monkeypatch.setattr(steiner, "_MAX_CANDIDATES", rng.choice((30, 60, 120)))
        universe = build_candidate_universe(inst)
        rows = universe.rows
        for _ in range(10):
            subset = sorted(rng.sample(range(n), rng.randint(2, n)))
            size = rng.randint(1, 3)

            def by_bfs(chosen):
                return connects_by_bit_bfs(rows, subset + list(chosen), subset)

            needed, expected = _least_cap(
                lambda cap: deepening_search(rows, subset, size, cap, by_bfs, False)
            )
            monkeypatch.setattr(steiner, "_STATE_CAP", needed)
            assert steiner._deepening_search(universe, subset, size) == expected
            monkeypatch.setattr(steiner, "_STATE_CAP", needed - 1)
            with pytest.raises(OracleBudgetError):
                steiner._deepening_search(universe, subset, size)
            outcomes["exhausted" if expected is None else "hit"] += 1
    assert sum(outcomes.values()) >= 100, outcomes
    assert outcomes["hit"] >= 30 and outcomes["exhausted"] > 0, outcomes


@pytest.mark.parametrize(
    "subset, depth, needed, found",
    [
        ((0, 1, 2, 3, 4), 1, 1353, 2),
        ((0, 1, 2, 3), 2, 12005, 2),
    ],
)
def test_oracle_search_effort_is_pinned(monkeypatch, subset, depth, needed, found):
    # The deepening search needs exactly `needed` states in its largest
    # size; one fewer ends it at the bead-MST fallback.
    inst = uniform_box_instance(5, 3.0, 4, "all-1")
    fallback = sum(cost for cost, _, _ in mst_pairs(inst, subset))
    assert fallback > found
    cap = 3000 if depth == 1 else 1500
    monkeypatch.setattr(steiner, "_CANDIDATE_DEPTH", depth)
    monkeypatch.setattr(steiner, "_MAX_CANDIDATES", cap)
    universe = build_candidate_universe(inst)

    def oracle(state_cap):
        monkeypatch.setattr(steiner, "_STATE_CAP", state_cap)
        return exact_component_oracle(inst, subset, universe)

    short = oracle(needed - 1)
    assert (short.cost, short.exact) == (fallback, False)
    enough = oracle(needed)
    assert (enough.cost, enough.exact) == (found, not universe.truncated)

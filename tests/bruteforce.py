"""Independent oracles used by the tests; no imports from the solver paths
they check beyond plain data types.

Exceptions: ``deepening_search`` is the seen-set search that the
component oracle's canonical order is checked against: a DFS that records
every set it meets, with a predicate per full-size set in place of the
oracle's component masks.  ``brute_force_opt``, a whole-instance optimum
built on it, reads the solver's own candidate universe and feasibility
check.  ``joining_children`` is the per-frame BFS that the oracle's
carried component masks replace.  ``per_pair_deficiencies`` runs the
solver's element flow once per demand pair on the capacities as given.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Dict, List, Set, Tuple

import numpy as np

from relaysynth.connectivity import DemandViolation, UnionFind, element_maxflow, is_feasible
from relaysynth.instances import SolutionGraph
from relaysynth import steiner
from relaysynth.steiner import OracleBudgetError, build_candidate_universe


def enumerate_simple_paths(edges, u: int, v: int) -> List[Tuple[int, ...]]:
    adj: Dict[int, Set[int]] = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    paths: List[Tuple[int, ...]] = []
    if u not in adj or v not in adj:
        return paths

    def dfs(node, visited, trail):
        if node == v:
            paths.append(tuple(trail))
            return
        for w in sorted(adj[node]):
            if w not in visited:
                visited.add(w)
                trail.append(w)
                dfs(w, visited, trail)
                trail.pop()
                visited.discard(w)

    dfs(u, {u}, [u])
    return paths


def edge_multiplicities(edges) -> Dict[Tuple[int, int], int]:
    """Pair capacities of an edge list: each repeated pair is one more copy."""
    caps: Dict[Tuple[int, int], int] = {}
    for a, b in edges:
        key = (min(a, b), max(a, b))
        caps[key] = caps.get(key, 0) + 1
    return caps


def brute_q_connectivity(edges, q, u: int, v: int) -> int:
    """Largest family of u-v paths pairwise disjoint in edges and interior
    Q-nodes, by exhaustive search over simple paths."""
    qset = set(q) - {u, v}
    raw = enumerate_simple_paths(edges, u, v)
    items = []
    for trail in raw:
        pedges = frozenset(
            tuple(sorted((trail[i], trail[i + 1]))) for i in range(len(trail) - 1)
        )
        pq = frozenset(n for n in trail[1:-1] if n in qset)
        items.append((pedges, pq))

    best = [0]

    def rec(idx, used_edges, used_q, count):
        if count + (len(items) - idx) <= best[0]:
            return
        if idx == len(items):
            best[0] = max(best[0], count)
            return
        pedges, pq = items[idx]
        if not (pedges & used_edges) and not (pq & used_q):
            rec(idx + 1, used_edges | pedges, used_q | pq, count + 1)
        rec(idx + 1, used_edges, used_q, count)

    rec(0, frozenset(), frozenset(), 0)
    return best[0]


def per_pair_deficiencies(instance, caps, q) -> List[DemandViolation]:
    """The unmet demands of the capacities ``caps`` with Q-nodes ``q``, in
    order: one element flow per demand pair, capped at its demand, with no
    pair skipped and no scaling.  The reference for connectivity's
    _deficiencies, which skips the pairs the triangle inequality decides and
    runs its flows on integers."""
    found = []
    for (i, j, r) in instance.demand_pairs():
        flow, biset = element_maxflow(caps, q, i, j, limit=r)
        if biset is not None:
            found.append(DemandViolation((i, j), r, flow, biset))
    return found


def brute_min_purchase(n: int, demands, unstable, bead_cost) -> int:
    """Least cost of a multiset of bead copies meeting every demand, by trying
    every count map in order of cost.

    ``bead_cost`` maps each pair i < j of the n terminals to its bead count.
    Each pair has k = max(1, largest demand) parallel copies: the first is
    free when the pair needs no bead, and every other copy costs its bead
    count, or one on a free pair.  A count map meets the demand r of (i, j)
    when brute_q_connectivity on its multigraph, with each copy subdivided by
    a node of its own outside Q = ``unstable``, reaches r.
    """
    k = max([1, *demands.values()])
    pairs = sorted(bead_cost)
    options = []  # per pair: (copies, their cost)
    for p in pairs:
        free = 1 if bead_cost[p] == 0 else 0
        price = max(1, bead_cost[p])
        options.append([(free + c, c * price) for c in range(k - free + 1)])
    purchases = sorted(
        (sum(cost for _, cost in choice), [copies for copies, _ in choice])
        for choice in product(*options)
    )
    for cost, multiplicity in purchases:
        edges = []
        for (a, b), copies in zip(pairs, multiplicity):
            for _ in range(copies):
                mid = n + len(edges) // 2
                edges += [(a, mid), (mid, b)]
        if all(
            brute_q_connectivity(edges, unstable, i, j) >= r
            for (i, j), r in sorted(demands.items())
        ):
            return cost
    raise ValueError("no count map meets every demand")


def rounded_by_copies(table, bought) -> Dict[Tuple[int, int], int]:
    """The copies at x >= 1/2 after spreading each pair's capacity over its
    copies, counted per pair: the slow form of rounding a vertex at 1/2.

    A pair's capacity is its free copies plus its ``bought`` share; it fills
    the pair's copies one at a time, the free ones first, each up to one.
    Only bought copies are counted.
    """
    counts: Dict[Tuple[int, int], int] = {}
    for pair, y in bought.items():
        free = table.base_caps.get(pair, 0)
        left = free + y
        for copy in range(free + table.max_extra[pair]):
            x = min(1, left)
            left -= x
            if copy >= free and 2 * x >= 1:
                counts[pair] = counts.get(pair, 0) + 1
    return counts


def max_unit_separated_subset(points, eps: float = 1e-9) -> int:
    """Largest subset of the points with all pairwise distances > 1+eps."""
    import math

    n = len(points)
    best = 0
    for size in range(n, 0, -1):
        for combo in combinations(range(n), size):
            ok = True
            for i, j in combinations(combo, 2):
                if math.dist(points[i], points[j]) <= 1 + eps:
                    ok = False
                    break
            if ok:
                return size
    return best


def prune_by_rechecks(instance, solution, feasible):
    """Minimal pruning by feasibility checks alone: drop edges longest first,
    then try every Steiner node in reverse id order, and keep each removal
    after which ``feasible(instance, graph)`` holds."""
    graph = solution
    for edge in sorted(graph.edges, key=lambda e: (-float(graph.edges[e]), e)):
        candidate = graph.without_edge(edge)
        if feasible(instance, candidate):
            graph = candidate
    for node in sorted(graph.steiner_ids(), reverse=True):
        candidate = graph.without_steiner(node)
        if feasible(instance, candidate):
            graph = candidate
    return graph


def connects_by_union_find(adj, nodes, targets) -> bool:
    """Whether the targets lie in one class of the relation ``adj`` (a bool
    matrix) restricted to the nodes, by union-find over every node pair."""
    nodes = list(nodes)
    joined = UnionFind(nodes)
    for i, u in enumerate(nodes):
        row = adj[u]
        for v in nodes[i + 1:]:
            if row[v]:
                joined.union(u, v)
    root = joined.find(targets[0])
    return all(joined.find(t) == root for t in targets[1:])


def connects_by_bit_bfs(rows, nodes, targets) -> bool:
    """Whether the targets, which are among the nodes, lie in one component
    of the unit-disk graph that the bitmask ``rows`` induce on the nodes; a
    bit BFS from the first target."""
    pending = 0
    for v in nodes:
        pending |= 1 << v
    goal = 0
    for t in targets:
        goal |= 1 << t
    frontier = 1 << targets[0]
    pending ^= frontier
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        reached = rows[low.bit_length() - 1] & pending
        pending ^= reached
        frontier |= reached
    return not pending & goal


def joining_children(rows, nodes, targets) -> int:
    """Bitmask of the points c for which ``nodes + [c]`` connects the targets,
    which are among the nodes, in the unit-disk graph that ``rows`` induce.

    One bit BFS per component that holds a target.  When the targets share a
    component, every point joins them (-1, all bits set); otherwise a point
    joins them iff it touches each of those components, i.e. iff its bit is
    in the AND, over them, of the OR of their members' rows.
    """
    pending = 0
    for v in nodes:
        pending |= 1 << v
    goal = 0
    for t in targets:
        goal |= 1 << t
    touches = []
    while goal:
        frontier = goal & -goal
        pending ^= frontier
        component = frontier
        touch = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            row = rows[low.bit_length() - 1]
            touch |= row
            reached = row & pending
            pending ^= reached
            frontier |= reached
            component |= reached
        goal &= ~component
        touches.append(touch)
    if len(touches) == 1:
        return -1
    joins = touches[0]
    for touch in touches[1:]:
        joins &= touch
    return joins


def reference_universe(terminals, depth: int, cap: int, eps: float):
    """The planar candidate universe, deduplicated one row at a time.

    Candidates come in blocks: the unit-circle intersections of every point
    pair, ``depth`` times over; the interior bead points of every pair
    segment, grouped by bead count.  A row is kept unless its coordinates,
    each rounded by numpy's scalar ``round(x, 9)``, repeat a kept row's; the
    first new row past ``cap`` points stops the build as truncated.  The
    relation is the full pairwise difference array reduced over its last axis.

    Returns (coords, adjacency, truncated, origin), where origin[i] is the
    (block, row) that produced point i, with block -1 for the terminals.
    """
    coords = [(float(x), float(y)) for x, y in terminals]
    origin = [(-1, i) for i in range(len(coords))]
    seen = {tuple(round(c, 9) for c in np.asarray(xy)) for xy in coords}
    blocks = [0]
    truncated = False

    def push(block) -> bool:
        b = blocks[0]
        blocks[0] += 1
        for row_no, xy in enumerate(block):
            key = tuple(round(c, 9) for c in xy)
            if key in seen:
                continue
            if len(coords) >= cap:
                return True
            seen.add(key)
            coords.append((float(xy[0]), float(xy[1])))
            origin.append((b, row_no))
        return False

    def pairs():
        arr = np.asarray(coords, dtype=float)
        ii, jj = np.triu_indices(len(arr), k=1)
        return arr[ii], arr[jj]

    for _ in range(depth):
        if len(coords) < 2 or truncated:
            break
        a, b = pairs()
        diff = b - a
        d2 = (diff * diff).sum(axis=1)
        mask = (d2 > 0.0) & (d2 <= 4.0)
        if mask.any():
            a, b, diff, d2 = a[mask], b[mask], diff[mask], d2[mask]
            h = np.sqrt(np.maximum(1.0 - d2 / 4.0, 0.0))
            mid = (a + b) / 2.0
            offset = np.stack([-diff[:, 1], diff[:, 0]], axis=1)
            offset = offset * (h / np.sqrt(d2))[:, None]
            truncated = push(np.concatenate([mid + offset, mid - offset]))

    if not truncated and len(coords) >= 2:
        a, b = pairs()
        d = np.sqrt(((b - a) ** 2).sum(axis=1))
        counts = np.maximum(np.ceil(d - eps).astype(int) - 1, 0)
        for c in sorted(set(counts.tolist()) - {0}):
            sel = counts == c
            aa, bb = a[sel], b[sel]
            for step in range(1, c + 1):
                truncated = truncated or push(aa + (step / (c + 1)) * (bb - aa))
            if truncated:
                break

    arr = np.array(coords)
    diff = arr[:, None, :] - arr[None, :, :]
    adj = np.sqrt((diff * diff).sum(axis=2)) <= 1.0 + eps
    np.fill_diagonal(adj, False)
    return coords, adj, truncated, origin


def deepening_search(rows, targets, size: int, state_cap: int, accept, with_duplicates: bool):
    """The component oracle's search order by a seen set, with ``accept``
    tested on every full-size (multi)set in place of its component masks.

    A DFS over (multi)sets of the given size: every chosen point touches a
    target or an earlier choice, children come in ascending point order, a
    point repeats only ``with_duplicates``, and each distinct sorted tuple
    counts once against ``state_cap`` (the empty one included), past which
    it raises OracleBudgetError.  Returns the first accepted tuple or None.
    """
    if size == 0:
        return () if accept(()) else None
    seen = set()
    states = 1  # the empty choice
    if states > state_cap:
        raise OracleBudgetError("state cap exceeded")

    def grow(chosen, reach):
        nonlocal states
        untried = reach
        while untried:
            low = untried & -untried
            untried ^= low
            c = low.bit_length() - 1
            if not with_duplicates and c in chosen:
                continue
            nxt = tuple(sorted(chosen + (c,)))
            if nxt in seen:
                continue
            seen.add(nxt)
            states += 1
            if states > state_cap:
                raise OracleBudgetError("state cap exceeded")
            if len(nxt) < size:
                hit = grow(nxt, reach | rows[c])
            else:
                hit = nxt if accept(nxt) else None
            if hit is not None:
                return hit
        return None

    reach = 0
    for t in targets:
        reach |= rows[t]
    return grow((), reach)


def brute_force_opt(instance, max_s: int):
    """Smallest relay multiset (duplicates allowed) over the candidate
    universe that meets every demand, as (size, points).

    Iterative deepening on the size with ``deepening_search`` from the
    terminals, each full-size multiset checked by ``is_feasible`` on
    ``SolutionGraph.build``; raises OracleBudgetError when a size runs past
    ``steiner._STATE_CAP``, read at the call, or no size up to max_s is
    feasible.
    """
    universe = build_candidate_universe(instance)

    def feasible(chosen):
        points = [universe.points[c] for c in chosen]
        return is_feasible(instance, SolutionGraph.build(instance, points))

    for size in range(0, max_s + 1):
        hit = deepening_search(
            universe.rows, list(range(instance.n)), size, steiner._STATE_CAP, feasible, True
        )
        if hit is not None:
            return size, tuple(universe.points[c] for c in hit)
    raise OracleBudgetError("infeasible within budget (max_s=%d)" % max_s)

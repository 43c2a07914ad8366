import json
import math
import random

import pytest

from relaysynth.instances import (
    InstanceError,
    MetricSpace,
    Point,
    bead_count,
    build_unit_disk_graph,
    make_instance,
    pairwise_distance,
    parse_instance,
    serialize_instance,
)

from bruteforce import max_unit_separated_subset

E2 = MetricSpace.euclidean(2)


def test_unit_disk_boundary_cases():
    pts = [Point.at(0, 0), Point.at(1, 0)]
    assert set(build_unit_disk_graph(pts, E2)) == {(0, 1)}
    pts = [Point.at(0, 0), Point.at(1.5, 0)]
    assert build_unit_disk_graph(pts, E2) == {}
    pts = [Point.at(0, 0), Point.at(1, 0), Point.at(2, 0)]
    assert set(build_unit_disk_graph(pts, E2)) == {(0, 1), (1, 2)}


def test_unit_disk_symmetry_under_permutation():
    rng = random.Random(11)
    pts = [Point.at(rng.uniform(0, 3), rng.uniform(0, 3)) for _ in range(7)]
    base = set(build_unit_disk_graph(pts, E2))
    perm = list(range(7))
    rng.shuffle(perm)
    shuffled = [pts[i] for i in perm]
    mapped = set()
    for a, b in build_unit_disk_graph(shuffled, E2):
        mapped.add(tuple(sorted((perm[a], perm[b]))))
    assert mapped == base


def test_coincident_points_share_zero_length_edge():
    pts = [Point.at(1, 1), Point.at(1, 1)]
    edges = build_unit_disk_graph(pts, E2)
    assert edges == {(0, 1): 0.0}


def test_pairwise_distance_examples():
    assert pairwise_distance(Point.at(0, 0), Point.at(3, 4), E2) == 5.0
    assert pairwise_distance(Point.at(2, 2), Point.at(2, 2), E2) == 0.0
    fin = MetricSpace.finite([[0, 1, 2.5], [1, 0, 2], [2.5, 2, 0]], delta=5)
    from fractions import Fraction

    assert pairwise_distance(Point.node(1), Point.node(2), fin) == 2
    assert pairwise_distance(Point.node(0), Point.node(2), fin) == Fraction(5, 2)


def test_bead_count_guard_at_integers():
    assert bead_count(1.0) == 0
    assert bead_count(2.0) == 1
    assert bead_count(2.5) == 2
    assert bead_count(0.3) == 0


def test_parse_square_instance():
    text = json.dumps(
        {
            "metric": {"type": "euclidean", "dim": 2},
            "terminals": [[0, 0], [1, 0], [1, 1], [0, 1]],
            "unstable": [],
            "demands": [],
            "default_demand": 2,
        }
    )
    inst = parse_instance(text)
    assert inst.n == 4
    assert len(inst.demands) == 6
    assert all(r == 2 for r in inst.demands.values())


def test_parse_requires_delta_for_high_dimensions():
    text = json.dumps(
        {
            "metric": {"type": "euclidean", "dim": 4},
            "terminals": [[0, 0, 0, 0], [1, 0, 0, 0]],
            "demands": [[0, 1, 1]],
        }
    )
    with pytest.raises(InstanceError, match="delta required"):
        parse_instance(text)


def test_parse_rejects_triangle_violation():
    text = json.dumps(
        {
            "metric": {
                "type": "finite",
                "matrix": [[0, 1, 5], [1, 0, 1], [5, 1, 0]],
                "delta": 5,
            },
            "terminals": None,
            "demands": [[0, 2, 1]],
        }
    )
    with pytest.raises(InstanceError, match="triangle"):
        parse_instance(text)


def test_parse_rejects_asymmetric_matrix():
    text = json.dumps(
        {
            "metric": {
                "type": "finite",
                "matrix": [[0, 1], [2, 0]],
                "delta": 5,
            },
            "terminals": None,
            "demands": [[0, 1, 1]],
        }
    )
    with pytest.raises(InstanceError, match="asymmetric"):
        parse_instance(text)


def test_parse_rejects_unknown_demand_ids():
    text = json.dumps(
        {
            "metric": {"type": "euclidean", "dim": 2},
            "terminals": [[0, 0], [1, 0]],
            "demands": [[0, 5, 1]],
        }
    )
    with pytest.raises(InstanceError, match="unknown id"):
        parse_instance(text)


def test_parse_rejects_malformed_json():
    with pytest.raises(InstanceError, match="malformed JSON"):
        parse_instance("{nope")


def test_serialize_parse_round_trip_random():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(2, 7)
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
            pts,
            demands,
            E2,
            unstable=[v for v in range(n) if rng.random() < 0.3],
        )
        text = serialize_instance(inst)
        again = parse_instance(text)
        assert serialize_instance(again) == text
        assert again.demands == inst.demands
        assert again.unstable == inst.unstable


def test_finite_metric_round_trip_keeps_rationals():
    fin = MetricSpace.finite([[0, "5/2"], ["5/2", 0]], delta=5)
    inst = make_instance([Point.node(0), Point.node(1)], {(0, 1): 1}, fin)
    text = serialize_instance(inst)
    again = parse_instance(text)
    from fractions import Fraction

    assert again.terminal_distance(0, 1) == Fraction(5, 2)
    assert serialize_instance(again) == text


def test_distance_cap_enforced():
    pts = [Point.at(0, 0), Point.at(100, 0)]
    with pytest.raises(InstanceError, match="cap"):
        make_instance(pts, {(0, 1): 1}, E2, distance_cap=10.0)


def test_instance_rejects_bad_demands():
    pts = [Point.at(0, 0), Point.at(1, 0)]
    with pytest.raises(InstanceError):
        make_instance(pts, {(0, 0): 1}, E2)
    with pytest.raises(InstanceError):
        make_instance(pts, {(0, 1): 3}, E2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_instance_rejects_non_finite_coordinates(bad):
    pts = [Point.at(bad, 0.0), Point.at(1, 0)]
    with pytest.raises(InstanceError, match="finite"):
        make_instance(pts, {(0, 1): 1}, E2)


def test_packing_bound_spot_check():
    # No sampled point set in a closed unit ball admits 6 points pairwise > 1.
    rng = random.Random(99)
    for _ in range(40):
        pts = []
        while len(pts) < 9:
            x, y = rng.uniform(-1, 1), rng.uniform(-1, 1)
            if math.hypot(x, y) <= 1.0:
                pts.append((x, y))
        assert max_unit_separated_subset(pts) <= 5


def test_delta_defaults():
    assert MetricSpace.euclidean(2).delta == 5
    assert MetricSpace.euclidean(3).delta == 11
    with pytest.raises(InstanceError):
        MetricSpace.euclidean(4)

"""Named instance families and the experiment configuration."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

from .instances import (
    Instance,
    InstanceError,
    MetricSpace,
    Point,
    all_pairs_demands,
    make_instance,
)


@dataclass(frozen=True)
class ExperimentConfig:
    generator: str = "uniform-box"
    n: int = 6
    box: float = 4.0
    seed: int = 0
    algorithm: str = "sn012"
    k: int = 5
    backend: str = "exact"
    demand_profile: str = "random"  # uniform-box only: all-1 | all-2 | random
    trials: int = 1
    svg: bool = False
    instance_path: Optional[str] = None


FIXED_SIZES = {"pentagon": 5, "square": 4, "collinear": 2}  # terminals per fixed family


def pentagon_instance() -> Instance:
    """Five terminals on the unit circle, all-pairs demand one."""
    pts = [
        Point.at(
            math.cos(math.pi / 2 + 2 * math.pi * i / 5),
            math.sin(math.pi / 2 + 2 * math.pi * i / 5),
        )
        for i in range(5)
    ]
    return make_instance(pts, all_pairs_demands(5, 1), MetricSpace.euclidean(2))


def square_instance() -> Instance:
    """Unit square corners, all-pairs demand two."""
    pts = [Point.at(0, 0), Point.at(1, 0), Point.at(1, 1), Point.at(0, 1)]
    return make_instance(pts, all_pairs_demands(4, 2), MetricSpace.euclidean(2))


def collinear_instance() -> Instance:
    """Two terminals 3 apart on the x-axis with a double-connectivity demand."""
    pts = [Point.at(0, 0), Point.at(3.0, 0)]
    return make_instance(pts, {(0, 1): 2}, MetricSpace.euclidean(2))


def star_instance(n: int = 6, seed: int = 0) -> Instance:
    """Terminals ringed around the origin with opposite pairs demanding one.

    A single relay at the origin serves every demand, which makes this the
    stock family for exercising the degree-reduction pass.
    """
    if n < 4:
        raise InstanceError("star family needs at least 4 terminals")
    rng = random.Random(seed)
    angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(n))
    radii = [rng.uniform(0.75, 1.0) for _ in range(n)]
    pts = [Point.at(r * math.cos(a), r * math.sin(a)) for a, r in zip(angles, radii)]
    demands = {}
    for i in range(n // 2):
        j = (i + n // 2) % n
        demands[(min(i, j), max(i, j))] = 1
    return make_instance(pts, demands, MetricSpace.euclidean(2))


def uniform_box_instance(
    n: int, box: float, seed: int, demand_profile: str = "random"
) -> Instance:
    return draw_box_instance(random.Random(seed), n, box, demand_profile)


def draw_box_instance(
    rng: random.Random, n: int, box: float, demand_profile: str
) -> Instance:
    """n uniform terminals in a box; "random" demands come from (0, 0, 1, 1, 2)
    with (0, 1) as the fallback, and each terminal is unstable with p = 0.3."""
    if not (math.isfinite(box) and box > 0):
        raise InstanceError("box size must be a finite positive number, got %r" % (box,))
    pts = [Point.at(rng.uniform(0, box), rng.uniform(0, box)) for _ in range(n)]
    unstable = ()
    if demand_profile == "all-1":
        demands = all_pairs_demands(n, 1)
    elif demand_profile == "all-2":
        demands = all_pairs_demands(n, 2)
    elif demand_profile == "random":
        demands = {}
        for i in range(n):
            for j in range(i + 1, n):
                r = rng.choice((0, 0, 1, 1, 2))
                if r:
                    demands[(i, j)] = r
        if not demands:
            demands[(0, 1)] = 1
        unstable = tuple(v for v in range(n) if rng.random() < 0.3)
    else:
        raise InstanceError("unknown demand profile %r" % (demand_profile,))
    return make_instance(
        pts, demands, MetricSpace.euclidean(2), unstable=unstable
    )


def generate(config: ExperimentConfig, index: int = 0) -> Instance:
    """Deterministic instance for (config, index); index varies within sweeps."""
    seed = config.seed * 1_000_003 + index
    family = config.generator
    if family == "pentagon":
        return pentagon_instance()
    if family == "square":
        return square_instance()
    if family == "collinear":
        return collinear_instance()
    if family == "star":
        return star_instance(config.n, seed)
    if family == "uniform-box":
        return uniform_box_instance(config.n, config.box, seed, config.demand_profile)
    raise InstanceError("unknown generator %r" % (family,))

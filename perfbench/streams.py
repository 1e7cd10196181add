"""Seeded request streams and the scenario they run against.

Every generator takes the workload seed as an argument and returns the
stream as a list of ``RouteQuery``; ``Workload.batches`` cuts it into the
client's batches.  Generators read only the road network's
static structure (node ids, locations, the spatial index built with the
network); they never call program code that fills the long-lived caches the
benchmark's oracle pass is meant to warm — in particular not
``Scenario.sample_queries``, which warms the crowd simulator's
preferred-route memo through ``ground_truth_path``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.datasets.synthetic_city import SyntheticCityConfig
from repro.datasets.workloads import LargeBatchWorkloadConfig, generate_large_batch_workload
from repro.roadnet.graph import RoadNetwork
from repro.routing.base import RouteQuery
from repro.spatial import Point

#: The bench ``serving_city`` of ``benchmarks/bench_hot_paths.py``.
SERVING_CITY = SyntheticCityConfig(
    rows=18,
    cols=18,
    block_size_m=320.0,
    num_landmarks=110,
    num_drivers=18,
    trips_per_driver=10,
    num_hot_pairs=14,
    num_workers=28,
    seed=31,
)

Batches = List[List[RouteQuery]]


@dataclass(frozen=True)
class Workload:
    """One traffic mix: how its stream is generated and how it is served.

    ``queries`` is the length of the stream one replay sends;
    ``batch_size`` the closed-loop client's batch.  ``backend`` is the
    ``ServiceConfig.backend`` the service is opened with; the pooled
    workload also journals to a temporary directory.
    """

    name: str
    backend: str
    batch_size: int
    queries: int
    generate: Callable[[RoadNetwork, int, int], List[RouteQuery]]

    def batches(self, network: RoadNetwork, seed: int, queries: int = 0) -> Batches:
        stream = self.generate(network, seed, queries or self.queries)
        size = self.batch_size
        return [stream[start:start + size] for start in range(0, len(stream), size)]


def explore_stream(network: RoadNetwork, seed: int, count: int) -> List[RouteQuery]:
    """Fresh long trips: od pairs at least four blocks apart, departures
    uniform over 06-22 h, so requests almost never reuse each other's truths."""
    rng = random.Random(f"explore:{seed}")
    nodes = network.node_ids()
    min_distance = 4 * SERVING_CITY.block_size_m
    queries: List[RouteQuery] = []
    while len(queries) < count:
        origin, destination = rng.sample(nodes, 2)
        distance = network.node_location(origin).distance_to(network.node_location(destination))
        if distance < min_distance:
            continue
        queries.append(RouteQuery(origin, destination, rng.uniform(6.0, 22.0) * 3600.0))
    return queries


def commute_stream(network: RoadNetwork, seed: int, count: int) -> List[RouteQuery]:
    """The production mix: Zipf-repeated corridors in 16 neighbourhoods,
    15% of trips heading downtown."""
    queries = generate_large_batch_workload(
        network,
        LargeBatchWorkloadConfig(
            num_queries=count,
            num_clusters=16,
            pairs_per_cluster=6,
            seed=seed,
        ),
    )
    return to_downtown(network, queries, 0.15, random.Random(f"commute:{seed}"))


#: The rush hour's hot corridors belong to the city, like ``SERVING_CITY``:
#: they are drawn once, from this seed, and ``--seed`` draws each morning's
#: demand over them (see ``rush_stream``).
RUSH_CORRIDORS_SEED = 11


def rush_stream(network: RoadNetwork, seed: int, count: int) -> List[RouteQuery]:
    """A hot-corridor morning rush: 6 neighbourhoods x 3 pairs with 80 m
    jitter, every departure in the peak, 30% of trips downtown.

    The corridors and their Zipf popularity come from
    ``generate_large_batch_workload`` with ``RUSH_CORRIDORS_SEED``.  The seed
    draws the trips from that pool with replacement, gives each a peak
    departure (the generator's N(8:30, 0:30) h) and picks the trips that go
    downtown.  About 95% of the queries reuse a truth, so the few misses set
    the stream's cost and its batch percentiles, and the shape is chosen so
    that neither percentile sits where the batch kind changes:

    - With the corridors drawn from the seed as well, their layout set the
      miss count (49-81 per 2000 queries over five seeds with 4 x 3
      corridors) and throughput spread 24% over seeds.  With fixed
      corridors the count held at 96-100 over six seeds.
    - Off-peak trips (5% in the generator's rush mix) put a miss into about
      half the batches, and the p50 fell between batches with and without
      one (4.9-10.0 ms over ten seeds).  All in the peak, 31-37 of the 100
      batches hold a miss, so the p50 is a batch without one: the serving
      tier's fixed cost.
    - With 4 x 3 corridors only 8-13 batches held several misses (the cold
      start), so the p90 sat on the edge between those and single-miss
      batches.  With 6 x 3, 13-17 do, and the p90 is a cold-start batch.
    """
    pool = generate_large_batch_workload(
        network,
        LargeBatchWorkloadConfig(
            num_queries=count,
            num_clusters=6,
            pairs_per_cluster=3,
            endpoint_jitter_m=80.0,
            seed=RUSH_CORRIDORS_SEED,
        ),
    )
    rng = random.Random(f"rush:{seed}")
    queries = []
    for _ in range(count):
        trip = rng.choice(pool)
        queries.append(RouteQuery(trip.origin, trip.destination, rng.gauss(8.5, 0.5) * 3600.0))
    return to_downtown(network, queries, 0.3, rng)


def to_downtown(network: RoadNetwork, queries: List[RouteQuery], fraction: float, rng) -> List[RouteQuery]:
    """Send ``fraction`` of the trips to the intersection nearest the city's
    centroid instead of their own destination.

    This is the generator's ``dominant_destination_fraction`` with the shared
    destination fixed downtown.  The generator draws that destination
    uniformly, and the cost of the long trips to it then sets the stream's
    tail latency: over seeds 1-10 ``rush_pooled``'s batch p90 spread 21%.
    """
    nodes = network.node_ids()
    points = [network.node_location(node) for node in nodes]
    centre = Point(sum(p.x for p in points) / len(points), sum(p.y for p in points) / len(points))
    downtown = min(nodes, key=lambda node: network.node_location(node).distance_to(centre))
    redirected = []
    for query in queries:
        if rng.random() < fraction and query.origin != downtown:
            query = RouteQuery(query.origin, downtown, query.departure_time_s)
        redirected.append(query)
    return redirected


#: Why each workload exists is recorded in ``BENCHMARK.json`` and README.md.
WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="explore",
            backend="inline",
            batch_size=2,
            queries=200,
            generate=explore_stream,
        ),
        Workload(
            name="commute",
            backend="inline",
            batch_size=10,
            queries=1000,
            generate=commute_stream,
        ),
        Workload(
            name="rush_pooled",
            backend="pooled",
            batch_size=20,
            queries=2000,
            generate=rush_stream,
        ),
    )
}

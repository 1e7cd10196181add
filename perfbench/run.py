"""End-to-end query benchmark of the public ``RecommendationService`` API.

Replays a seeded request stream through one closed-loop client (submit a
batch, wait for its results, submit the next) and checks every answer
against a sequential oracle pass of the same stream.  Every timing is
normalised to a reference host by a kernel timed between batches
(``hostspeed.py``).  See ``README.md`` in this directory for the metrics,
workloads and how to read a trace.

Usage, from the repository root::

    python3 perfbench/run.py --workload commute --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced replays and prints the per-layer metrics, writing the
traced replays' spans to ``.perfbench_out/``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  The exit code is non-zero when any query failed, an answer
differed from the oracle, or a trace disagreed with the planner's counters.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"perfbench: no program source at {ROOT / 'src'}; run from a checkout of the repository")
sys.path.insert(0, str(ROOT / "src"))

from repro.config import ServiceConfig  # noqa: E402
from repro.core.evaluation import EvaluationDecision  # noqa: E402
from repro.core.planner import CrowdPlanner  # noqa: E402
from repro.datasets.synthetic_city import Scenario, build_scenario  # noqa: E402
from repro.exceptions import TaskGenerationError  # noqa: E402
from repro.experiments.metrics import exact_match  # noqa: E402
from repro.serving import RecommendationService, recommendation_fingerprint  # noqa: E402

from hostspeed import REFERENCE_S, HostSpeed, Stopwatch  # noqa: E402
from spans import SpanRecorder, self_times  # noqa: E402
from streams import SERVING_CITY, WORKLOADS, Batches, Workload  # noqa: E402

#: Full set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
POOL_SIZE = 2
#: Scratch space inside the checkout: journals and span dumps.
TMP_DIR = ROOT / ".perfbench_tmp"
OUT_DIR = ROOT / ".perfbench_out"

END_TO_END_UNITS = {
    "throughput_qps": "1/s",
    "batch_p50_ms": "ms",
    "batch_p90_ms": "ms",
    "setup_s": "s",
    "cpu_ms_per_query": "ms",
    "peak_rss_mb": "MB",
}
#: The paper's quality and cost figures: exact for a given stream.
FIGURES = ("route_accuracy", "questions_per_query", "crowd_share", "truth_reuse_share")

ROUTING = ("shortest", "fastest", "web_alternatives", "mpr", "ldr", "mfp")
LAYERS = (
    "serving.submit",
    "serving.results",
    "journal.append",
    "planner.batch",
    "planner.recommend",
    "planner.candidates",
    "truth.lookup",
    "truth.record",
    *(f"routing.{name}" for name in ROUTING),
    "evaluation.evaluate",
    "task_generation.generate",
    "worker_selection.select",
    "crowd.collect",
    "aggregation.collect",
)
PER_LAYER_UNITS = {
    **{f"{layer}.{kind}": unit for layer in LAYERS
       for kind, unit in (("self_ms_per_q", "ms"), ("calls", "count"), ("failed", "count"))},
    **{f"routing.{name}.none": "count" for name in ROUTING},
    "planner.source_passes_per_call": "ratio",
    "truth.lookup.hit_ratio": "ratio",
    "evaluation.evaluate.decided": "count",
    "task_generation.generate.indistinguishable": "count",
    "task_generation.generate.questions_per_task": "count",
    "worker_selection.select.workers_per_task": "count",
    "crowd.collect.responses": "count",
    "aggregation.collect.early_stop_ratio": "ratio",
    "serving.plan_ms_per_q": "ms",
    "serving.execute_ms_per_q": "ms",
    "serving.merge_ms_per_q": "ms",
    "journal.snapshots": "count",
    "journal.disk_bytes": "bytes",
    "pool.parent_cpu_ms_per_q": "ms",
    "pool.worker_cpu_ms_per_q": "ms",
    "pool.utilization": "ratio",
    "pool.largest_shard_fraction": "ratio",
    "pool.respawns": "count",
    "pool.resubmitted_shards": "count",
    "planner.route_accuracy": "share",
    "planner.questions_per_query": "count",
    "planner.crowd_share": "share",
    "planner.truth_reuse_share": "share",
    "service.unattributed_ms_per_q": "ms",
    "trace.overhead_share": "ratio",
}


# ------------------------------------------------------------------ set-up
@dataclass
class Session:
    """One set-up's product: the scenario, its stream and the oracle."""

    workload: Workload
    scenario: Scenario
    familiarity: object
    batches: Batches
    oracle_results: list
    oracle: list = field(default_factory=list)

    def planner(self) -> CrowdPlanner:
        """A fresh planner: empty truth store over the shared, warm substrate."""
        scenario = self.scenario
        return CrowdPlanner(
            network=scenario.network,
            catalog=scenario.catalog,
            calibrator=scenario.calibrator,
            sources=scenario.sources,
            worker_pool=scenario.worker_pool,
            crowd_backend=scenario.crowd,
            config=scenario.config.planner_config,
            familiarity=self.familiarity,
        )

    def open_service(self) -> RecommendationService:
        planner = self.planner()
        knobs = {"backend": self.workload.backend}
        if self.workload.backend == "pooled":
            TMP_DIR.mkdir(exist_ok=True)
            knobs["pool_size"] = POOL_SIZE
            knobs["journal_path"] = tempfile.mkdtemp(prefix="journal-", dir=TMP_DIR)
        config = ServiceConfig.from_planner_config(planner.config, **knobs)
        return RecommendationService(planner, config)


def set_up(
    workload: Workload, seed: int, queries: int, speed: HostSpeed
) -> Tuple[Session, RecommendationService, float]:
    """Scenario build, familiarity fit, the oracle/warm pass and opening the
    service — the span ``setup_s`` measures, normalised to the reference
    host segment by segment (build and fit, each oracle batch, the open).

    The oracle pass answers the stream through ``CrowdPlanner.recommend_batch``
    on a throwaway planner; besides giving the reference answers it fills the
    long-lived substrate caches (compiled graph, A* heuristic columns, the
    crowd simulator's preferred-route memo) before anything is timed.
    """
    watch = Stopwatch(speed)
    elapsed = 0.0
    watch.start()
    scenario = build_scenario(SERVING_CITY)
    familiarity = scenario.build_planner().familiarity
    batches = workload.batches(scenario.network, seed, queries)
    session = Session(workload, scenario, familiarity, batches, oracle_results=[])
    oracle_planner = session.planner()
    elapsed += watch.stop()[1]
    for batch in batches:
        watch.start()
        session.oracle_results.extend(oracle_planner.recommend_batch(batch))
        elapsed += watch.stop()[1]
    watch.start()
    service = session.open_service()
    elapsed += watch.stop()[1]
    session.oracle = [recommendation_fingerprint(result) for result in session.oracle_results]
    return session, service, elapsed


# ---------------------------------------------------------------- replays
@dataclass
class Replay:
    """One timed replay of the stream on a fresh service.

    ``batch_s`` holds each batch's time normalised to the reference host
    (``hostspeed``), ``host_batch_s`` the time as measured, and
    ``batch_cpu_s`` the parent's CPU time in each batch, normalised like its
    wall time.  ``wall_s`` and the whole-replay CPU figures exclude the
    kernel samples taken between batches and are as measured; ``speed``
    (reference kernel time over the replay's median kernel time) scales them
    to the reference host.
    """

    queries: int
    wall_s: float
    parent_cpu_s: float
    worker_cpu_s: float
    batch_s: List[float]
    host_batch_s: List[float]
    batch_cpu_s: List[float]
    speed: float
    failed: int
    stats: Dict
    plan_s: float = 0.0
    execute_s: float = 0.0
    merge_s: float = 0.0
    shard_fractions: List[float] = field(default_factory=list)
    recorder: Optional[SpanRecorder] = None

    @property
    def cpu_ms_per_query(self) -> float:
        """Parent CPU inside the batches plus the pool workers' CPU, per
        query, normalised to the reference host."""
        return 1000.0 * (sum(self.batch_cpu_s) + self.speed * self.worker_cpu_s) / self.queries


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def replay(
    session: Session,
    service: RecommendationService,
    speed: HostSpeed,
    recorder: Optional[SpanRecorder] = None,
) -> Replay:
    """Drive the stream through ``service`` with one batch outstanding, then
    close the service (reaping any pool) and check every answer.

    The host-speed kernel is sampled between batches, outside their timing;
    on every vCPU when a pool spreads the work over them.
    """
    pooled = service.backend.name == "pooled"
    if recorder is not None:
        instrument(recorder, service, session.scenario)
    batches = session.batches
    total = sum(len(batch) for batch in batches)
    answers: list = []
    batch_s: List[float] = []
    host_batch_s: List[float] = []
    batch_cpu_s: List[float] = []
    plan_s = execute_s = merge_s = 0.0
    fractions: List[float] = []
    failed = 0
    children_before = _children_cpu_s()
    kernel_before = (speed.spent_s, speed.spent_cpu_s)
    cpu_started = time.process_time()
    started = time.perf_counter()
    watch = Stopwatch(speed, spread=pooled)
    try:
        for batch_id, batch in enumerate(batches):
            if recorder is not None:
                recorder.batch_id = batch_id
            batch_cpu = time.process_time()
            watch.start()
            try:
                responses = service.results(service.submit(batch))
            except Exception:  # the replay must report, not die: count and stop
                traceback.print_exc(file=sys.stderr)
                failed = total - len(answers)
                break
            batch_cpu = time.process_time() - batch_cpu
            measured, normalised = watch.stop()
            host_batch_s.append(measured)
            batch_s.append(normalised)
            batch_cpu_s.append(batch_cpu * normalised / measured)
            answers.extend(responses)
            timings = responses[0].provenance.timings
            plan_s += timings.plan_s
            execute_s += timings.execute_s
            merge_s += timings.merge_s
            if recorder is not None and pooled:
                fractions.append(service.backend.last_shard_fraction_after)
        wall_s = time.perf_counter() - started - (speed.spent_s - kernel_before[0])
        parent_cpu_s = time.process_time() - cpu_started - (speed.spent_cpu_s - kernel_before[1])
        stats = service.statistics()
    finally:
        service.close()
        if recorder is not None:
            recorder.unwrap_all()
        journal = service.config.journal_path
        if journal is not None:
            shutil.rmtree(journal, ignore_errors=True)
    worker_cpu_s = _children_cpu_s() - children_before
    for expected, response in zip(session.oracle, answers):
        if recommendation_fingerprint(response.result) != expected:
            failed += 1
    return Replay(
        queries=total,
        wall_s=wall_s,
        parent_cpu_s=parent_cpu_s,
        worker_cpu_s=worker_cpu_s,
        batch_s=batch_s,
        host_batch_s=host_batch_s,
        batch_cpu_s=batch_cpu_s,
        speed=REFERENCE_S / statistics.median(watch.kernel_s),
        failed=failed,
        stats=stats,
        plan_s=plan_s,
        execute_s=execute_s,
        merge_s=merge_s,
        shard_fractions=fractions,
        recorder=recorder,
    )


def instrument(recorder: SpanRecorder, service: RecommendationService, scenario: Scenario) -> None:
    """Wrap each layer's public entry point on the instances this service uses.

    In the pooled backend the planner runs in forked workers on per-shard
    clones, so only the parent-side serving layers are wrapped there.
    """
    recorder.wrap(service, "submit", "serving.submit")
    recorder.wrap(service, "results", "serving.results")
    if service.journal is not None:
        recorder.wrap(service.journal, "append", "journal.append")
    if service.backend.name == "pooled":
        return
    planner = service.planner
    recorder.wrap(planner, "recommend_batch", "planner.batch")
    recorder.wrap(planner, "recommend", "planner.recommend")
    recorder.wrap(planner, "generate_candidates", "planner.candidates")
    recorder.wrap(
        planner.truths, "lookup", "truth.lookup",
        observe=lambda counts, truth: counts.update({"truth.lookup.hits": truth is not None}),
    )
    recorder.wrap(planner.truths, "record", "truth.record")
    for source in planner.sources:
        name = f"routing.{source.name.lower()}"
        recorder.wrap(
            source, "recommend_or_none", name,
            observe=lambda counts, route, key=f"{name}.none": counts.update({key: route is None}),
        )
    recorder.wrap(
        planner.evaluator, "evaluate", "evaluation.evaluate",
        observe=lambda counts, outcome: counts.update({
            "evaluation.evaluate.decided": outcome.decision is not EvaluationDecision.NEEDS_CROWD
        }),
    )
    recorder.wrap(
        planner.task_generator, "generate", "task_generation.generate",
        observe=lambda counts, task: counts.update({"task_generation.questions": len(task.questions)}),
        on_error=lambda counts, exc: counts.update({
            "task_generation.generate.indistinguishable": isinstance(exc, TaskGenerationError)
        }),
    )
    recorder.wrap(
        planner.worker_selector, "select", "worker_selection.select",
        observe=lambda counts, workers: counts.update({"worker_selection.workers": len(workers)}),
    )
    recorder.wrap(
        scenario.crowd, "collect_responses_block", "crowd.collect",
        observe=lambda counts, block: counts.update({"crowd.collect.responses": len(block)}),
    )
    recorder.wrap(
        planner.aggregator, "collect_block_with_early_stop", "aggregation.collect",
        observe=lambda counts, result: counts.update({
            "aggregation.early_stops": result.stopped_early,
            "aggregation.questions": result.total_questions_asked,
        }),
    )


# ----------------------------------------------------------------- metrics
def percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quality(session: Session, stats: Dict) -> Dict[str, float]:
    """The paper's quality and cost figures: exact for a given stream.

    Ground-truth paths are looked up only here, after every timed replay.
    """
    results = session.oracle_results
    planner = stats["planner"]
    requests = planner["requests"]
    hits = sum(
        exact_match(result.route.path, session.scenario.ground_truth_path(result.query))
        for result in results
    )
    return {
        "route_accuracy": hits / len(results),
        "questions_per_query": planner["questions_asked"] / requests,
        "crowd_share": planner["crowd_tasks"] / requests,
        "truth_reuse_share": planner["truth_hits"] / requests,
    }


def best_batch_s(replays: List[Replay], host: bool = False) -> List[float]:
    """Each batch's least time over the replays, normalised to the reference
    host (or as measured, with ``host``).

    Every replay does identical work batch by batch (same stream, fresh
    truth store, warm substrate; the oracle check proves identical answers),
    so percentiles over these keep the spread that comes from the stream.
    The kernel corrects for the host's CPU speed, but not for the time a
    pooled batch waits for a worker's vCPU to be scheduled again, which a
    busy host stretches and which only ever adds; the least time drops it.
    """
    return [min(times) for times in zip(*(run.host_batch_s if host else run.batch_s for run in replays))]


def end_to_end(replays: List[Replay], setups: List[float]) -> Dict[str, float]:
    """End-to-end metrics, every timing normalised to the reference host.
    Throughput and batch latency come from each batch's least time over the
    replays (see ``best_batch_s``); CPU per query is the median over the
    replays."""
    batch_s = best_batch_s(replays)
    return {
        "throughput_qps": replays[0].queries / sum(batch_s),
        "batch_p50_ms": 1000.0 * percentile(batch_s, 0.5),
        "batch_p90_ms": 1000.0 * percentile(batch_s, 0.9),
        "setup_s": statistics.median(setups),
        "cpu_ms_per_query": statistics.median(run.cpu_ms_per_query for run in replays),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(traced: List[Replay], untraced: List[Replay], figures: Dict[str, float]) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics over the traced replays, plus the cross-checks'
    complaints (empty when the trace agrees with the planner's counters).

    Times are scaled to the reference host by each replay's own ``speed``.
    """
    queries = sum(run.queries for run in traced)
    wall_s = sum(run.speed * run.wall_s for run in traced)
    calls, failed, counts, selfs = Counter(), Counter(), Counter(), Counter()
    for run in traced:
        calls.update(run.recorder.calls)
        failed.update(run.recorder.failed)
        counts.update(run.recorder.counts)
        selfs.update({name: run.speed * seconds for name, seconds in self_times(run.recorder.spans).items()})

    def ms_per_q(seconds: float) -> float:
        return 1000.0 * seconds / queries

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_ms_per_q"] = ms_per_q(selfs.get(layer, 0.0))
        metrics[f"{layer}.calls"] = calls.get(layer, 0)
        metrics[f"{layer}.failed"] = failed.get(layer, 0)
    routing_calls = 0
    for name in ROUTING:
        metrics[f"routing.{name}.none"] = counts.get(f"routing.{name}.none", 0)
        routing_calls += calls.get(f"routing.{name}", 0)
    tasks = calls.get("task_generation.generate", 0) - counts.get("task_generation.generate.indistinguishable", 0)
    worker_cpu_s = sum(run.speed * run.worker_cpu_s for run in traced)
    last = traced[-1].stats
    journal = last.get("journal", {})
    fractions = [value for run in traced for value in run.shard_fractions]
    metrics.update({
        "planner.source_passes_per_call": ratio(routing_calls / len(ROUTING), calls.get("planner.candidates", 0)),
        "truth.lookup.hit_ratio": ratio(counts.get("truth.lookup.hits", 0), calls.get("truth.lookup", 0)),
        "evaluation.evaluate.decided": counts.get("evaluation.evaluate.decided", 0),
        "task_generation.generate.indistinguishable": counts.get("task_generation.generate.indistinguishable", 0),
        "task_generation.generate.questions_per_task": ratio(counts.get("task_generation.questions", 0), tasks),
        "worker_selection.select.workers_per_task": ratio(
            counts.get("worker_selection.workers", 0), calls.get("worker_selection.select", 0)
        ),
        "crowd.collect.responses": counts.get("crowd.collect.responses", 0),
        "aggregation.collect.early_stop_ratio": ratio(
            counts.get("aggregation.early_stops", 0), calls.get("aggregation.collect", 0)
        ),
        "serving.plan_ms_per_q": ms_per_q(sum(run.speed * run.plan_s for run in traced)),
        "serving.execute_ms_per_q": ms_per_q(sum(run.speed * run.execute_s for run in traced)),
        "serving.merge_ms_per_q": ms_per_q(sum(run.speed * run.merge_s for run in traced)),
        "journal.snapshots": journal.get("snapshots_written", 0),
        "journal.disk_bytes": journal.get("disk_bytes", 0),
        "pool.parent_cpu_ms_per_q": ms_per_q(sum(run.speed * run.parent_cpu_s for run in traced)),
        "pool.worker_cpu_ms_per_q": ms_per_q(worker_cpu_s),
        "pool.utilization": ratio(worker_cpu_s, POOL_SIZE * wall_s) if fractions else 0.0,
        "pool.largest_shard_fraction": statistics.mean(fractions) if fractions else 0.0,
        "pool.respawns": last["supervision"]["respawns"],
        "pool.resubmitted_shards": last["supervision"]["resubmitted_shards"],
        **{f"planner.{name}": figures[name] for name in FIGURES},
        "service.unattributed_ms_per_q": ms_per_q(wall_s - sum(selfs.values())),
        "trace.overhead_share": 1.0 - sum(best_batch_s(untraced)) / sum(best_batch_s(traced)),
    })

    problems: List[str] = []
    batches = sum(len(run.batch_s) for run in traced)
    if calls.get("serving.results", 0) != batches:
        problems.append(f"serving.results calls {calls.get('serving.results', 0)} != batches {batches}")
    if journal and calls.get("journal.append", 0) != batches:
        problems.append(f"journal.append calls {calls.get('journal.append', 0)} != batches {batches}")
    if traced[0].recorder.calls.get("planner.recommend"):
        # The planner ran in this process: its counters must match the trace.
        planner = {key: sum(run.stats["planner"][key] for run in traced)
                   for key in ("truth_hits", "crowd_tasks", "questions_asked")}
        observed = {
            "truth_hits": counts.get("truth.lookup.hits", 0),
            "crowd_tasks": calls.get("crowd.collect", 0),
            "questions_asked": counts.get("aggregation.questions", 0),
        }
        for key, value in observed.items():
            if value != planner[key]:
                problems.append(f"trace saw {key}={value}, statistics() says {planner[key]}")
    return {name: float(value) for name, value in metrics.items()}, problems


# -------------------------------------------------------------------- main
def measure(workload_name: str, seed: int, seconds: float, trace: bool, queries: int = 0) -> Dict:
    """Run one benchmark invocation; returns the result object to print.

    ``queries`` overrides the workload's stream length (the self-test uses
    tiny streams).
    """
    workload = WORKLOADS[workload_name]
    speed = HostSpeed()
    setups: List[float] = []
    untraced: List[Replay] = []
    traced: List[Replay] = []
    session = oracle = None
    for _ in range(1 if trace else SETUPS):
        # Free the previous set-up's scenario first: peak RSS holds one.
        session = None
        gc.collect()
        session, service, elapsed = set_up(workload, seed, queries, speed)
        setups.append(elapsed)
        if oracle is None:
            oracle = session.oracle
        elif session.oracle != oracle:
            raise RuntimeError("two set-ups of the same seed produced different oracle answers")
        untraced.append(replay(session, service, speed))

    def timed() -> float:
        return sum(run.wall_s for run in untraced + traced)

    while timed() < seconds or (trace and len(traced) < 2):
        if trace and len(traced) < len(untraced):
            recorder = SpanRecorder()
            traced.append(replay(session, session.open_service(), speed, recorder))
        else:
            untraced.append(replay(session, session.open_service(), speed))

    replays = untraced + traced
    attempted = sum(run.queries for run in replays)
    failed = sum(run.failed for run in replays)
    figures = quality(session, untraced[-1].stats)
    report = {
        "workload": workload.name,
        "seed": seed,
        "replays": len(replays),
        "batches": sum(len(run.batch_s) for run in untraced),
        "queries_per_replay": replays[0].queries,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "resolution": dict(untraced[-1].stats["planner"]),
        "end_to_end": end_to_end(untraced, setups),
        "host": {
            "kernel_ms": 1000.0 * REFERENCE_S / statistics.median(run.speed for run in untraced),
            "throughput_qps": replays[0].queries / sum(best_batch_s(untraced, host=True)),
        },
        "figures": figures,
        "problems": [],
    }
    if trace:
        layers, problems = per_layer(traced, untraced, figures)
        report["per_layer"] = layers
        report["problems"] = problems
        traced_queries = sum(run.queries for run in traced)
        report["trace_wall_ms_per_q"] = 1000.0 * sum(run.speed * run.wall_s for run in traced) / traced_queries
        report["trace_batch_ms_per_q"] = 1000.0 * sum(run.speed * sum(run.host_batch_s) for run in traced) / traced_queries
        OUT_DIR.mkdir(exist_ok=True)
        for index, run in enumerate(traced):
            run.recorder.write(OUT_DIR / f"spans-{workload.name}-{seed}-{index}.jsonl")
    report["correct"] = failed == 0 and not report["problems"]
    return report


def print_report(report: Dict, trace: bool) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  replays {report['replays']}  "
          f"queries/replay {report['queries_per_replay']}  batches {report['batches']}")
    print(f"resolution {json.dumps(report['resolution'])}")
    host = report["host"]
    print(f"host: reference kernel {host['kernel_ms']:.3f} ms (normalised to {1000.0 * REFERENCE_S:.3f} ms); "
          f"throughput as measured {host['throughput_qps']:.1f} 1/s")
    for name, value in report["end_to_end"].items():
        print(f"  {name:<24} {value:12.4f} {END_TO_END_UNITS[name]}")
    print(f"  {'failed_share':<24} {report['failed_share']:12.4f} share")
    for name in FIGURES:
        print(f"  {name:<24} {report['figures'][name]:12.4f}")
    if trace:
        for name, value in report["per_layer"].items():
            print(f"  {name:<44} {value:12.4f} {PER_LAYER_UNITS[name]}")
    for problem in report["problems"]:
        print(f"PROBLEM: {problem}")
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    values = report["per_layer"] if trace else report["end_to_end"]
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(TMP_DIR, ignore_errors=True)
    print_report(report, bool(args.trace))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""The four benchmark workloads.

Each workload builds its served system in :meth:`Workload.setup`,
computes the expected answer of every query it will send (central
``evaluate_plan`` over the same tables, outside any timing or span), and
then serves a deterministic request stream in :meth:`Workload.measure`.

A stream is a sequence of *passes*.  Every pass of a workload holds the
same multiset of requests and leaves the policy as it found it, and a
run always ends on a pass boundary, so per-answer counts (bytes and
transfers per answer, closure rule counts) repeat exactly for a seed and
number of passes.
The seed orders requests within a pass and draws instance values; it
never changes a workload's world.

Answers are compared as digests (attribute names, row count, sum of row
hashes over interned value ids) and dropped at once: the benchmark keeps
no answers or per-request objects, so the collector's gen2 passes cost
the same in every run.
"""

from __future__ import annotations

import asyncio
import gc
import random
import statistics
import time
from array import array
from collections import deque
from typing import Dict, List, Optional, Sequence

from repro.algebra.builder import build_plan
from repro.algebra.joins import JoinPath
from repro.core.authorization import Authorization, Policy
from repro.distributed.system import DistributedSystem
from repro.engine.operators import evaluate_plan
from repro.exceptions import InfeasiblePlanError, ReproError
from repro.service import OK, QueryService, TenantConfig
from repro.sharding import EXEC_PARTITIONED, HashPartitionScheme, PartitionGroup
from repro.sql import parse_query
from repro.testing import grant, quick_catalog
from repro.workloads.medical import (
    generate_instances,
    medical_catalog,
    medical_policy,
)
from repro.workloads.synthetic import SyntheticWorkload, WorkloadConfig

from speed import SpeedProbe

#: Example 2.2 (Figure 2) and its Insurance-Nat_registry prefix.
PAPER_QUERY = (
    "SELECT Patient, Physician, Plan, HealthAid "
    "FROM Insurance JOIN Nat_registry ON Holder = Citizen "
    "JOIN Hospital ON Citizen = Patient"
)
PREFIX_QUERY = (
    "SELECT Holder, Plan, HealthAid "
    "FROM Insurance JOIN Nat_registry ON Holder = Citizen"
)

#: A rule absent from the Figure 3 policy, granted and revoked by the
#: medical workloads' policy writes.
MEDICAL_CHURN_RULE = grant("S_D", "Citizen HealthAid")

#: Twenty medical texts, feasible under Figure 3, hottest first.
MEDICAL_TEXTS = (
    PAPER_QUERY,
    PREFIX_QUERY,
    "SELECT Patient, Physician FROM Hospital",
    "SELECT Citizen, HealthAid FROM Nat_registry",
    "SELECT Citizen, HealthAid, Disease FROM Nat_registry "
    "JOIN Hospital ON Citizen = Patient",
    "SELECT Holder, Plan FROM Insurance",
    "SELECT Patient, Physician, HealthAid FROM Hospital "
    "JOIN Nat_registry ON Patient = Citizen",
    "SELECT Illness, Treatment FROM Disease_list",
    "SELECT Patient, Disease FROM Hospital WHERE Physician = 'dr01'",
    "SELECT Holder, HealthAid FROM Insurance JOIN Nat_registry "
    "ON Holder = Citizen WHERE HealthAid = 'basic'",
    "SELECT Holder FROM Insurance WHERE Plan = 'gold'",
    "SELECT Patient, Physician, Plan FROM Insurance JOIN Nat_registry "
    "ON Holder = Citizen JOIN Hospital ON Citizen = Patient WHERE Plan = 'silver'",
    "SELECT Citizen FROM Nat_registry WHERE HealthAid = 'full'",
    "SELECT Disease, Physician FROM Hospital",
    "SELECT Holder, Plan, HealthAid FROM Insurance JOIN Nat_registry "
    "ON Holder = Citizen WHERE Plan = 'platinum'",
    "SELECT Plan FROM Insurance",
    "SELECT Patient, Physician, Plan, HealthAid FROM Insurance "
    "JOIN Nat_registry ON Holder = Citizen JOIN Hospital ON Citizen = Patient "
    "WHERE HealthAid = 'full'",
    "SELECT HealthAid FROM Nat_registry",
    "SELECT Citizen, HealthAid, Physician FROM Nat_registry "
    "JOIN Hospital ON Citizen = Patient WHERE HealthAid = 'none'",
    "SELECT Patient, Disease, Physician FROM Hospital WHERE Disease = 'd03'",
)


def digest(table) -> tuple:
    """Order-free digest of a result table.

    Rows are deduplicated sets over a process-wide intern pool, so equal
    tables have equal id rows; ``zip`` reuses its row tuple, so hashing
    allocates nothing per row.
    """
    attributes = sorted(table.attributes)
    columns = [table.column_ids(name) for name in attributes]
    return (tuple(attributes), len(table), sum(map(hash, zip(*columns))))


def reference_digest(system: DistributedSystem, sql: str) -> tuple:
    """The answer of central ``evaluate_plan`` over the system's tables."""
    tree = build_plan(system.catalog, parse_query(sql, system.catalog))
    return digest(evaluate_plan(tree, system.tables()))


class Stats:
    """What one measured window observed."""

    def __init__(self) -> None:
        self.latencies = array("d")
        self.finished = array("d")  # perf_counter time each latency ended
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.violations = 0
        self.answers = 0
        self.bytes = 0
        self.transfers = 0
        self.rows_shipped = 0
        self.grants = array("d")
        self.revokes = array("d")
        self.grants_at = array("d")
        self.revokes_at = array("d")
        self.wall_s = 0.0
        self.aside_s = 0.0  # policy writes, answer checks, speed samples
        self.fallbacks = 0
        self.errors: List[str] = []
        self.service: Optional[dict] = None

    def merge(self, other: "Stats") -> None:
        """Fold another window of the same workload into this one."""
        for name in (
            "latencies", "finished", "grants", "revokes", "grants_at", "revokes_at",
        ):
            getattr(self, name).extend(getattr(other, name))
        for name in (
            "attempted", "failed", "wrong", "violations", "answers", "bytes",
            "transfers", "rows_shipped", "wall_s", "aside_s", "fallbacks",
        ):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.errors.extend(other.errors[: max(0, 5 - len(self.errors))])
        if other.service is not None:
            mine = self.service or {}
            self.service = {
                key: mine.get(key, 0) + value
                for key, value in other.service.items()
                if isinstance(value, int)
            }

    @property
    def serving_s(self) -> float:
        return self.wall_s - self.aside_s

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


def _timed_write(stats: Stats, probe: SpeedProbe, write, rule) -> None:
    start = time.perf_counter()
    write(rule)
    end = time.perf_counter()
    stats.aside_s += end - start + probe.maybe_sample()
    if write.__name__ == "add_authorization":
        stats.grants.append(end - start)
        stats.grants_at.append(end)
    else:
        stats.revokes.append(end - start)
        stats.revokes_at.append(end)


class Workload:
    """Base: batch set-up, reference answers, single-client loop."""

    name = ""
    #: batches of :attr:`builds` timed back to back in :meth:`setup`
    batches = 3
    builds = 5
    #: span names the traced run must record at least once
    expected_spans: Sequence[str] = ()
    #: whether the request stream itself carries policy writes
    writes_in_stream = False
    #: grant/revoke pairs timed after the window when the stream has none
    write_probes = 30

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.system: Optional[DistributedSystem] = None
        self.expected: Dict[str, tuple] = {}
        self.churn_rule: Optional[Authorization] = None
        self.verdict_errors: List[str] = []

    # -- set-up ---------------------------------------------------------

    def inputs(self):
        """``(make_system, instances)``: untimed inputs of one build."""
        raise NotImplementedError

    def setup(self, probe: SpeedProbe) -> float:
        """Build the served system in :attr:`batches` batches of
        :attr:`builds` consecutive builds, one system alive at a time.

        Returns the median over batches of the mean seconds per build
        (closure + instance load).  A batch mean spreads the collector's
        gen2 passes, which land in some builds and not others, over all
        builds of the batch.
        """
        make_system, instances = self.inputs()
        gc.collect()
        means = []
        probe.sample()
        for _ in range(self.batches):
            total = 0.0
            for _ in range(self.builds):
                self.system = system = None
                start = time.perf_counter()
                system = make_system()
                system.load_instances(instances)
                total += time.perf_counter() - start
                self.system = system
                probe.sample()
            means.append(total / self.builds)
        del instances
        self.prepare()
        gc.collect()
        return statistics.median(means)

    def prepare(self) -> None:
        """Reference answers and warm-up, outside timing and spans."""
        for sql in self.texts():
            self.expected[sql] = reference_digest(self.system, sql)

    def texts(self) -> Sequence[str]:
        raise NotImplementedError

    # -- serving --------------------------------------------------------

    def check(self, stats: Stats, result, sql: str, shipped: bool = True) -> None:
        """Compare one answer with the reference; with ``shipped``, add
        its transfers to the window's totals."""
        stats.answers += 1
        if digest(result.table) != self.expected[sql]:
            stats.wrong += 1
            if len(stats.errors) < 5:
                stats.errors.append(f"wrong answer for {sql!r}")
        stats.violations += len(result.audit.violations)
        if not shipped:
            return
        stats.bytes += result.transfers.total_bytes()
        stats.transfers += len(result.transfers)
        stats.rows_shipped += result.transfers.total_rows()

    def passes(self):
        """Yields the requests of one pass (called once per pass)."""
        raise NotImplementedError

    def serve(self, sql: str):
        return self.system.execute(sql)

    def measure(self, seconds: float, probe: SpeedProbe, recorder=None) -> Stats:
        """Serve whole passes for ``seconds``; with a span ``recorder``,
        each request's calls are marked with its id."""
        stats = Stats()
        rid = 0
        began = time.perf_counter()
        deadline = began + seconds
        latencies = stats.latencies
        while True:
            for step in self.passes():
                if not isinstance(step, str):
                    _timed_write(stats, probe, *step)
                    continue
                rid += 1
                stats.attempted += 1
                scope = recorder.request(rid) if recorder is not None else None
                if scope is not None:
                    scope.__enter__()
                start = time.perf_counter()
                try:
                    result = self.serve(step)
                except ReproError as error:
                    stats.fail(f"{type(error).__name__}: {error}")
                    continue
                finally:
                    if scope is not None:
                        scope.__exit__()
                checked = time.perf_counter()
                latencies.append(checked - start)
                stats.finished.append(checked)
                self.check(stats, result, step)
                result = None
                stats.aside_s += time.perf_counter() - checked + probe.maybe_sample()
            if time.perf_counter() >= deadline:
                break
        stats.wall_s = time.perf_counter() - began
        return stats

    def probe_writes(self, stats: Stats, probe: SpeedProbe) -> None:
        """Time grant/revoke pairs after the window when the stream has
        no writes.  Each write follows one request of the stream, as a
        write in a served system follows reads; those requests are
        checked but not timed."""
        if self.writes_in_stream:
            return
        sql = self.texts()[0]
        writes = (self.system.add_authorization, self.system.revoke_authorization)
        for index in range(2 * self.write_probes):
            self.check(Stats(), self.serve(sql), sql)
            _timed_write(stats, probe, writes[index % 2], self.churn_rule)


class PaperJoin(Workload):
    """Figure 1 catalog, Figure 3 policy, 10k citizens, plan cache on."""

    name = "paper-join-10k"
    builds = 10
    cycle = (PAPER_QUERY, PAPER_QUERY, PREFIX_QUERY)
    expected_spans = (
        "distributed.pipeline.run",
        "core.plancache.lookup",
        "core.safety.verify",
        "engine.executor.run",
        "engine.operators.join_open",
        "engine.operators.join_next",
        "engine.operators.materialize",
    )

    def inputs(self):
        self.churn_rule = MEDICAL_CHURN_RULE
        rows = generate_instances(seed=self.seed, citizens=10_000)
        return (lambda: DistributedSystem(medical_catalog(), medical_policy())), rows

    def texts(self):
        return (PAPER_QUERY, PREFIX_QUERY)

    def prepare(self) -> None:
        super().prepare()
        for sql in self.texts():  # warm the plan cache and parse memo
            if digest(self.system.execute(sql).table) != self.expected[sql]:
                self.verdict_errors.append(f"warm-up answer differs for {sql!r}")

    def passes(self):
        return self.cycle


#: The federation world: 3 servers, 8 relations, closure of ~200 rules.
FEDERATION_WORLD_SEED = 23
FEDERATION_CONFIG = dict(
    servers=3, relations=8, extra_join_edges=2,
    rows_per_relation=10, join_domain_size=4,
)


def spec_sql(spec) -> str:
    """SQL text of a left-deep :class:`QuerySpec`."""
    parts = [spec.relations[0]]
    for relation, path in zip(spec.relations[1:], spec.join_paths):
        conditions = " AND ".join(
            f"{c.first} = {c.second}" for c in sorted(path, key=str)
        )
        parts.append(f"JOIN {relation} ON {conditions}")
    return f"SELECT {', '.join(sorted(spec.select))} FROM " + " ".join(parts)


class FederationPlan(Workload):
    """Planning- and closure-bound: a fixed synthetic federation."""

    name = "federation-plan"
    builds = 1
    writes_in_stream = True
    per_size = 12
    repeats = 4
    expected_spans = (
        "sql.parse",
        "sql.parse_query",
        "algebra.builder.build",
        "core.planner.plan",
        "core.safety.verify",
        "distributed.pipeline.run",
        "engine.executor.run",
        "core.closure.close",
        "core.closure.extend",
    )

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.pool: List[str] = []

    def inputs(self):
        world = SyntheticWorkload(
            FEDERATION_WORLD_SEED, WorkloadConfig(**FEDERATION_CONFIG)
        )
        self.world = world
        rows = world.generate_instances()
        relations = world.catalog.relations()
        # The first remote base relation some server is not granted.
        self.churn_rule = next(
            rule
            for server in sorted({r.server for r in relations})
            for rule in (
                Authorization(r.attribute_set, JoinPath.empty(), server)
                for r in relations
                if r.server != server
            )
            if rule not in world.policy
        )
        return (
            lambda: DistributedSystem(world.catalog, world.policy, plan_cache=False)
        ), rows

    def prepare(self) -> None:
        # The pool is drawn from the world's own generator, so it is the
        # same for every seed; only feasible texts are kept.
        for size in (2, 3, 4, 5):
            found: List[str] = []
            for _ in range(300):
                if len(found) == self.per_size:
                    break
                try:
                    sql = spec_sql(self.world.random_query(size))
                except ReproError:
                    continue
                if sql in found:
                    continue
                try:
                    self.system.plan(sql, search_join_orders=True)
                except InfeasiblePlanError:
                    continue
                found.append(sql)
            if len(found) < self.per_size:
                self.verdict_errors.append(f"only {len(found)} feasible texts of size {size}")
            self.pool.extend(found)
        super().prepare()
        self.rng = random.Random(self.seed)

    def texts(self):
        return self.pool

    def serve(self, sql: str):
        return self.system.execute(sql, search_join_orders=True)

    def passes(self):
        system = self.system
        steps: List[object] = []
        for write in (system.add_authorization, system.revoke_authorization):
            segment = list(self.pool) * self.repeats
            self.rng.shuffle(segment)
            steps.extend(segment)
            steps.append((write, self.churn_rule))
        return steps


class ServiceChurn(Workload):
    """``QueryService`` over the medical system at 1k citizens."""

    name = "service-churn"
    builds = 60
    writes_in_stream = True
    clients = 2
    pass_length = 200
    write_every = 25
    expected_spans = (
        "service.submit",
        "service.process",
        "core.plancache.lookup",
        "distributed.pipeline.run",
        "engine.executor.run",
        "core.safety.verify",
        "core.closure.close",
        "core.closure.extend",
    )

    def inputs(self):
        self.churn_rule = MEDICAL_CHURN_RULE
        rows = generate_instances(seed=self.seed, citizens=1_000)
        return (lambda: DistributedSystem(medical_catalog(), medical_policy())), rows

    def texts(self):
        return MEDICAL_TEXTS

    def prepare(self) -> None:
        super().prepare()
        for sql in MEDICAL_TEXTS:  # warm the plan cache and parse memo
            if digest(self.system.execute(sql).table) != self.expected[sql]:
                self.verdict_errors.append(f"warm-up answer differs for {sql!r}")
        # Zipf (s = 1) shares, rounded to whole requests per pass.
        weights = [1.0 / (rank + 1) for rank in range(len(MEDICAL_TEXTS))]
        scale = self.pass_length / sum(weights)
        counts = [max(1, round(w * scale)) for w in weights]
        counts[0] += self.pass_length - sum(counts)
        self.mix = [t for t, c in zip(MEDICAL_TEXTS, counts) for _ in range(c)]
        self.rng = random.Random(self.seed)

    def passes(self):
        service = self.service
        order = list(self.mix)
        self.rng.shuffle(order)
        steps: List[object] = []
        writes = (service.add_authorization, service.revoke_authorization)
        for index, sql in enumerate(order):
            if index and index % self.write_every == 0:
                steps.append((writes[(index // self.write_every - 1) % 2], self.churn_rule))
            steps.append(sql)
        steps.append((writes[1], self.churn_rule))
        return steps

    def measure(self, seconds: float, probe: SpeedProbe, recorder=None) -> Stats:
        return asyncio.run(self._measure(seconds, probe, recorder))

    async def _measure(self, seconds: float, probe: SpeedProbe, recorder) -> Stats:
        stats = Stats()
        service = QueryService(
            self.system,
            tenants=(TenantConfig("bench", rate=1e9, burst=1e9),),
            workers=self.clients,
            clock=time.perf_counter,
        )
        self.service = service
        await service.start()
        recent = deque(maxlen=2 * self.clients)
        state = {"steps": iter(()), "rid": 0}
        began = time.perf_counter()
        deadline = began + seconds

        def next_request() -> Optional[str]:
            while True:
                step = next(state["steps"], None)
                if step is None:
                    if state["rid"] and time.perf_counter() >= deadline:
                        return None
                    state["steps"] = iter(self.passes())
                    continue
                if isinstance(step, str):
                    return step
                _timed_write(stats, probe, *step)

        async def client() -> None:
            while True:
                sql = next_request()
                if sql is None:
                    return
                state["rid"] += 1
                stats.attempted += 1
                scope = recorder.request(state["rid"]) if recorder is not None else None
                if scope is not None:
                    scope.__enter__()
                start = time.perf_counter()
                try:
                    outcome = await service.submit(sql, tenant="bench")
                finally:
                    if scope is not None:
                        scope.__exit__()
                end = time.perf_counter()
                stats.latencies.append(end - start)
                stats.finished.append(end)
                if outcome.status != OK:
                    stats.fail(f"{outcome.status}: {outcome.error or outcome.rejection}")
                    continue
                checked = time.perf_counter()
                result = outcome.result
                # One execution can serve several coalesced answers; its
                # transfers count once.
                shared = any(result is seen for seen in recent)
                recent.append(result)
                self.check(stats, result, sql, shipped=not shared)
                outcome = result = None
                stats.aside_s += time.perf_counter() - checked

        await asyncio.gather(*(client() for _ in range(self.clients)))
        stats.wall_s = time.perf_counter() - began
        await service.stop()
        recent.clear()
        stats.service = service.snapshot()
        self.service = None
        return stats


SHARD_SERVERS = ("S1", "S2", "S3", "S4", "G1", "G2", "G3", "G4")
SHARD_RELATIONS = {"R": ("a", "b"), "T": ("c", "d"), "U": ("e", "f"), "V": ("g", "h")}
#: Answers are delivered to S1, so every shard ships its part there.
SHARD_RECIPIENT = "S1"
SHARD_QUERY = (
    "SELECT a, b, d, f, h FROM R JOIN T ON a = c "
    "JOIN U ON c = e JOIN V ON e = g"
)


class ShardedChain(Workload):
    """4 relations x 4000 rows, certified 4-shard hash co-partitioning."""

    name = "sharded-chain"
    builds = 10
    shards = 4
    rows = 4000
    expected_spans = (
        "sharding.execute",
        "sharding.certify",
        "sharding.split",
        "sharding.merge",
        "engine.executor.run",
        "core.planner.plan",
        "engine.operators.join_open",
    )

    def inputs(self):
        catalog_specs = [
            f"{name}({', '.join(attrs)}) @ S{i + 1}"
            for i, (name, attrs) in enumerate(SHARD_RELATIONS.items())
        ]

        def make_system():
            catalog = quick_catalog(*catalog_specs, edges=["a = c", "c = e", "e = g"])
            policy = Policy()
            for server in SHARD_SERVERS:
                for attrs in SHARD_RELATIONS.values():
                    policy.add(grant(server, " ".join(attrs)))
                policy.add(grant(server, "a b c d", "a = c"))
                policy.add(grant(server, "c d e f", "c = e"))
                policy.add(grant(server, "e f g h", "e = g"))
                policy.add(grant(server, "a b c d e f", "a = c, c = e"))
                policy.add(grant(server, "a b c d e f g h", "a = c, c = e, e = g"))
            return DistributedSystem(catalog, policy)

        instances = self._instances(random.Random(self.seed))
        group = PartitionGroup("bench", ["G1", "G2", "G3", "G4"])
        self.schemes = {
            name: HashPartitionScheme(name, [attrs[0]], self.shards, group)
            for name, attrs in SHARD_RELATIONS.items()
        }
        self.churn_rule = grant("S1", "a d", "a = c")
        return make_system, instances

    def _instances(self, rng: random.Random):
        """Unique keys per relation, with overlaps fixed so that the
        chain's joins keep 1/2, 1/4 and 1/8 of R's rows for every seed;
        only which keys and rows those are varies."""
        rows = self.rows
        pool = iter(rng.sample(range(10**6, 10**7), 4 * rows))
        fresh = lambda count: [next(pool) for _ in range(count)]  # noqa: E731
        keys = {"R": fresh(rows)}
        carried = keys["R"]
        for name, shared in (("T", rows // 2), ("U", rows // 4), ("V", rows // 8)):
            carried = rng.sample(carried, shared)
            keys[name] = carried + fresh(rows - shared)
        instances = {}
        for name, (key, payload) in SHARD_RELATIONS.items():
            column = keys[name]
            rng.shuffle(column)
            instances[name] = [
                {key: value, payload: f"{name}{i:04d}"} for i, value in enumerate(column)
            ]
        return instances

    def texts(self):
        return (SHARD_QUERY,)

    def prepare(self) -> None:
        super().prepare()
        certificate = self.system.certify_sharding(SHARD_QUERY, self.schemes)
        if not certificate.certified or certificate.mode != "hypercube":
            self.verdict_errors.append(f"not certified: {certificate.reason}")
        single = digest(
            self.system.execute(SHARD_QUERY, recipient=SHARD_RECIPIENT).table
        )
        if single != self.expected[SHARD_QUERY]:
            self.verdict_errors.append("single-copy execute differs from evaluate_plan")
        if self.expected[SHARD_QUERY][1] == 0:
            self.verdict_errors.append("degenerate instance: empty answer")

    def passes(self):
        return (SHARD_QUERY,)

    def serve(self, sql: str):
        return self.system.execute_sharded(
            sql, self.schemes, recipient=SHARD_RECIPIENT
        )

    def check(self, stats: Stats, result, sql: str, shipped: bool = True) -> None:
        stats.answers += 1
        if digest(result.table) != self.expected[sql]:
            stats.wrong += 1
            if len(stats.errors) < 5:
                stats.errors.append("sharded answer differs from single-copy")
        if result.mode != EXEC_PARTITIONED or result.fallback_reason:
            stats.fallbacks += 1
        stats.violations += result.violations()
        stats.bytes += result.summary_dict()["bytes"]
        stats.transfers += result.transfers()
        stats.rows_shipped += sum(r.transfers.total_rows() for r in result.shard_results)


WORKLOADS = {
    cls.name: cls for cls in (PaperJoin, FederationPlan, ServiceChurn, ShardedChain)
}

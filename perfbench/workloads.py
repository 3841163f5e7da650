"""The benchmark's workloads.

Each workload is built from the benchmark seed: its constructor derives
every input seed (and, for ``sweep``, the grid of run specs). The
runners generate the inputs themselves -- graphs, key distributions,
request schedules, tables -- inside each run, so inside the timed
section. A workload runs *cold sections*: a fresh pool, fresh machines
(every simulation starts with empty modelled caches) and, for ``sweep``,
a fresh result-cache directory. :meth:`cold` times one section and
checks its outputs; ``run.py`` repeats it for the run's duration.

Seed 0 gives the paper-default inputs: each input seed is the workload
module's default seed plus an offset derived from the benchmark seed.
"""

import itertools
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field

from repro.experiments import figures, serving
from repro.experiments.pool import ExperimentPool, IncompleteSweepError, RunSpec
from repro.workloads import hashtable, hats
from repro.workloads.serving import kvpaging, kvserve, nearstorage

from measure import PAPER_SPEEDUPS, digest, paper_err

#: Seeds of the serve workload per benchmark seed.
SERVE_SEEDS = 8
#: Runs of each of the sweep grid's 48 design points (192 runs).
SWEEP_REPLICAS = 4
#: Workers of the sweep's process pool (the CLI's default --jobs on 2 cores).
SWEEP_JOBS = 2


@dataclass
class Section:
    """One cold timed section and what its checks found."""

    seconds: float
    #: Outcomes of every run, in spec order (``ExperimentPool.run`` dicts).
    outcomes: list
    attempted: int
    #: Runs that failed or failed any check, paper-shape expectations
    #: included (the ``failed`` of the result line).
    failed: int
    #: Runs whose outputs are wrong: a run that raised (every run checks
    #: its oracle) or, on ``sweep``, a rerun not equal to the cold run.
    errors: int
    digest: str
    #: Simulated-vs-paper speedup error, or None without paper numbers.
    paper_err: float = None
    #: Pool counters (``consume_report``) and supervision retries.
    reports: list = field(default_factory=list)
    retries: int = 0
    #: Warm full-cache-hit rerun time (``sweep`` only).
    rerun_seconds: float = None


class RecordingPool(ExperimentPool):
    """An :class:`ExperimentPool` that keeps every outcome it returns."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.outcomes = []

    def run(self, specs):
        outcomes = super().run(specs)
        self.outcomes.extend(outcomes)
        return outcomes


class StudyWorkload:
    """Figure or serving-study runners on one inline, cache-less pool."""

    name = None

    def __init__(self, seed):
        #: ``(runner, kwargs)`` calls; each runner returns an Experiment.
        self.calls = self.inputs(seed)

    def inputs(self, seed):
        raise NotImplementedError

    def speedups(self, experiment):
        """Row label -> simulated speedup (figures with paper numbers)."""
        return {}

    def new_pool(self, workdir):
        return RecordingPool(jobs=1, cache_dir=None)

    def cold(self, workdir):
        pool = self.new_pool(workdir)
        attempted = failed = 0
        speedups = {}
        start = time.perf_counter()
        for runner, kwargs in self.calls:
            before = len(pool.outcomes)
            try:
                experiment = runner(pool=pool, **kwargs)
                passed = experiment.passed
                speedups.update(self.speedups(experiment))
            except IncompleteSweepError:
                passed = False
            runs = max(1, len(pool.outcomes) - before)
            attempted += runs
            if not passed:
                failed += runs
        seconds = time.perf_counter() - start
        errors = sum(1 for outcome in pool.outcomes if outcome["status"] != "ok")
        paper = PAPER_SPEEDUPS.get(self.name)
        return Section(
            seconds=seconds,
            outcomes=pool.outcomes,
            attempted=attempted,
            failed=failed,
            errors=errors,
            digest=digest(pool.outcomes),
            paper_err=paper_err(speedups, paper) if paper and not errors else None,
            reports=[pool.consume_report()],
            retries=pool.supervision["retries"],
        )


class Fig18(StudyWorkload):
    """Fig. 18: baseline and Leviathan at 24/64/128 B, no_padding, no_llc_mapping."""

    name = "fig18"

    def inputs(self, seed):
        params = {"seed": hashtable.DEFAULT_PARAMS["seed"] + seed}
        return [(figures.run_fig18, {"params": params})]

    def speedups(self, experiment):
        return {
            f"{row['object_size']}B/{row['variant']}": row["speedup"]
            for row in experiment.rows
        }


class Hats(StudyWorkload):
    """Fig. 20: baseline, sw_bdfs, tako, leviathan, ideal."""

    name = "hats"

    def inputs(self, seed):
        params = {"seed": hats.DEFAULT_PARAMS["seed"] + seed}
        return [(figures.run_fig20, {"params": params})]

    def speedups(self, experiment):
        return {row["variant"]: row["speedup"] for row in experiment.rows}


class Serve(StudyWorkload):
    """serve-replay, serve-scan and serve-paging over eight derived seeds.

    serve-replay runs the KV server's Leviathan variant twice, directly
    and replayed from its JSONL trace: GET/PUT offload, streamed range
    scans and the request-latency probe, checked for bit-identity.
    """

    name = "serve"
    #: ``(runner, workload module)``: each input seed is the module's
    #: default seed plus an offset derived from the benchmark seed.
    STUDIES = (
        (serving.run_serve_replay, kvserve),
        (serving.run_serve_scan, nearstorage),
        (serving.run_serve_paging, kvpaging),
    )

    def inputs(self, seed):
        return [
            (runner, {"params": {"seed": module.DEFAULT_PARAMS["seed"] + offset}})
            for offset in range(SERVE_SEEDS * seed, SERVE_SEEDS * (seed + 1))
            for runner, module in self.STUDIES
        ]


class ServeKv(Serve):
    """serve-kv over the same eight derived seeds; not declared (README finding 5)."""

    name = "serve-kv"
    STUDIES = ((serving.run_serve_kv, kvserve),)


def sweep_grid(seed):
    """A design-space grid of tiny hash-table runs on 4 tiles.

    Every seed runs the same 48 design points :data:`SWEEP_REPLICAS`
    times; the seed picks each run's table and keys and the run order.
    """
    points = list(
        itertools.product(
            ("run_baseline", "run_leviathan"),
            (4, 8),  # n_buckets
            (4, 8),  # nodes_per_bucket
            (4, 8),  # lookups_per_thread
            (24, 64, 128),  # object_size
        )
    )
    runs = [point for point in points for _ in range(SWEEP_REPLICAS)]
    random.Random(seed).shuffle(runs)
    specs = []
    for index, (variant, buckets, nodes, lookups, size) in enumerate(runs):
        params = {
            "n_buckets": buckets,
            "nodes_per_bucket": nodes,
            "n_threads": 4,
            "lookups_per_thread": lookups,
            "object_size": size,
            "seed": seed * len(runs) + index,
        }
        specs.append(
            RunSpec(
                f"repro.workloads.hashtable:{variant}",
                {"params": params, "n_tiles": 4},
                f"sweep/{index}",
            )
        )
    return specs


class Sweep:
    """The grid cold on the process backend, then rerun from the cache."""

    name = "sweep"

    def __init__(self, seed):
        self.specs = sweep_grid(seed)

    def new_pool(self, workdir, cache_dir=None):
        cache_dir = cache_dir or tempfile.mkdtemp(prefix="cache-", dir=workdir)
        return RecordingPool(jobs=SWEEP_JOBS, cache_dir=cache_dir, backend="local-process")

    def cold(self, workdir):
        pool = self.new_pool(workdir)
        start = time.perf_counter()
        outcomes = pool.run(self.specs)
        seconds = time.perf_counter() - start
        rerun_pool = self.new_pool(workdir, cache_dir=pool.cache_dir)
        start = time.perf_counter()
        again = rerun_pool.run(self.specs)
        rerun_seconds = time.perf_counter() - start
        reports = [pool.consume_report(), rerun_pool.consume_report()]
        shutil.rmtree(pool.cache_dir)
        # Each run must succeed cold and come back from the cache equal.
        failed = sum(
            1
            for first, second in zip(outcomes, again)
            if first["status"] != "ok"
            or second["status"] != "ok"
            or first["result"] != second["result"]
        )
        if reports[1].get("cached", 0) != len(self.specs) or reports[1].get("executed"):
            failed = len(self.specs)
        return Section(
            seconds=seconds,
            outcomes=outcomes,
            attempted=len(self.specs),
            failed=failed,
            errors=failed,
            digest=digest(outcomes),
            reports=reports,
            retries=pool.supervision["retries"] + rerun_pool.supervision["retries"],
            rerun_seconds=rerun_seconds,
        )

    def inline_seconds(self):
        """The same grid run inline and cache-less: the pool's baseline."""
        pool = RecordingPool(jobs=1, cache_dir=None)
        start = time.perf_counter()
        pool.run(self.specs)
        return time.perf_counter() - start


WORKLOADS = {cls.name: cls for cls in (Fig18, Hats, Serve, ServeKv, Sweep)}


def make(name, seed):
    return WORKLOADS[name](seed)


def simulated_instructions(machine):
    """Core plus engine instructions ``machine`` has simulated so far."""
    counters = machine.stats.counters
    return counters.get("core.instructions", 0) + counters.get("engine.instructions", 0)


class SimTimer:
    """Host time spent inside ``Machine.run`` and the instructions it simulated.

    Each ``Machine.run`` call is timed on its own (one timer per
    simulated machine) and counts the instructions simulated during that
    call alone: a machine run in phases (``hats``) calls it more than
    once, and its counters are cumulative. Forked pool workers inherit
    the wrapper; their memory never comes back, so they append their
    figures to files in ``spill_dir`` that :meth:`take` collects.
    """

    def __init__(self, spill_dir):
        self.spill_dir = spill_dir
        self.pid = os.getpid()
        self.instructions = 0
        self.seconds = 0.0
        self._original = None

    def install(self):
        from repro.sim.system import Machine

        original = self._original = Machine.run
        record = self._record

        def run(machine):
            before = simulated_instructions(machine)
            start = time.perf_counter()
            try:
                return original(machine)
            finally:
                seconds = time.perf_counter() - start
                record(simulated_instructions(machine) - before, seconds)

        Machine.run = run
        return self

    def uninstall(self):
        from repro.sim.system import Machine

        Machine.run = self._original

    def _record(self, instructions, seconds):
        if os.getpid() == self.pid:
            self.instructions += instructions
            self.seconds += seconds
            return
        path = os.path.join(self.spill_dir, f"machine-run-{os.getpid()}.txt")
        with open(path, "a") as handle:
            handle.write(f"{instructions} {seconds!r}\n")

    def take(self):
        """``(instructions, seconds)`` since the last call, workers included."""
        instructions, seconds = self.instructions, self.seconds
        for name in sorted(os.listdir(self.spill_dir)):
            path = os.path.join(self.spill_dir, name)
            with open(path) as handle:
                for line in handle:
                    count, elapsed = line.split()
                    instructions += int(count)
                    seconds += float(elapsed)
            os.remove(path)
        self.instructions, self.seconds = 0, 0.0
        return instructions, seconds

"""Pluggable executor backends behind the experiment pool.

The :class:`~repro.experiments.pool.ExperimentPool` owns *policy*
(caching, retry, deadlines, hang detection, graceful drain); a backend
owns *mechanism*: where a job dict actually executes and how its
worker can be observed and killed. Two local backends ship today:

- :class:`LocalInlineBackend` executes jobs synchronously in the
  calling process -- the pool's choice when one job at a time is all
  there is and nothing needs killing. Nothing to kill, no deadline
  enforcement (a blocking call cannot be preempted), bit-identical to
  calling the worker function directly.
- :class:`LocalProcessBackend` keeps up to N long-lived worker
  processes (forked where available), each with a pipe to the
  supervisor, and sends every job to an idle one. A sweep of many
  short runs pays one fork per worker, not one per run. Each worker
  runs one job at a time, which is what makes the supervision
  contract enforceable: a deadline or hang kill takes down exactly
  one run, never a shared pool, and a SIGKILLed worker surfaces as a
  :class:`WorkerDeath` for that one handle instead of poisoning every
  in-flight future the way a ``BrokenProcessPool`` does. A run may
  follow other runs in the same worker, so a spec must not rely on
  process-global state -- the inline backend imposes the same rule.

A future scale-out backend (SSH, cloud functions) implements the same
five methods -- ``start``/``capacity``/``submit``/``poll``/``kill`` --
and inherits the whole supervision story for free.

The worker loop carries a **chaos hook** for CI: setting
``LEVIATHAN_POOL_CHAOS="p=0.4;seed=7"`` makes a worker SIGKILL itself
with probability ``p`` before executing a job, decided
deterministically from ``(seed, spec hash, attempt)`` -- so a given
seed produces the same kill schedule on every run, and retried
attempts roll fresh deterministic dice. The ``pool-chaos`` CI job uses
this to prove a sweep completes bit-identically through requeue.
"""

import hashlib
import os
import signal
import time
from dataclasses import dataclass

#: Environment variable carrying the worker-kill chaos spec.
CHAOS_ENV = "LEVIATHAN_POOL_CHAOS"


@dataclass
class WorkerDeath:
    """A worker vanished without delivering an outcome.

    ``exitcode`` is the process exit status when known (negative =
    killed by that signal number, matching ``multiprocessing``).
    """

    exitcode: int = None
    message: str = ""

    def describe(self):
        if self.exitcode is not None and self.exitcode < 0:
            try:
                name = signal.Signals(-self.exitcode).name
            except ValueError:
                name = f"signal {-self.exitcode}"
            return f"worker killed by {name}"
        if self.exitcode is not None:
            return f"worker exited with status {self.exitcode}"
        return self.message or "worker died before delivering a result"


class ExecutorBackend:
    """The contract every executor backend implements.

    Handles returned by :meth:`submit` are opaque; the supervisor maps
    them back to its own attempt records. ``poll`` returns completed
    work as ``(handle, payload)`` pairs where ``payload`` is either
    the worker's outcome dict or a :class:`WorkerDeath`.
    """

    name = "abstract"
    #: Whether :meth:`kill` can terminate one running job (enables
    #: host-side deadlines and hang kills).
    supports_kill = False

    def start(self, workers):
        """Prepare for up to ``workers`` concurrent jobs; returns self."""
        return self

    def capacity(self):
        """Free worker slots right now."""
        raise NotImplementedError

    def submit(self, job):
        """Dispatch one job dict; returns an opaque handle."""
        raise NotImplementedError

    def poll(self, timeout=0.0):
        """Completed ``(handle, outcome_or_WorkerDeath)`` pairs.

        Blocks up to ``timeout`` seconds waiting for the first
        completion; returns everything ready by then.
        """
        raise NotImplementedError

    def kill(self, handle, reason=""):
        """Best-effort terminate the worker running ``handle``."""
        raise NotImplementedError

    def shutdown(self):
        """Terminate every in-flight worker and release resources."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()
        return False


class LocalInlineBackend(ExecutorBackend):
    """Synchronous execution in the calling process, one job at a time."""

    name = "local-inline"
    supports_kill = False

    def __init__(self):
        self._ready = []
        self._seq = 0

    def start(self, workers):
        return self

    def capacity(self):
        # One at a time, and only when the previous result was drained:
        # the supervisor journals each outcome before dispatching more.
        return 0 if self._ready else 1

    def submit(self, job):
        from repro.experiments.pool import _execute_job

        self._seq += 1
        handle = self._seq
        self._ready.append((handle, _execute_job(job)))
        return handle

    def poll(self, timeout=0.0):
        ready, self._ready = self._ready, []
        return ready

    def kill(self, handle, reason=""):
        pass  # nothing to kill: submit() already returned


@dataclass
class _Worker:
    """One long-lived worker process and the parent's end of its pipe."""

    process: object
    conn: object
    #: Set by :meth:`LocalProcessBackend.kill`: never reuse this worker.
    killed: bool = False

    def reap(self):
        """Join the process (SIGKILLing it if it lingers); close the pipe."""
        self.process.join(timeout=5.0)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=5.0)
        self.conn.close()


class LocalProcessBackend(ExecutorBackend):
    """At most ``workers`` long-lived worker processes, one job each at a time.

    :meth:`submit` sends the job dict to an idle worker over its pipe,
    forking a new worker only while fewer than ``workers`` are alive.
    Each worker loops: receive a job, run it, send the outcome back; it
    exits on the ``None`` sentinel :meth:`shutdown` sends, or on EOF.

    A worker that died, or that :meth:`kill` targeted, is reaped and
    never given another job -- even when its outcome reached the pipe
    before the signal did. A worker found dead while idle is replaced
    at the next :meth:`submit`. :meth:`shutdown` stops the idle workers
    and reaps every worker, so none outlives the sweep.

    Uses the ``fork`` start method where available (Linux -- workers
    inherit warm imports and the parent's run-log handler), falling
    back to the platform default elsewhere. Workers are daemonic, so an
    abandoned supervisor never leaks simulators.
    """

    name = "local-process"
    supports_kill = True

    def __init__(self, mp_context=None):
        import multiprocessing

        if mp_context is None:
            methods = multiprocessing.get_all_start_methods()
            mp_context = multiprocessing.get_context(
                "fork" if "fork" in methods else None
            )
        self._ctx = mp_context
        self._workers = 1
        self._idle = []  # live workers waiting for a job
        self._running = {}  # handle -> the _Worker running that job
        self._seq = 0

    def start(self, workers):
        self._workers = max(1, int(workers))
        return self

    def capacity(self):
        return self._workers - len(self._running)

    def submit(self, job):
        worker = self._idle_worker()
        try:
            worker.conn.send(job)
        except OSError:
            worker.reap()
            raise
        self._seq += 1
        self._running[self._seq] = worker
        return self._seq

    def _idle_worker(self):
        """A live idle worker, or a newly forked one when none is left."""
        while self._idle:
            worker = self._idle.pop()
            if worker.process.is_alive():
                return worker
            worker.reap()  # died while idle
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_loop, args=(child_conn,), name="pool-worker", daemon=True
        )
        try:
            process.start()
        except OSError:
            parent_conn.close()
            raise
        finally:
            child_conn.close()  # the worker owns its end now
        return _Worker(process, parent_conn)

    def poll(self, timeout=0.0):
        from multiprocessing import connection

        if not self._running:
            if timeout > 0:
                time.sleep(timeout)
            return []
        by_conn = {worker.conn: handle for handle, worker in self._running.items()}
        results = []
        for conn in connection.wait(list(by_conn), timeout=timeout):
            handle = by_conn[conn]
            worker = self._running.pop(handle)
            try:
                payload = conn.recv()
            except (EOFError, OSError):
                worker.reap()
                payload = WorkerDeath(exitcode=worker.process.exitcode)
            else:
                if worker.killed:
                    worker.reap()  # its outcome beat the signal
                else:
                    self._idle.append(worker)
            results.append((handle, payload))
        return results

    def kill(self, handle, reason=""):
        worker = self._running.get(handle)
        if worker is None:
            return
        worker.killed = True  # even if its outcome is already in the pipe
        if worker.process.is_alive():
            worker.process.kill()  # SIGKILL: a hung worker may ignore SIGTERM

    def shutdown(self):
        for worker in self._idle:
            try:
                worker.conn.send(None)
            except OSError:
                pass  # already dead: reap() joins it
        for worker in self._running.values():
            if worker.process.is_alive():
                worker.process.kill()
        for worker in [*self._idle, *self._running.values()]:
            worker.reap()
        self._idle.clear()
        self._running.clear()


#: Registered backend names.
BACKENDS = {
    "local-inline": LocalInlineBackend,
    "local-process": LocalProcessBackend,
}


def make_backend(backend):
    """Resolve ``backend`` (a registered name or an instance)."""
    if isinstance(backend, ExecutorBackend):
        return backend
    try:
        return BACKENDS[backend]()
    except KeyError:
        raise ValueError(
            f"unknown executor backend {backend!r}; "
            f"known: {', '.join(sorted(BACKENDS))}"
        ) from None


# ----------------------------------------------------------------------
# the worker loop
# ----------------------------------------------------------------------
def parse_chaos_spec(spec):
    """``"p=0.4;seed=7"`` -> ``(probability, seed)``; bad specs raise."""
    probability, seed = 0.0, 0
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        key, _, value = part.partition("=")
        key = key.strip()
        if key == "p":
            probability = float(value)
        elif key == "seed":
            seed = int(value)
        else:
            raise ValueError(f"unknown chaos field {key!r} in {spec!r}")
    if not 0.0 <= probability <= 1.0:
        raise ValueError(f"chaos probability must be in [0, 1], got {probability}")
    return probability, seed


def chaos_decision(probability, seed, run_hash, attempt):
    """Deterministic per-(seed, hash, attempt) kill decision."""
    if probability <= 0.0:
        return False
    digest = hashlib.sha256(f"{seed}:{run_hash}:{attempt}".encode()).digest()
    fraction = int.from_bytes(digest[:8], "big") / 2**64
    return fraction < probability


def _maybe_chaos_kill(job):
    """CI test hook: SIGKILL this worker per the chaos spec, if armed."""
    spec = os.environ.get(CHAOS_ENV)
    if not spec:
        return
    probability, seed = parse_chaos_spec(spec)
    if chaos_decision(probability, seed, job["hash"], job.get("attempt", 1)):
        os.kill(os.getpid(), signal.SIGKILL)


def _worker_loop(conn):
    """Body of one long-lived worker: run jobs until a sentinel or EOF."""
    from repro.experiments.pool import _execute_job

    while True:
        try:
            job = conn.recv()
        except EOFError:
            return
        if job is None:
            return
        _maybe_chaos_kill(job)
        conn.send(_execute_job(job))

"""Retry policy and failure taxonomy for the supervised executor.

The pool's supervision loop (:mod:`repro.experiments.pool`) classifies
every failed run attempt into one of two buckets:

- **transient** -- the *host* failed, not the workload: the worker
  process died (OOM killer, SIGKILL, a chaos hook), the run exceeded
  its wall-clock deadline, it stopped beating (hung worker), or
  the backend hit an :class:`OSError` dispatching it. The supervisor
  names the kind itself (the reason it killed a worker,
  ``worker-died`` for a worker that died unasked, ``dispatch-error``
  for a failed submit) and requeues the run with seeded exponential
  backoff until :attr:`RetryPolicy.max_attempts` is exhausted.
- **permanent** -- the *workload* raised. Re-running a deterministic
  simulator on the same kwargs reproduces the same exception, so these
  are journaled as ``error`` outcomes immediately (the pre-existing
  failure policy).

Backoff jitter is *seeded* (sha256 over ``(jitter_seed, key,
attempt)``), so a retried sweep schedules identically on every replay
-- determinism is load-bearing everywhere in this repo, including in
its failure handling.
"""

import hashlib
from dataclasses import dataclass

#: Failure kinds the supervisor attaches to a failed attempt; every one
#: is transient.
WORKER_DIED = "worker-died"
TIMEOUT = "timeout"
HUNG = "hung"
DISPATCH_ERROR = "dispatch-error"

#: Manifest/exception type names for terminal transient failures.
KIND_ERROR_TYPES = {
    WORKER_DIED: "WorkerDied",
    TIMEOUT: "RunTimeout",
    HUNG: "RunHung",
    DISPATCH_ERROR: "DispatchError",
}


@dataclass(frozen=True)
class RetryPolicy:
    """How the supervisor retries transient failures.

    ``max_attempts`` counts *total* attempts (1 disables retry);
    ``base_delay`` seconds before the second attempt, multiplied by
    ``factor`` per subsequent attempt and capped at ``max_delay``;
    ``jitter`` is the +/- fraction of the delay randomized by the
    seeded stream (0 disables jitter). All values are validated at
    construction so a bad config fails loudly, not mid-sweep.
    """

    max_attempts: int = 3
    base_delay: float = 0.5
    factor: float = 2.0
    jitter: float = 0.1
    jitter_seed: int = 0
    max_delay: float = 30.0

    def __post_init__(self):
        if not isinstance(self.max_attempts, int) or self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be an int >= 1, got {self.max_attempts!r}"
            )
        if self.base_delay < 0:
            raise ValueError(f"base_delay must be >= 0, got {self.base_delay!r}")
        if self.factor < 1.0:
            raise ValueError(f"factor must be >= 1.0, got {self.factor!r}")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter!r}")
        if not isinstance(self.jitter_seed, int):
            raise ValueError(f"jitter_seed must be an int, got {self.jitter_seed!r}")
        if self.max_delay < self.base_delay:
            raise ValueError(
                f"max_delay ({self.max_delay!r}) must be >= "
                f"base_delay ({self.base_delay!r})"
            )

    def delay(self, attempt, key=""):
        """Backoff before the attempt *after* failed attempt ``attempt``.

        Deterministic: the jitter fraction comes from a sha256 stream
        over ``(jitter_seed, key, attempt)``, so a resumed or replayed
        sweep backs off identically. ``key`` is conventionally the
        spec's content hash.
        """
        if attempt < 1:
            raise ValueError(f"attempt counts from 1, got {attempt!r}")
        raw = min(self.max_delay, self.base_delay * self.factor ** (attempt - 1))
        if self.jitter and raw > 0:
            digest = hashlib.sha256(
                f"{self.jitter_seed}:{key}:{attempt}".encode()
            ).digest()
            fraction = int.from_bytes(digest[:8], "big") / 2**64
            raw *= 1.0 + self.jitter * (2.0 * fraction - 1.0)
        return raw

    def allows(self, attempt):
        """True when attempt number ``attempt`` + 1 may still run."""
        return attempt < self.max_attempts

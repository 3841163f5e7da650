"""Causal span tracing over the event bus.

A *span* is one causally-linked episode of machine activity with a
start and an end in simulated time, plus nested *phases*. Two families
are stitched here from the correlation-ID'd events:

- **invoke spans** (``cat == "invoke"``): the full task-offload
  lifecycle keyed by the invoke's ``cid`` --

  ===============  =====================================================
  phase            bounded by
  ===============  =====================================================
  ``buffer-wait``  :class:`InvokeStalled` -> known ACK, or the retry's
                   re-:class:`InvokeDispatched` after a park
  ``nack-wait``    NACKing :class:`EngineTask` -> :class:`EngineTaskStart`
                   (the spill/retry wait for a free task context)
  ``execute``      :class:`EngineTaskStart` -> :class:`EngineTaskDone`
  ``future-wait``  :class:`EngineTaskDone` -> :class:`FutureFilled`
                   (store-update in flight back to the waiting core)
  ===============  =====================================================

  A span owning a future closes at the fill's arrival; chained
  continuation-passing invokes close at their own ``EngineTaskDone``.

- **stream spans** (``cat == "stream"``): one span per entry from
  :class:`StreamPush` to the consumer's :class:`StreamPop`, plus
  ``stream-wait`` spans covering producer/consumer blocking episodes
  (:class:`StreamBlocked` -> the push/pop that makes progress again).

The tracker is pure observation: it never touches machine state, and
all information arrives on the bus, so attaching it cannot change
simulated results.
"""


class Span:
    """One closed-or-open interval of correlated activity."""

    __slots__ = ("name", "cat", "cid", "pid", "start", "end", "args", "phases")

    def __init__(self, name, cat, cid, pid, start, args=None):
        self.name = name
        self.cat = cat
        self.cid = cid
        #: Tile the span is anchored to (Perfetto process).
        self.pid = pid
        self.start = start
        self.end = None
        self.args = args or {}
        #: ``[name, start, end]`` triples; ``end is None`` while open.
        self.phases = []

    # ------------------------------------------------------------------
    def open_phase(self, name, start):
        self.phases.append([name, start, None])

    def close_phase(self, name, end):
        """Close the most recent open phase called ``name`` (no-op if none)."""
        for phase in reversed(self.phases):
            if phase[0] == name and phase[2] is None:
                phase[2] = max(end, phase[1])
                return phase
        return None

    def close_all_phases(self, end):
        for phase in self.phases:
            if phase[2] is None:
                phase[2] = max(end, phase[1])

    def phase_cycles(self, name):
        """Total closed-phase cycles under ``name``."""
        return sum(p[2] - p[1] for p in self.phases if p[0] == name and p[2] is not None)

    @property
    def duration(self):
        return (self.end - self.start) if self.end is not None else None

    @property
    def well_formed(self):
        """Closed, non-negative, and every phase nested within the span."""
        if self.end is None or self.end < self.start:
            return False
        for name, start, end in self.phases:
            if end is None or end < start:
                return False
            if start < self.start or end > self.end:
                return False
        return True

    def __repr__(self):
        state = f"[{self.start:.0f},{self.end:.0f}]" if self.end is not None else f"[{self.start:.0f},...)"
        return f"Span({self.cat}:{self.name} cid={self.cid} {state})"


class SpanTracker:
    """Builds spans from correlation-ID'd bus events.

    ``max_spans`` bounds memory: once the total span count reaches the
    cap, new spans are counted in ``dropped`` instead of recorded
    (a truncated record says so, as the flight recorder's ``render``
    counts the events its ring overwrote). ``on_close``
    is an optional callback fired with each span as it closes, which is
    how the metrics layer derives latency histograms without a second
    pass.
    """

    def __init__(self, max_spans=200_000, on_close=None):
        self.max_spans = max_spans
        self.on_close = on_close
        self.finished = []
        self.dropped = 0
        self.unclosed = 0
        #: Lifecycle events whose cid was *never* begun: an end without
        #: a beginning (subscriber attached mid-run, or a torn event
        #: stream). Post-close chatter for a span that did exist -- e.g.
        #: a chained invoke's FutureFilled after its own close -- is not
        #: an orphan.
        self.orphans = 0
        self._open = {}
        #: Every cid ever begun (including spans dropped at the cap, so
        #: their later lifecycle events do not read as orphans).
        self._seen = set()
        #: (stream, side) -> open stream-wait span.
        self._blocked = {}
        self._wait_seq = 0

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def _begin(self, span):
        self._seen.add(span.cid)
        if len(self.finished) + len(self._open) >= self.max_spans:
            self.dropped += 1
            return None
        self._open[span.cid] = span
        return span

    def _lookup(self, cid):
        """The open span for ``cid``, counting never-begun cids as orphans."""
        span = self._open.get(cid)
        if span is None and cid not in self._seen:
            self.orphans += 1
        return span

    def is_open(self, cid):
        return cid in self._open

    def _close(self, span, end):
        span.end = max(end, span.start)
        span.close_all_phases(span.end)
        self._open.pop(span.cid, None)
        self.finished.append(span)
        if self.on_close is not None:
            self.on_close(span)

    @property
    def open_spans(self):
        return list(self._open.values())

    def __len__(self):
        return len(self.finished)

    # ------------------------------------------------------------------
    # invoke lifecycle
    # ------------------------------------------------------------------
    def invoke_dispatched(self, ev):
        if ev.cid is None:
            return
        span = self._open.get(ev.cid)
        if span is None:
            self._begin(
                Span(
                    f"invoke:{ev.action}",
                    "invoke",
                    ev.cid,
                    ev.tile,
                    ev.time,
                    args={
                        "location": ev.location,
                        "target": ev.target,
                        "inline": ev.inline,
                        "near_memory": ev.near_memory,
                        "owns_future": ev.owns_future,
                        "nacks": 0,
                        "redispatches": 0,
                    },
                )
            )
            return
        # A park/retry re-execution of the same invoke: the buffer wait
        # ends now, and placement may have changed in the meantime.
        span.close_phase("buffer-wait", ev.time)
        span.args["redispatches"] += 1
        span.args["target"] = ev.target

    def invoke_stalled(self, ev):
        if ev.cid is None:
            return
        span = self._lookup(ev.cid)
        if span is None:
            return
        span.open_phase("buffer-wait", ev.time)
        if ev.wait is not None:
            # The stall is known up front (next ACK time): close it.
            span.close_phase("buffer-wait", ev.time + ev.wait)

    def engine_task(self, ev):
        if ev.cid is None:
            return
        span = self._lookup(ev.cid)
        if span is None:
            return
        if not ev.accepted:
            span.args["nacks"] += 1
            # Bounded-retry mode NACKs the same invoke repeatedly; keep
            # one open nack-wait phase covering the whole retry episode.
            for phase in span.phases:
                if phase[0] == "nack-wait" and phase[2] is None:
                    return
            span.open_phase("nack-wait", ev.time)

    def engine_start(self, ev):
        if ev.cid is None:
            return
        span = self._lookup(ev.cid)
        if span is None:
            return
        span.close_phase("nack-wait", ev.time)
        span.open_phase("execute", ev.time)

    def engine_done(self, ev):
        if ev.cid is None:
            return
        span = self._lookup(ev.cid)
        if span is None:
            return
        span.close_phase("execute", ev.time)
        fill_time = span.args.get("future_filled_at")
        if span.args.get("owns_future") and fill_time is None:
            # The store-update has not landed yet: record completion and
            # keep the span open for FutureFilled.
            span.args["done_at"] = ev.time
            return
        end = ev.time if fill_time is None else max(ev.time, fill_time)
        if fill_time is not None and fill_time > ev.time:
            span.open_phase("future-wait", ev.time)
            span.close_phase("future-wait", fill_time)
        self._close(span, end)

    def future_filled(self, ev):
        if ev.cid is None:
            return
        span = self._lookup(ev.cid)
        if span is None:
            return
        span.args["future_filled_at"] = ev.time
        done_at = span.args.pop("done_at", None)
        if done_at is None:
            # Fill arrived before this invoke's own EngineTaskDone
            # (inline runs, or a chained hop filled the future): let
            # engine_done close the span at max(done, fill).
            return
        if ev.time > done_at:
            span.open_phase("future-wait", done_at)
            span.close_phase("future-wait", ev.time)
        self._close(span, max(done_at, ev.time))

    # ------------------------------------------------------------------
    # resilience lifecycle (bounded retry + Sec. VI-C degradation)
    # ------------------------------------------------------------------
    def invoke_retried(self, ev):
        """Annotate the invoke's span with its retry history."""
        if ev.cid is None:
            return
        span = self._lookup(ev.cid)
        if span is None:
            return
        span.args["retries"] = ev.attempt
        span.args["last_backoff"] = ev.backoff

    def degraded(self, ev):
        """Mark the invoke's span with the degradation path it took."""
        if ev.cid is None:
            return
        span = self._lookup(ev.cid)
        if span is None:
            return
        span.args["degraded"] = ev.kind
        if ev.fallback is not None:
            span.args["fallback"] = ev.fallback

    # ------------------------------------------------------------------
    # stream lifecycle
    # ------------------------------------------------------------------
    def stream_push(self, ev):
        # Data became available: any consumer-side wait for this stream
        # ends here.
        waiting = self._blocked.pop((ev.stream, "consumer"), None)
        if waiting is not None:
            self._close(waiting, ev.time)
        cid = ("stream", ev.stream, ev.index)
        if cid not in self._open:
            self._begin(
                Span(
                    f"{ev.stream}[{ev.index}]",
                    "stream",
                    cid,
                    ev.tile,
                    ev.time,
                    args={"occupancy_at_push": ev.occupancy},
                )
            )

    def stream_pop(self, ev):
        if ev.messaged:
            # The head-pointer message frees producer space.
            waiting = self._blocked.pop((ev.stream, "producer"), None)
            if waiting is not None:
                self._close(waiting, ev.time)
        span = self._lookup(("stream", ev.stream, ev.index))
        if span is not None:
            span.args["messaged"] = ev.messaged
            self._close(span, ev.time)

    def stream_blocked(self, ev):
        key = (ev.stream, ev.side)
        span = self._blocked.get(key)
        if span is not None:
            span.args["wakeups"] += 1
            return
        self._wait_seq += 1
        span = Span(
            f"stream-wait:{ev.stream}:{ev.side}",
            "stream-wait",
            ("stream-wait", ev.stream, ev.side, self._wait_seq),
            None,
            ev.time,
            args={"side": ev.side, "wakeups": 0},
        )
        if self._begin(span) is not None:
            self._blocked[key] = span

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    def finalize(self, now):
        """Close every still-open span at ``now``; returns the count.

        Spans closed here are flagged ``unclosed`` in their args -- a
        trace with any of them marks a run whose lifecycle events were
        incomplete (or a subscriber attached mid-run).
        """
        leftover = list(self._open.values())
        for span in leftover:
            span.args["unclosed"] = True
            self._close(span, now)
        self._blocked.clear()
        self.unclosed += len(leftover)
        return len(leftover)

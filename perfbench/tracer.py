"""In-memory span tracer that wraps public functions from outside.

A :class:`Tracer` replaces chosen functions on their classes with
wrappers that record one span per call.  The program under test is not
edited: every wrapper is installed with ``setattr`` on the owning class
and removed again by :meth:`Tracer.uninstall`.

Spans hold a name, wall start and end (``perf_counter_ns``), simulated
start and end, the parent span (the span that was executing when the
call was made) and a trace id shared by every span of one request or
one wave.

Generator functions are the common case in a discrete-event simulator:
the call returns a generator that the kernel resumes many times.  Their
wrapper drives the inner generator and records one *busy interval* per
resume, so a span's busy time is the sum of the wall time spent in its
resumes, while its simulated time is the span from creation to return.

Self time is computed once, at the end of the run, by
:func:`self_time_ns`: a span's busy time minus the part of it covered by
the union of its children's busy intervals.
"""

import gc
import inspect
import json
import time

_now_ns = time.perf_counter_ns


def _merged(intervals):
    """Sorted, disjoint ``[start, end]`` lists covering ``intervals``."""
    merged = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1][1] = end
        else:
            merged.append([start, end])
    return merged


def union_ns(intervals):
    """Total length of the union of ``(start, end)`` intervals."""
    return sum(end - start for start, end in _merged(intervals))


def self_time_ns(own, children):
    """Busy time of ``own`` intervals not covered by any child interval.

    ``own`` and ``children`` are iterables of ``(start, end)`` pairs.
    Children may overlap each other and may extend outside the parent
    (a spawned child keeps running after its parent returns); only the
    part inside the parent's own intervals is subtracted.
    """
    own = _merged(own)
    kids = _merged(children)
    covered = 0
    first = 0
    for own_start, own_end in own:
        while first < len(kids) and kids[first][1] <= own_start:
            first += 1
        index = first
        while index < len(kids) and kids[index][0] < own_end:
            covered += min(own_end, kids[index][1]) - max(own_start, kids[index][0])
            index += 1
    return sum(end - start for start, end in own) - covered


def _pairs(flat):
    return list(zip(flat[0::2], flat[1::2]))


class Span:
    """One recorded call: identity, both clocks, busy intervals."""

    __slots__ = (
        "index", "name", "parent", "trace",
        "wall_start", "wall_end", "sim_start", "sim_end", "busy",
    )

    def __init__(self, index, name, parent, trace, wall_start, sim_start):
        self.index = index
        self.name = name
        self.parent = parent
        self.trace = trace
        self.wall_start = wall_start
        self.wall_end = None
        self.sim_start = sim_start
        self.sim_end = None
        #: Flat ``[start0, end0, start1, end1, ...]`` wall intervals.
        self.busy = []

    def busy_ns(self):
        return union_ns(_pairs(self.busy))


class Tracer:
    """Records spans and counts at wrapped call sites.

    ``sim_now`` is a zero-argument callable returning the simulated
    clock.  Counts are plain integers keyed by name, bumped by the
    ``on_call`` hooks given to :meth:`wrap`.
    """

    def __init__(self, sim_now):
        self._sim_now = sim_now
        self.spans = []
        self.counts = {}
        self._stack = []
        self._patches = []
        self._next_trace = 1
        #: Trace id inherited by spans opened with an empty stack, set
        #: while a process spawned on behalf of a traced call runs.
        self.ambient = None

    # -- counting -----------------------------------------------------

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def current_trace(self):
        if self._stack:
            return self._stack[-1].trace
        return self.ambient

    # -- spans --------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            trace = parent.trace
        elif self.ambient is not None:
            trace = self.ambient
        else:
            trace = self._next_trace
            self._next_trace += 1
        span = Span(
            len(self.spans), name,
            None if parent is None else parent.index,
            trace, _now_ns(), self._sim_now(),
        )
        self.spans.append(span)
        return span

    def _close(self, span, wall_end):
        span.wall_end = wall_end
        span.sim_end = self._sim_now()

    def call(self, name, fn, args, kwargs):
        """Run plain ``fn(*args, **kwargs)`` inside a new span."""
        span = self._open(name)
        stack = self._stack
        stack.append(span)
        start = _now_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _now_ns()
            stack.pop()
            span.busy += (start, end)
            self._close(span, end)

    def drive(self, span, gen):
        """Generator: drive ``gen`` inside ``span``, one interval per resume."""
        stack = self._stack
        send, throw = gen.send, gen.throw
        value = error = None
        while True:
            stack.append(span)
            start = _now_ns()
            try:
                item = send(value) if error is None else throw(error)
            except StopIteration as stop:
                end = _now_ns()
                stack.pop()
                span.busy += (start, end)
                self._close(span, end)
                return stop.value
            except BaseException:
                end = _now_ns()
                stack.pop()
                span.busy += (start, end)
                self._close(span, end)
                raise
            end = _now_ns()
            stack.pop()
            span.busy += (start, end)
            try:
                value = yield item
                error = None
            except GeneratorExit:
                gen.close()
                self._close(span, _now_ns())
                raise
            except BaseException as exc:  # noqa: BLE001 - forwarded into gen
                value, error = None, exc

    def with_ambient(self, trace, gen):
        """Generator: run ``gen`` with ``ambient`` set to ``trace``."""
        send, throw = gen.send, gen.throw
        value = error = None
        while True:
            saved, self.ambient = self.ambient, trace
            try:
                item = send(value) if error is None else throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                self.ambient = saved
            try:
                value = yield item
                error = None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # noqa: BLE001 - forwarded into gen
                value, error = None, exc

    # -- installing wrappers --------------------------------------------

    def wrap(self, owner, attr, name, on_call=None, span=True):
        """Replace ``owner.attr`` with a recording wrapper.

        ``on_call(result_or_None, args)`` runs after every call when
        given (for counts).  ``span=False`` records counts only.
        Generator functions get a span per call driven by :meth:`drive`.
        """
        fn = owner.__dict__[attr]
        tracer = self
        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                if on_call is not None:
                    on_call(None, args)
                gen = fn(*args, **kwargs)
                if not span:
                    return gen
                return tracer.drive(tracer._open(name), gen)
        elif span:
            def wrapper(*args, **kwargs):
                result = tracer.call(name, fn, args, kwargs)
                if on_call is not None:
                    on_call(result, args)
                return result
        else:
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                on_call(result, args)
                return result
        wrapper.__name__ = getattr(fn, "__name__", attr)
        wrapper.__wrapped__ = fn
        return self.patch(owner, attr, wrapper)

    def patch(self, owner, attr, replacement):
        """Set ``owner.attr`` to ``replacement`` until :meth:`uninstall`."""
        original = owner.__dict__[attr]
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))
        return original

    def uninstall(self):
        """Restore every wrapped function, most recent first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------

    def self_times_ns(self):
        """Self time per span index, from busy intervals of children."""
        children = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        result = []
        for span in self.spans:
            own = _pairs(span.busy)
            kids = children.get(span.index)
            if not kids:
                result.append(union_ns(own))
                continue
            child_intervals = []
            for kid in kids:
                child_intervals.extend(_pairs(kid.busy))
            result.append(self_time_ns(own, child_intervals))
        return result

    def top_level_busy_ns(self):
        """Union of busy intervals of spans that have no parent span."""
        intervals = []
        for span in self.spans:
            if span.parent is None:
                intervals.extend(_pairs(span.busy))
        return union_ns(intervals)

    def write(self, path, self_times):
        """Write one JSON line per span to ``path``."""
        with open(path, "w", encoding="utf-8") as out:
            for span, self_ns in zip(self.spans, self_times):
                out.write(json.dumps({
                    "i": span.index, "name": span.name, "parent": span.parent,
                    "trace": span.trace,
                    "wall_start_ns": span.wall_start, "wall_end_ns": span.wall_end,
                    "sim_start_s": span.sim_start, "sim_end_s": span.sim_end,
                    "busy_ns": span.busy_ns(), "self_ns": self_ns,
                    "resumes": len(span.busy) // 2,
                }, separators=(",", ":")))
                out.write("\n")


class GCWatch:
    """Counts collections and pause time through ``gc.callbacks``."""

    def __init__(self):
        self.pause_ns = 0
        self.collections = [0, 0, 0]
        self._started = None

    def __call__(self, phase, info):
        if phase == "start":
            self._started = _now_ns()
        elif self._started is not None:
            self.pause_ns += _now_ns() - self._started
            self.collections[info["generation"]] += 1
            self._started = None

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)
        return False

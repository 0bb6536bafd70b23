"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files: :meth:`Recorder.wrap`
replaces a module attribute with a timing wrapper around the call into
a layer's public function, and :meth:`Recorder.restore` puts every
original back.  The program itself carries no tracing code.

A span is ``(id, parent, name, start, end, pid, attrs)``; the parent is
the span that was open in the same process when this one started.  A
layer's *self time* is its span's duration minus the part of that
interval its child spans cover (:func:`self_time`).

Pool workers forked by the engine inherit the wrappers.  A worker
appends its spans to ``<spill_dir>/<pid>.jsonl`` after each call of a
span marked ``flush_in_worker``, and the parent reads them back with
:meth:`Recorder.collect`.
"""

import functools
import json
import os
import time


def covered(intervals):
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(span, children):
    """``span``'s duration minus the part its children's intervals cover.

    Child intervals are clipped to the parent's interval first, so a
    child that (through clock skew between processes) pokes outside its
    parent never makes self time negative.
    """
    start, end = span["start"], span["end"]
    clipped = [(max(start, c["start"]), min(end, c["end"]))
               for c in children]
    clipped = [(a, b) for a, b in clipped if b > a]
    return max(0.0, (end - start) - covered(clipped))


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self, spill_dir=None):
        self.spans = []
        self.pid = os.getpid()
        self.spill_dir = spill_dir
        self._stack = []
        self._next_id = 0
        self._patches = []
        #: Hook names whose target did not exist in this program.
        self.missing = []

    # -- recording ---------------------------------------------------------

    def _open(self, name, attrs):
        self._next_id += 1
        span = {"id": "{}:{}".format(os.getpid(), self._next_id),
                "parent": self._stack[-1]["id"] if self._stack else None,
                "name": name, "start": time.perf_counter(), "end": None,
                "pid": os.getpid(), "attrs": attrs}
        self._stack.append(span)
        return span

    def _close(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()
        self.spans.append(span)

    def span(self, name, **attrs):
        """Context manager recording one span around a block."""
        recorder = self

        class _Span:
            def __enter__(self):
                self.span = recorder._open(name, attrs)
                return self.span

            def __exit__(self, *exc):
                recorder._close(self.span)
                return False

        return _Span()

    def wrap(self, owner, attr, name, describe=None, flush_in_worker=False):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``describe(args, kwargs, result)`` may return a dict of
        attributes (counts) for the span; it runs after the span closes
        so its cost lands in the parent, not in the measured layer.
        ``owner`` may also be a dict (``attr`` is then a key).  A missing
        target is noted in :attr:`missing` and skipped.
        """
        original = (owner.get(attr) if isinstance(owner, dict)
                    else getattr(owner, attr, None))
        if original is None:
            self.missing.append("{}.{}".format(
                getattr(owner, "__name__", type(owner).__name__), attr))
            return
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = recorder._open(name, {})
            try:
                result = original(*args, **kwargs)
            finally:
                recorder._close(span)
            if describe is not None:
                span["attrs"].update(describe(args, kwargs, result) or {})
            if flush_in_worker and os.getpid() != recorder.pid:
                recorder.spill()
            return result

        self._patches.append((owner, attr, original))
        _assign(owner, attr, wrapper)

    def restore(self):
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            _assign(owner, attr, original)

    # -- cross-process collection -------------------------------------------

    def spill(self):
        """Append this (worker) process's finished spans to its file.

        A forked worker also inherits the parent's spans from before the
        fork; those stay behind, so nothing is counted twice.
        """
        pid = os.getpid()
        own = [span for span in self.spans if span["pid"] == pid]
        if not self.spill_dir or not own:
            return
        path = os.path.join(self.spill_dir, "{}.jsonl".format(pid))
        with open(path, "a") as handle:
            for span in own:
                handle.write(json.dumps(span) + "\n")
        self.spans = [span for span in self.spans if span["pid"] != pid]

    def collect(self):
        """Move spans spilled by worker processes into :attr:`spans`."""
        if not self.spill_dir or not os.path.isdir(self.spill_dir):
            return
        for entry in sorted(os.listdir(self.spill_dir)):
            path = os.path.join(self.spill_dir, entry)
            with open(path) as handle:
                self.spans.extend(json.loads(line) for line in handle
                                  if line.strip())
            os.unlink(path)


def _assign(owner, attr, value):
    """``owner.attr = value``, or ``owner[attr] = value`` for a dict."""
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


def children_of(spans):
    """Map span id -> list of direct child spans."""
    kids = {}
    for span in spans:
        if span["parent"] is not None:
            kids.setdefault(span["parent"], []).append(span)
    return kids


def self_times(spans):
    """Return ``[(span, self_seconds)]`` for every span."""
    kids = children_of(spans)
    return [(span, self_time(span, kids.get(span["id"], ())))
            for span in spans]


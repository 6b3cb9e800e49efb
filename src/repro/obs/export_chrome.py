"""Chrome-trace / Perfetto JSON export of a session's span tree.

The output follows the Trace Event Format (the ``chrome://tracing`` /
Perfetto "JSON object" flavour): a top-level object with a
``traceEvents`` array of complete-duration events (``ph == "X"``) carrying
``pid``/``tid``/``ts``/``dur`` in microseconds, instant events
(``ph == "i"``) for zero-duration diagnostics (deopts, quarantines), and
thread-name metadata events (``ph == "M"``).  Every span was recorded in
this process, so all events share its ``pid``; threads — the foreground
session and the background speculation workers — are the rows.  Each
event's ``args`` embeds the span's own id and parent id, so the
hierarchical tree — including cross-thread parent links from background
workers back to the foreground ``speculate_async`` span — survives the
export losslessly and can be reassembled from the JSON alone.
"""

from __future__ import annotations

import json
import os


def chrome_trace(tracer) -> dict:
    """The tracer's spans as a Trace-Event-Format compatible dict."""
    pid = os.getpid()
    events: list[dict] = []
    threads_seen: dict[int, str] = {}
    for span in tracer.spans():
        threads_seen.setdefault(span.tid, span.thread)
        args = dict(span.args)
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        event = {
            "name": span.name,
            "cat": span.category,
            "pid": pid,
            "tid": span.tid,
            "ts": span.start * 1e6,
            "args": args,
        }
        if span.duration > 0.0:
            event["ph"] = "X"
            event["dur"] = span.duration * 1e6
        else:
            event["ph"] = "i"
            event["s"] = "t"
        events.append(event)
    metadata = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "args": {"name": thread_name},
        }
        for tid, thread_name in threads_seen.items()
    ]
    return {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ms",
        "otherData": {"producer": "pymajic"},
    }


def chrome_trace_json(tracer, indent: int | None = None) -> str:
    return json.dumps(chrome_trace(tracer), indent=indent)


def write_chrome_trace(tracer, path) -> str:
    """Serialize to ``path``; returns the path for chaining/logging."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(chrome_trace_json(tracer))
    return str(path)

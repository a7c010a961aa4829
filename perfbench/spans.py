"""In-memory spans and the seams that put them around each layer's calls.

A span has a name, start and end (``perf_counter_ns``), the id of the span
that caused it and the id of the request it belongs to.  Spans are kept in
a list and written out once the run ends.

The program's code is not edited.  Spans enter through public seams:

* engine calls: a wrapper engine registered under the same name with
  ``register_engine(..., replace=True)``;
* backend calls: ``ImageStore.wrap_backend``;
* store, cell-grid, bitstream and imaging calls: the module attribute or
  method the calling layer looks up at call time is rebound to a timed
  wrapper for the length of the traced replay, then restored.  A seam that
  no longer exists raises ``AttributeError`` instead of reporting zero.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from common import ENGINE


@dataclass
class Span:
    id: int
    name: str
    start: int
    end: int
    parent: Optional[int]
    request: Optional[int]
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end - self.start


class Tracer:
    """Thread-aware span recorder."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._next_request = 0

    def next_request(self) -> int:
        """A fresh request id for a root span."""
        with self._lock:
            self._next_request += 1
            return self._next_request

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, request: Optional[int] = None, **attrs) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        if request is None and parent is not None:
            request = parent.request
        span = Span(span_id, name, time.perf_counter_ns(), 0,
                    parent.id if parent else None, request, dict(attrs))
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter_ns()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def wrap(self, name: str, function: Callable) -> Callable:
        """``function`` timed as span ``name``."""

        def traced(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        return traced

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span in sorted(self.spans, key=lambda item: item.start):
                handle.write(json.dumps({
                    "id": span.id, "name": span.name, "start_ns": span.start,
                    "end_ns": span.end, "parent": span.parent,
                    "request": span.request, "attrs": span.attrs,
                }) + "\n")


class Breakdown:
    """Self time per layer name, per request, from a finished span list."""

    def __init__(self, spans: Sequence[Span]) -> None:
        self.spans = list(spans)
        children_ns: Dict[int, int] = {}
        for span in self.spans:
            if span.parent is not None:
                children_ns[span.parent] = children_ns.get(span.parent, 0) + span.duration_ns
        #: request id -> layer name -> self time (ns)
        self.self_ns: Dict[int, Dict[str, int]] = {}
        for span in self.spans:
            own = span.duration_ns - children_ns.get(span.id, 0)
            layers = self.self_ns.setdefault(span.request, {})
            layers[span.name] = layers.get(span.name, 0) + own

    def total_self_ms(self, name: str) -> float:
        return sum(layers.get(name, 0) for layers in self.self_ns.values()) / 1e6

    def mean_self_ms(self, names: Sequence[str], requests: Sequence[int]) -> float:
        """Mean per-request self time of ``names`` over the ``requests`` that entered them."""
        entered = [rid for rid in requests if any(n in self.self_ns.get(rid, {}) for n in names)]
        if not entered:
            return 0.0
        total = sum(self.self_ns[rid].get(n, 0) for rid in entered for n in names)
        return total / 1e6 / len(entered)

    def rate_mpx_s(self, name: str) -> float:
        """Samples per second inside spans ``name`` (their ``samples`` attribute), in Mpx/s."""
        group = self.named(name)
        busy = sum(span.duration_ns for span in group)
        return sum(span.attrs["samples"] for span in group) / busy * 1e3 if busy else 0.0

    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def has(self, request: int, name: str) -> bool:
        return name in self.self_ns.get(request, {})


# ---------------------------------------------------------------------- #
# seams
# ---------------------------------------------------------------------- #


def traced_engine(tracer: Tracer, inner):
    """An engine with ``inner``'s name whose calls are spans ``engine.*``."""
    from repro.core.interface import EngineBackend

    class TracedEngine(EngineBackend):
        name = inner.name

        def encode_payload(self, image, config):
            with tracer.span("engine.encode", samples=image.width * image.height):
                return inner.encode_payload(image, config)

        def decode_payload(self, payload, width, height, config):
            with tracer.span("engine.decode", samples=width * height):
                return inner.decode_payload(payload, width, height, config)

    return TracedEngine()


def traced_backend(tracer: Tracer):
    """``wrap_backend`` factory: the data calls of a backend become spans."""
    from repro.store.backends import BlobBackend

    class TracedBackend(BlobBackend):
        def __init__(self, inner) -> None:
            self.inner = inner

        def put(self, key, data):
            with tracer.span("backend.put", bytes=len(data)):
                self.inner.put(key, data)

        def get(self, key):
            with tracer.span("backend.get"):
                return self.inner.get(key)

        def read_range(self, key, offset, length):
            with tracer.span("backend.read_range", bytes=length):
                return self.inner.read_range(key, offset, length)

        def read_ranges(self, key, spans):
            with tracer.span("backend.read_ranges", bytes=sum(n for _, n in spans)):
                return self.inner.read_ranges(key, spans)

        def length(self, key):
            with tracer.span("backend.length"):
                return self.inner.length(key)

        def contains(self, key):
            with tracer.span("backend.contains"):
                return self.inner.contains(key)

        def keys(self):
            return self.inner.keys()

        def delete(self, key):
            self.inner.delete(key)

        def stats(self):
            return self.inner.stats()

        def close(self):
            self.inner.close()

    return TracedBackend


class Seams:
    """Installs and removes every span seam; use as a context manager."""

    #: (module, attribute, span name): module-level names the caller looks
    #: up at call time.
    MODULE_SEAMS: Tuple[Tuple[str, str, str], ...] = (
        ("repro.core.cellgrid", "encode_grid", "cellgrid.encode"),
        ("repro.core.cellgrid", "decode_selection", "cellgrid.decode"),
        ("repro.core.cellgrid", "assemble_selection", "cellgrid.assemble"),
        ("repro.store.store", "decode_one_cell", "cellgrid.decode"),
        ("repro.store.store", "assemble_selection", "cellgrid.assemble"),
        ("repro.store.store", "parse_stream_prefix", "bitstream.parse_header"),
        ("repro.store.store", "parse_stream_header", "bitstream.parse_header"),
        ("repro.serve.app", "encode_grid", "cellgrid.encode"),
        ("repro.serve.app", "image_to_netpbm", "imaging.netpbm_write"),
        ("repro.serve.app", "read_image", "imaging.netpbm_read"),
    )

    def __init__(self, tracer: Tracer, stores: Sequence = ()) -> None:
        self.tracer = tracer
        self.stores = list(stores)
        self._undo: List[Callable[[], None]] = []

    def _rebind(self, owner, attribute: str, span_name: str) -> None:
        original = getattr(owner, attribute)
        if attribute in getattr(owner, "__dict__", {}):
            restore = original
        else:
            restore = None
        setattr(owner, attribute, self.tracer.wrap(span_name, original))

        def undo() -> None:
            if restore is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, restore)

        self._undo.append(undo)

    def __enter__(self) -> "Seams":
        import importlib

        from repro.core.cellgrid import DecodedSelection
        from repro.core.interface import get_engine, register_engine

        inner = get_engine(ENGINE)
        register_engine(traced_engine(self.tracer, inner), replace=True)
        self._undo.append(lambda: register_engine(inner, replace=True))
        for module_name, attribute, span_name in self.MODULE_SEAMS:
            self._rebind(importlib.import_module(module_name), attribute, span_name)
        self._rebind(DecodedSelection, "image", "imaging.build_image")
        for store in self.stores:
            backend = store.backend
            store.wrap_backend(traced_backend(self.tracer))
            self._undo.append(lambda store=store, backend=backend: setattr(store, "backend", backend))
            for method, span_name in (
                ("get_region", "store.read"),
                ("put_stream", "store.put_stream"),
            ):
                self._rebind(store, method, span_name)
        return self

    def __exit__(self, *exc_info) -> None:
        while self._undo:
            self._undo.pop()()

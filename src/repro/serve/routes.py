"""The declarative HTTP API surface of the serve tier.

One table — :data:`ROUTES` — is the single source of truth for every
endpoint the tier speaks.  Three consumers dispatch from it:

* the in-process server (:class:`~repro.serve.app.ReproServer`) matches
  requests against it and calls the named handler method;
* the multi-process proxy (:mod:`repro.serve.proxy`) matches against the
  *same* table and forwards to shard workers, so the two topologies
  cannot drift apart route by route;
* the docs gate (``benchmarks/check_docs.py``) renders every entry and
  diffs it against ``docs/api.md``, so adding a route without
  documenting it fails CI.

The 405-vs-404 distinction is *derived* from the table instead of a
hand-kept prefix list: a request whose path matches some route's shape
but whose method matches none answers ``405``; a path no route shape
matches answers ``404``.

The stable **error envelope** also lives here: every error response body
is ``{"error": message, "code": code, "request_id": id}`` where ``code``
is one of :data:`ERROR_CODES` — a machine-readable failure class clients
dispatch on (:meth:`~repro.serve.client.ServeClient` raises a typed
exception per code) without sniffing status text.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.bitstream import SUPPORTED_VERSIONS
from repro.core.interface import engine_names
from repro.exceptions import (
    BlobNotFoundError,
    ConfigError,
    DeadlineExceededError,
    ImageFormatError,
    OverloadedError,
    ReproError,
    StoreError,
)
from repro.serve.http import HttpProtocolError, json_payload

__all__ = [
    "ERROR_CODES",
    "ROUTES",
    "Route",
    "classify_error",
    "error_payload",
    "match_route",
    "new_request_id",
    "route_templates",
    "split_path",
    "status_for",
    "version_payload",
]


@dataclass(frozen=True)
class Route:
    """One endpoint: method + path shape + the handler that serves it.

    ``pattern`` is the path split into segments; a segment named in
    braces (``{key}``, ``{plane}``, ``{range}``) captures that path part
    as a parameter, converted by :data:`_CONVERTERS`.  ``handler`` names
    the server method (``_handle_<handler>``) both the in-process app
    and the proxy implement; ``endpoint`` is the stats label.
    ``admission_exempt`` routes bypass admission control and rate limits
    (an operator must be able to observe an overloaded server);
    ``streaming`` routes honour ``?stream=1``.
    """

    method: str
    pattern: Tuple[str, ...]
    endpoint: str
    handler: str
    admission_exempt: bool = False
    streaming: bool = False

    @property
    def template(self) -> str:
        """The route as documented: ``GET /images/{key}/region/{range}``."""
        return "%s /%s" % (self.method, "/".join(self.pattern))


def _convert_plane(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError("plane index %r is not an integer" % text) from None


def _convert_range(text: str) -> Tuple[int, int]:
    start, separator, stop = text.partition("-")
    if not separator:
        raise ConfigError("region must be START-STOP stripe indices, got %r" % text)
    try:
        return int(start), int(stop)
    except ValueError:
        raise ConfigError(
            "region must be START-STOP stripe indices, got %r" % text
        ) from None


#: Parameter converters by placeholder name; unlisted names pass through
#: as strings.  Conversion failures are client errors (400).
_CONVERTERS: Dict[str, Callable[[str], object]] = {
    "plane": _convert_plane,
    "range": _convert_range,
}


ROUTES: Tuple[Route, ...] = (
    Route("GET", ("healthz",), "healthz", "healthz", admission_exempt=True),
    Route("GET", ("stats",), "stats", "stats", admission_exempt=True),
    Route("GET", ("version",), "version", "version", admission_exempt=True),
    Route("GET", ("catalog",), "catalog", "catalog"),
    Route("PUT", ("images",), "put_image", "put_image"),
    Route("GET", ("images", "{key}"), "get_image", "get_image"),
    Route("DELETE", ("images", "{key}"), "delete_image", "delete_image"),
    Route("GET", ("images", "{key}", "plane", "{plane}"), "get_plane", "get_plane"),
    Route(
        "GET",
        ("images", "{key}", "region", "{range}"),
        "get_region",
        "get_region",
        streaming=True,
    ),
    Route(
        "POST",
        ("images", "{key}", "regions"),
        "get_regions",
        "get_regions",
        streaming=True,
    ),
)


def split_path(path: str) -> List[str]:
    """A request path as non-empty segments (the matcher's input shape)."""
    return [part for part in path.split("/") if part]


def _pattern_params(
    pattern: Sequence[str], parts: Sequence[str]
) -> Optional[Dict[str, object]]:
    """Parameters captured by ``pattern`` over ``parts``; None on shape
    mismatch.  Conversion errors propagate (the shape *did* match)."""
    if len(pattern) != len(parts):
        return None
    params: Dict[str, object] = {}
    for segment, part in zip(pattern, parts):
        if segment.startswith("{") and segment.endswith("}"):
            name = segment[1:-1]
            converter = _CONVERTERS.get(name)
            params[name] = converter(part) if converter is not None else part
        elif segment != part:
            return None
    return params


def match_route(
    method: str, parts: Sequence[str], path: str = ""
) -> Tuple[Route, Dict[str, object]]:
    """Match one request against :data:`ROUTES`.

    Returns the matching route and its captured, converted parameters.
    A path that matches some route's shape under a different method
    raises a 405 :class:`HttpProtocolError`; a path matching no shape at
    all raises :class:`BlobNotFoundError` (answered 404).  Parameter
    conversion failures raise :class:`ConfigError` (answered 400).
    """
    if not path:
        path = "/" + "/".join(str(part) for part in parts)
    shape_matched = False
    for route in ROUTES:
        if len(route.pattern) != len(parts):
            continue
        if route.method != method:
            # Defer conversion: shape comparison only, so GET /images/x/
            # plane/y with a bad plane under the wrong method stays 405.
            literal_match = all(
                segment.startswith("{") or segment == part
                for segment, part in zip(route.pattern, parts)
            )
            shape_matched = shape_matched or literal_match
            continue
        params = _pattern_params(route.pattern, parts)
        if params is not None:
            return route, params
    if shape_matched:
        raise HttpProtocolError(405, "%s is not supported on %s" % (method, path))
    raise BlobNotFoundError("no route for %s %s" % (method, path))


def route_templates() -> List[str]:
    """Every route rendered as documented — the docs-gate contract."""
    return [route.template for route in ROUTES]


# ---------------------------------------------------------------------- #
# error envelope
# ---------------------------------------------------------------------- #

#: Machine-readable failure classes of the error envelope, with the HTTP
#: status each is normally answered with.  Clients dispatch on the code;
#: the status is advisory (proxies forward worker envelopes verbatim).
ERROR_CODES: Dict[str, int] = {
    "bad_request": 400,
    "not_found": 404,
    "method_not_allowed": 405,
    "protocol": 400,
    "shed": 429,
    "deadline": 504,
    "draining": 503,
    "upstream_unhealthy": 503,
    "internal": 500,
}

_STATUS_CODES: Dict[int, str] = {
    400: "bad_request",
    404: "not_found",
    405: "method_not_allowed",
    408: "protocol",
    411: "protocol",
    413: "protocol",
    429: "shed",
    431: "protocol",
    500: "internal",
    501: "protocol",
    503: "draining",
    504: "deadline",
}


#: Typed failures by intent: (exception types, HTTP status, envelope
#: code), first match wins.  Anything unmapped is a server-side ``500``.
_ERROR_CLASSES: Tuple[Tuple[Tuple[type, ...], int, str], ...] = (
    ((OverloadedError,), 429, "shed"),
    ((DeadlineExceededError,), 504, "deadline"),
    ((BlobNotFoundError,), 404, "not_found"),
    ((ConfigError, ImageFormatError), 400, "bad_request"),
    # Every replica that could hold the bytes was unreadable — a sick
    # storage tier, not a client mistake.
    ((StoreError,), 503, "upstream_unhealthy"),
)


def status_for(error: BaseException) -> int:
    """The HTTP status a failure is answered with.

    One mapping for the dispatch (which answers with it) and the replica
    walk (which classes an in-process owner failure by it, see
    :mod:`repro.serve.replicas`).  Anything unmapped — a corrupt stored
    stream, a model state violation, a handler bug — is a ``500``.
    """
    if isinstance(error, HttpProtocolError):
        return error.status
    for types, status, _ in _ERROR_CLASSES:
        if isinstance(error, types):
            return status
    return 500


def classify_error(status: int, error: Optional[BaseException] = None) -> str:
    """The envelope code for one failure: exception type first, then status.

    The exception carries more intent than the status (a
    :class:`StoreError` is an unhealthy upstream shard regardless of how
    an older layer mapped it), so typed errors win; anything unmapped
    falls back on the status table and finally on ``internal``.
    """
    if isinstance(error, HttpProtocolError):
        return _STATUS_CODES.get(error.status, "protocol")
    for types, _, code in _ERROR_CLASSES:
        if isinstance(error, types):
            return code
    if isinstance(error, ReproError):
        return "internal"
    return _STATUS_CODES.get(status, "internal")


def new_request_id() -> str:
    """A fresh request id: 12 hex chars, unique enough to grep a log by."""
    return secrets.token_hex(6)


def error_payload(message: str, code: str, request_id: str) -> bytes:
    """The structured error envelope every error response carries."""
    return json_payload({"error": message, "code": code, "request_id": request_id})


# ---------------------------------------------------------------------- #
# version surface
# ---------------------------------------------------------------------- #


def server_version() -> str:
    """The package version the serving code was imported from."""
    import repro

    return repro.__version__


def version_payload() -> Dict[str, object]:
    """The ``GET /version`` document: package + format + engine surface.

    The proxy compares ``version`` against each worker's at startup and
    refuses mismatched workers — a rolling deploy must not silently mix
    wire behaviours behind one proxy.
    """
    return {
        "version": server_version(),
        "container_versions": list(SUPPORTED_VERSIONS),
        "engines": list(engine_names()),
    }

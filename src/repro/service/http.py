"""The wire conventions shared by the HTTP server and the shard router.

The single-node server (:mod:`repro.service.async_http`) exposes

* ``GET /healthz`` — liveness plus owner count (and, when the store is
  WAL-backed, the recovery report and last durable sequence number);
* ``GET /readyz`` — readiness: snapshot loaded, WAL replayed, scheduler
  accepting work; 503 while starting or draining;
* ``GET /metrics`` — engine cache/latency counters, scheduler state,
  circuit-breaker state, admission counters, and WAL append/fsync
  counters;
* ``GET /owners`` — registered owners with versions and cache freshness;
* ``GET /measures`` — the registered risk measures (name, description,
  default flag) served straight from :mod:`repro.measures`;
* ``GET /score?owner=<id>[&measure=<name>]`` / ``POST /score``
  (``{"owner": <id>, "measure": <name>}``) — one owner's risk score
  under the named measure (default ``stranger``), served cold, warm, or
  from cache; an unknown measure is a 400 listing the registry;
* ``POST /score-batch`` (``{"owners": [<id>, ...], "measure": <name>}``)
  — many owners in one request, streamed back as NDJSON (one JSON
  object per line, in request order) as each score completes; per-owner
  failures become error lines instead of failing the whole batch;
* ``POST /mutate`` — one store mutation (``add_friendship``,
  ``remove_friendship``, ``update_profile``, ``add_user``,
  ``grant_labels``, ``touch``); a 200 means the mutation is applied
  *and*, on a WAL-backed store, durable — acknowledged-then-lost cannot
  happen;
* ``POST /slice/export|import|detach|digest`` — the shard-side handoff
  surface for live rebalancing, driven by the router's rebalance
  coordinator, not by clients.

The router (:mod:`repro.service.router`) speaks the same conventions in
front of the shard workers.  This module holds what both share, once:
the lifecycle flags (:class:`ServiceState`), request parsing
(:class:`RequestParsingMixin`: ``Content-Length``, ``?owner=``, the JSON
body, ``{"owner": …}``, ``{"owners": […]}``, ``measure``, ``op``), and
the ``/mutate`` exception-to-status table (:func:`mutation_failure`).

Backpressure and outage speak different status codes: saturation is
429 + ``Retry-After`` (the client should slow down), while drain or
shutdown is 503 (the client should fail over).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from ..errors import (
    GraphError,
    SerializationError,
    UnknownOwnerError,
    UnknownUserError,
    WalError,
)
from ..measures import available_measures
from .wal import MUTATION_OPS

# Sentinel distinguishing "measure was invalid (response already sent)"
# from "no measure requested" (None → the engine default).
_INVALID_MEASURE = object()

#: Everything a store mutation may raise that maps to a status code
#: (see :func:`mutation_failure`); anything else is a server fault.
MUTATION_ERRORS = (
    UnknownUserError,
    UnknownOwnerError,
    GraphError,
    SerializationError,
    KeyError,
    TypeError,
    ValueError,
    WalError,
)


@dataclass
class ServiceState:
    """Mutable lifecycle flags shared by the server and its operator.

    ``ready`` flips true once the store is loaded (snapshot restored and
    WAL replayed, for durable stores) and the service may take traffic;
    ``draining`` flips true on SIGTERM/SIGINT and never flips back.
    Plain attribute reads/writes — each flag is a single word, and the
    readers tolerate staleness of one request.
    """

    ready: bool = True
    draining: bool = False
    detail: str = "ok"


def parse_content_length(value: str | None) -> int | None:
    """The body size a ``Content-Length`` header announces.

    An absent or empty header means no body (0).  Anything but a plain
    non-negative decimal integer returns ``None``: the body's extent is
    then unknown, so the caller must answer 400 and close the connection
    rather than guess where the next request starts.
    """
    if value is None:
        return 0
    value = value.strip()
    if not value:
        return 0
    if not (value.isascii() and value.isdigit()):
        return None
    return int(value)


def mutation_failure(op: str, error: Exception) -> tuple[int, dict[str, Any]]:
    """The ``(status, document)`` answering a failed ``/mutate``.

    ``error`` must be one of :data:`MUTATION_ERRORS`.  A
    :class:`~repro.errors.WalError` is a 500 and the mutation is *not*
    acknowledged: under ``"always"`` the append failed before the
    mutation applied; under ``"group"`` the fsync barrier failed after
    it applied in memory, poisoning the log until a restart recovers
    from disk — either way the client must not treat it as durable.
    """
    if isinstance(error, (UnknownUserError, UnknownOwnerError)):
        return 404, {"error": str(error)}
    if isinstance(error, (GraphError, SerializationError)):
        return 400, {"error": str(error)}
    if isinstance(error, WalError):
        return 500, {"error": str(error)}
    return 400, {"error": f"malformed arguments for {op!r}: {error}"}


class RequestParsingMixin:
    """Request parsing shared by the server and router handlers.

    Both speak the same wire conventions and answer malformed input with
    the same 400 documents.  Each helper returns the parsed value, or
    ``None`` (:data:`_INVALID_MEASURE` for measures) after it has already
    sent the 400.  The host class provides ``_respond(status, document,
    retry_after=None)``, ``_request_body()`` (the raw body bytes, or
    ``None`` after rejecting a malformed ``Content-Length``), and a
    ``close_connection`` flag.
    """

    def _reject_content_length(self, value: str | None) -> None:
        """400 + ``Connection: close`` for a malformed ``Content-Length``."""
        self.close_connection = True
        self._respond(400, {"error": f"invalid Content-Length {value!r}"})

    def _json_body(self) -> dict[str, Any] | None:
        raw = self._request_body()
        if raw is None:
            return None
        try:
            body = json.loads(raw.decode("utf-8") or "{}")
        except (json.JSONDecodeError, UnicodeDecodeError):
            body = None
        if not isinstance(body, dict):
            self._respond(400, {"error": "body must be a JSON object"})
            return None
        return body

    def _owner_from_query(self, query: dict[str, list[str]]) -> int | None:
        values = query.get("owner")
        if not values:
            self._respond(400, {"error": "missing ?owner=<id>"})
            return None
        try:
            return int(values[0])
        except ValueError:
            self._respond(400, {"error": f"invalid owner id {values[0]!r}"})
            return None

    def _owner_from_body(self, body: dict[str, Any]) -> int | None:
        if "owner" not in body:
            self._respond(
                400, {"error": 'body must be JSON like {"owner": <id>}'}
            )
            return None
        owner_id = body["owner"]
        try:
            return int(owner_id)
        except (ValueError, TypeError):
            self._respond(400, {"error": f"invalid owner id {owner_id!r}"})
            return None

    def _owners_from_body(
        self, body: dict[str, Any], allow_empty: bool = False
    ) -> list[int] | None:
        """The ``"owners"`` list of integer ids (non-empty by default)."""
        owners = body.get("owners")
        if (
            not isinstance(owners, list)
            or not (owners or allow_empty)
            or not all(
                isinstance(o, int) and not isinstance(o, bool) for o in owners
            )
        ):
            self._respond(
                400,
                {"error": 'body must be JSON like {"owners": [<id>, ...]}'},
            )
            return None
        return owners

    def _mutation_op(self, body: dict[str, Any]) -> str | None:
        """The body's ``"op"``, which must name a store mutation."""
        op = body.get("op")
        if op not in MUTATION_OPS:
            self._respond(
                400,
                {"error": f"unknown op {op!r}", "ops": list(MUTATION_OPS)},
            )
            return None
        return op

    def _measure_from_values(self, values: list[str] | None):
        """Validate an optional requested measure name.

        Returns the name (or ``None`` when absent, keeping the engine
        default).  An unregistered name answers 400 with the registry's
        menu and returns :data:`_INVALID_MEASURE`.
        """
        if not values:
            return None
        name = values[0]
        if name not in available_measures():
            self._respond(
                400,
                {
                    "error": (
                        f"unknown risk measure {name!r}; "
                        "see GET /measures"
                    ),
                    "measures": list(available_measures()),
                },
            )
            return _INVALID_MEASURE
        return name

    def _measure_from_body(self, body: dict[str, Any]):
        """The optional ``"measure"`` field of a JSON body, validated."""
        if "measure" not in body or body["measure"] is None:
            return None
        measure = body["measure"]
        if not isinstance(measure, str):
            self._respond(
                400,
                {
                    "error": f"invalid measure {measure!r}; expected a name",
                    "measures": list(available_measures()),
                },
            )
            return _INVALID_MEASURE
        return self._measure_from_values([measure])


__all__ = [
    "MUTATION_ERRORS",
    "RequestParsingMixin",
    "ServiceState",
    "mutation_failure",
    "parse_content_length",
]

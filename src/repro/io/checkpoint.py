"""Checkpoint/resume for long-running risk studies.

The paper's deployment ran for two months; a crash on day 40 must not
lose 40 days of owner labels.  The checkpoint layer persists per-pool
learning state as a study progresses:

* :func:`pool_result_to_dict` / :func:`pool_result_from_dict` — *full
  fidelity* round-trips of :class:`~repro.learning.results.PoolResult`
  (unlike the one-way logging export in
  :mod:`repro.io.serialization`, every round, score, and flag survives);
* :class:`CheckpointStore` — atomic JSON documents in a directory, one
  per key (``<key>.json``, compact and key-sorted, streamed to a temp
  file + rename);
* :class:`SessionCheckpointer` — records each completed pool, so a
  killed session resumes by skipping the completed pools and running
  the rest.  Every pool samples from its own RNG and every injected
  fault is keyed on ``(seed, user, attempt)``, so a checkpoint is just
  the set of completed pools: no random state is saved.

File format (version 2; version 1 also saved the shared session RNG
and is refused)::

    {
      "version": 2,
      "key": "owner-7",
      "pools": [<pool document>, ...]
    }
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterator
from pathlib import Path
from typing import Any

from ..errors import CheckpointError
from ..learning.results import PoolResult, RoundRecord
from ..learning.stopping import StopReason
from ..types import RiskLabel

_FORMAT_VERSION = 2


# ---------------------------------------------------------------------------
# full-fidelity result round-trips
# ---------------------------------------------------------------------------
def _labels_to_dict(labels) -> dict[str, int]:
    return {str(user): int(label) for user, label in sorted(labels.items())}


def _labels_from_dict(document: dict[str, int]) -> dict[int, RiskLabel]:
    return {
        int(user): RiskLabel(int(label)) for user, label in document.items()
    }


def round_record_to_dict(record: RoundRecord) -> dict[str, Any]:
    """Serialize one round with everything needed to rebuild it."""
    return {
        "round_index": record.round_index,
        "queried": list(record.queried),
        "answers": _labels_to_dict(record.answers),
        "validation_pairs": [list(pair) for pair in record.validation_pairs],
        "rmse": record.rmse,
        "predicted_scores": {
            str(user): score
            for user, score in sorted(record.predicted_scores.items())
        },
        "predicted_labels": _labels_to_dict(record.predicted_labels),
        "unstabilized": sorted(record.unstabilized),
        "stabilized": record.stabilized,
        "abstained": list(record.abstained),
    }


def round_record_from_dict(document: dict[str, Any]) -> RoundRecord:
    """Rebuild one round; inverse of :func:`round_record_to_dict`."""
    try:
        return RoundRecord(
            round_index=int(document["round_index"]),
            queried=tuple(int(user) for user in document["queried"]),
            answers=_labels_from_dict(document["answers"]),
            validation_pairs=tuple(
                (int(a), int(b)) for a, b in document["validation_pairs"]
            ),
            rmse=document["rmse"],
            predicted_scores={
                int(user): float(score)
                for user, score in document["predicted_scores"].items()
            },
            predicted_labels=_labels_from_dict(document["predicted_labels"]),
            unstabilized=frozenset(
                int(user) for user in document["unstabilized"]
            ),
            stabilized=bool(document["stabilized"]),
            abstained=tuple(int(user) for user in document.get("abstained", [])),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise CheckpointError(
            f"malformed round record: {error}"
        ) from error


def pool_result_to_dict(result: PoolResult) -> dict[str, Any]:
    """Serialize a pool result with full fidelity."""
    return {
        "pool_id": result.pool_id,
        "nsg_index": result.nsg_index,
        "rounds": [round_record_to_dict(record) for record in result.rounds],
        "owner_labels": _labels_to_dict(result.owner_labels),
        "predicted_labels": _labels_to_dict(result.predicted_labels),
        "stop_reason": result.stop_reason.value,
        "unreachable": sorted(result.unreachable),
        "profile_coverage": result.profile_coverage,
    }


def pool_result_from_dict(document: dict[str, Any]) -> PoolResult:
    """Rebuild a pool result; inverse of :func:`pool_result_to_dict`."""
    try:
        return PoolResult(
            pool_id=str(document["pool_id"]),
            nsg_index=int(document["nsg_index"]),
            rounds=tuple(
                round_record_from_dict(entry) for entry in document["rounds"]
            ),
            owner_labels=_labels_from_dict(document["owner_labels"]),
            predicted_labels=_labels_from_dict(document["predicted_labels"]),
            stop_reason=StopReason(document["stop_reason"]),
            unreachable=frozenset(
                int(user) for user in document.get("unreachable", [])
            ),
            profile_coverage=document.get("profile_coverage"),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise CheckpointError(f"malformed pool result: {error}") from error


# ---------------------------------------------------------------------------
# storage
# ---------------------------------------------------------------------------
def fsync_directory(directory: str | Path) -> None:
    """Flush a directory's entry table to disk (best-effort off POSIX).

    Needed after ``os.replace`` for machine-crash durability; platforms
    whose directories cannot be opened or fsync'd (e.g. Windows) simply
    skip the call.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - non-POSIX platforms
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - filesystems without dir fsync
        pass
    finally:
        os.close(fd)


#: The one checkpoint encoder: compact, key-sorted, C-accelerated.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _streams(value: Any) -> bool:
    """Whether ``value`` is, or holds through dicts, an iterator."""
    if isinstance(value, dict):
        return any(_streams(item) for item in value.values())
    return isinstance(value, Iterator)


def iter_json_chunks(value: Any) -> Iterator[str]:
    """Encode ``value`` as compact, key-sorted JSON, chunk by chunk.

    An iterator (typically a generator) is written as a JSON array, one
    C-encoded chunk per item; a dict holding one is walked key by key;
    any other value is a single C-encoded chunk.  The joined chunks
    equal ``json.dumps(value, sort_keys=True, separators=(",", ":"))``
    with the iterators expanded to lists, but only one item is ever held
    as a string — which keeps a snapshot write from allocating several
    times the file's size.
    """
    if isinstance(value, Iterator):
        separator = "["
        for item in value:
            yield separator + _ENCODER.encode(item)
            separator = ","
        yield "]" if separator == "," else "[]"
    elif _streams(value):
        separator = "{"
        for key in sorted(value):
            yield separator + _ENCODER.encode(key) + ":"
            yield from iter_json_chunks(value[key])
            separator = ","
        yield "}"
    else:
        yield _ENCODER.encode(value)


class CheckpointStore:
    """A directory of atomically-written JSON checkpoint documents.

    Writes go to a temp file in the same directory followed by
    ``os.replace``, so a crash mid-write leaves the previous checkpoint
    intact rather than a torn file.  Documents are written compact and
    key-sorted by :func:`iter_json_chunks`; :meth:`load` reads any JSON,
    so files written indented by older versions still load.
    """

    def __init__(self, directory: str | Path) -> None:
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)

    @property
    def directory(self) -> Path:
        """Where the checkpoints live."""
        return self._directory

    def path(self, key: str) -> Path:
        """The file backing ``key``."""
        return self._directory / f"{key}.json"

    def save(self, key: str, document: dict[str, Any]) -> None:
        """Atomically and durably persist ``document`` under ``key``.

        The temp file is fsync'd before the rename and the directory is
        fsync'd after it, so the checkpoint survives a machine crash
        (power loss), not just a process crash: without the first fsync
        the rename can land before the data blocks do, and without the
        second the directory entry itself may be lost.

        Generators inside ``document`` are streamed item by item (see
        :func:`iter_json_chunks`), so a large snapshot never exists as
        one string in memory.
        """
        target = self.path(key)
        temp = target.with_suffix(".json.tmp")
        with open(temp, "w", encoding="utf-8") as handle:
            for chunk in iter_json_chunks(document):
                handle.write(chunk)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, target)
        fsync_directory(self._directory)

    def load(self, key: str) -> dict[str, Any] | None:
        """The document under ``key``, or ``None`` when absent."""
        target = self.path(key)
        if not target.exists():
            return None
        try:
            return json.loads(target.read_text(encoding="utf-8"))
        except json.JSONDecodeError as error:
            raise CheckpointError(
                f"corrupt checkpoint {target}: {error}"
            ) from error

    def discard(self, key: str) -> None:
        """Delete ``key``'s checkpoint, if any."""
        target = self.path(key)
        if target.exists():
            target.unlink()

    def keys(self) -> list[str]:
        """Every checkpoint key present, sorted."""
        return sorted(path.stem for path in self._directory.glob("*.json"))


# ---------------------------------------------------------------------------
# session-level checkpointing
# ---------------------------------------------------------------------------
class SessionCheckpointer:
    """Persists one session's per-pool progress into a store.

    Parameters
    ----------
    store:
        Backing store.
    key:
        Document key — one per session (``run_study`` uses
        ``owner-<id>``).
    """

    def __init__(self, store: CheckpointStore, key: str) -> None:
        self._store = store
        self._key = key
        self._pool_documents: list[dict[str, Any]] = []

    @property
    def key(self) -> str:
        """This session's checkpoint key."""
        return self._key

    def reset(self) -> None:
        """Discard any previous checkpoint (fresh, non-resumed run)."""
        self._pool_documents = []
        self._store.discard(self._key)

    def load(self) -> dict[str, PoolResult]:
        """The completed pools of a saved checkpoint, keyed by
        ``pool_id``, so the session can skip them (empty when none)."""
        document = self._store.load(self._key)
        if document is None:
            return {}
        if document.get("version") != _FORMAT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version: {document.get('version')!r}"
            )
        self._pool_documents = list(document["pools"])
        completed = {}
        for entry in self._pool_documents:
            result = pool_result_from_dict(entry)
            completed[result.pool_id] = result
        return completed

    def record(self, result: PoolResult) -> None:
        """Persist one newly completed pool."""
        self._pool_documents.append(pool_result_to_dict(result))
        document = {
            "version": _FORMAT_VERSION,
            "key": self._key,
            "pools": self._pool_documents,
        }
        self._store.save(self._key, document)


__all__ = [
    "CheckpointStore",
    "SessionCheckpointer",
    "fsync_directory",
    "iter_json_chunks",
    "pool_result_from_dict",
    "pool_result_to_dict",
    "round_record_from_dict",
    "round_record_to_dict",
]

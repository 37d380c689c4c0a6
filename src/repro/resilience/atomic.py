"""Crash-safe persistent state: atomic writes, checksums, quarantine.

Every artifact the system persists — stage-cache pickles, bench
baselines, fuzz corpora — goes through this module so that a crash,
torn write, or bit flip can never be mistaken for valid state:

- **atomic writes**: payload lands in a ``mkstemp`` sibling, is
  fsynced, then ``os.replace``d over the destination.  Readers see the
  old file or the new file, never a prefix.
- **checksum footers** (binary artifacts): the payload is wrapped with
  a magic marker, payload length, and a SHA-256 digest.  Unwrapping
  raises :class:`~.errors.CorruptStateError` on any mismatch.
- **embedded integrity** (JSON artifacts): a top-level ``integrity``
  field holding the SHA-256 of the canonical dump of everything else.
- **quarantine**: a corrupt file is renamed aside (``*.quarantined``),
  not deleted — self-healing for the reader, evidence for the operator.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional, Union

from .errors import CorruptStateError

PathLike = Union[str, Path]

#: footer layout: MAGIC + 8-byte big-endian payload length + 32-byte sha256
FOOTER_MAGIC = b"REPROCK1"
_FOOTER_LEN = len(FOOTER_MAGIC) + 8 + 32

#: JSON field name carrying the embedded digest
INTEGRITY_FIELD = "integrity"

QUARANTINE_SUFFIX = ".quarantined"


# -- atomic file replacement --------------------------------------------

def atomic_write_bytes(path: PathLike, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (tempfile + ``os.replace``)."""
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def atomic_write_text(path: PathLike, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_json(path: PathLike, payload: Any) -> None:
    atomic_write_text(
        path, json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )


# -- binary checksum footers --------------------------------------------

def checksum_wrap(payload: bytes) -> bytes:
    """Append the footer: ``payload | MAGIC | len(payload) | sha256``."""
    digest = hashlib.sha256(payload).digest()
    return (payload + FOOTER_MAGIC
            + len(payload).to_bytes(8, "big") + digest)


def checksum_unwrap(blob: bytes, label: str = "artifact") -> bytes:
    """Strip and verify the footer; raise :class:`CorruptStateError` on
    truncation, missing magic, length mismatch, or digest mismatch."""
    if len(blob) < _FOOTER_LEN:
        raise CorruptStateError(
            f"{label}: too short for a checksum footer "
            f"({len(blob)} < {_FOOTER_LEN} bytes)"
        )
    payload, footer = blob[:-_FOOTER_LEN], blob[-_FOOTER_LEN:]
    magic = footer[: len(FOOTER_MAGIC)]
    if magic != FOOTER_MAGIC:
        raise CorruptStateError(f"{label}: checksum footer magic missing")
    length = int.from_bytes(
        footer[len(FOOTER_MAGIC): len(FOOTER_MAGIC) + 8], "big"
    )
    if length != len(payload):
        raise CorruptStateError(
            f"{label}: footer claims {length} payload bytes, "
            f"found {len(payload)}"
        )
    digest = footer[len(FOOTER_MAGIC) + 8:]
    if hashlib.sha256(payload).digest() != digest:
        raise CorruptStateError(f"{label}: sha256 mismatch")
    return payload


# -- embedded JSON integrity --------------------------------------------

def _json_digest(payload: Dict[str, Any]) -> str:
    body = {k: v for k, v in payload.items() if k != INTEGRITY_FIELD}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def stamp_json_integrity(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Return a copy of ``payload`` with its ``integrity`` field set to
    the SHA-256 of the canonical dump of every other field."""
    stamped = dict(payload)
    stamped[INTEGRITY_FIELD] = _json_digest(payload)
    return stamped


def verify_json_integrity(payload: Dict[str, Any],
                          label: str = "artifact") -> bool:
    """``True`` if the stamp matches, ``False`` if absent; raises
    :class:`CorruptStateError` when a stamp is present but wrong."""
    stamp = payload.get(INTEGRITY_FIELD)
    if stamp is None:
        return False
    if stamp != _json_digest(payload):
        raise CorruptStateError(f"{label}: embedded integrity mismatch")
    return True


# -- quarantine ---------------------------------------------------------

def quarantine(path: PathLike) -> Optional[Path]:
    """Move a corrupt file aside as ``<name>.quarantined`` (numbered if
    that exists).  Returns the new path, or ``None`` if the file was
    already gone or could not be moved (never raises)."""
    path = Path(path)
    target = path.with_name(path.name + QUARANTINE_SUFFIX)
    counter = 1
    while target.exists():
        target = path.with_name(f"{path.name}{QUARANTINE_SUFFIX}.{counter}")
        counter += 1
    try:
        os.replace(path, target)
    except OSError:
        return None
    return target

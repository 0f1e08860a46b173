"""Persistent experience store: one JSON file, canonical on disk.

Scale target is desk-sized campaigns (thousands of entries), so the whole
store round-trips through memory and a single file; no database. The export
is canonical (sorted entries, sorted keys, %.17g floats), which makes equal
stores byte-identical and `import(export(kb)) == kb` exact. Writes go
through a temp file in the same directory plus an atomic rename, so a
concurrent reader sees either the old or the new store, never a torn one.
A save emits the whole store in one `canonical.dumps` call and keeps no
text from one save to the next, so every save of a store costs the same.

Schema (version 1):

    {
      "version": 1,
      "meta": {
        "ontology_checksum": str,   # sha256 of the taxonomy, "" if unbound
        "alpha0": float, "beta0": float, "tau": float,
        "beta_sample_count": int
      },
      "entries": [
        {"action": str, "mode": str, "target": str, "candidate": str,
         "n_success": int, "n_failure": int, "posterior": float},
        ...
      ]
    }

Absent entries mean zero experience. Import refuses versions newer than this
module writes.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
from pathlib import Path

from . import canonical
from .suitability import ExperienceKey, ExperienceRecord, SuitabilityConfig

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 1

_META_FIELDS = ("alpha0", "beta0", "beta_sample_count", "ontology_checksum", "tau")
_ENTRY_FIELDS = ("action", "candidate", "mode", "n_failure", "n_success", "posterior", "target")


class SchemaError(ValueError):
    """The store document does not conform to the schema."""


class KnowledgeBase:
    """In-memory experience store keyed by (action, mode, target, candidate)."""

    def __init__(self, config: SuitabilityConfig | None = None, ontology_checksum: str = ""):
        self.config = config if config is not None else SuitabilityConfig()
        self.ontology_checksum = ontology_checksum
        self._entries: dict[ExperienceKey, ExperienceRecord] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, KnowledgeBase):
            return NotImplemented
        return (
            self._entries == other._entries
            and self.config == other.config
            and self.ontology_checksum == other.ontology_checksum
        )

    def query(self, key: ExperienceKey) -> ExperienceRecord | None:
        """Record for the key, or None when there is no experience yet."""
        return self._entries.get(key)

    def items(self) -> list[tuple[ExperienceKey, ExperienceRecord]]:
        """All entries sorted by key."""
        return sorted(self._entries.items(), key=lambda kv: kv[0].as_tuple())

    def append(self, key: ExperienceKey, outcome: bool, posterior: float) -> ExperienceRecord:
        """Record one execution outcome and the posterior snapshot after it.

        A posterior of -0.0 is stored as 0.0: exported as "-0", it would
        reload as the integer 0.
        """
        current = self._entries.get(key, ExperienceRecord())
        ok = bool(outcome)
        updated = ExperienceRecord(current.n_success + ok, current.n_failure + (not ok), float(posterior) + 0.0)
        self._entries[key] = updated
        return updated

    def set_posterior(self, key: ExperienceKey, posterior: float) -> ExperienceRecord:
        """Overwrite the posterior snapshot without touching the counts.

        Creates a zero-count entry when the key is new: after an execution
        round the whole selection distribution must survive a reload, not
        just the executed candidate's share. -0.0 is stored as 0.0, as in
        ``append``.
        """
        current = self._entries.get(key, ExperienceRecord())
        updated = ExperienceRecord(current.n_success, current.n_failure, float(posterior) + 0.0)
        self._entries[key] = updated
        return updated

    # -- serialization -------------------------------------------------------

    def export_json(self) -> str:
        """Canonical serialization; equal stores produce identical bytes."""
        entries = []
        for key, rec in self.items():
            entries.append({
                "action": key.action,
                "candidate": key.candidate,
                "mode": key.mode,
                "n_failure": rec.n_failure,
                "n_success": rec.n_success,
                "posterior": rec.posterior,
                "target": key.target,
            })
        doc = {
            "version": SCHEMA_VERSION,
            "meta": {
                "alpha0": float(self.config.alpha0),
                "beta0": float(self.config.beta0),
                "beta_sample_count": self.config.beta_sample_count,
                "ontology_checksum": self.ontology_checksum,
                "tau": float(self.config.tau),
            },
            "entries": entries,
        }
        return canonical.dumps(doc)

    @classmethod
    def import_json(cls, text: str) -> "KnowledgeBase":
        """Parse and validate a store document; strict about shape and types."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"store is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise SchemaError("store document must be a JSON object")
        unknown = set(doc) - {"version", "meta", "entries"}
        if unknown:
            raise SchemaError(f"unknown top-level fields: {sorted(unknown)}")
        for required in ("version", "meta", "entries"):
            if required not in doc:
                raise SchemaError(f"missing top-level field {required!r}")

        version = doc["version"]
        if not isinstance(version, int) or isinstance(version, bool):
            raise SchemaError(f"version must be an integer, got {version!r}")
        if version > SCHEMA_VERSION:
            raise SchemaError(
                f"store version {version} is newer than supported version {SCHEMA_VERSION}"
            )
        if version < 1:
            raise SchemaError(f"invalid store version {version}")

        meta = doc["meta"]
        if not isinstance(meta, dict):
            raise SchemaError("meta must be an object")
        if set(meta) != set(_META_FIELDS):
            raise SchemaError(f"meta must contain exactly {list(_META_FIELDS)}, got {sorted(meta)}")
        checksum = meta["ontology_checksum"]
        if not isinstance(checksum, str):
            raise SchemaError("ontology_checksum must be a string")
        for fname in ("alpha0", "beta0", "tau"):
            if not isinstance(meta[fname], (int, float)) or isinstance(meta[fname], bool):
                raise SchemaError(f"meta field {fname!r} must be a number")
        if not isinstance(meta["beta_sample_count"], int) or isinstance(meta["beta_sample_count"], bool):
            raise SchemaError("beta_sample_count must be an integer")
        try:
            config = SuitabilityConfig(
                alpha0=float(meta["alpha0"]),
                beta0=float(meta["beta0"]),
                tau=float(meta["tau"]),
                beta_sample_count=meta["beta_sample_count"],
            )
        except (ValueError, OverflowError) as exc:
            raise SchemaError(f"invalid meta configuration: {exc}") from exc

        entries = doc["entries"]
        if not isinstance(entries, list):
            raise SchemaError("entries must be an array")
        kb = cls(config, checksum)
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise SchemaError(f"entry {i} must be an object")
            if set(entry) != set(_ENTRY_FIELDS):
                raise SchemaError(f"entry {i} must contain exactly {list(_ENTRY_FIELDS)}, got {sorted(entry)}")
            for fname in ("n_success", "n_failure"):
                if not isinstance(entry[fname], int) or isinstance(entry[fname], bool):
                    raise SchemaError(f"entry {i}: {fname} must be an integer")
            if not isinstance(entry["posterior"], (int, float)) or isinstance(entry["posterior"], bool):
                raise SchemaError(f"entry {i}: posterior must be a number")
            try:
                key = ExperienceKey(entry["action"], entry["mode"], entry["target"], entry["candidate"])
                rec = ExperienceRecord(entry["n_success"], entry["n_failure"], float(entry["posterior"]))
            except (ValueError, OverflowError) as exc:
                raise SchemaError(f"entry {i}: {exc}") from exc
            if key in kb._entries:
                raise SchemaError(f"entry {i}: duplicate key {key.as_tuple()!r}")
            kb._entries[key] = rec
        return kb

    # -- file I/O ------------------------------------------------------------

    def save(self, path) -> None:
        """Write atomically: temp file in the target directory, then rename."""
        p = Path(path)
        data = self.export_json()
        fd, tmp_name = tempfile.mkstemp(dir=str(p.parent) or ".", prefix=p.name + ".", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(data)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp_name, p)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    @classmethod
    def load(cls, path, expected_checksum: str | None = None) -> "KnowledgeBase":
        """Read a store file; checksum drift is a warning, not an error.

        A store built against a different taxonomy is still usable (counts
        are counts), but selections may be influenced by stale structure, so
        the mismatch is surfaced.
        """
        text = Path(path).read_text(encoding="utf-8")
        kb = cls.import_json(text)
        if (
            expected_checksum is not None
            and kb.ontology_checksum
            and kb.ontology_checksum != expected_checksum
        ):
            logger.warning(
                "experience store was built against a different ontology "
                "(store checksum %s..., current %s...)",
                kb.ontology_checksum[:12], expected_checksum[:12],
            )
        return kb

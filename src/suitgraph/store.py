"""Persistent experience store: one JSON file, canonical on disk.

Scale target is desk-sized campaigns (thousands of entries), so the whole
store round-trips through memory and a single file; no database. The export
is canonical (sorted entries, sorted keys, %.17g floats), which makes equal
stores byte-identical and `import(export(kb)) == kb` exact. Writes go
through a temp file in the same directory plus an atomic rename, so a
concurrent reader sees either the old or the new store, never a torn one.
Entries are filled into one `canonical.template`, so an entry is one `%`
over its key strings, counts and posterior. A scope's entry text is kept
until the scope is written: an export re-formats only the scopes written
since the last one (a teach round writes one), and its bytes are those of
one `canonical.dumps` of the whole document.

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

In memory the entries are grouped by scope: (action, mode, target) maps to
{candidate: record}, so a suitability graph reads or writes all of its
target's candidates with one lookup. A scope exists only while it holds
entries, so equal stores have equal nested dicts.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
from json.encoder import encode_basestring
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping

from . import canonical
from .suitability import ExperienceKey, ExperienceRecord, SuitabilityConfig, check_key_field

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 1

_META_FIELDS = ("alpha0", "beta0", "beta_sample_count", "ontology_checksum", "tau")
_ENTRY_FIELDS = ("action", "candidate", "mode", "n_failure", "n_success", "posterior", "target")

_DOCUMENT = canonical.template(
    {"entries": [canonical.STR], "meta": canonical.STR, "version": SCHEMA_VERSION})
# its text before the entries, between them and meta, and after meta
_HEAD, _MID, _TAIL = (_DOCUMENT % ("\0", "\0")).split("\0")
_ENTRY = canonical.template({
    "action": canonical.STR,
    "candidate": canonical.STR,
    "mode": canonical.STR,
    "n_failure": canonical.INT,
    "n_success": canonical.INT,
    "posterior": canonical.FLOAT,
    "target": canonical.STR,
})

_NO_EXPERIENCE = ExperienceRecord()
_NO_RECORDS: Mapping[str, ExperienceRecord] = MappingProxyType({})


class SchemaError(ValueError):
    """The store document does not conform to the schema."""


class KnowledgeBase:
    """In-memory experience store keyed by (action, mode, target, candidate)."""

    def __init__(self, config: SuitabilityConfig | None = None, ontology_checksum: str = ""):
        self.config = config if config is not None else SuitabilityConfig()
        self.ontology_checksum = ontology_checksum
        self._scopes: dict[tuple[str, str, str], dict[str, ExperienceRecord]] = {}
        # scope -> its entries' export text; a writer drops its scope's text
        self._text: dict[tuple[str, str, str], str] = {}

    def __len__(self) -> int:
        return sum(len(records) for records in self._scopes.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, KnowledgeBase):
            return NotImplemented
        return (
            self._scopes == other._scopes
            and self.config == other.config
            and self.ontology_checksum == other.ontology_checksum
        )

    def query(self, key: ExperienceKey) -> ExperienceRecord | None:
        """Record for the key, or None when there is no experience yet."""
        return self._scopes.get((key.action, key.mode, key.target), _NO_RECORDS).get(key.candidate)

    def records_for(self, action: str, mode: str, target: str) -> Mapping[str, ExperienceRecord]:
        """Read-only {candidate: record} view of one scope, empty when the
        scope has no entries. The view of a scope with entries shows later
        writes to it; reading never creates a scope."""
        records = self._scopes.get((action, mode, target))
        return _NO_RECORDS if records is None else MappingProxyType(records)

    def items(self) -> list[tuple[ExperienceKey, ExperienceRecord]]:
        """All entries sorted by key."""
        return [(ExperienceKey(*scope, candidate), records[candidate])
                for scope, records in sorted(self._scopes.items()) for candidate in sorted(records)]

    # no public method here calls another that benchmarks/tracing.py wraps
    # (query, append, set_posterior), so a wrapped method counts outside calls only

    def append(self, key: ExperienceKey, outcome: bool, posterior: float) -> ExperienceRecord:
        """Record one execution outcome and the posterior snapshot after it."""
        scope = (key.action, key.mode, key.target)
        current = self._scopes.get(scope, _NO_RECORDS).get(key.candidate, _NO_EXPERIENCE)
        ok = bool(outcome)
        updated = ExperienceRecord(current.n_success + ok, current.n_failure + (not ok), posterior)
        self._scopes.setdefault(scope, {})[key.candidate] = updated
        self._text.pop(scope, None)
        return updated

    def set_posterior(self, key: ExperienceKey, posterior: float) -> ExperienceRecord:
        """Overwrite the posterior snapshot without touching the counts.

        Creates a zero-count entry when the key is new: after an execution
        round the whole selection distribution must survive a reload, not
        just the executed candidate's share. ``set_posteriors`` for one
        candidate.
        """
        self.set_posteriors(key.action, key.mode, key.target, (key.candidate,), (posterior,))
        return self._scopes[key.action, key.mode, key.target][key.candidate]

    def set_posteriors(self, action: str, mode: str, target: str,
                       candidates: Iterable[str], posteriors: Iterable[float]) -> None:
        """Overwrite the posterior snapshot of each candidate of one scope,
        keeping its counts or creating a zero-count entry.

        All or nothing: every record is built and checked before the first
        is written, so a bad posterior, an empty or non-string candidate, or
        lists of unequal length raise ValueError and leave the store as it
        was. The scope strings are checked once.
        """
        for fname, value in (("action", action), ("mode", mode), ("target", target)):
            check_key_field(fname, value)
        scope = (action, mode, target)
        current = self._scopes.get(scope, _NO_RECORDS)
        updated: dict[str, ExperienceRecord] = {}
        for candidate, posterior in zip(candidates, posteriors, strict=True):
            check_key_field("candidate", candidate)
            rec = current.get(candidate, _NO_EXPERIENCE)
            updated[candidate] = ExperienceRecord(rec.n_success, rec.n_failure, posterior)
        if updated:
            self._scopes.setdefault(scope, {}).update(updated)
            self._text.pop(scope, None)

    # -- serialization -------------------------------------------------------

    def export_json(self) -> str:
        """Canonical serialization; equal stores produce identical bytes.

        The text is ``canonical.dumps`` of the whole document. ``meta`` goes
        through ``dumps``; every entry is one ``%`` over the entry template,
        with each scope's action, mode and target encoded once. A scope's
        entry text is kept until a writer of this class writes the scope, so
        only the scopes written since the last export are formatted again.
        The template's holes take only what ``ExperienceRecord`` and the
        writers of this class guarantee: counts are exact ints and the
        posterior is a finite float in [0, 1], never -0.0.
        """
        meta = canonical.dumps({
            "alpha0": float(self.config.alpha0),
            "beta0": float(self.config.beta0),
            "beta_sample_count": self.config.beta_sample_count,
            "ontology_checksum": self.ontology_checksum,
            "tau": float(self.config.tau),
        })
        texts = []
        for scope in sorted(self._scopes):
            text = self._text.get(scope)
            if text is None:
                action, mode, target = map(encode_basestring, scope)
                records = self._scopes[scope]
                text = self._text[scope] = ",".join([
                    _ENTRY % (action, encode_basestring(candidate), mode,
                              rec.n_failure, rec.n_success, rec.posterior, target)
                    for candidate, rec in sorted(records.items())])
            texts.append(text)
        return "".join((_HEAD, ",".join(texts), _MID, meta, _TAIL))

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
            records = kb._scopes.setdefault((key.action, key.mode, key.target), {})
            if key.candidate in records:
                raise SchemaError(f"entry {i}: duplicate key {key.as_tuple()!r}")
            records[key.candidate] = rec
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

import json
import logging
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from suitgraph import ExperienceKey, KnowledgeBase, SchemaError, SuitabilityConfig, canonical
from suitgraph.store import SCHEMA_VERSION
from suitgraph.suitability import ExperienceRecord

KEY = ExperienceKey("grasp", "default", "banana", "apple")


def test_query_fresh_is_none():
    assert KnowledgeBase().query(KEY) is None


def test_append_creates_entry():
    kb = KnowledgeBase()
    rec = kb.append(KEY, True, 1.0)
    assert (rec.n_success, rec.n_failure, rec.posterior) == (1, 0, 1.0)
    assert kb.query(KEY) == rec


def test_append_accumulates():
    kb = KnowledgeBase()
    first = kb.append(KEY, True, 0.9)
    kb.append(KEY, False, 0.4)
    rec = kb.query(KEY)
    assert (rec.n_success, rec.n_failure) == (1, 1)
    assert rec.posterior == 0.4
    success = kb.append(KEY, True, 0.5)
    assert (success.n_success, success.n_failure) == (2, 1)
    failure = kb.append(KEY, False, 0.6)
    assert (failure.n_success, failure.n_failure) == (2, 2)
    # each append makes a new record; the earlier ones are unchanged
    assert (first.n_success, first.n_failure, first.posterior) == (1, 0, 0.9)
    assert (rec.n_success, rec.n_failure, rec.posterior) == (1, 1, 0.4)


def test_set_posterior_keeps_counts():
    kb = KnowledgeBase()
    kb.append(KEY, True, 0.9)
    kb.set_posterior(KEY, 0.2)
    rec = kb.query(KEY)
    assert (rec.n_success, rec.n_failure, rec.posterior) == (1, 0, 0.2)


def test_set_posterior_creates_zero_count_entry():
    kb = KnowledgeBase()
    kb.set_posterior(KEY, 0.3)
    rec = kb.query(KEY)
    assert (rec.n_success, rec.n_failure, rec.posterior) == (0, 0, 0.3)


def test_negative_zero_posterior_survives_reload():
    assert math.copysign(1.0, ExperienceRecord(1, 2, -0.0).posterior) == 1.0
    assert type(ExperienceRecord(posterior=np.float64(0.25)).posterior) is float
    kb = KnowledgeBase()
    kb.append(KEY, True, -0.0)
    kb.set_posterior(ExperienceKey("grasp", "default", "banana", "bowl"), -0.0)
    for _, rec in kb.items():
        assert math.copysign(1.0, rec.posterior) == 1.0
    text = kb.export_json()
    assert '"posterior":-0' not in text
    assert KnowledgeBase.import_json(text).export_json() == text


@given(st.lists(st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, 1.0]), st.floats(0.0, 1.0)), max_size=8))
@example([-0.0])
def test_export_of_import_is_a_fixed_point(posteriors):
    # a kb.json written by hand or by another tool, "-0.0" included
    doc = valid_doc()
    doc["entries"] = [
        dict(doc["entries"][0], candidate=f"c{i}", posterior=p) for i, p in enumerate(posteriors)
    ]
    once = KnowledgeBase.import_json(json.dumps(doc)).export_json()
    assert KnowledgeBase.import_json(once).export_json() == once


def test_public_methods_do_not_call_wrapped_ones(monkeypatch):
    # benchmarks/tracing.py wraps query, append and set_posterior; each call
    # it sees must come from outside the store
    calls = []
    for name in ("query", "append", "set_posterior"):
        def spy(self, *args, _method=getattr(KnowledgeBase, name), _name=name):
            calls.append(_name)
            return _method(self, *args)
        monkeypatch.setattr(KnowledgeBase, name, spy)
    kb = KnowledgeBase()
    kb.append(KEY, True, 0.5)
    kb.set_posterior(KEY, 0.25)
    kb.query(KEY)
    kb.set_posteriors("grasp", "default", "banana", ["bowl"], [0.75])
    clone = KnowledgeBase.import_json(kb.export_json())
    clone.items()
    clone.records_for("grasp", "default", "banana")
    assert calls == ["append", "set_posterior", "query"]
    assert clone == kb


def test_set_posteriors_writes_one_scope():
    kb = KnowledgeBase()
    kb.append(KEY, True, 0.9)
    kb.set_posteriors("grasp", "default", "banana", ["apple", "bowl"], [0.25, 0.75])
    assert kb.query(KEY) == ExperienceRecord(1, 0, 0.25)
    assert kb.query(ExperienceKey("grasp", "default", "banana", "bowl")) == ExperienceRecord(0, 0, 0.75)
    assert len(kb) == 2


@pytest.mark.parametrize("candidates, posteriors", [
    (["a", "b", "c", "d"], [0.1, 0.2, 1.5, 0.3]),
    (["a", "b", "c", "d"], [0.1, 0.2, float("nan"), 0.3]),
    (["a", "b", "c", "d"], [0.1, 0.2, -0.5, 0.3]),
    (["a", "b", "", "d"], [0.1, 0.2, 0.3, 0.4]),
    (["a", "b", 3, "d"], [0.1, 0.2, 0.3, 0.4]),
    (["a", "b", "c", "d"], [0.1, 0.2, 0.3]),
    (["a", "b"], [0.1, 0.2, 0.3]),
])
@pytest.mark.parametrize("target", ["banana", "cup"])
def test_set_posteriors_all_or_nothing(candidates, posteriors, target):
    kb = KnowledgeBase()
    kb.append(KEY, True, 0.9)
    kb.set_posteriors("grasp", "default", "banana", ["b", "c"], [0.5, 0.5])
    copy = KnowledgeBase.import_json(kb.export_json())
    with pytest.raises(ValueError):
        kb.set_posteriors("grasp", "default", target, candidates, posteriors)
    assert kb == copy
    assert kb.export_json() == copy.export_json()


@pytest.mark.parametrize("scope", [("", "default", "banana"), ("grasp", None, "banana"),
                                   ("grasp", "default", "")])
def test_set_posteriors_checks_scope(scope):
    kb = KnowledgeBase()
    with pytest.raises(ValueError, match="non-empty string"):
        kb.set_posteriors(*scope, ["apple"], [0.5])
    with pytest.raises(ValueError, match="non-empty string"):
        kb.set_posteriors(*scope, [], [])
    assert kb == KnowledgeBase()


def test_records_for_absent_scope_is_empty_and_creates_nothing():
    kb = KnowledgeBase()
    kb.append(KEY, True, 0.5)
    never_read = KnowledgeBase.import_json(kb.export_json())
    for scope in (("grasp", "default", "cup"), ("pour", "default", "banana"), ("grasp", "top", "banana")):
        records = kb.records_for(*scope)
        assert len(records) == 0 and dict(records) == {}
        assert records.get("apple") is None
    assert kb == never_read
    assert kb.export_json() == never_read.export_json()
    assert len(kb) == 1


def test_records_for_is_read_only():
    kb = KnowledgeBase()
    kb.append(KEY, True, 0.5)
    for scope in (("grasp", "default", "banana"), ("grasp", "default", "cup")):
        records = kb.records_for(*scope)
        with pytest.raises(TypeError):
            records["bowl"] = ExperienceRecord()
        with pytest.raises(TypeError):
            del records["apple"]
    assert kb.records_for("grasp", "default", "banana") == {"apple": ExperienceRecord(1, 0, 0.5)}
    assert kb.records_for("grasp", "default", "cup") == {}
    assert len(kb) == 1


def test_items_sorted():
    kb = KnowledgeBase()
    kb.append(ExperienceKey("z", "m", "t", "c"), True, 0.5)
    kb.append(ExperienceKey("a", "m", "t", "c"), True, 0.5)
    kb.append(ExperienceKey("a", "m", "s", "c"), True, 0.5)
    actions = [k.as_tuple() for k, _ in kb.items()]
    assert actions == sorted(actions)


# -- canonical export / import -------------------------------------------------


def test_round_trip_identity():
    kb = KnowledgeBase(SuitabilityConfig(alpha0=2.5, tau=0.7), "abc123")
    kb.append(KEY, True, 0.6)
    kb.append(ExperienceKey("grasp", "default", "banana", "pear"), False, 0.4)
    clone = KnowledgeBase.import_json(kb.export_json())
    assert clone == kb


def test_round_trip_byte_identity():
    kb = KnowledgeBase()
    kb.append(KEY, True, 1 / 3)
    text = kb.export_json()
    assert KnowledgeBase.import_json(text).export_json() == text


def test_export_insertion_order_independent():
    keys = [ExperienceKey("grasp", "default", t, c) for t in "xyz" for c in "abc"]
    kb1 = KnowledgeBase()
    kb2 = KnowledgeBase()
    for k in keys:
        kb1.append(k, True, 0.5)
    for k in reversed(keys):
        kb2.append(k, True, 0.5)
    assert kb1.export_json() == kb2.export_json()


def test_export_float_precision():
    kb = KnowledgeBase()
    kb.append(KEY, True, 0.6)
    text = kb.export_json()
    assert "0.59999999999999998" in text
    assert KnowledgeBase.import_json(text).query(KEY).posterior == 0.6


def test_export_schema_shape():
    kb = KnowledgeBase(SuitabilityConfig(), "deadbeef")
    kb.append(KEY, False, 0.25)
    doc = json.loads(kb.export_json())
    assert set(doc) == {"version", "meta", "entries"}
    assert doc["version"] == SCHEMA_VERSION
    assert set(doc["meta"]) == {"ontology_checksum", "alpha0", "beta0", "tau", "beta_sample_count"}
    assert doc["meta"]["ontology_checksum"] == "deadbeef"
    (entry,) = doc["entries"]
    assert set(entry) == {"action", "mode", "target", "candidate", "n_success", "n_failure", "posterior"}


def test_large_store_round_trip_bytes():
    kb = KnowledgeBase()
    for i in range(100):
        key = ExperienceKey("grasp", f"m{i % 3}", f"t{i % 10}", f"c{i}")
        kb.append(key, i % 2 == 0, (i + 1) / 101.0)
    text = kb.export_json()
    again = KnowledgeBase.import_json(text)
    assert again == kb
    assert again.export_json() == text


# -- schema validation ---------------------------------------------------------


def valid_doc():
    kb = KnowledgeBase()
    kb.append(KEY, True, 0.5)
    return json.loads(kb.export_json())


def test_import_refuses_newer_version():
    doc = valid_doc()
    doc["version"] = 99
    with pytest.raises(SchemaError, match="newer than supported"):
        KnowledgeBase.import_json(json.dumps(doc))


@pytest.mark.parametrize("version", [0, -3, "1", 1.0, None])
def test_import_rejects_bad_versions(version):
    doc = valid_doc()
    doc["version"] = version
    with pytest.raises(SchemaError):
        KnowledgeBase.import_json(json.dumps(doc))


def test_import_rejects_garbage():
    with pytest.raises(SchemaError, match="not valid JSON"):
        KnowledgeBase.import_json("{nope")
    with pytest.raises(SchemaError, match="JSON object"):
        KnowledgeBase.import_json("[1, 2]")


def test_import_rejects_unknown_top_level():
    doc = valid_doc()
    doc["extra"] = True
    with pytest.raises(SchemaError, match="unknown top-level"):
        KnowledgeBase.import_json(json.dumps(doc))


def test_import_rejects_missing_fields():
    for field in ("version", "meta", "entries"):
        doc = valid_doc()
        del doc[field]
        with pytest.raises(SchemaError, match=f"missing top-level field '{field}'"):
            KnowledgeBase.import_json(json.dumps(doc))


def test_import_rejects_bad_meta():
    doc = valid_doc()
    del doc["meta"]["tau"]
    with pytest.raises(SchemaError, match="meta must contain exactly"):
        KnowledgeBase.import_json(json.dumps(doc))

    doc = valid_doc()
    doc["meta"]["tau"] = "0.6"
    with pytest.raises(SchemaError, match="must be a number"):
        KnowledgeBase.import_json(json.dumps(doc))

    doc = valid_doc()
    doc["meta"]["tau"] = 7.0  # out of (0, 1)
    with pytest.raises(SchemaError, match="invalid meta configuration"):
        KnowledgeBase.import_json(json.dumps(doc))


def test_import_rejects_bad_entries():
    doc = valid_doc()
    doc["entries"] = {"not": "a list"}
    with pytest.raises(SchemaError, match="must be an array"):
        KnowledgeBase.import_json(json.dumps(doc))

    doc = valid_doc()
    doc["entries"].append(dict(doc["entries"][0]))
    with pytest.raises(SchemaError, match="duplicate key"):
        KnowledgeBase.import_json(json.dumps(doc))

    # the first repeat of a key is reported by its entry index
    doc = valid_doc()
    first = doc["entries"][0]
    doc["entries"] += [dict(first, candidate="bowl"), dict(first, target="cup"), dict(first, n_success=4)]
    with pytest.raises(SchemaError, match=r"^entry 3: duplicate key \('grasp', 'default', 'banana', 'apple'\)$"):
        KnowledgeBase.import_json(json.dumps(doc))

    doc = valid_doc()
    doc["entries"][0]["n_success"] = -2
    with pytest.raises(SchemaError, match="negative trial counts"):
        KnowledgeBase.import_json(json.dumps(doc))

    doc = valid_doc()
    doc["entries"][0]["n_success"] = 1.5
    with pytest.raises(SchemaError, match="must be an integer"):
        KnowledgeBase.import_json(json.dumps(doc))

    doc = valid_doc()
    doc["entries"][0]["posterior"] = 1.7
    with pytest.raises(SchemaError, match="posterior out of range"):
        KnowledgeBase.import_json(json.dumps(doc))

    doc = valid_doc()
    doc["entries"][0]["target"] = ""
    with pytest.raises(SchemaError, match="non-empty string"):
        KnowledgeBase.import_json(json.dumps(doc))

    doc = valid_doc()
    del doc["entries"][0]["mode"]
    with pytest.raises(SchemaError, match="must contain exactly"):
        KnowledgeBase.import_json(json.dumps(doc))


# -- file I/O --------------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    kb = KnowledgeBase(SuitabilityConfig(), "cafe")
    kb.append(KEY, True, 0.8)
    path = tmp_path / "kb.json"
    kb.save(path)
    assert KnowledgeBase.load(path) == kb
    # no stray temp files survive a successful save
    assert [p.name for p in tmp_path.iterdir()] == ["kb.json"]


def test_save_overwrites_atomically(tmp_path):
    path = tmp_path / "kb.json"
    kb = KnowledgeBase()
    kb.save(path)
    kb.append(KEY, True, 0.5)
    kb.save(path)
    assert KnowledgeBase.load(path) == kb


def test_failed_replace_cleans_temp_and_keeps_target(tmp_path, monkeypatch):
    path = tmp_path / "kb.json"
    kb = KnowledgeBase()
    kb.save(path)
    original = path.read_bytes()

    def boom(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", boom)
    kb.append(KEY, True, 0.5)
    with pytest.raises(OSError, match="disk full"):
        kb.save(path)
    monkeypatch.undo()
    assert path.read_bytes() == original
    assert [p.name for p in tmp_path.iterdir()] == ["kb.json"]


def test_load_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        KnowledgeBase.load(tmp_path / "absent.json")


def test_load_checksum_mismatch_warns(tmp_path, caplog):
    kb = KnowledgeBase(SuitabilityConfig(), "aaaa1111aaaa1111")
    path = tmp_path / "kb.json"
    kb.save(path)
    with caplog.at_level(logging.WARNING):
        loaded = KnowledgeBase.load(path, expected_checksum="bbbb2222bbbb2222")
    assert loaded == kb  # warning only, never an error
    assert any("different ontology" in r.message for r in caplog.records)


def test_load_checksum_match_is_silent(tmp_path, caplog):
    kb = KnowledgeBase(SuitabilityConfig(), "same")
    path = tmp_path / "kb.json"
    kb.save(path)
    with caplog.at_level(logging.WARNING):
        KnowledgeBase.load(path, expected_checksum="same")
    assert not caplog.records


def test_load_unbound_store_never_warns(tmp_path, caplog):
    kb = KnowledgeBase()  # empty checksum: not bound to any taxonomy
    path = tmp_path / "kb.json"
    kb.save(path)
    with caplog.at_level(logging.WARNING):
        KnowledgeBase.load(path, expected_checksum="anything")
    assert not caplog.records


# -- properties --------------------------------------------------------------------


names = st.text(alphabet="abcdefgh", min_size=1, max_size=4)
outcomes = st.lists(st.booleans(), min_size=0, max_size=12)


@given(
    st.dictionaries(
        st.tuples(names, names, names, names),
        st.tuples(outcomes, st.floats(min_value=0.0, max_value=1.0)),
        max_size=12,
    )
)
@settings(max_examples=60)
def test_round_trip_and_count_conservation(data):
    kb = KnowledgeBase()
    for (a, m, t, c), (outs, post) in data.items():
        key = ExperienceKey(a, m, t, c)
        for o in outs:
            kb.append(key, o, post)
        if not outs:
            kb.set_posterior(key, post)

    clone = KnowledgeBase.import_json(kb.export_json())
    assert clone == kb
    assert clone.export_json() == kb.export_json()
    for (a, m, t, c), (outs, _) in data.items():
        rec = clone.query(ExperienceKey(a, m, t, c))
        assert rec.n_success == sum(outs)
        assert rec.n_failure == len(outs) - sum(outs)


# -- export bytes and history ------------------------------------------------------


def reference_export(kb: KnowledgeBase) -> str:
    """``export_json`` as one ``canonical.dumps`` of the whole document."""
    return canonical.dumps({
        "entries": [
            {"action": key.action, "candidate": key.candidate, "mode": key.mode,
             "n_failure": rec.n_failure, "n_success": rec.n_success,
             "posterior": rec.posterior, "target": key.target}
            for key, rec in kb.items()
        ],
        "meta": {
            "alpha0": float(kb.config.alpha0),
            "beta0": float(kb.config.beta0),
            "beta_sample_count": kb.config.beta_sample_count,
            "ontology_checksum": kb.ontology_checksum,
            "tau": float(kb.config.tau),
        },
        "version": SCHEMA_VERSION,
    })


POOL = [ExperienceKey(a, "top", t, c)
        for a in ("grasp", "pour") for t in ("cup", "mug") for c in ("apple", "bowl", "can")]


def store_ops(posteriors):
    return st.lists(
        st.one_of(
            st.tuples(st.just("append"), st.integers(0, len(POOL) - 1), st.booleans(), posteriors),
            st.tuples(st.just("set_posterior"), st.integers(0, len(POOL) - 1), posteriors),
            st.just(("export",)),
        ),
        max_size=30,
    )


# -0.0 equals 0.0; the store keeps it as 0.0, so it reloads byte for byte
_posteriors = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0]), st.floats(min_value=0.0, max_value=1.0))


def apply_op(kb: KnowledgeBase, op) -> None:
    if op[0] == "append":
        kb.append(POOL[op[1]], op[2], op[3])
    elif op[0] == "set_posterior":
        kb.set_posterior(POOL[op[1]], op[2])
    else:
        assert kb.export_json() == reference_export(kb)


@given(prefix=store_ops(_posteriors), ops=store_ops(_posteriors), imported=st.booleans())
@settings(max_examples=150)
def test_export_independent_of_history(prefix, ops, imported):
    kb = KnowledgeBase(SuitabilityConfig(alpha0=2.5, tau=0.4), "feed1234")
    for op in prefix:
        apply_op(kb, op)
    if imported:
        kb = KnowledgeBase.import_json(kb.export_json())
    # an equal store that never exports until the end
    quiet = KnowledgeBase.import_json(reference_export(kb))
    for op in ops:
        apply_op(kb, op)
        if op[0] != "export":
            apply_op(quiet, op)
    assert kb == quiet
    assert kb.export_json() == quiet.export_json() == reference_export(kb)


SCOPES = sorted({(k.action, k.mode, k.target) for k in POOL})


@given(prefix=store_ops(_posteriors), imported=st.booleans(), scope=st.sampled_from(SCOPES),
       writes=st.lists(st.tuples(st.sampled_from(["apple", "bowl", "can", "dish"]), _posteriors), max_size=6))
@settings(max_examples=150)
def test_set_posteriors_equals_set_posterior_loop(prefix, imported, scope, writes):
    kb = KnowledgeBase()
    for op in prefix:
        apply_op(kb, op)
    if imported:
        kb = KnowledgeBase.import_json(kb.export_json())
    looped = KnowledgeBase.import_json(kb.export_json())
    for candidate, posterior in writes:
        looped.set_posterior(ExperienceKey(*scope, candidate), posterior)
    kb.set_posteriors(*scope, [c for c, _ in writes], [p for _, p in writes])
    assert kb == looped
    assert kb.export_json() == looped.export_json()
    assert all(math.copysign(1.0, rec.posterior) == 1.0 for _, rec in kb.items())

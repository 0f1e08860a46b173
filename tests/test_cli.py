import importlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import suitgraph
from suitgraph import (
    ExperienceKey,
    KnowledgeBase,
    SuitabilityConfig,
    household_taxonomy_path,
    load_hierarchy,
)
from suitgraph.cli import main

ONTOLOGY = str(household_taxonomy_path())
MODELS = "apple,chips_can,sugar_box,mug,tennis_ball"


@pytest.fixture(autouse=True)
def clean_seed_env(monkeypatch):
    monkeypatch.delenv("SUITGRAPH_SEED", raising=False)


def write_gt(tmp_path, entries, default=0.0, name="gt.json"):
    doc = {
        "default": default,
        "entries": [{"target": t, "model": m, "p": p} for (t, m), p in entries.items()],
    }
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# -- cluster -----------------------------------------------------------------


def test_cluster_output(capsys):
    rc = main(["cluster", "--ontology", ONTOLOGY, "--models", MODELS, "banana"])
    assert rc == 0
    assert capsys.readouterr().out == "apple\nsize: 1\n"


def test_cluster_two_candidates(capsys):
    rc = main(["cluster", "--ontology", ONTOLOGY, "--models", MODELS, "tomato_can"])
    assert rc == 0
    assert capsys.readouterr().out == "chips_can\nsugar_box\nsize: 2\n"


@pytest.mark.parametrize("command", ["cluster", "select", "simulate", "teach"])
def test_negative_max_ancestors_exit_code(capsys, monkeypatch, tmp_path, command):
    monkeypatch.setattr("sys.stdin", io.StringIO("y\n"))
    if command == "simulate":
        args = ["--gt", write_gt(tmp_path, {("banana", "apple"): 0.9}), "--out", str(tmp_path / "out")]
    else:
        args = ["--kb", str(tmp_path / "kb.json")] if command == "teach" else []
        args.append("banana")
    rc = main([command, "--ontology", ONTOLOGY, "--models", MODELS, "--max-ancestors", "-3", *args])
    assert rc == 2
    captured = capsys.readouterr()
    assert "max_ancestor_hops must be None or >= 0, got -3" in captured.err
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == (["gt.json"] if command == "simulate" else [])


def test_cluster_repeatable_models_flag(capsys):
    rc = main(["cluster", "--ontology", ONTOLOGY,
               "--models", "apple,chips_can", "--models", "sugar_box", "tomato_can"])
    assert rc == 0
    assert "size: 2" in capsys.readouterr().out


def test_cluster_unknown_class(capsys):
    rc = main(["cluster", "--ontology", ONTOLOGY, "--models", MODELS, "hoverboard"])
    assert rc == 3
    assert "unknown class 'hoverboard'" in capsys.readouterr().err


def test_cluster_requires_models(capsys):
    rc = main(["cluster", "--ontology", ONTOLOGY, "banana"])
    assert rc == 2
    assert "--models is required" in capsys.readouterr().err


def test_cluster_missing_ontology_file(capsys, tmp_path):
    rc = main(["cluster", "--ontology", str(tmp_path / "nope.json"), "--models", MODELS, "banana"])
    assert rc == 2


def test_cluster_malformed_ontology(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken", encoding="utf-8")
    rc = main(["cluster", "--ontology", str(bad), "--models", MODELS, "banana"])
    assert rc == 2
    assert "malformed" in capsys.readouterr().err


# -- similarity ----------------------------------------------------------------


def test_similarity_six_decimals(capsys):
    rc = main(["similarity", "--ontology", ONTOLOGY, "apple", "banana"])
    assert rc == 0
    assert capsys.readouterr().out == "0.750000\n"


def test_similarity_identity(capsys):
    rc = main(["similarity", "--ontology", ONTOLOGY, "mug", "mug"])
    assert rc == 0
    assert capsys.readouterr().out == "1.000000\n"


def test_similarity_unknown_class(capsys):
    rc = main(["similarity", "--ontology", ONTOLOGY, "apple", "griddle"])
    assert rc == 3


# -- select ----------------------------------------------------------------------


def test_select_fresh_deterministic(capsys):
    rc = main(["select", "--ontology", ONTOLOGY, "--models", MODELS,
               "--seed", "5", "tomato_can"])
    assert rc == 0
    first = capsys.readouterr().out
    assert first.startswith("target: tomato_can\n")
    assert first.strip().endswith(("selected: chips_can", "selected: sugar_box"))
    assert "similarity=0.666667" in first

    rc = main(["select", "--ontology", ONTOLOGY, "--models", MODELS,
               "--seed", "5", "tomato_can"])
    assert rc == 0
    assert capsys.readouterr().out == first


def test_select_env_seed_equivalent(capsys, monkeypatch):
    rc = main(["select", "--ontology", ONTOLOGY, "--models", MODELS,
               "--seed", "17", "tomato_can"])
    flagged = capsys.readouterr().out
    assert rc == 0
    monkeypatch.setenv("SUITGRAPH_SEED", "17")
    rc = main(["select", "--ontology", ONTOLOGY, "--models", MODELS, "tomato_can"])
    assert rc == 0
    assert capsys.readouterr().out == flagged


def test_select_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("SUITGRAPH_SEED", "900")
    rc = main(["select", "--ontology", ONTOLOGY, "--models", MODELS,
               "--seed", "17", "tomato_can"])
    with_env = capsys.readouterr().out
    assert rc == 0
    monkeypatch.delenv("SUITGRAPH_SEED")
    main(["select", "--ontology", ONTOLOGY, "--models", MODELS, "--seed", "17", "tomato_can"])
    assert capsys.readouterr().out == with_env


def test_select_bad_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("SUITGRAPH_SEED", "not-a-number")
    rc = main(["select", "--ontology", ONTOLOGY, "--models", MODELS, "tomato_can"])
    assert rc == 2
    assert "SUITGRAPH_SEED" in capsys.readouterr().err


def test_select_prefers_heavy_experience(capsys, tmp_path):
    kb = KnowledgeBase(SuitabilityConfig(), load_hierarchy(ONTOLOGY).checksum())
    for _ in range(9):
        kb.append(ExperienceKey("default", "default", "tomato_can", "chips_can"), True, 0.5)
    kb.append(ExperienceKey("default", "default", "tomato_can", "chips_can"), False, 0.5)
    for _ in range(9):
        kb.append(ExperienceKey("default", "default", "tomato_can", "sugar_box"), False, 0.5)
    kb.append(ExperienceKey("default", "default", "tomato_can", "sugar_box"), True, 0.5)
    kb_path = tmp_path / "kb.json"
    kb.save(kb_path)
    before = kb_path.read_bytes()

    for seed in range(5):
        rc = main(["select", "--ontology", ONTOLOGY, "--models", MODELS,
                   "--kb", str(kb_path), "--seed", str(seed), "tomato_can"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.strip().endswith("selected: chips_can")
        assert "n_success=9" in out
    # dry run: the store file is untouched
    assert kb_path.read_bytes() == before


def test_select_own_model_target(capsys):
    rc = main(["select", "--ontology", ONTOLOGY, "--models", MODELS, "apple"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "has its own execution model" in out
    assert out.strip().endswith("selected: apple")


def test_select_empty_cluster_exit_code(capsys):
    rc = main(["select", "--ontology", ONTOLOGY, "--models", MODELS, "thing"])
    assert rc == 4
    assert "new execution model must be learned" in capsys.readouterr().err


def test_select_deep_owl_chain(capsys, tmp_path):
    # children declared before parents, 3,000 levels: no walk may recurse
    depth = 3000
    classes = "".join(
        f'<owl:Class rdf:about="#c{i}"><rdfs:subClassOf rdf:resource="#c{i - 1}"/></owl:Class>'
        for i in range(depth - 1, 0, -1)
    )
    owl = tmp_path / "chain.owl"
    owl.write_text(
        '<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#" '
        'xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#" '
        f'xmlns:owl="http://www.w3.org/2002/07/owl#">{classes}</rdf:RDF>',
        encoding="utf-8")
    rc = main(["select", "--ontology", str(owl), "--models", "c1,c2997,c2998", "c2999"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("target: c2999\n  c1  similarity=")
    assert out.endswith("selected: c2998\n")


@pytest.mark.parametrize("depth", [700, 3000])
def test_select_too_deep_json_tree_exits_2(depth, capsys, tmp_path):
    # json.loads recurses per level and gives up; the CLI reports bad input
    chain = tmp_path / "chain.json"
    chain.write_text(
        "".join('{"name": "c%d", "children": [' % i for i in range(depth - 1))
        + '{"name": "c%d"}' % (depth - 1) + "]}" * (depth - 1),
        encoding="utf-8")
    rc = main(["select", "--ontology", str(chain), "--models", "c1,c2", "c3"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: json-tree nested too deeply")
    assert "Traceback" not in err


def test_select_unknown_class(capsys):
    rc = main(["select", "--ontology", ONTOLOGY, "--models", MODELS, "quark"])
    assert rc == 3


# -- simulate ------------------------------------------------------------------------


def test_simulate_writes_artifacts(capsys, tmp_path):
    gt = write_gt(tmp_path, {("tomato_can", "chips_can"): 0.9, ("tomato_can", "sugar_box"): 0.2})
    out = tmp_path / "run1"
    rc = main(["simulate", "--ontology", ONTOLOGY, "--gt", gt,
               "--trials", "10", "--seed", "3", "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert (out / "report.csv").exists()
    assert (out / "report.json").exists()
    assert (out / "trial_log.json").exists()
    assert (out / "kb.json").exists()
    report = (out / "report.csv").read_text(encoding="utf-8")
    assert stdout == report
    assert report.splitlines()[0] == "target,cluster_size,models_attempted,o_star,n_success"
    assert report.splitlines()[1].startswith("tomato_can,2,")
    log = json.loads((out / "trial_log.json").read_text(encoding="utf-8"))
    assert len(log["steps"]) == 10
    kb = KnowledgeBase.load(out / "kb.json")
    assert sum(rec.trial_count for _, rec in kb.items()) == 10


def test_simulate_same_seed_byte_identical(capsys, tmp_path):
    gt = write_gt(tmp_path, {("banana", "apple"): 0.8})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        rc = main(["simulate", "--ontology", ONTOLOGY, "--gt", gt,
                   "--trials", "15", "--seed", "21", "--out", str(out)])
        assert rc == 0
    capsys.readouterr()
    for name in ("report.csv", "report.json", "trial_log.json", "kb.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_simulate_different_seed_differs(capsys, tmp_path):
    gt = write_gt(tmp_path, {("tomato_can", "chips_can"): 0.5, ("tomato_can", "sugar_box"): 0.5})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--ontology", ONTOLOGY, "--gt", gt, "--trials", "15",
          "--seed", "1", "--out", str(out1)])
    main(["simulate", "--ontology", ONTOLOGY, "--gt", gt, "--trials", "15",
          "--seed", "2", "--out", str(out2)])
    capsys.readouterr()
    assert (out1 / "trial_log.json").read_bytes() != (out2 / "trial_log.json").read_bytes()


def test_simulate_defaults_from_gt(capsys, tmp_path):
    # targets and registry come from the ground-truth file when not given
    gt = write_gt(tmp_path, {("banana", "apple"): 0.9, ("wine_glass", "mug"): 0.3})
    out = tmp_path / "out"
    rc = main(["simulate", "--ontology", ONTOLOGY, "--gt", gt, "--seed", "0",
               "--out", str(out)])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1].startswith("banana,")
    assert lines[2].startswith("wine_glass,")


def test_simulate_baseline_strategy(capsys, tmp_path):
    gt = write_gt(tmp_path, {("tomato_can", "chips_can"): 0.9, ("tomato_can", "sugar_box"): 0.2})
    out = tmp_path / "rand"
    rc = main(["simulate", "--ontology", ONTOLOGY, "--gt", gt, "--strategy", "random",
               "--trials", "5", "--seed", "0", "--out", str(out)])
    assert rc == 0
    log = json.loads((out / "trial_log.json").read_text(encoding="utf-8"))
    assert log["config"]["strategy"] == "random"


def test_simulate_bad_gt(capsys, tmp_path):
    bad = tmp_path / "gt.json"
    bad.write_text('{"entries": "wrong"}', encoding="utf-8")
    rc = main(["simulate", "--ontology", ONTOLOGY, "--gt", str(bad),
               "--out", str(tmp_path / "o")])
    assert rc == 2


# json.loads accepts this integer; it fits neither a float nor an int64 count
HUGE = 10**400


def assert_one_error_line(capsys):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


@pytest.mark.parametrize("default, p", [(0.0, HUGE), (HUGE, 0.5)])
def test_simulate_huge_integer_in_gt_exits_2(default, p, capsys, tmp_path):
    gt = write_gt(tmp_path, {("banana", "apple"): p}, default=default)
    rc = main(["simulate", "--ontology", ONTOLOGY, "--gt", gt, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert_one_error_line(capsys)
    assert not (tmp_path / "o").exists()


def test_simulate_bad_trials(capsys, tmp_path):
    gt = write_gt(tmp_path, {("banana", "apple"): 0.9})
    rc = main(["simulate", "--ontology", ONTOLOGY, "--gt", gt, "--trials", "0",
               "--out", str(tmp_path / "o")])
    assert rc == 2


def test_simulate_continues_from_kb(capsys, tmp_path):
    gt = write_gt(tmp_path, {("tomato_can", "chips_can"): 0.9, ("tomato_can", "sugar_box"): 0.2})
    out1 = tmp_path / "first"
    main(["simulate", "--ontology", ONTOLOGY, "--gt", gt, "--trials", "10",
          "--seed", "4", "--out", str(out1)])
    out2 = tmp_path / "second"
    rc = main(["simulate", "--ontology", ONTOLOGY, "--gt", gt, "--trials", "10",
               "--seed", "5", "--kb", str(out1 / "kb.json"), "--out", str(out2)])
    assert rc == 0
    capsys.readouterr()
    kb = KnowledgeBase.load(out2 / "kb.json")
    assert sum(rec.trial_count for _, rec in kb.items()) == 20


# -- teach -----------------------------------------------------------------------


def run_teach(monkeypatch, answers, tmp_path, target="wine_glass", extra=()):
    monkeypatch.setattr("sys.stdin", io.StringIO(answers))
    kb_path = tmp_path / "kb.json"
    rc = main(["teach", "--ontology", ONTOLOGY, "--models", MODELS,
               "--kb", str(kb_path), "--seed", "0", *extra, target])
    return rc, kb_path


def test_teach_records_outcomes(capsys, monkeypatch, tmp_path):
    rc, kb_path = run_teach(monkeypatch, "y\ny\nn\nq\n", tmp_path)
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("attempt model 'mug' on object 'wine_glass'") == 4
    assert "recorded success for model 'mug'" in out
    assert "recorded failure for model 'mug'" in out
    kb = KnowledgeBase.load(kb_path)
    rec = kb.query(ExperienceKey("default", "default", "wine_glass", "mug"))
    assert (rec.n_success, rec.n_failure) == (2, 1)


def test_teach_own_model_records_nothing(capsys, monkeypatch, tmp_path):
    rc, kb_path = run_teach(monkeypatch, "y\nq\n", tmp_path, target="apple")
    assert rc == 0
    out = capsys.readouterr().out
    assert "attempt model 'apple' on object 'apple'" in out
    assert "ran the own model of 'apple': success; nothing recorded" in out
    assert "recorded success" not in out
    assert len(KnowledgeBase.load(kb_path)) == 0


def test_teach_quit_immediately_leaves_store_alone(capsys, monkeypatch, tmp_path):
    rc, kb_path = run_teach(monkeypatch, "q\n", tmp_path)
    assert rc == 0
    assert not kb_path.exists()
    assert "session summary" in capsys.readouterr().out


def test_teach_ten_successes(capsys, monkeypatch, tmp_path):
    rc, kb_path = run_teach(monkeypatch, "y\n" * 10 + "q\n", tmp_path)
    assert rc == 0
    kb = KnowledgeBase.load(kb_path)
    rec = kb.query(ExperienceKey("default", "default", "wine_glass", "mug"))
    assert (rec.n_success, rec.n_failure) == (10, 0)
    out = capsys.readouterr().out
    assert "specification needed for 'wine_glass': no" in out
    assert "model 'mug' generalises to 'drinkware': yes" in out


def test_teach_failures_suggest_specification(capsys, monkeypatch, tmp_path):
    rc, kb_path = run_teach(monkeypatch, "n\n" * 10 + "q\n", tmp_path)
    assert rc == 0
    out = capsys.readouterr().out
    assert "specification needed for 'wine_glass': yes" in out
    assert "model 'mug' generalises to 'drinkware': no" in out


def test_teach_reprompts_on_invalid_answer(capsys, monkeypatch, tmp_path):
    rc, kb_path = run_teach(monkeypatch, "maybe\ny\nq\n", tmp_path)
    assert rc == 0
    out = capsys.readouterr().out
    assert "please answer y, n, or q" in out
    kb = KnowledgeBase.load(kb_path)
    rec = kb.query(ExperienceKey("default", "default", "wine_glass", "mug"))
    assert (rec.n_success, rec.n_failure) == (1, 0)


def test_teach_eof_quits(capsys, monkeypatch, tmp_path):
    rc, kb_path = run_teach(monkeypatch, "", tmp_path)
    assert rc == 0
    assert not kb_path.exists()


def test_teach_empty_cluster_exit_code(capsys, monkeypatch, tmp_path):
    rc, _ = run_teach(monkeypatch, "y\n", tmp_path, target="thing")
    assert rc == 4


def test_teach_insufficient_sibling_data(capsys, monkeypatch, tmp_path):
    # banana's candidate is apple; apple's siblings include objects with no
    # experience, so promotion cannot be judged yet
    rc, _ = run_teach(monkeypatch, "y\nq\n", tmp_path, target="banana")
    assert rc == 0
    out = capsys.readouterr().out
    assert "model 'apple' generalises to 'fruit': insufficient data" in out


# -- kb --------------------------------------------------------------------------


def make_kb_file(tmp_path):
    kb = KnowledgeBase(SuitabilityConfig(), "feed1234")
    kb.append(ExperienceKey("grasp", "top", "banana", "apple"), True, 0.75)
    kb.append(ExperienceKey("grasp", "top", "banana", "apple"), False, 0.6)
    path = tmp_path / "kb.json"
    kb.save(path)
    return kb, path


def test_kb_show(capsys, tmp_path):
    _, path = make_kb_file(tmp_path)
    rc = main(["kb", "show", "--kb", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "entries: 1" in out
    assert "grasp top banana apple n_success=1 n_failure=1 posterior=0.600000" in out


def test_kb_export_stdout_round_trip(capsys, tmp_path):
    kb, path = make_kb_file(tmp_path)
    rc = main(["kb", "export", "--kb", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert KnowledgeBase.import_json(out.strip()) == kb


def test_kb_export_to_file_matches_store_bytes(capsys, tmp_path):
    _, path = make_kb_file(tmp_path)
    dest = tmp_path / "export.json"
    rc = main(["kb", "export", "--kb", str(path), "--out", str(dest)])
    assert rc == 0
    assert dest.read_bytes() == path.read_bytes()


def test_kb_import_round_trip(capsys, tmp_path):
    _, path = make_kb_file(tmp_path)
    dest = tmp_path / "imported.json"
    rc = main(["kb", "import", "--kb", str(dest), str(path)])
    assert rc == 0
    assert "imported 1 entries" in capsys.readouterr().out
    assert dest.read_bytes() == path.read_bytes()


def test_kb_import_refuses_newer_version(capsys, tmp_path):
    _, path = make_kb_file(tmp_path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["version"] = 99
    newer = tmp_path / "newer.json"
    newer.write_text(json.dumps(doc), encoding="utf-8")
    rc = main(["kb", "import", "--kb", str(tmp_path / "x.json"), str(newer)])
    assert rc == 2
    assert "newer than supported" in capsys.readouterr().err


def test_kb_show_missing_file(capsys, tmp_path):
    rc = main(["kb", "show", "--kb", str(tmp_path / "ghost.json")])
    assert rc == 2


def write_huge_kb(tmp_path, field, value=HUGE):
    _, path = make_kb_file(tmp_path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    if field in doc["meta"]:
        doc["meta"][field] = value
    else:
        doc["entries"][0][field] = value
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(doc), encoding="utf-8")
    return huge


@pytest.mark.parametrize("field", ["posterior", "n_success", "alpha0", "tau"])
def test_kb_show_huge_integer_exits_2(field, capsys, tmp_path):
    rc = main(["kb", "show", "--kb", str(write_huge_kb(tmp_path, field))])
    assert rc == 2
    assert_one_error_line(capsys)


@pytest.mark.parametrize("field", ["posterior", "beta0"])
def test_kb_import_huge_integer_exits_2(field, capsys, tmp_path):
    dest = tmp_path / "imported.json"
    rc = main(["kb", "import", "--kb", str(dest), str(write_huge_kb(tmp_path, field))])
    assert rc == 2
    assert_one_error_line(capsys)
    assert not dest.exists()


def test_select_huge_count_in_kb_exits_2(capsys, tmp_path):
    kb = write_huge_kb(tmp_path, "n_failure")
    rc = main(["select", "--ontology", ONTOLOGY, "--models", "apple", "--kb", str(kb),
               "--action", "grasp", "--mode", "top", "banana"])
    assert rc == 2
    assert_one_error_line(capsys)


# rejected when the store or the flags are read, before any beta draw
@pytest.mark.parametrize("count", [2**40, 2**63])
def test_select_huge_beta_sample_count_in_kb_exits_2(count, capsys, tmp_path):
    kb = write_huge_kb(tmp_path, "beta_sample_count", count)
    rc = main(["select", "--ontology", ONTOLOGY, "--models", "apple", "--kb", str(kb), "banana"])
    assert rc == 2
    assert_one_error_line(capsys)


def test_select_huge_beta_samples_flag_exits_2(capsys):
    rc = main(["select", "--ontology", ONTOLOGY, "--models", "apple", "--beta-samples", str(2**40), "banana"])
    assert rc == 2
    assert_one_error_line(capsys)


# -- console script wiring ---------------------------------------------------------


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def child_env():
    """Environment for a child interpreter that imports the suitgraph this process imported."""
    package_root = str(Path(suitgraph.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": pythonpath}


def declared_script(name):
    """The ``module:attr`` entry that ``[project.scripts]`` in pyproject.toml declares."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


def test_console_script_runs(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "suitgraph.cli", "similarity",
         "--ontology", ONTOLOGY, "apple", "banana"],
        capture_output=True, text=True, timeout=60, env=child_env(), cwd=tmp_path,
    )
    assert proc.returncode == 0
    assert proc.stdout == "0.750000\n"


def test_console_entry_point(tmp_path):
    module, _, attr = declared_script("suitgraph").partition(":")
    assert getattr(importlib.import_module(module), attr) is main
    # what the wrapper script that pip generates for a console_scripts entry runs
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    proc = subprocess.run(
        [sys.executable, "-c", wrapper,
         "cluster", "--ontology", ONTOLOGY, "--models", MODELS, "banana"],
        capture_output=True, text=True, timeout=60, env=child_env(), cwd=tmp_path,
    )
    assert proc.returncode == 0
    assert proc.stdout == "apple\nsize: 1\n"


@pytest.mark.skipif(shutil.which("suitgraph") is None,
                    reason="suitgraph console script not installed")
def test_installed_console_script(tmp_path):
    proc = subprocess.run(
        ["suitgraph", "cluster", "--ontology", ONTOLOGY, "--models", MODELS, "banana"],
        capture_output=True, text=True, timeout=60, env=child_env(), cwd=tmp_path,
    )
    assert proc.returncode == 0
    assert proc.stdout == "apple\nsize: 1\n"

"""Seeded inputs and one unit of work for each benchmark workload.

A unit of work always starts from the same state and has a fixed size, so
every unit of a run must write the same bytes; the run repeats units until
its time is up. Campaign units make the calls ``suitgraph simulate`` makes
and teach units the calls ``suitgraph teach`` makes, in the same order.

The shape of each workload (taxonomy, model registry, targets, sizes) does
not depend on the seed, so that runs with different seeds do comparable
work. The seed drives the ground-truth probabilities, the stored experience,
the scripted teach outcomes and the selection RNG.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from suitgraph import simulate, suitability
from suitgraph.ontology import household_taxonomy_path, load_hierarchy
from suitgraph.simulate import (
    NORMALIZATION_TOLERANCE,
    STRATEGIES,
    CampaignConfig,
    GroundTruthMatrix,
    report_csv,
    report_json,
    summarize,
)
from suitgraph.store import KnowledgeBase
from suitgraph.suitability import SuitabilityConfig

# household classes with execution models: every other class is a target,
# and the clusters of the 12 targets hold 1 to 6 candidates
HOUSEHOLD_MODELS = (
    "apple", "banana", "chips_can", "container", "cracker_box",
    "mug", "pitcher", "sugar_box", "tennis_ball",
)

# sizes per scale; "tiny" is the smoke-test size
SIZES = {
    "full": {
        "household_trials": 150,
        "wide_models": 1996,
        "wide_targets": 3,
        "wide_trials": 10,
        "teach_classes": 10_000,
        "teach_entries": 3_000,
        "teach_targets": 8,
        "teach_rounds": 24,
    },
    "tiny": {
        "household_trials": 3,
        "wide_models": 40,
        "wide_targets": 2,
        "wide_trials": 2,
        "teach_classes": 300,
        "teach_entries": 60,
        "teach_targets": 3,
        "teach_rounds": 4,
    },
}

# tree shape and model registry of teach10k come from this fixed seed
TEACH_SHAPE_SEED = 20210719

# a teach10k class's parent is one of the this-many classes created before it
TEACH_PARENT_WINDOW = 400


@dataclass
class Inputs:
    """Files on disk plus the parsed state a unit of work starts from."""

    workload: str
    seed: int
    taxonomy: Path
    gt_path: Path | None
    kb_path: Path | None
    registry: frozenset
    targets: tuple
    hierarchy: object = None
    checksum: str = ""
    gt: GroundTruthMatrix | None = None
    trials: int = 0
    strategies: tuple = ()
    teach_rounds: int = 0
    script: dict = field(default_factory=dict)


def _gen(workload: str, seed: int) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4], "big")
    return np.random.Generator(np.random.PCG64([tag, seed]))


def _write_gt(path: Path, probs: dict) -> None:
    entries = [{"target": t, "model": m, "p": p} for (t, m), p in sorted(probs.items())]
    path.write_text(json.dumps({"default": 0.0, "entries": entries}), encoding="utf-8")


def build_inputs(workload: str, seed: int, scale: str, workdir: Path) -> Inputs:
    """Generate a workload's files in ``workdir``; same seed, same bytes."""
    size = SIZES[scale]
    rng = _gen(workload, seed)
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "household":
        taxonomy = household_taxonomy_path()
        hierarchy = load_hierarchy(taxonomy)
        registry = frozenset(HOUSEHOLD_MODELS)
        targets = tuple(sorted(hierarchy.classes - registry))
        probs = {}
        for t in targets:
            for m in sorted(hierarchy.object_cluster(t, registry.__contains__).members):
                probs[(t, m)] = float(rng.uniform(0.05, 0.95))
        _write_gt(workdir / "gt.json", probs)
        return Inputs(workload, seed, taxonomy, workdir / "gt.json", None, registry, targets,
                      trials=size["household_trials"], strategies=STRATEGIES)
    if workload == "wide":
        models = [f"m{i:04d}" for i in range(size["wide_models"])]
        targets = tuple(f"t{i}" for i in range(size["wide_targets"]))
        tree = {"name": "thing", "children": [{"name": "objects", "children": [
            {"name": "bin", "children": [{"name": n} for n in models + list(targets)]}]}]}
        (workdir / "taxonomy.json").write_text(json.dumps(tree), encoding="utf-8")
        probs = {(t, m): float(p) for t in targets
                 for m, p in zip(models, rng.uniform(0.05, 0.95, size=len(models)))}
        _write_gt(workdir / "gt.json", probs)
        return Inputs(workload, seed, workdir / "taxonomy.json", workdir / "gt.json", None,
                      frozenset(models), targets, trials=size["wide_trials"],
                      strategies=("suitability",))
    if workload == "teach10k":
        return _build_teach(seed, size, rng, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def _build_teach(seed: int, size: dict, rng: np.random.Generator, workdir: Path) -> Inputs:
    shape = np.random.Generator(np.random.PCG64(TEACH_SHAPE_SEED))
    n = size["teach_classes"]
    names = [f"c{i:05d}" for i in range(n)]
    parent: dict[str, str | None] = {names[0]: None}
    offsets = shape.random(n)
    for i in range(1, n):
        parent[names[i]] = names[i - 1 - int(offsets[i] * min(i, TEACH_PARENT_WINDOW))]
    children: dict[str, list] = {c: [] for c in names}
    for c, p in parent.items():
        if p is not None:
            children[p].append(c)

    def node(name):
        kids = children[name]
        return {"name": name, "children": [node(k) for k in kids]} if kids else {"name": name}

    # recursion is safe here: the window keeps the depth near 50
    (workdir / "taxonomy.json").write_text(json.dumps(node(names[0])), encoding="utf-8")
    hierarchy = load_hierarchy(workdir / "taxonomy.json")
    registry = frozenset(c for c, u in zip(names, shape.random(n)) if u < 0.2)

    # pre-seed experience for targets in class order until the store holds
    # the requested number of entries; the first few become teach targets
    seeded: list[tuple[str, list[str]]] = []
    entries = 0
    for c in names:
        if c in registry:
            continue
        members = sorted(hierarchy.object_cluster(c, registry.__contains__).members)
        if not 2 <= len(members) <= 12:
            continue
        seeded.append((c, members))
        entries += len(members)
        if entries >= size["teach_entries"]:
            break
    cfg = SuitabilityConfig()
    doc_entries = []
    for target, members in seeded:
        weights = rng.random(len(members)) + 0.01
        posts = weights / weights.sum()
        counts = rng.integers(0, 20, size=(len(members), 2))
        for m, post, (ns, nf) in zip(members, posts, counts):
            doc_entries.append({"action": "default", "mode": "default", "target": target,
                                "candidate": m, "n_success": int(ns), "n_failure": int(nf),
                                "posterior": float(post)})
    doc = {"version": 1, "meta": {"alpha0": cfg.alpha0, "beta0": cfg.beta0, "tau": cfg.tau,
                                  "beta_sample_count": cfg.beta_sample_count,
                                  "ontology_checksum": hierarchy.checksum()},
           "entries": doc_entries}
    KnowledgeBase.import_json(json.dumps(doc)).save(workdir / "kb.json")

    targets = tuple(t for t, _ in seeded[: size["teach_targets"]])
    rounds = size["teach_rounds"]
    # the operator's answers: success when the round's draw falls under the
    # pair's true probability; the loop's own RNG is never consulted
    truth = {(t, m): float(p) for t, members in seeded[: size["teach_targets"]]
             for m, p in zip(members, rng.uniform(0.1, 0.9, size=len(members)))}
    script = {"truth": truth, "draws": rng.random(rounds).tolist()}
    return Inputs("teach10k", seed, workdir / "taxonomy.json", None, workdir / "kb.json",
                  registry, targets, teach_rounds=rounds, script=script)


def setup_inputs(inp: Inputs, tracer) -> None:
    """Parse what the CLI parses before its first round."""
    with tracer.span("ontology.load"):
        inp.hierarchy = load_hierarchy(inp.taxonomy)
    inp.checksum = inp.hierarchy.checksum()
    if inp.gt_path is not None:
        with tracer.span("simulate.gt_parse"):
            inp.gt = GroundTruthMatrix.from_json(inp.gt_path.read_text(encoding="utf-8"))
    if inp.kb_path is not None:
        KnowledgeBase.load(inp.kb_path, expected_checksum=inp.checksum)


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class UnitResult:
    """Timings, artifact digests and check tallies of one unit of work.

    Times come from the unit's clock: reference seconds when it is a
    ``refclock.RefClock``, raw seconds in traced runs.
    """

    rounds: int = 0
    busy_s: float = 0.0              # inside run_campaign, or inside the teach rounds
    wall_s: list = field(default_factory=list)   # per campaign or session
    round_ns: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1


def run_unit(inp: Inputs, out: Path, tracer, clock) -> UnitResult:
    """One unit of work timed by ``clock``; round latencies land in it too."""
    res = UnitResult()
    first = len(clock.samples_ns)
    if inp.workload == "teach10k":
        _teach_session(inp, out, tracer, clock, res)
    else:
        for strategy in inp.strategies:
            _campaign(inp, strategy, out / strategy, tracer, clock, res)
    res.round_ns = clock.samples_ns[first:]
    return res


def _campaign(inp: Inputs, strategy: str, out: Path, tracer, clock, res: UnitResult) -> None:
    """One ``suitgraph simulate`` campaign into ``out``.

    The clock ends a segment after each step, so that every step is scaled
    by the host speed measured right next to it.
    """
    out.mkdir(parents=True, exist_ok=True)
    config = CampaignConfig(targets=inp.targets, trials_per_object=inp.trials,
                            strategy=strategy, seed=inp.seed)
    kb = KnowledgeBase(config.cfg, inp.checksum)

    clock.lap()
    start = clock.total_s
    log = simulate.run_campaign(config, inp.hierarchy, inp.registry, inp.gt, kb)
    clock.lap()
    t_run = clock.total_s - start
    with tracer.span("simulate.summarize"):
        rows = summarize(log)
    with tracer.span("simulate.report"):
        csv_text = report_csv(rows)
    with tracer.span("bench.write"):
        (out / "report.csv").write_text(csv_text, encoding="utf-8")
    with tracer.span("simulate.report"):
        json_text = report_json(rows)
    with tracer.span("bench.write"):
        (out / "report.json").write_text(json_text, encoding="utf-8")
    clock.lap()
    with tracer.span("simulate.to_json"):
        log_text = log.to_json()
    tracer.count_bytes("simulate.to_json", log_text)
    clock.lap()
    with tracer.span("bench.write"):
        (out / "trial_log.json").write_text(log_text, encoding="utf-8")
    clock.lap()
    kb.save(out / "kb.json")
    clock.lap()
    t_all = clock.total_s - start

    res.rounds += len(log.steps)
    res.busy_s += t_run
    res.wall_s.append(t_all)

    # the checks call no traced entry point, so they add no spans
    for step in log.steps:
        res.check(not step.posteriors
                  or abs(sum(step.posteriors.values()) - 1.0) <= NORMALIZATION_TOLERANCE)
    expected: dict[str, int] = {}
    for step in log.steps:
        if step.selected is not None and not step.own_model:
            expected[step.target] = expected.get(step.target, 0) + 1
    recorded: dict[str, int] = {}
    for key, rec in kb.items():
        recorded[key.target] = recorded.get(key.target, 0) + rec.trial_count
    res.check(recorded == expected)
    res.check(KnowledgeBase.import_json((out / "kb.json").read_text(encoding="utf-8")) == kb)
    for name in ("trial_log.json", "report.json", "kb.json"):
        res.digests[f"{strategy}/{name}"] = _sha(out / name)


def _teach_session(inp: Inputs, out: Path, tracer, clock, res: UnitResult) -> None:
    """One ``suitgraph teach`` session of fixed length, cycling the targets."""
    out.mkdir(parents=True, exist_ok=True)
    kb_path = out / "kb.json"
    shutil.copyfile(inp.kb_path, kb_path)
    truth, draws = inp.script["truth"], inp.script["draws"]
    state = {"round": 0}

    def executor(obj: str, model: str) -> bool:
        return draws[state["round"]] < truth[(obj, model)]

    clock.lap()
    start = clock.total_s
    kb = KnowledgeBase.load(kb_path, expected_checksum=inp.checksum)
    cfg = kb.config
    rng = np.random.Generator(np.random.PCG64(inp.seed))
    clock.lap()
    load_s = clock.total_s - start
    first = len(clock.samples_ns)
    counts_before = sum(rec.trial_count for _, rec in kb.items())
    transcript = []
    for r in range(inp.teach_rounds):
        state["round"] = r
        target = inp.targets[r % len(inp.targets)]
        trace: dict = {}
        t = time.perf_counter_ns()
        selected, outcome = suitability.generalise_execution_model(
            target, inp.hierarchy, inp.registry, kb, cfg, executor, rng, trace=trace)
        kb.save(kb_path)
        clock.record(time.perf_counter_ns() - t)
        clock.lap()
        transcript.append([target, selected, outcome])
        res.check(selected is not None and abs(sum(trace["posteriors"].values()) - 1.0)
                  <= NORMALIZATION_TOLERANCE)

    busy = sum(clock.samples_ns[first:]) / 1e9
    res.rounds += inp.teach_rounds
    res.busy_s += busy
    res.wall_s.append(load_s + busy)
    counts_after = sum(rec.trial_count for _, rec in kb.items())
    res.check(counts_after - counts_before == inp.teach_rounds)
    res.check(KnowledgeBase.import_json(kb_path.read_text(encoding="utf-8")) == kb)
    res.digests["session/kb.json"] = _sha(kb_path)
    rounds_text = json.dumps(transcript, separators=(",", ":"))
    res.digests["session/rounds.json"] = hashlib.sha256(rounds_text.encode()).hexdigest()

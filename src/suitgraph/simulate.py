"""Simulated execution campaigns over a ground-truth success matrix.

A campaign runs ``trials_per_object`` selection rounds per target with a
single seeded PCG64 generator. Reproducibility contract: equal
(config, hierarchy, registry, ground truth, initial store) produce
byte-identical trial logs and reports. The generator is consumed in a fixed
documented order per round:

1. one beta draw array of shape (k, ``beta_sample_count``) for the k
   candidates, rows in sorted candidate order, during the posterior update;
   it is the same stream as one array of ``beta_sample_count`` values per
   candidate drawn in sorted order, and leaves the generator in the same
   state;
2. one integer draw for tie-breaking, only when the selection rule actually
   ties (posterior argmax, similarity argmax, count argmax) or when the
   strategy is ``random`` (which always draws);
3. one uniform draw for the simulated Bernoulli execution outcome.

Rounds for targets with their own model consume only the outcome draw; empty
clusters consume nothing. All strategies run the same posterior bookkeeping
and differ only in the selection rule, so ablation comparisons isolate the
selection policy.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import canonical
from .ontology import ClassHierarchy, UnknownClassError
from .store import KnowledgeBase
from .suitability import (
    NormalizationError,
    SuitabilityConfig,
    SuitabilityGraph,
    argmax_random_ties,
    deterministic_success_probability,
    generalise_execution_model,
    store_posteriors,
)

STRATEGIES = ("suitability", "random", "similarity-only", "count-only")

# posterior mass may drift from 1 only by accumulated float error
NORMALIZATION_TOLERANCE = 1e-9


@dataclass(frozen=True)
class GroundTruthMatrix:
    """True per-(target, model) Bernoulli success probabilities.

    Pairs not listed fall back to ``default``. The matrix is what the
    simulated world does; the selection loop never sees it directly.
    """

    probabilities: Mapping[tuple[str, str], float]
    default: float = 0.0

    def __post_init__(self):
        probs = dict(self.probabilities)
        for pair, p in probs.items():
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"ground-truth probability for {pair!r} out of [0, 1]: {p!r}")
        if not (0.0 <= self.default <= 1.0):
            raise ValueError(f"default ground-truth probability out of [0, 1]: {self.default!r}")
        object.__setattr__(self, "probabilities", probs)

    def probability(self, target: str, model: str) -> float:
        return self.probabilities.get((target, model), self.default)

    def targets(self) -> list[str]:
        return sorted({t for t, _ in self.probabilities})

    def models(self) -> list[str]:
        return sorted({m for _, m in self.probabilities})

    @classmethod
    def from_json(cls, text: str) -> "GroundTruthMatrix":
        """Parse ``{"default": p, "entries": [{"target", "model", "p"}, ...]}``."""
        import json

        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"ground-truth file is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ValueError("ground-truth document must be a JSON object")
        unknown = set(doc) - {"default", "entries"}
        if unknown:
            raise ValueError(f"unknown ground-truth fields: {sorted(unknown)}")
        default = doc.get("default", 0.0)
        if not isinstance(default, (int, float)) or isinstance(default, bool):
            raise ValueError("ground-truth default must be a number")
        try:
            default = float(default)
        except OverflowError as exc:
            raise ValueError(f"ground-truth default out of [0, 1]: {exc}") from exc
        entries = doc.get("entries", [])
        if not isinstance(entries, list):
            raise ValueError("ground-truth entries must be an array")
        probs: dict[tuple[str, str], float] = {}
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict) or set(entry) != {"target", "model", "p"}:
                raise ValueError(f"ground-truth entry {i} must be an object with target, model, p")
            target, model, p = entry["target"], entry["model"], entry["p"]
            if not isinstance(target, str) or not isinstance(model, str) or not target or not model:
                raise ValueError(f"ground-truth entry {i}: target and model must be non-empty strings")
            if not isinstance(p, (int, float)) or isinstance(p, bool):
                raise ValueError(f"ground-truth entry {i}: p must be a number")
            if (target, model) in probs:
                raise ValueError(f"ground-truth entry {i}: duplicate pair ({target!r}, {model!r})")
            try:
                probs[(target, model)] = float(p)
            except OverflowError as exc:
                raise ValueError(f"ground-truth entry {i}: p out of [0, 1]: {exc}") from exc
        return cls(probs, default)


def simulate_execution(gt: GroundTruthMatrix, target: str, model: str, rng: np.random.Generator) -> bool:
    """One Bernoulli execution attempt; consumes exactly one uniform draw."""
    return bool(rng.random() < gt.probability(target, model))


def baseline_select(strategy: str, graph: SuitabilityGraph, rng: np.random.Generator) -> str:
    """Ablation selection rules that ignore part of the evidence.

    ``random`` ignores everything, ``similarity-only`` ignores experience,
    ``count-only`` ignores the taxonomy (deterministic posterior mean under
    the graph's priors). Ties break uniformly at random like select_model.
    """
    names = graph.candidates
    if strategy == "random":
        return names[int(rng.integers(len(names)))]
    if strategy == "similarity-only":
        return argmax_random_ties(names, graph.similarity, rng)
    if strategy == "count-only":
        return argmax_random_ties(
            names, deterministic_success_probability(graph.n_success, graph.n_failure, graph.cfg), rng)
    raise ValueError(f"unknown baseline strategy {strategy!r}; expected one of {STRATEGIES[1:]}")


@dataclass
class CampaignConfig:
    """Everything that determines a campaign except the world itself."""

    targets: tuple[str, ...]
    trials_per_object: int = 10
    cfg: SuitabilityConfig = field(default_factory=SuitabilityConfig)
    strategy: str = "suitability"
    seed: int = 0
    action: str = "default"
    mode: str = "default"
    similarity_override: Mapping[tuple[str, str], float] | None = None
    reset_posteriors: bool = False
    max_ancestor_hops: int | None = None

    def __post_init__(self):
        self.targets = tuple(self.targets)
        if not self.targets:
            raise ValueError("campaign needs at least one target")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError("campaign targets must be distinct")
        if not (isinstance(self.trials_per_object, int) and self.trials_per_object >= 1):
            raise ValueError(f"trials_per_object must be a positive integer, got {self.trials_per_object!r}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.similarity_override is not None:
            self.similarity_override = dict(self.similarity_override)


@dataclass(frozen=True)
class TrialStep:
    """One selection round as logged: belief snapshot plus outcome."""

    trial: int
    target: str
    cluster_size: int
    selected: str | None
    outcome: bool | None
    own_model: bool
    specification_needed: bool
    similarities: dict[str, float]
    estimates: dict[str, float]
    posteriors: dict[str, float]
    counts: dict[str, tuple[int, int]]


@dataclass
class TrialLog:
    """Full campaign record; serializes canonically for byte-level diffing."""

    config: CampaignConfig
    steps: list[TrialStep]

    def to_json(self) -> str:
        override = self.config.similarity_override
        override_rows = (
            None
            if override is None
            else [[t, c, float(s)] for (t, c), s in sorted(override.items())]
        )
        doc = {
            "config": {
                "action": self.config.action,
                "cfg": {
                    "alpha0": float(self.config.cfg.alpha0),
                    "beta0": float(self.config.cfg.beta0),
                    "beta_sample_count": self.config.cfg.beta_sample_count,
                    # trial-log v1 field, kept so the log bytes stay the same; always 0
                    "rng_seed": 0,
                    "tau": float(self.config.cfg.tau),
                },
                "max_ancestor_hops": self.config.max_ancestor_hops,
                "mode": self.config.mode,
                "reset_posteriors": self.config.reset_posteriors,
                "seed": self.config.seed,
                "similarity_override": override_rows,
                "strategy": self.config.strategy,
                "targets": list(self.config.targets),
                "trials_per_object": self.config.trials_per_object,
            },
            "steps": [
                {
                    "cluster_size": s.cluster_size,
                    "counts": {c: [ns, nf] for c, (ns, nf) in s.counts.items()},
                    "estimates": s.estimates,
                    "outcome": s.outcome,
                    "own_model": s.own_model,
                    "posteriors": s.posteriors,
                    "selected": s.selected,
                    "similarities": s.similarities,
                    "specification_needed": s.specification_needed,
                    "target": s.target,
                    "trial": s.trial,
                }
                for s in self.steps
            ],
        }
        return canonical.dumps(doc)


def run_campaign(
    config: CampaignConfig,
    hierarchy: ClassHierarchy,
    registry,
    gt: GroundTruthMatrix,
    store: KnowledgeBase | None = None,
) -> TrialLog:
    """Run the campaign; returns the trial log, mutating ``store`` in place.

    A fresh store bound to the hierarchy is created when none is given.
    Each target's suitability graph lives for all of the target's rounds:
    every round records its outcome, and the posterior snapshots are
    written once, after the target's last round. Posterior mass is checked
    after every round that selected from a graph; drift beyond
    NORMALIZATION_TOLERANCE raises NormalizationError.
    """
    registry = frozenset(registry)
    for target in config.targets:
        if target not in hierarchy:
            raise UnknownClassError(target)
    if store is None:
        store = KnowledgeBase(config.cfg, hierarchy.checksum())
    rng = np.random.Generator(np.random.PCG64(config.seed))
    if config.strategy == "suitability":
        selector = None
    else:
        selector = lambda graph, gen: baseline_select(config.strategy, graph, gen)

    def executor(obj: str, model: str) -> bool:
        return simulate_execution(gt, obj, model, rng)

    steps: list[TrialStep] = []
    for target in config.targets:
        if config.similarity_override is None:
            override = None
        else:
            override = {
                cand: s for (t, cand), s in config.similarity_override.items() if t == target
            }
        own_cluster_size = 0
        if target in registry:
            # own-model rounds skip clustering; the log still reports the cluster size
            own_cluster_size = len(hierarchy.object_cluster(
                target, registry.__contains__, max_ancestor_hops=config.max_ancestor_hops))
        beliefs: dict = {}
        for trial in range(config.trials_per_object):
            trace: dict = {}
            generalise_execution_model(
                target, hierarchy, registry, store, config.cfg, executor, rng,
                action=config.action, mode=config.mode,
                selector=selector,
                similarity_override=override,
                # applies when the target's graph is built, in its first round
                reset_posteriors=config.reset_posteriors,
                max_ancestor_hops=config.max_ancestor_hops,
                trace=trace,
                beliefs=beliefs,
            )

            posteriors = trace["posteriors"]
            if posteriors:
                mass = sum(posteriors.values())
                if abs(mass - 1.0) > NORMALIZATION_TOLERANCE:
                    raise NormalizationError(
                        f"posterior mass {mass!r} for target {target!r} at trial {trial}"
                    )

            steps.append(TrialStep(
                trial=trial,
                target=target,
                cluster_size=own_cluster_size if trace["own_model"] else trace["cluster_size"],
                selected=trace["selected"],
                outcome=trace["outcome"],
                own_model=trace["own_model"],
                specification_needed=trace["specification_needed"],
                similarities=trace["similarities"],
                estimates=trace["estimates"],
                posteriors=posteriors,
                counts=trace["counts"],
            ))
        for graph in beliefs.values():
            store_posteriors(graph, store)
    return TrialLog(config, steps)


# -- campaign reports ----------------------------------------------------------


@dataclass(frozen=True)
class TargetSummary:
    """Per-target campaign outcome row."""

    target: str
    cluster_size: int
    models_attempted: int
    o_star: str
    n_success: int


def summarize(log: TrialLog) -> list[TargetSummary]:
    """Per-target rows in campaign target order.

    ``o_star`` is the candidate whose deterministic success estimate at the
    end of the campaign is maximal among those reaching tau (ties broken
    lexicographically), "/" when no candidate qualifies, and the target
    itself when it had its own model.
    """
    cfg = log.config.cfg
    by_target: dict[str, list[TrialStep]] = {target: [] for target in log.config.targets}
    for step in log.steps:
        by_target.setdefault(step.target, []).append(step)
    rows: list[TargetSummary] = []
    for target in log.config.targets:
        tsteps = by_target[target]
        n_success = sum(1 for s in tsteps if s.outcome)
        attempted = {s.selected for s in tsteps if s.selected is not None}
        last = tsteps[-1]
        if last.own_model:
            o_star = target
        else:
            o_star = "/"
            if last.counts:
                counts = np.array(list(last.counts.values()), dtype=np.int64)
                mean = deterministic_success_probability(counts[:, 0], counts[:, 1], cfg)
                top = mean.max()
                if top >= cfg.tau:
                    o_star = min(c for c, m in zip(last.counts, mean.tolist()) if m == top)
        rows.append(TargetSummary(
            target=target,
            cluster_size=last.cluster_size,
            models_attempted=len(attempted),
            o_star=o_star,
            n_success=n_success,
        ))
    return rows


def report_csv(rows: list[TargetSummary]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["target", "cluster_size", "models_attempted", "o_star", "n_success"])
    for row in rows:
        writer.writerow([row.target, row.cluster_size, row.models_attempted, row.o_star, row.n_success])
    return buf.getvalue()


def report_json(rows: list[TargetSummary]) -> str:
    doc = [
        {
            "cluster_size": row.cluster_size,
            "models_attempted": row.models_attempted,
            "n_success": row.n_success,
            "o_star": row.o_star,
            "target": row.target,
        }
        for row in rows
    ]
    return canonical.dumps(doc)

"""Command-line interface.

Subcommands: cluster, similarity, select, simulate, teach, kb. Exit codes:
0 success, 2 input/parse error, 3 unknown class, 4 specification needed (no
candidate models; a new model must be learned). Seeds resolve in order:
--seed flag, SUITGRAPH_SEED environment variable, 0.

Human-readable floats print with 6 decimals; JSON artifacts carry 17
significant digits (exact round-trip).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .ontology import UnknownClassError, household_taxonomy_path, load_hierarchy
from .simulate import (
    STRATEGIES,
    CampaignConfig,
    GroundTruthMatrix,
    report_csv,
    report_json,
    run_campaign,
    summarize,
)
from .store import KnowledgeBase
from .suitability import (
    EmptyClusterError,
    ExperienceRecord,
    SuitabilityConfig,
    generalisation_check,
    generalise_execution_model,
    specification_check,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNKNOWN_CLASS = 3
EXIT_SPECIFICATION = 4


class _TeachQuit(Exception):
    """User ended the teaching session; the pending attempt is discarded."""


def _split_csv(values: list[str] | None) -> list[str] | None:
    if values is None:
        return None
    out: list[str] = []
    for chunk in values:
        out.extend(part.strip() for part in chunk.split(",") if part.strip())
    return out or None


def _resolve_seed(args: argparse.Namespace) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("SUITGRAPH_SEED")
    if env is not None and env != "":
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"SUITGRAPH_SEED must be an integer, got {env!r}") from None
    return 0


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _effective_config(args: argparse.Namespace, base: SuitabilityConfig) -> SuitabilityConfig:
    """CLI flags override the store's recorded configuration."""
    return SuitabilityConfig(
        alpha0=args.alpha0 if args.alpha0 is not None else base.alpha0,
        beta0=args.beta0 if args.beta0 is not None else base.beta0,
        tau=args.tau if args.tau is not None else base.tau,
        beta_sample_count=args.beta_samples if args.beta_samples is not None else base.beta_sample_count,
    )


def _open_store(args: argparse.Namespace, hierarchy) -> KnowledgeBase:
    """The --kb store, or a new one bound to the taxonomy when there is no
    such file; CLI flags override its configuration."""
    if args.kb is not None and Path(args.kb).exists():
        kb = KnowledgeBase.load(args.kb, expected_checksum=hierarchy.checksum())
    else:
        kb = KnowledgeBase(ontology_checksum=hierarchy.checksum())
    kb.config = _effective_config(args, kb.config)
    return kb


def _require_models(args: argparse.Namespace) -> frozenset[str]:
    models = _split_csv(args.models)
    if not models:
        raise ValueError("--models is required: comma-separated classes that have execution models")
    return frozenset(models)


# -- subcommands ---------------------------------------------------------------


def cmd_cluster(args: argparse.Namespace) -> int:
    hierarchy = load_hierarchy(args.ontology)
    registry = _require_models(args)
    cluster = hierarchy.object_cluster(
        args.target, registry.__contains__, max_ancestor_hops=args.max_ancestors)
    for member in sorted(cluster.members):
        print(member)
    print(f"size: {len(cluster)}")
    return EXIT_OK


def cmd_similarity(args: argparse.Namespace) -> int:
    hierarchy = load_hierarchy(args.ontology)
    value = hierarchy.wup_similarity(args.class_a, args.class_b)
    print(f"{value:.6f}")
    return EXIT_OK


def cmd_select(args: argparse.Namespace) -> int:
    """Dry run of one selection round: no execution, no store mutation."""
    hierarchy = load_hierarchy(args.ontology)
    registry = _require_models(args)
    kb = _open_store(args, hierarchy)
    trace: dict = {}
    selected, _ = generalise_execution_model(
        args.target, hierarchy, registry, kb, kb.config, None, _rng(_resolve_seed(args)),
        action=args.action, mode=args.mode,
        reset_posteriors=args.reset_posteriors,
        max_ancestor_hops=args.max_ancestors,
        trace=trace,
    )
    if selected is None:
        raise EmptyClusterError(args.target)

    print(f"target: {args.target}")
    if trace["own_model"]:
        print(f"target {args.target!r} has its own execution model; nothing to transfer")
    for name in trace["similarities"]:
        n_success, n_failure = trace["counts"][name]
        print(
            f"  {name}"
            f"  similarity={trace['similarities'][name]:.6f}"
            f"  n_success={n_success}"
            f"  n_failure={n_failure}"
            f"  posterior={trace['posteriors'][name]:.6f}"
        )
    print(f"selected: {selected}")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    hierarchy = load_hierarchy(args.ontology)
    gt = GroundTruthMatrix.from_json(Path(args.gt).read_text(encoding="utf-8"))
    models = _split_csv(args.models)
    registry = frozenset(models) if models else frozenset(gt.models())
    targets = _split_csv(args.targets) or gt.targets()
    if not targets:
        raise ValueError("no targets: pass --targets or list pairs in the ground-truth file")

    kb = _open_store(args, hierarchy)
    config = CampaignConfig(
        targets=tuple(targets),
        trials_per_object=args.trials,
        cfg=kb.config,
        strategy=args.strategy,
        seed=_resolve_seed(args),
        action=args.action,
        mode=args.mode,
        reset_posteriors=args.reset_posteriors,
        max_ancestor_hops=args.max_ancestors,
    )
    log = run_campaign(config, hierarchy, registry, gt, kb)
    rows = summarize(log)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.csv").write_text(report_csv(rows), encoding="utf-8")
    (out / "report.json").write_text(report_json(rows), encoding="utf-8")
    (out / "trial_log.json").write_text(log.to_json(), encoding="utf-8")
    kb.save(out / "kb.json")

    print(report_csv(rows), end="")
    return EXIT_OK


def cmd_teach(args: argparse.Namespace) -> int:
    """Interactive loop: select, ask for the real-world outcome, record."""
    hierarchy = load_hierarchy(args.ontology)
    registry = _require_models(args)
    kb = _open_store(args, hierarchy)
    rng = _rng(_resolve_seed(args))
    target = args.target

    def executor(obj: str, model: str) -> bool:
        print(f"attempt model {model!r} on object {obj!r}")
        while True:
            try:
                answer = input("success? [y/n/q] ").strip().lower()
            except EOFError:
                raise _TeachQuit from None
            if answer in ("y", "yes"):
                return True
            if answer in ("n", "no"):
                return False
            if answer in ("q", "quit"):
                raise _TeachQuit
            print("please answer y, n, or q")

    attempted: set[str] = set()
    rounds = 0
    while True:
        try:
            selected, outcome = generalise_execution_model(
                target, hierarchy, registry, kb, kb.config, executor, rng,
                action=args.action, mode=args.mode,
                reset_posteriors=(args.reset_posteriors and rounds == 0),
                max_ancestor_hops=args.max_ancestors,
            )
        except _TeachQuit:
            break
        rounds += 1
        if selected is None:
            raise EmptyClusterError(target)
        attempted.add(selected)
        kb.save(args.kb)
        result = "success" if outcome else "failure"
        if selected == target:
            print(f"ran the own model of {target!r}: {result}; nothing recorded")
        else:
            print(f"recorded {result} for model {selected!r} on {target!r}")

    _print_teach_summary(target, hierarchy, registry, kb, args, attempted)
    return EXIT_OK


def _print_teach_summary(target, hierarchy, registry, kb, args, attempted) -> None:
    cfg = kb.config
    print("session summary:")
    if target in registry:
        print(f"  {target!r} has its own execution model")
    else:
        cluster = hierarchy.object_cluster(
            target, registry.__contains__, max_ancestor_hops=args.max_ancestors)
        stored = kb.records_for(args.action, args.mode, target)
        records = {m: stored.get(m, ExperienceRecord()) for m in cluster.members}
        needed = specification_check(target, cluster, records, cfg)
        print(f"  specification needed for {target!r}: {'yes' if needed else 'no'}")
    for model in sorted(attempted):
        parent = hierarchy.parent(model)
        if parent is None:
            continue
        siblings = hierarchy.siblings(model)
        sibling_records = {sib: kb.records_for(args.action, args.mode, sib).get(model) for sib in sorted(siblings)}
        missing = [sib for sib, rec in sibling_records.items() if rec is None]
        if missing:
            print(f"  model {model!r} generalises to {parent!r}: insufficient data "
                  f"(no experience on: {', '.join(missing)})")
            continue
        promoted = generalisation_check(model, siblings, sibling_records, cfg)
        print(f"  model {model!r} generalises to {parent!r}: {'yes' if promoted else 'no'}")


def cmd_kb(args: argparse.Namespace) -> int:
    if args.kb_command == "show":
        kb = KnowledgeBase.load(args.kb)
        print(f"entries: {len(kb)}")
        print(f"ontology_checksum: {kb.ontology_checksum or '(unbound)'}")
        cfg = kb.config
        print(f"alpha0={cfg.alpha0:.6f} beta0={cfg.beta0:.6f} tau={cfg.tau:.6f} "
              f"beta_samples={cfg.beta_sample_count}")
        for key, rec in kb.items():
            print(f"  {key.action} {key.mode} {key.target} {key.candidate} "
                  f"n_success={rec.n_success} n_failure={rec.n_failure} "
                  f"posterior={rec.posterior:.6f}")
        return EXIT_OK
    if args.kb_command == "export":
        kb = KnowledgeBase.load(args.kb)
        text = kb.export_json()
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8")
        else:
            print(text)
        return EXIT_OK
    if args.kb_command == "import":
        text = Path(args.input).read_text(encoding="utf-8")
        kb = KnowledgeBase.import_json(text)
        kb.save(args.kb)
        print(f"imported {len(kb)} entries")
        return EXIT_OK
    raise ValueError(f"unknown kb command {args.kb_command!r}")


# -- parser assembly -------------------------------------------------------------


def _add_ontology_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--ontology", required=True, metavar="PATH",
        help="taxonomy file (.json json-tree, .owl/.rdf/.xml OWL subset)")


def _add_cluster_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--models", action="append", metavar="CLASSES",
        help="comma-separated classes that have execution models (repeatable)")
    parser.add_argument("--max-ancestors", type=non_negative_int, default=None, metavar="N",
                        help="cap ancestor hops contributing to the object cluster")


def non_negative_int(text: str) -> int:
    """``--max-ancestors`` value, refused at parse time (exit 2), before any
    taxonomy or store file is read."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"max_ancestor_hops must be None or >= 0, got {value}")
    return value


def non_empty_str(text: str) -> str:
    """``--action`` or ``--mode`` value, refused at parse time (exit 2): a
    target with its own model records no experience, so the store never sees it."""
    if not text:
        raise argparse.ArgumentTypeError("must be a non-empty string")
    return text


def _add_key_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--action", type=non_empty_str, default="default",
                        help="action name for experience scoping")
    parser.add_argument("--mode", type=non_empty_str, default="default",
                        help="action mode for experience scoping")


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha0", type=float, default=None, help="beta prior alpha (default 3 or store meta)")
    parser.add_argument("--beta0", type=float, default=None, help="beta prior beta (default 3 or store meta)")
    parser.add_argument("--tau", type=float, default=None, help="decision threshold (default 0.6 or store meta)")
    parser.add_argument("--beta-samples", type=int, default=None, dest="beta_samples",
                        help="posterior draws per success estimate (default 10 or store meta)")
    parser.add_argument("--seed", type=int, default=None,
                        help="RNG seed (default: SUITGRAPH_SEED env var, then 0)")
    parser.add_argument("--reset-posteriors", action="store_true",
                        help="discard persisted posteriors, keep counts")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="suitgraph",
        description="Ontology-assisted reuse of action execution models.",
        epilog=f"A ready-made taxonomy ships at {household_taxonomy_path()}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cluster", help="candidate models for a target class")
    _add_ontology_arg(p)
    _add_cluster_args(p)
    p.add_argument("target")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("similarity", help="Wu-Palmer similarity of two classes")
    _add_ontology_arg(p)
    p.add_argument("class_a")
    p.add_argument("class_b")
    p.set_defaults(func=cmd_similarity)

    p = sub.add_parser("select", help="dry-run one selection round (no side effects)")
    _add_ontology_arg(p)
    _add_cluster_args(p)
    p.add_argument("--kb", metavar="PATH", help="experience store to read (optional)")
    _add_key_args(p)
    _add_config_args(p)
    p.add_argument("target")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("simulate", help="run a simulated execution campaign")
    _add_ontology_arg(p)
    _add_cluster_args(p)
    p.add_argument("--gt", required=True, metavar="PATH", help="ground-truth success matrix (JSON)")
    p.add_argument("--kb", metavar="PATH", help="initial experience store (optional)")
    p.add_argument("--targets", action="append", metavar="CLASSES",
                   help="comma-separated campaign targets (default: targets in the ground truth)")
    p.add_argument("--trials", type=int, default=10, help="trials per target (default 10)")
    p.add_argument("--strategy", choices=STRATEGIES, default="suitability")
    p.add_argument("--out", required=True, metavar="DIR",
                   help="directory for report.csv, report.json, trial_log.json, kb.json")
    _add_key_args(p)
    _add_config_args(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("teach", help="interactive execution with human-reported outcomes")
    _add_ontology_arg(p)
    _add_cluster_args(p)
    p.add_argument("--kb", required=True, metavar="PATH", help="experience store to update")
    _add_key_args(p)
    _add_config_args(p)
    p.add_argument("target")
    p.set_defaults(func=cmd_teach)

    p = sub.add_parser("kb", help="inspect or exchange experience stores")
    kb_sub = p.add_subparsers(dest="kb_command", required=True)
    q = kb_sub.add_parser("show", help="print entries")
    q.add_argument("--kb", required=True, metavar="PATH")
    q.set_defaults(func=cmd_kb)
    q = kb_sub.add_parser("export", help="canonical JSON to stdout or a file")
    q.add_argument("--kb", required=True, metavar="PATH")
    q.add_argument("--out", metavar="PATH")
    q.set_defaults(func=cmd_kb)
    q = kb_sub.add_parser("import", help="validate a JSON document and write it as a store")
    q.add_argument("--kb", required=True, metavar="PATH", help="destination store")
    q.add_argument("input", metavar="FILE", help="JSON document to import")
    q.set_defaults(func=cmd_kb)

    return parser


def main(argv: list[str] | None = None) -> int:
    if not logging.getLogger().handlers:
        logging.basicConfig(level=logging.WARNING, format="%(levelname)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # usage errors exit 2, --help 0
        return exc.code
    try:
        return args.func(args)
    except UnknownClassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN_CLASS
    except EmptyClusterError as exc:
        print(f"error: {exc}; a new execution model must be learned", file=sys.stderr)
        return EXIT_SPECIFICATION
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

"""The package's top-level names are exactly the ones README "Library" lists."""

import re
import types
from pathlib import Path

import suitgraph

PUBLIC = {
    "CampaignConfig",
    "EmptyClusterError",
    "ExperienceKey",
    "GroundTruthMatrix",
    "KnowledgeBase",
    "MissingRecordError",
    "NormalizationError",
    "OntologyError",
    "SchemaError",
    "SuitabilityConfig",
    "UnknownClassError",
    "generalisation_check",
    "generalise_execution_model",
    "household_taxonomy_path",
    "init_graph",
    "load_hierarchy",
    "run_campaign",
    "select_model",
    "specification_check",
    "update_posteriors",
}

README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_names_are_pinned():
    names = {name for name, value in vars(suitgraph).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert names == PUBLIC


def test_public_names_documented_in_readme():
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    missing = sorted(name for name in PUBLIC if not re.search(rf"`{name}`", library))
    assert missing == []

import json
from pathlib import Path

import pytest

from statesum import (
    TemplateConfig,
    default_ontology,
    load_multiwoz,
    reserved_collisions,
    state_to_summary,
)

FIXTURE_CORPUS = Path(__file__).parent / "data" / "mini_multiwoz"

# The fixture turns whose default-config summary does not parse back, kept by
# hand so that tests scoring gold-derived predictions do not ask the parser
# which turns to leave out: the restaurant name "milk and honey" is cut at "and".
FIXTURE_COLLIDING_TURNS = {("SNG0004.json", 1)}


def write_off_schema_corpus(root: Path) -> Path:
    """The fixture corpus, written to ``root``, with "trainID" in SNG0003's train book block.

    The loader keeps any raw semi/book key, so it loads as the off-schema slot
    "train-book trainid" and the schema rejects that two-turn dialogue whole.
    """
    raw = json.loads((FIXTURE_CORPUS / "data.json").read_text())
    raw["SNG0003.json"]["log"][3]["metadata"]["train"]["book"]["trainID"] = "TR1234"
    root.mkdir(exist_ok=True)
    (root / "data.json").write_text(json.dumps(raw))
    for name in ("valListFile.json", "testListFile.json"):
        (root / name).write_text((FIXTURE_CORPUS / name).read_text())
    return root


def collisions_of(state, ont, cfg=TemplateConfig()):
    """The export guard applied to ``state``'s own summary under ``cfg``."""
    return reserved_collisions(state, ont, cfg, state_to_summary(state, ont, cfg))


@pytest.fixture(scope="session")
def ont():
    return default_ontology()


@pytest.fixture(scope="session")
def mini_corpus():
    return load_multiwoz(FIXTURE_CORPUS)

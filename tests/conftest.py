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


def collisions_of(state, ont, cfg=TemplateConfig()):
    """The export guard applied to ``state``'s own summary under ``cfg``."""
    return reserved_collisions(state, ont, cfg, state_to_summary(state, ont, cfg))


@pytest.fixture(scope="session")
def ont():
    return default_ontology()


@pytest.fixture(scope="session")
def mini_corpus():
    return load_multiwoz(FIXTURE_CORPUS)

"""Shared fixtures: the weather instance, trained models, and atom sets."""

from pathlib import Path

import pytest

from xresp import (
    enumerate_counterfactuals,
    load_dataset,
    model_atom_sets,
    parse_entity,
    to_percent,
    train,
)
from xresp.constraints import parse_constraints

REPO_ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = REPO_ROOT / "data"
TEST_DATA = Path(__file__).resolve().parent / "data"

WEATHER_CSV = DATA_DIR / "weather.csv"
DEMO_PROGRAM = DATA_DIR / "demo_program.lp"

# The weather entity (rain, high, normal, weak) breaks this mapping
# (rain->high), so raising Wind alone also overwrites Humidity: a depth-1
# version with two changes, tied by the depth-2 version that changes Outlook
# and Wind.  Its minimum-change versions lie at two search depths.
TWO_DEPTH_DEPEND = "depend Outlook -> Humidity: sunny->normal, overcast->high, rain->high"

# The README's domain-knowledge example, one directive of each kind.
README_CONSTRAINTS = (
    "forbid Temperature=high, Wind=strong\n"
    "depend Temperature -> Humidity: high->normal, medium->high, low->high\n"
    "immutable Outlook\n"
)


@pytest.fixture(scope="session")
def weather_dataset():
    return load_dataset(str(WEATHER_CSV))


@pytest.fixture(scope="session")
def weather_model(weather_dataset):
    return train(weather_dataset)


@pytest.fixture(scope="session")
def weather_percent(weather_model):
    return to_percent(weather_model)


@pytest.fixture(scope="session")
def weather_entity(weather_model):
    return parse_entity("rain,high,normal,weak", weather_model.schema)


@pytest.fixture(scope="session")
def weather_versions(weather_percent, weather_entity):
    return enumerate_counterfactuals(weather_percent, weather_entity)


@pytest.fixture(scope="session")
def weather_no_versions(weather_percent, weather_entity):
    """The weather search with every feature immutable: an empty result."""
    schema = weather_percent.schema
    frozen = parse_constraints("\n".join(f"immutable {n}" for n in schema.names), schema)
    return enumerate_counterfactuals(weather_percent, weather_entity, frozen)


@pytest.fixture(scope="session")
def weather_atom_sets(weather_versions, weather_percent, weather_entity):
    return model_atom_sets(weather_versions, weather_percent, weather_entity)

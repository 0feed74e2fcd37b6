"""Every dataclass of the package is a frozen, slotted value type."""

import dataclasses
import importlib
import inspect
import math

import pytest

from secrelay.af import SecrecyResult
from secrelay.channel import ChannelRealization, DerivedParams, PowerBudget, Strategy
from secrelay.converse import BoundEvaluation, NoiseCorrelation
from secrelay.fractional import LambdaSolution, RatioQuadraticProblem, SolverBranch
from secrelay.montecarlo import EnsembleConfig, SweepRecord
from secrelay.verify import SuiteResult
from test_exports import MODULES

EXAMPLES = [
    ChannelRealization(1.0, 2.0, 1.0),
    PowerBudget(1.0, 0.5),
    DerivedParams(4.0, 1.0, 2.0),
    NoiseCorrelation(0.5j),
    BoundEvaluation(0.1, 0.2, NoiseCorrelation(0.5)),
    RatioQuadraticProblem(4.0, 1.0, 2.0, 1.0),
    LambdaSolution(1.0, 0.0, SolverBranch.DEGENERATE),
    SecrecyResult(0.1, 0.2, 0.3, Strategy.AF),
    EnsembleConfig(),
    SweepRecord(Strategy.AF, 1.0, 1.0, 0.1, 0.0, 0.1, 0.0, 10, 1),
    SuiteResult("suite", {}, {}, 0),
]


def test_examples_cover_every_dataclass():
    found = {
        cls
        for name in MODULES
        for _, cls in inspect.getmembers(importlib.import_module(name), inspect.isclass)
        if dataclasses.is_dataclass(cls) and cls.__module__.startswith("secrelay")
    }
    assert found == {type(obj) for obj in EXAMPLES}


@pytest.mark.parametrize("obj", EXAMPLES, ids=lambda obj: type(obj).__name__)
def test_frozen_and_slotted(obj):
    assert not hasattr(obj, "__dict__")
    field = dataclasses.fields(obj)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, field, getattr(obj, field))
    # A name that is no field cannot be added either. Python 3.11's frozen
    # slotted `__setattr__` raises TypeError there, not FrozenInstanceError.
    with pytest.raises((AttributeError, TypeError)):
        obj.extra = 1


def test_power_budget_still_drops_the_sign_of_zero():
    pb = PowerBudget(-0.0, -0.0)
    assert (math.copysign(1.0, pb.p_s), math.copysign(1.0, pb.p_r)) == (1.0, 1.0)

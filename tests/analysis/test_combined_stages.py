"""Export, correlation and control in one cell, over one window bus.

Each stage's output must equal its solo run's, and the headline
``LevelResult`` must equal a plain run's: the stages share base windows,
so none of them perturbs what another one (or the headline) measures.
"""

import pytest

from repro.analysis.executor import ExperimentSpec, execute_cell
from repro.control.scenarios import build_scenario
from repro.core import ControlConfig, CorrelateConfig, ExportConfig
from repro.sim import MSEC

EXPORT = ExportConfig(window_ns=100 * MSEC)
CORRELATE = CorrelateConfig(window_ns=50 * MSEC)
CONTROL = ControlConfig(policy="shed", window_ns=50 * MSEC)


def _headline(result):
    fields = result.to_dict()
    del fields["export"], fields["extra"]
    return fields


@pytest.mark.parametrize("mode", ["vm", "native"])
def test_all_three_stages_equal_their_solo_runs(mode):
    base = ExperimentSpec("data-caching", 4000, requests=2000, monitor_mode=mode)
    plain = execute_cell(base)
    exported = execute_cell(base.replace(export=EXPORT))
    correlated = execute_cell(base.replace(correlate=CORRELATE))
    controlled = execute_cell(base.replace(control=CONTROL))
    combined = execute_cell(
        base.replace(export=EXPORT, correlate=CORRELATE, control=CONTROL))
    # A clean cell: the controller calibrates and never actuates.
    assert combined.extra["control"]["calibrated"]
    assert combined.extra["control"]["engagements"] == 0
    assert combined.export == exported.export
    assert combined.extra["correlation"] == correlated.extra["correlation"]
    assert combined.extra["control"] == controlled.extra["control"]
    assert _headline(combined) == _headline(plain)
    assert combined.export["windows"] >= 5


def test_stages_ride_along_an_actuating_controller():
    built = build_scenario("silo", "surge-shed", 900)
    controlled_spec = built["spec"].replace(control=built["control"])
    controlled = execute_cell(controlled_spec)
    combined = execute_cell(controlled_spec.replace(export=EXPORT, correlate=CORRELATE))
    assert combined.extra["control"]["engagements"] >= 1
    assert combined.extra["control"] == controlled.extra["control"]
    assert _headline(combined) == _headline(controlled)
    assert combined.export is not None and "correlation" in combined.extra

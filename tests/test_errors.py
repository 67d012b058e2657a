"""Exception hierarchy contracts."""

import pytest

from repro.errors import (
    CapacityError,
    ConfigError,
    ReproError,
    ScheduleError,
)


@pytest.mark.parametrize("exc", [ConfigError, CapacityError, ScheduleError])
def test_all_errors_derive_from_repro_error(exc):
    assert issubclass(exc, ReproError)


def test_catching_base_catches_subclass():
    with pytest.raises(ReproError):
        raise CapacityError("does not fit")


def test_errors_are_distinct():
    assert not issubclass(ConfigError, CapacityError)
    assert not issubclass(CapacityError, ConfigError)


def test_lookup_names_the_known_keys_and_appends_the_hint():
    from repro.errors import lookup

    table = {"b": 2, "a": 1}
    assert lookup(table, "a", "thing") == 1
    with pytest.raises(ConfigError) as error:
        lookup(table, "c", "thing", " (or 'none')")
    assert str(error.value) == "unknown thing 'c'; known: a, b (or 'none')"


def _named_choices():
    from repro import config
    from repro.analysis import resolve_lint_rules
    from repro.distrib import run_cells
    from repro.hardware import ClusterSpec
    from repro.models import model_by_params
    from repro.rago import OptimizerSession
    from repro.reporting import get_experiment
    from repro.schema import llm_only
    from repro.sim.autoscale import resolve_autoscale_policy
    from repro.sim.policies import (resolve_admission_policy,
                                    resolve_dispatch_policy)
    from repro.sim.routing import resolve_routing_policy
    from repro.workloads import resolve_tier_policy, scenario_trace

    session = OptimizerSession(llm_only("1B"), ClusterSpec(num_servers=1))
    return {
        "dispatch": resolve_dispatch_policy,
        "admission": resolve_admission_policy,
        "routing": resolve_routing_policy,
        "autoscale": resolve_autoscale_policy,
        "tier": resolve_tier_policy,
        "scenario": lambda name: scenario_trace(name, 1.0, 1.0),
        "objective": session.with_objective,
        "experiment": get_experiment,
        "model": model_by_params,
        "lint-rule": lambda name: resolve_lint_rules([name]),
        "sweep-backend": lambda name: run_cells(None, {}, [], backend=name),
        "config-kind": lambda kind: config.from_config(
            {"config_version": 2, "kind": kind, "spec": {}}),
    }


@pytest.mark.parametrize("choice", [
    "dispatch", "admission", "routing", "autoscale", "tier", "scenario",
    "objective", "experiment", "model", "lint-rule", "sweep-backend",
    "config-kind"])
@pytest.mark.parametrize("key", [["queue-depth"], {"a": 1}, "no-such"],
                         ids=["list", "dict", "unknown"])
def test_every_named_choice_rejects_an_unknown_key_in_one_line(choice, key):
    with pytest.raises(ConfigError, match="^unknown .*; known: ") as error:
        _named_choices()[choice](key)
    assert "\n" not in str(error.value)

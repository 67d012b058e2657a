"""Cross-registry consistency: every policy registry key must resolve
through its entry point, spell itself back through the spec grammar,
round-trip through the config envelope, and be reachable via its
module's ``__all__``.

The static ``registry-drift`` lint rule pins the *shape* of each
registry; these tests pin the runtime contracts a rename or a
half-registered policy would silently break.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.config import from_config, to_config
from repro.serve import ServeConfig
from repro.sim.autoscale import (
    AUTOSCALE_POLICIES,
    AutoscaleConfig,
    autoscale_spec,
    parse_autoscale_spec,
    resolve_autoscale_policy,
)
from repro.sim.policies import (
    ADMISSION_POLICIES,
    DISPATCH_POLICIES,
    admission_spec,
    parse_admission_policy,
    resolve_admission_policy,
    resolve_dispatch_policy,
)
from repro.sim.routing import ROUTING_POLICIES, resolve_routing_policy
from repro.workloads.sessions import TIER_POLICIES, resolve_tier_policy

REGISTRIES = {
    "dispatch": (DISPATCH_POLICIES, resolve_dispatch_policy),
    "admission": (ADMISSION_POLICIES, resolve_admission_policy),
    "routing": (ROUTING_POLICIES, resolve_routing_policy),
    "autoscale": (AUTOSCALE_POLICIES, resolve_autoscale_policy),
    "tiers": (TIER_POLICIES, resolve_tier_policy),
}


@pytest.mark.parametrize("registry_name", sorted(REGISTRIES))
def test_every_key_resolves_to_a_policy_named_after_it(registry_name):
    registry, resolve = REGISTRIES[registry_name]
    assert registry, f"{registry_name} registry is empty"
    for key in registry:
        policy = resolve(key)
        assert policy.name == key, (
            f"{registry_name} key {key!r} resolved to a policy that "
            f"spells itself {policy.name!r}; spec strings would not "
            f"round-trip")
        # Factories hand out fresh instances, not shared singletons.
        assert resolve(key) is not policy


@pytest.mark.parametrize("registry_name", sorted(REGISTRIES))
def test_unknown_key_error_lists_known_names(registry_name):
    registry, resolve = REGISTRIES[registry_name]
    from repro.errors import ConfigError
    with pytest.raises(ConfigError) as excinfo:
        resolve("definitely-not-registered")
    for key in registry:
        assert key in str(excinfo.value)


def test_admission_spec_round_trips_every_policy():
    for key in ADMISSION_POLICIES:
        policy = resolve_admission_policy(key)
        assert parse_admission_policy(admission_spec(policy)) == policy
    # The parameterized spelling, which no registry key covers.
    budgeted = parse_admission_policy("token-budget=4096")
    assert admission_spec(budgeted) == "token-budget=4096"
    assert parse_admission_policy(admission_spec(budgeted)) == budgeted


@pytest.mark.parametrize("policy", sorted(AUTOSCALE_POLICIES))
def test_autoscale_spec_round_trips_every_policy(policy):
    config = parse_autoscale_spec(
        f"policy={policy},min=1,max=6,interval=0.5,cooldown=2.0")
    assert config.policy == policy
    assert parse_autoscale_spec(autoscale_spec(config)) == config
    # The bare-token shortcut selects the same policy.
    assert parse_autoscale_spec(policy).policy == policy


@pytest.mark.parametrize("policy", sorted(AUTOSCALE_POLICIES))
def test_autoscale_config_envelope_round_trips_every_policy(policy):
    config = AutoscaleConfig(policy=policy, min_replicas=1,
                             max_replicas=4)
    assert from_config(to_config(config)) == config


@pytest.mark.parametrize("routing", sorted(ROUTING_POLICIES))
def test_serve_config_envelope_round_trips_every_routing_key(routing):
    config = ServeConfig(replicas=2, routing=routing)
    assert from_config(to_config(config)) == config


#: Packages whose public names resolve when read (repro._lazy).
LAZY_PACKAGES = [
    "repro",
    "repro.hardware",
    "repro.inference",
    "repro.models",
    "repro.pipeline",
    "repro.rago",
    "repro.reporting",
    "repro.retrieval",
    "repro.schema",
    "repro.sim",
    "repro.workloads",
]


@pytest.mark.parametrize("module_name", sorted(set(LAZY_PACKAGES + [
    "repro.analysis",
    "repro.config",
    "repro.distrib",
    "repro.sim.autoscale",
    "repro.sim.policies",
    "repro.sim.routing",
])))
def test_dunder_all_names_are_real(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", None)
    assert exported, f"{module_name} has no __all__"
    assert len(exported) == len(set(exported))
    for name in exported:
        assert hasattr(module, name), (
            f"{module_name}.__all__ exports {name!r} which the module "
            f"does not define")
    listed = set(dir(module))
    assert set(exported) <= listed, (
        f"dir({module_name}) misses {sorted(set(exported) - listed)}")
    namespace = {}
    exec(f"from {module_name} import *", namespace)
    assert set(exported) <= set(namespace)
    with pytest.raises(AttributeError, match=module_name.replace(".", r"\.")):
        getattr(module, "definitely_not_exported")


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_table_matches_dunder_all(package):
    """Every exported name is in the lazy table and resolves to the
    object its defining module holds; the table exports nothing
    private."""
    module = importlib.import_module(package)
    table = module._EXPORTS
    assert set(module.__all__) - {"__version__"} == set(table)
    for name, origin in table.items():
        defining = importlib.import_module(origin)
        expected = defining if origin == f"{package}.{name}" \
            else getattr(defining, name)
        assert getattr(module, name) is expected


def test_lazy_names_follow_the_defining_module(monkeypatch):
    """A package reads the defining module on every access: a patch
    there (a test double, a tracing wrapper) shows through the package
    and is gone once undone."""
    import repro.sim
    import repro.sim.engine

    original = repro.sim.submit_trace
    sentinel = object()
    monkeypatch.setattr(repro.sim.engine, "submit_trace", sentinel)
    assert repro.sim.submit_trace is sentinel
    monkeypatch.undo()
    assert repro.sim.submit_trace is original


@pytest.mark.parametrize("module_name, registry_name", [
    ("repro.sim.policies", "DISPATCH_POLICIES"),
    ("repro.sim.policies", "ADMISSION_POLICIES"),
    ("repro.sim.routing", "ROUTING_POLICIES"),
    ("repro.sim.autoscale", "AUTOSCALE_POLICIES"),
    ("repro.workloads.sessions", "TIER_POLICIES"),
    ("repro.analysis", "LINT_RULES"),
])
def test_registries_are_exported(module_name, registry_name):
    module = importlib.import_module(module_name)
    assert registry_name in module.__all__
    # Facade: the sim package re-exports every policy registry.
    if module_name.startswith("repro.sim."):
        sim = importlib.import_module("repro.sim")
        assert registry_name in sim.__all__


#: The source tree, for fresh interpreters.
SRC = str(Path(__file__).resolve().parent.parent / "src")

#: (package, defining module, registry) -> the keys it held before the
#: package surfaces became lazy. A registration that stopped running
#: before the first lookup shows up here as a missing key.
REGISTRY_KEYS = {
    ("repro.analysis", "repro.analysis.rules", "LINT_RULES"): [
        "await-shards-shared-state", "exception-contract",
        "listener-rebind", "mutable-default-arg",
        "no-blocking-io-in-coordinator",
        "no-per-event-allocation-in-hot-loop", "no-wallclock-in-sim",
        "registry-drift", "seeded-rng-required", "transitive-unseeded-rng",
        "transitive-wallclock-in-sim",
        "unsorted-dict-iteration-in-reporting"],
    ("repro.workloads", "repro.workloads.traces", "SCENARIOS"): [
        "bursty", "diurnal", "poisson"],
    ("repro.workloads", "repro.workloads.sessions", "TIER_POLICIES"): [
        "free-paid", "single"],
    ("repro.sim", "repro.sim.policies", "DISPATCH_POLICIES"): [
        "deadline-flush", "full-batch", "size-capped"],
    ("repro.sim", "repro.sim.policies", "ADMISSION_POLICIES"): [
        "greedy", "priority"],
    ("repro.sim", "repro.sim.routing", "ROUTING_POLICIES"): [
        "join-idle-queue", "least-in-flight", "power-of-two-choices",
        "round-robin", "session-affine", "weighted-qps"],
    ("repro.sim", "repro.sim.autoscale", "AUTOSCALE_POLICIES"): [
        "queue-depth", "slo-attainment", "target-utilization"],
}


@pytest.mark.parametrize("via_package", [True, False],
                         ids=["package", "defining-module"])
@pytest.mark.parametrize("key", sorted(REGISTRY_KEYS),
                         ids=lambda key: key[2])
def test_registry_keys_in_a_fresh_interpreter(key, via_package):
    """The first thing a fresh interpreter does is read the registry --
    through its package or straight from its defining module -- and it
    already holds every key: registration side effects run first."""
    package, defining, name = key
    code = (f"from {package if via_package else defining} import {name}\n"
            f"print(sorted({name}))")
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep
               + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == str(REGISTRY_KEYS[key])

"""ScenarioConfig: round-trips, validation, resolution, and the one run API."""

from __future__ import annotations

import json

import pytest

from repro.apps.blast import BlastConfig, run_blast
from repro.apps.workloads import FixedSizes
from repro.bench.profiles import PROFILES
from repro.config import KERNELS, ScenarioConfig
from repro.simnet import FaultProfile, Topology
from repro.simnet.schedule import FifoPolicy, RandomTiebreakPolicy
from repro.testbed import Testbed
from repro.verbs import ReliabilityConfig

CFG = BlastConfig(total_messages=6, sizes=FixedSizes(32 * 1024),
                  outstanding_sends=2, outstanding_recvs=2)


# ---------------------------------------------------------------------------
# the value object
# ---------------------------------------------------------------------------
def test_round_trip_through_json():
    scenario = ScenarioConfig(
        profile="roce-wan",
        seed=11,
        faults=FaultProfile(drop_prob=0.02),
        reliability=ReliabilityConfig(retry_timeout_ns=100_000),
        schedule=("random", 9),
        telemetry=True,
        telemetry_dir="/tmp/somewhere",
        max_events=123,
    )
    back = ScenarioConfig.from_dict(json.loads(json.dumps(scenario.to_dict())))
    assert back == scenario


def test_from_dict_rejects_unknown_keys():
    """A typo in a replay JSON must not silently run the default scenario."""
    with pytest.raises(ValueError, match="unknown scenario keys: kernal, sed"):
        ScenarioConfig.from_dict({"sed": 3, "kernal": "heap"})
    assert ScenarioConfig.from_dict({"seed": 3, "kernel": "heap"}) == ScenarioConfig(
        seed=3, kernel="heap")


def test_prebuilt_impairment_model_pickles_but_does_not_serialize():
    import pickle

    from repro.simnet import ImpairmentModel

    model = ImpairmentModel(FaultProfile(drop_prob=0.1), seed=7, down_windows=[(10, 20)])
    scenario = ScenarioConfig(faults=model)
    assert isinstance(pickle.loads(pickle.dumps(scenario)).faults, ImpairmentModel)
    assert scenario.resolved().reliability is not None  # a lossy wire all the same
    with pytest.raises(ValueError, match="ImpairmentModel does not JSON-serialize"):
        scenario.to_dict()


def test_unknown_profile_rejected():
    with pytest.raises(ValueError, match="unknown profile"):
        ScenarioConfig(profile="infiniband-9000")


def test_bad_schedule_spec_rejected():
    with pytest.raises(ValueError):
        ScenarioConfig(schedule=("lifo", 0))


def test_schedule_policy_resolution():
    assert ScenarioConfig().schedule_policy() is None
    assert isinstance(ScenarioConfig(schedule=("fifo", 0)).schedule_policy(), FifoPolicy)
    policy = ScenarioConfig(schedule=("random", 4)).schedule_policy()
    assert isinstance(policy, RandomTiebreakPolicy)
    assert policy.seed == 4


def test_with_copies_and_overrides():
    base = ScenarioConfig(seed=1)
    derived = base.with_(seed=2, schedule=("random", 3))
    assert derived.seed == 2 and derived.schedule == ("random", 3)
    assert base.seed == 1 and base.schedule is None


def test_unregistered_adhoc_profile_does_not_serialize():
    profile = PROFILES["fdr"]
    import dataclasses

    adhoc = dataclasses.replace(profile, name="adhoc-custom")
    scenario = ScenarioConfig(profile=adhoc)
    assert scenario.resolve_profile() is adhoc
    with pytest.raises(ValueError, match="not registered"):
        scenario.to_dict()


# ---------------------------------------------------------------------------
# one constructor, one app signature
# ---------------------------------------------------------------------------
def test_removed_keyword_spellings_raise_type_error():
    """The PR 4 / PR 9 keyword assembly is deleted, not deprecated."""
    from repro.bench.profiles import FDR_INFINIBAND
    from repro.fabric import Fabric

    for call in (
        lambda: Testbed(seed=5),
        lambda: Testbed(ScenarioConfig(), faults=FaultProfile(drop_prob=0.1)),
        lambda: Fabric(seed=5),
        lambda: Fabric(ScenarioConfig(), cq_shards=2),
        lambda: run_blast(CFG, seed=5),
        lambda: run_blast(CFG, profile=FDR_INFINIBAND),
        lambda: run_blast(CFG, telemetry=True),
    ):
        with pytest.raises(TypeError, match="unexpected keyword"):
            call()
    tb = Testbed(ScenarioConfig())
    assert not hasattr(tb, "client_host") and not hasattr(tb, "server_host")
    assert not hasattr(ScenarioConfig, "build_testbed")


def test_testbed_from_scenario_does_not_warn(recwarn):
    Testbed.from_scenario(ScenarioConfig(seed=5))
    assert not [w for w in recwarn if issubclass(w.category, DeprecationWarning)]


def test_prebuilt_testbed_matches_scenario_run():
    scenario = ScenarioConfig(seed=5)
    prebuilt = run_blast(CFG, testbed=Testbed(scenario))
    direct = run_blast(CFG, scenario)
    assert prebuilt.total_bytes == direct.total_bytes
    assert prebuilt.end_ns == direct.end_ns
    assert prebuilt.send_latencies_ns == direct.send_latencies_ns


def test_run_blast_scenario_does_not_warn(recwarn):
    run_blast(CFG, scenario=ScenarioConfig(seed=5))
    assert not [w for w in recwarn if issubclass(w.category, DeprecationWarning)]


def test_scenario_telemetry_dir_writes_without_env(tmp_path):
    scenario = ScenarioConfig(seed=5, telemetry_dir=str(tmp_path / "artifacts"))
    run_blast(CFG, scenario=scenario)
    assert list((tmp_path / "artifacts").glob("*.jsonl"))


# ---------------------------------------------------------------------------
# one environment read: resolved() and environment-free replay
# ---------------------------------------------------------------------------
@pytest.fixture
def clean_env(monkeypatch):
    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    return monkeypatch


def test_resolved_fills_defaults_without_an_environment(clean_env):
    plain = ScenarioConfig().resolved()
    assert (plain.kernel, plain.transport, plain.reliability) == ("wheel", "wwi", None)
    # a defaulted wheel gives way to the policy calendar; an explicit one is kept
    assert ScenarioConfig(schedule=("random", 1)).resolved().kernel == "heap"
    assert ScenarioConfig(schedule=("random", 1), kernel="wheel").resolved().kernel == "wheel"
    # a lossy wire gets path-scaled reliability, in the default discipline
    lossy = ScenarioConfig(faults=FaultProfile(drop_prob=0.01)).resolved()
    assert lossy.reliability == ScenarioConfig().path_reliability()
    assert lossy.reliability.mode == "gobackn"
    explicit = ReliabilityConfig(retry_timeout_ns=123_000)
    assert ScenarioConfig(faults=FaultProfile(drop_prob=0.01),
                          reliability=explicit).resolved().reliability is explicit


def test_resolved_reads_repro_kernel_and_the_explicit_field_wins(clean_env):
    clean_env.setenv("REPRO_KERNEL", "wheel")
    assert ScenarioConfig(schedule=("fifo", 0)).resolved().kernel == "heap"
    clean_env.setenv("REPRO_KERNEL", "heap")
    assert ScenarioConfig().resolved().kernel == "heap"
    assert ScenarioConfig(kernel="wheel").resolved().kernel == "wheel"
    clean_env.setenv("REPRO_KERNEL", "bogus")
    with pytest.raises(ValueError, match="unknown REPRO_KERNEL 'bogus'"):
        ScenarioConfig().resolved()


def test_resolved_consults_no_other_environment_variable(monkeypatch):
    """The scenario alone picks the variant: resolving reads REPRO_KERNEL
    and nothing else from the environment."""
    import os

    read = []

    class Recording(dict):
        def get(self, key, default=None):
            read.append(key)
            return super().get(key, default)

        def __getitem__(self, key):
            read.append(key)
            return super().__getitem__(key)

    monkeypatch.setattr(os, "environ", Recording(os.environ))
    ScenarioConfig(faults=FaultProfile(drop_prob=0.01)).resolved()
    assert read == ["REPRO_KERNEL"]


@pytest.mark.parametrize("mode", ["gobackn", "selective_repeat"])
def test_resolved_keeps_an_explicit_reliability_config(mode):
    """An explicit reliability config comes back as given, whatever the
    environment holds: a test that asks for a discipline runs it."""
    explicit = ReliabilityConfig(retry_cnt=2, mode=mode)
    for faults in (None, FaultProfile(drop_prob=0.01)):
        got = ScenarioConfig(faults=faults, reliability=explicit,
                             transport="eager_rendezvous").resolved()
        assert got.reliability is explicit
        assert got.transport == "eager_rendezvous"


def test_env_kernel_selection_via_fabric(clean_env):
    """REPRO_KERNEL picks the calendar a fabric runs on; an explicit
    scenario kernel wins over the environment."""
    from repro.fabric import Fabric
    from repro.simnet import _accel

    topo = Topology.star(["a", "b", "c"])
    clean_env.setenv("REPRO_KERNEL", "heap")
    assert Fabric.from_scenario(ScenarioConfig(topology=topo)).kernel == "heap"
    wheel = Fabric.from_scenario(ScenarioConfig(topology=topo, kernel="wheel"))
    assert wheel.scenario.kernel == "wheel"
    # (the wheel is C: a host that cannot build it runs the heap)
    assert wheel.kernel == ("wheel" if _accel.load() is not None else "heap")


def test_removed_kernels_fail_loudly(clean_env):
    """A kernel that no longer exists is refused with the valid names, on
    the field and through the environment alike; the valid ones round-trip."""
    assert KERNELS == ("wheel", "heap")
    with pytest.raises(ValueError, match="expected one of wheel, heap"):
        ScenarioConfig(kernel="cells")
    clean_env.setenv("REPRO_KERNEL", "cells")
    with pytest.raises(ValueError, match="expected one of wheel, heap"):
        ScenarioConfig().resolved()
    for kernel in KERNELS:
        assert ScenarioConfig.from_dict(ScenarioConfig(kernel=kernel).to_dict()).kernel == kernel


def test_fabric_scenario_replays_without_the_environment(clean_env):
    """The scenario a fabric reports rebuilds the same run anywhere."""
    import dataclasses

    from repro.apps.incast import IncastConfig, incast_topology, run_incast
    from repro.fabric import Fabric

    config = IncastConfig(senders=3, bytes_per_sender=48 * 1024, message_bytes=16 * 1024)
    scenario = ScenarioConfig(seed=3, topology=incast_topology(config))

    def fingerprint(fabric):
        result = run_incast(config, testbed=fabric, audit=True)
        assert result.audit_violations == 0
        return dataclasses.astuple(result), fabric.now, fabric.kernel

    baseline = Fabric.from_scenario(scenario)
    clean_env.setenv("REPRO_KERNEL", "heap")
    first = Fabric.from_scenario(scenario)
    recorded = first.scenario
    assert recorded.kernel == "heap" != baseline.scenario.kernel
    assert recorded == scenario.resolved() == recorded.resolved()
    assert ScenarioConfig.from_dict(json.loads(json.dumps(recorded.to_dict()))) == recorded
    under_env = fingerprint(first)

    clean_env.delenv("REPRO_KERNEL")
    assert recorded.resolved() == recorded
    replay = Fabric.from_scenario(recorded)
    assert replay.scenario == recorded
    assert fingerprint(replay) == under_env
    assert under_env[-1] == "heap"


# ---------------------------------------------------------------------------
# scenario.transport reaches every app's connections
# ---------------------------------------------------------------------------
@pytest.fixture
def connections(monkeypatch):
    """Every ExsConnection constructed during the test."""
    from repro.exs.connection import ExsConnection

    seen = []
    init = ExsConnection.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        seen.append(self)

    monkeypatch.setattr(ExsConnection, "__init__", recording)
    return seen


def _apps():
    from repro.apps import (
        EchoConfig,
        FileTransferConfig,
        IncastConfig,
        run_echo,
        run_file_transfer,
        run_incast,
    )

    return {
        "blast": (run_blast, CFG, 2),
        "echo": (run_echo, EchoConfig(iterations=4, warmup=0), 2),
        "file_transfer": (run_file_transfer,
                          FileTransferConfig(file_bytes=64 * 1024, streams=2,
                                             chunk_bytes=16 * 1024), 4),
        "incast": (run_incast, IncastConfig(senders=2, bytes_per_sender=32 * 1024,
                                            message_bytes=16 * 1024), 4),
    }


@pytest.mark.parametrize("app", ["blast", "echo", "file_transfer", "incast"])
@pytest.mark.parametrize("transport", ["wwi", "eager_rendezvous"])
def test_scenario_transport_reaches_every_app(connections, app, transport):
    run, config, expected = _apps()[app]
    run(config, ScenarioConfig(seed=2, transport=transport))
    assert len(connections) == expected
    assert {c.transport for c in connections} == {transport}


def test_socket_options_transport_beats_the_scenario(connections):
    """Precedence: a socket that names its transport keeps it over the
    scenario's."""
    import dataclasses

    from repro.exs import ExsSocketOptions

    config = dataclasses.replace(CFG, options=ExsSocketOptions(transport="wwi"))
    run_blast(config, ScenarioConfig(seed=2, transport="eager_rendezvous"))
    assert {c.transport for c in connections} == {"wwi"}

"""Incast scenario suite: fan-in through the shared sink uplink."""

import json

import pytest

from repro.apps import IncastConfig, incast_topology, run_incast
from repro.apps.incast import main as incast_main
from repro.config import KERNELS, ScenarioConfig
from repro.exs import ExsSocketOptions
from repro.fabric import Fabric
from repro.simnet import FaultProfile
from repro.verbs import ReliabilityConfig


def _small(**overrides):
    base = dict(senders=4, bytes_per_sender=32 * 1024, message_bytes=8 * 1024)
    base.update(overrides)
    return IncastConfig(**base)


def test_incast_topology_is_a_star_on_the_sink():
    topo = incast_topology(_small(policy="drop", port_queue_bytes=4096))
    assert topo.hosts == ("s0", "s1", "s2", "s3", "sink")
    assert topo.switches == ("switch0",)
    assert topo.switch.policy == "drop"
    assert topo.switch.port_queue_bytes == 4096


def test_config_validation():
    with pytest.raises(ValueError):
        IncastConfig(senders=0)
    with pytest.raises(ValueError):
        IncastConfig(bytes_per_sender=0)
    with pytest.raises(ValueError):
        IncastConfig(connections_per_sender=0)
    assert _small(connections_per_sender=3).total_connections == 12


def test_backpressure_incast_is_lossless():
    result = run_incast(_small(), ScenarioConfig(seed=1))
    assert result.connections == 4
    assert result.total_bytes == 4 * 32 * 1024
    assert result.switch_drops == 0
    assert result.switch_dropped_bytes == 0
    # everything the senders pushed came out of the sink port
    assert result.switch_forwarded_bytes >= result.total_bytes
    assert result.end_ns == max(result.finish_ns)
    assert result.throughput_gbps > 0


def test_congested_uplink_backpressures():
    # tiny queue + big burst: the sink port must hold frames at ingress
    result = run_incast(
        _small(senders=8, port_queue_bytes=8 * 1024, message_bytes=16 * 1024),
        ScenarioConfig(seed=1),
    )
    assert result.switch_backpressured > 0
    assert result.switch_drops == 0
    assert result.sink_port_peak_queue_bytes <= 8 * 1024 + 16 * 1024 + 512


def test_drop_policy_recovers_through_retransmission():
    result = run_incast(
        _small(senders=8, policy="drop", port_queue_bytes=8 * 1024),
        ScenarioConfig(seed=1),
    )
    # the queue tail-dropped, yet every stream completed (RC recovery)
    assert result.switch_drops > 0
    assert result.connections == 8
    assert len(result.finish_ns) == 8


def test_incast_audit_is_clean():
    result = run_incast(_small(), ScenarioConfig(seed=2), audit=True)
    assert result.audit_violations == 0


def test_incast_scales_connections_with_srq_and_shards():
    config = _small(connections_per_sender=4)  # 16 connections
    result = run_incast(
        config, ScenarioConfig(seed=1, srq_depth=256, cq_shards=4))
    assert result.connections == 16
    assert result.srq_min_free is not None
    assert result.srq_min_free >= 0


def test_incast_is_deterministic():
    a = run_incast(_small(), ScenarioConfig(seed=3))
    b = run_incast(_small(), ScenarioConfig(seed=3))
    assert a.end_ns == b.end_ns
    assert a.finish_ns == b.finish_ns
    c = run_incast(_small(), ScenarioConfig(seed=4))
    assert c.end_ns != a.end_ns


def test_incast_rejects_scenario_with_topology():
    sc = ScenarioConfig(topology=incast_topology(_small()))
    with pytest.raises(ValueError, match="derives its topology"):
        run_incast(_small(), sc)


def test_result_to_dict_is_json_ready():
    result = run_incast(_small(), ScenarioConfig(seed=1))
    payload = json.loads(json.dumps(result.to_dict()))
    assert payload["senders"] == 4
    assert payload["connections"] == 4
    assert payload["audit_violations"] == 0


def test_cli_runs_and_prints_json(capsys):
    rc = incast_main([
        "--senders", "4", "--bytes", "16384", "--message-bytes", "8192",
        "--audit",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["connections"] == 4
    assert payload["audit_violations"] == 0


@pytest.mark.parametrize("kernel", KERNELS)
def test_cli_accepts_every_kernel_it_offers(kernel, capsys):
    """``--kernel``'s choices are ScenarioConfig's own list (``legacy`` used
    to be offered and then rejected by the scenario)."""
    rc = incast_main([
        "--senders", "3", "--bytes", "16384", "--message-bytes", "8192",
        "--kernel", kernel, "--audit",
    ])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["audit_violations"] == 0
    assert ScenarioConfig(kernel=kernel).resolved().kernel == kernel


def test_cli_rejects_an_unknown_kernel(capsys):
    with pytest.raises(SystemExit):
        incast_main(["--kernel", "legacy"])
    assert "invalid choice" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# calendar and drain neutrality on a switched, lossy fabric
# ---------------------------------------------------------------------------
def _audited_fingerprint(kernel, *, seed, policy="backpressure",
                         transport=None, rel_mode=None, faults=None):
    """Run a small audited incast; return its full result fingerprint and
    the calendar statistics of the fabric it ran on."""
    config = IncastConfig(
        senders=4, connections_per_sender=2,
        message_bytes=4096, bytes_per_sender=2 * 4096,
        policy=policy,
        options=ExsSocketOptions(real_data=False, transport=transport),
    )
    scenario = ScenarioConfig(seed=seed, srq_depth=256, cq_shards=2,
                              kernel=kernel, faults=faults,
                              topology=incast_topology(config))
    if rel_mode is not None:
        profile = scenario.resolve_profile()
        scenario = scenario.with_(reliability=ReliabilityConfig.for_path(
            2 * (profile.propagation_delay_ns + profile.emulator_delay_ns),
            mode=rel_mode))
    fabric = Fabric.from_scenario(scenario)
    result = run_incast(config, testbed=fabric, audit=True)
    assert result.audit_violations == 0
    fp = result.to_dict()
    fp["finish_ns"] = list(result.finish_ns)
    return fp, fabric.sim.calendar_stats()


MATRIX = [
    # transport, reliability mode, switch policy, seed, faults
    ("wwi", None, "backpressure", 1, None),
    ("wwi", "selective_repeat", "drop", 2, None),
    ("eager_rendezvous", "gobackn", "drop", 1, None),
    ("eager_rendezvous", "selective_repeat", "backpressure", 2, None),
    ("wwi", "gobackn", "backpressure", 3, FaultProfile(drop_prob=0.02)),
    ("eager_rendezvous", "gobackn", "backpressure", 1,
     FaultProfile(drop_prob=0.01, corrupt_prob=0.01)),
    ("wwi", "gobackn", "backpressure", 2, FaultProfile(drop_prob=0.02)),
]


@pytest.mark.parametrize(
    "transport,rel_mode,policy,seed,faults", MATRIX,
    ids=[f"{t}-{m or 'default'}-{p}-s{s}{'-faults' if f else ''}"
         for t, m, p, s, f in MATRIX])
def test_heap_matches_wheel_bit_identical(transport, rel_mode, policy, seed, faults):
    """The calendar is host-side machinery: across transports, recovery
    modes, switch policies and fault profiles, the C wheel and the heap
    give the same run."""
    kwargs = dict(seed=seed, policy=policy, transport=transport,
                  rel_mode=rel_mode, faults=faults)
    wheel, wheel_stats = _audited_fingerprint("wheel", **kwargs)
    heap, heap_stats = _audited_fingerprint("heap", **kwargs)
    # (a host that cannot build the C wheel runs the heap twice)
    live = wheel_stats["accelerator"] == "live"
    assert (wheel_stats["backend"], heap_stats["backend"]) == ("wheel" if live else "heap", "heap")
    assert wheel == heap

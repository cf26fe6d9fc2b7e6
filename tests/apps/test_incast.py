"""Incast scenario suite: fan-in through the shared sink uplink."""

import json
import os

import pytest

#: the cells kernels tie-break same-instant events by cell key instead of
#: global placement order, so counters that depend on whether an arrival
#: lands before or after a coincident dequeue can legitimately differ from
#: the monolithic wheel (see docs/SIMULATION.md, "ordering contract")
CELLS_ENV = os.environ.get("REPRO_KERNEL", "") in ("cells", "cells-lockstep")

from repro.apps import IncastConfig, incast_topology, run_incast
from repro.apps.incast import main as incast_main
from repro.config import KERNELS, ScenarioConfig


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


@pytest.mark.skipif(
    CELLS_ENV,
    reason="backpressure count is same-instant order sensitive (arrival vs "
           "coincident dequeue); cells kernels order by cell key",
)
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

"""Memory registration: keys, bounds, access rights."""

import pytest

from repro.hosts import Host
from repro.simnet import Link, Simulator
from repro.verbs import Access, RdmaDevice, RemoteAccessError, VerbsError, connect_devices


@pytest.fixture
def device(sim):
    ha, hb = Host(sim, "a"), Host(sim, "b")
    link = Link(sim, bandwidth_bps=1e9, propagation_delay_ns=10)
    da, _db = connect_devices(sim, ha, hb, link)
    return da


def test_register_assigns_distinct_keys(device):
    buf = device.host.alloc(100)
    mr1 = device.register(buf)
    mr2 = device.register(device.host.alloc(100))
    assert mr1.lkey != mr1.rkey
    assert len({mr1.lkey, mr1.rkey, mr2.lkey, mr2.rkey}) == 4


def test_lookup_by_keys(device):
    mr = device.register(device.host.alloc(64))
    assert device.pd.lookup_lkey(mr.lkey) is mr
    assert device.pd.lookup_rkey(mr.rkey) is mr
    assert device.pd.lookup_rkey(999999) is None
    with pytest.raises(RemoteAccessError):
        device.pd.lookup_lkey(999999)


def test_contains_and_offset(device):
    buf = device.host.alloc(100)
    mr = device.register(buf)
    assert mr.contains(buf.addr, 100)
    assert mr.contains(buf.addr + 50, 50)
    assert not mr.contains(buf.addr + 50, 51)
    assert mr.offset_of(buf.addr + 7) == 7
    with pytest.raises(RemoteAccessError):
        mr.offset_of(buf.addr - 1)


def test_require_checks_bounds(device):
    mr = device.register(device.host.alloc(100))
    mr.require(mr.addr, 100, Access.LOCAL_WRITE)
    with pytest.raises(RemoteAccessError, match="outside region"):
        mr.require(mr.addr + 90, 20, Access.LOCAL_WRITE)


def test_require_checks_access(device):
    buf = device.host.alloc(100)
    mr = device.register(buf, access=Access.local())
    with pytest.raises(RemoteAccessError, match="lacks access"):
        mr.require(mr.addr, 10, Access.REMOTE_WRITE)
    # every requested right must be held: one missing bit of a combined
    # request is refused, with both sides named as Access flags
    with pytest.raises(RemoteAccessError,
                       match=r"lacks access <Access\..*REMOTE_READ.*> \(has <Access\..*: 3>\)"):
        mr.require(mr.addr, 10, Access.LOCAL_WRITE | Access.REMOTE_READ)
    mr.require(mr.addr, 10, Access.LOCAL_READ | Access.LOCAL_WRITE)
    everything = device.register(device.host.alloc(8), access=Access.remote())
    everything.require(everything.addr, 8, Access.REMOTE_WRITE | Access.LOCAL_READ)


def test_deregister_invalidates(device):
    mr = device.register(device.host.alloc(100))
    device.pd.deregister(mr)
    assert not mr.valid
    with pytest.raises(RemoteAccessError, match="deregistered"):
        mr.require(mr.addr, 1, Access.LOCAL_READ)
    with pytest.raises(VerbsError):
        device.pd.deregister(mr)


def test_region_count(device):
    assert device.pd.region_count == 0
    mr = device.register(device.host.alloc(10))
    assert device.pd.region_count == 1
    device.pd.deregister(mr)
    assert device.pd.region_count == 0

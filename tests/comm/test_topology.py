"""Cluster topology parsing and machine mapping."""

import pytest

from repro.comm.topology import ClusterTopology, parse_topology


def test_parse_standard_settings():
    for spec, devices in [("2M-1D", 2), ("2M-2D", 4), ("2M-4D", 8), ("6M-4D", 24)]:
        topo = parse_topology(spec)
        assert topo.num_devices == devices
        assert topo.name == spec


def test_machine_of():
    topo = ClusterTopology(2, 4)
    assert [topo.machine_of(d) for d in range(8)] == [0, 0, 0, 0, 1, 1, 1, 1]


def test_machine_of_out_of_range():
    with pytest.raises(ValueError):
        ClusterTopology(2, 2).machine_of(4)


def test_invalid_specs_rejected():
    for bad in ("2M", "M-D", "0M-2D...", "2x2", ""):
        with pytest.raises(ValueError):
            parse_topology(bad)


def test_invalid_dimensions_rejected():
    with pytest.raises(ValueError):
        ClusterTopology(0, 2)


def test_case_insensitive():
    assert parse_topology("2m-2d").num_devices == 4

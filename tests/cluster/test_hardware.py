"""Unit tests for the hardware cost model."""

import math

import numpy as np

import pytest

from repro.cluster.hardware import HardwareModel


def test_paper_preset_values():
    hw = HardwareModel.paper_cluster()
    assert hw.cores_per_node == 2
    assert hw.disk_bandwidth == 60e6
    assert hw.net_bandwidth == 250e6


def test_disk_time_is_seek_plus_transfer():
    hw = HardwareModel(disk_bandwidth=100.0, disk_seek=2.0)
    assert hw.disk_time(50) == pytest.approx(2.5)
    assert hw.disk_time(0) == pytest.approx(2.0)


def test_wire_time():
    hw = HardwareModel(net_bandwidth=200.0)
    assert hw.wire_time(100) == pytest.approx(0.5)


def test_sort_time_n_log_n():
    hw = HardwareModel(sort_cost_per_key_log=1.0)
    assert hw.sort_time(0) == 0.0
    assert hw.sort_time(1) == 0.0
    assert hw.sort_time(8) == pytest.approx(8 * 3)
    assert hw.sort_time(1024) == pytest.approx(1024 * 10)


def test_copy_and_merge_time_linear():
    hw = HardwareModel(copy_cost_per_byte=2.0, merge_cost_per_record=3.0)
    assert hw.copy_time(10) == pytest.approx(20.0)
    assert hw.merge_time(10) == pytest.approx(30.0)


def test_scaled_paper_cluster_scales_overheads_only():
    base = HardwareModel.paper_cluster()
    scaled = HardwareModel.scaled_paper_cluster(1 / 10)
    assert scaled.disk_seek == pytest.approx(base.disk_seek / 10)
    assert scaled.net_latency == pytest.approx(base.net_latency / 10)
    assert scaled.disk_bandwidth == base.disk_bandwidth
    assert scaled.net_bandwidth == base.net_bandwidth
    assert scaled.sort_cost_per_key_log == base.sort_cost_per_key_log


def test_scaled_paper_cluster_bounds():
    with pytest.raises(ValueError):
        HardwareModel.scaled_paper_cluster(0.0)
    with pytest.raises(ValueError):
        HardwareModel.scaled_paper_cluster(1.5)
    HardwareModel.scaled_paper_cluster(1.0)  # boundary ok


def test_validation_rejects_nonsense():
    with pytest.raises(ValueError):
        HardwareModel(cores_per_node=0)
    with pytest.raises(ValueError):
        HardwareModel(disk_bandwidth=0)
    with pytest.raises(ValueError):
        HardwareModel(net_bandwidth=-1)
    with pytest.raises(ValueError):
        HardwareModel(disk_seek=-1e-9)
    with pytest.raises(ValueError):
        HardwareModel(sort_cost_per_key_log=-1)


@pytest.mark.parametrize("field", [
    "disk_bandwidth", "disk_seek", "net_bandwidth", "net_latency",
    "sort_cost_per_key_log", "copy_cost_per_byte", "merge_cost_per_record"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_validation_refuses_non_finite_costs(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        HardwareModel(**{field: value})


@pytest.mark.parametrize("cores", [1.5, 2.0, True, math.nan, "2"])
def test_validation_refuses_cores_that_are_not_an_integer(cores):
    with pytest.raises(ValueError, match="^cores_per_node must be an "
                                         "integer"):
        HardwareModel(cores_per_node=cores)


def test_integer_like_cores_are_accepted():
    assert HardwareModel(cores_per_node=np.int64(3)).cores_per_node == 3


def test_presets_are_valid_and_distinct():
    presets = [HardwareModel.paper_cluster(),
               HardwareModel.scaled_paper_cluster(),
               HardwareModel.uniform(1e6)]
    assert len({(p.disk_bandwidth, p.net_bandwidth, p.disk_seek)
                for p in presets}) == 3


def test_uniform_preset_equalizes_rates():
    hw = HardwareModel.uniform(123.0)
    assert hw.disk_time(123) == pytest.approx(1.0)
    assert hw.wire_time(123) == pytest.approx(1.0)


def test_model_is_frozen():
    hw = HardwareModel()
    with pytest.raises(Exception):
        hw.disk_bandwidth = 1.0

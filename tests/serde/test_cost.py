"""Tests for the serialization cost model."""

import pytest

from repro.cluster import MB, ClusterConfig
from repro.serde import SerdeModel


def test_linear_in_bytes():
    model = SerdeModel(ser_bandwidth=100.0, deser_bandwidth=200.0, fixed=1.0)
    assert model.ser_time_bytes(0) == 1.0
    assert model.ser_time_bytes(100) == pytest.approx(2.0)
    assert model.deser_time_bytes(200) == pytest.approx(2.0)




def test_from_config():
    cfg = ClusterConfig.bic()
    model = SerdeModel.from_config(cfg)
    assert model.ser_bandwidth == cfg.ser_bandwidth
    assert model.fixed == cfg.ser_fixed
    # 8 MB at ~300 MB/s is in the tens of milliseconds: the regime where
    # per-task serialization hurts and IMM pays off.
    assert 0.01 < model.ser_time_bytes(8 * MB) < 0.1


def test_validation():
    with pytest.raises(ValueError):
        SerdeModel(0.0, 1.0)
    with pytest.raises(ValueError):
        SerdeModel(1.0, -1.0)
    with pytest.raises(ValueError):
        SerdeModel(1.0, 1.0, fixed=-1.0)
    model = SerdeModel(1.0, 1.0)
    with pytest.raises(ValueError):
        model.ser_time_bytes(-5)
    with pytest.raises(ValueError):
        model.deser_time_bytes(-5)

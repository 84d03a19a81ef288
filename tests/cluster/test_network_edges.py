"""Edge-case tests for the network model.

Two properties of :class:`NetworkModel` that the main topology tests
don't pin down: zero-size transfers cost exactly the latency, and ring
latency is symmetric.
"""

import pytest

from repro.cluster import NetworkModel


class TestTransferTimeEdges:
    def test_zero_size_transfer_is_pure_latency(self):
        net = NetworkModel(["a", "b", "c"])
        assert net.transfer_time("a", "b", 0.0) == net.latency("a", "b")
        assert net.transfer_time("a", "a", 0.0) == net.intra_latency_s

    def test_negative_size_rejected(self):
        net = NetworkModel(["a", "b"])
        with pytest.raises(ValueError):
            net.transfer_time("a", "b", -1.0)


class TestRingSymmetry:
    def test_latency_symmetric_all_pairs(self):
        net = NetworkModel([f"r{i}" for i in range(7)])
        for a in net.region_names:
            for b in net.region_names:
                assert net.latency(a, b) == net.latency(b, a)

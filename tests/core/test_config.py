"""Tests for configuration validation."""

from __future__ import annotations

import pytest

from repro.core.bucket import RefillMode
from repro.core.config import (
    AdmissionConfig,
    ClusterTopology,
    JanusConfig,
    ProcPlaneConfig,
    RouterConfig,
    ServerConfig,
)
from repro.core.errors import ConfigurationError


class TestAdmissionConfig:
    def test_defaults(self):
        config = AdmissionConfig()
        assert config.refill_mode is RefillMode.CONTINUOUS
        assert config.lock_shards == 1      # the paper's single lock

    @pytest.mark.parametrize("kwargs", [
        {"refill_interval": 0.0},
        {"sync_interval": -1.0},
        {"checkpoint_interval": 0.0},
        {"lock_shards": 0},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            AdmissionConfig(**kwargs)


class TestRouterConfig:
    def test_paper_defaults(self):
        config = RouterConfig()
        assert config.udp_timeout == pytest.approx(100e-6)
        assert config.max_retries == 5
        # Worst case of §III-B: 5 retries x 100 us = 500 us.
        assert config.worst_case_wait == pytest.approx(500e-6)

    def test_wire_defaults(self):
        config = RouterConfig()
        assert config.batch_size == 64
        assert config.timer_tick == pytest.approx(0.005)

    @pytest.mark.parametrize("kwargs", [
        {"udp_timeout": 0.0},
        {"max_retries": 0},
        {"batch_size": 0},
        {"timer_tick": 0.0},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            RouterConfig(**kwargs)


class TestServerConfig:
    def test_defaults(self):
        assert ServerConfig().workers == 4

    def test_invalid_workers(self):
        with pytest.raises(ConfigurationError):
            ServerConfig(workers=0)

    def test_invalid_recv_timeout(self):
        with pytest.raises(ConfigurationError):
            ServerConfig(recv_timeout=0.0)

    def test_processes_default_single(self):
        assert ServerConfig().processes == 1

    def test_invalid_processes(self):
        with pytest.raises(ConfigurationError):
            ServerConfig(processes=0)

    def test_invalid_replication_interval(self):
        with pytest.raises(ConfigurationError):
            ServerConfig(ha_replication_interval=0.0)


class TestProcPlaneConfig:
    def test_defaults(self):
        config = ProcPlaneConfig()
        assert config.heartbeat_timeout > config.heartbeat_interval

    @pytest.mark.parametrize("kwargs", [
        {"heartbeat_interval": 0.0},
        {"heartbeat_timeout": 0.0},
        {"snapshot_interval": 0.0},
        {"restart_backoff": -1.0},
        {"max_restarts": -1},
        {"spawn_timeout": 0.0},
        {"drain_timeout": 0.0},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            ProcPlaneConfig(**kwargs)


class TestClusterTopology:
    def test_defaults(self):
        topo = ClusterTopology()
        assert topo.load_balancer == "gateway"

    @pytest.mark.parametrize("kwargs", [
        {"n_routers": 0},
        {"n_qos_servers": 0},
        {"load_balancer": "carrier-pigeon"},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            ClusterTopology(**kwargs)


class TestJanusConfig:
    def test_default_ttl_is_paper_value(self):
        assert JanusConfig().dns_ttl == 30.0

    def test_invalid_ttl(self):
        with pytest.raises(ConfigurationError):
            JanusConfig(dns_ttl=0.0)

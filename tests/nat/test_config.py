"""NAT configuration validation, partitioning, and the one call form."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.nat.config import NatConfig
from repro.nat.icmp_ext import IcmpAwareNat
from repro.nat.netfilter import NetfilterNat
from repro.nat.unverified import UnverifiedNat
from repro.nat.vignat import VigNat


class TestNatConfig:
    def test_defaults_valid(self):
        cfg = NatConfig()
        assert cfg.max_flows == 65_535
        assert cfg.expiration_time == 2_000_000
        assert cfg.start_port + cfg.max_flows - 1 <= 0xFFFF

    def test_devices_must_differ(self):
        with pytest.raises(ValueError):
            NatConfig(internal_device=1, external_device=1)

    def test_positive_capacity(self):
        with pytest.raises(ValueError):
            NatConfig(max_flows=0)

    def test_positive_expiration(self):
        with pytest.raises(ValueError):
            NatConfig(expiration_time=0)

    def test_port_range_fits_16_bits(self):
        with pytest.raises(ValueError):
            NatConfig(start_port=60_000, max_flows=10_000)

    def test_custom_values(self):
        cfg = NatConfig(max_flows=100, expiration_time=5_000_000, start_port=2000)
        assert cfg.max_flows == 100

    def test_frozen(self):
        cfg = NatConfig()
        with pytest.raises(Exception):
            cfg.max_flows = 1  # type: ignore[misc]

    def test_port_range_helpers(self):
        cfg = NatConfig(max_flows=10, start_port=1000)
        assert cfg.end_port == 1009
        assert list(cfg.port_range()) == list(range(1000, 1010))
        assert cfg.owns_port(1000) and cfg.owns_port(1009)
        assert not cfg.owns_port(999) and not cfg.owns_port(1010)


class TestPartition:
    """partition(n) must yield a true partition of the port range —
    disjoint, exhaustive, ordered — for arbitrary sizes and counts."""

    @settings(max_examples=200, deadline=None)
    @given(
        max_flows=st.integers(min_value=1, max_value=4096),
        start_port=st.integers(min_value=1, max_value=60_000),
        workers=st.integers(min_value=1, max_value=64),
    )
    def test_partition_is_disjoint_and_exhaustive(
        self, max_flows, start_port, workers
    ):
        if start_port + max_flows - 1 > 0xFFFF or workers > max_flows:
            return
        cfg = NatConfig(max_flows=max_flows, start_port=start_port)
        shards = cfg.partition(workers)
        assert len(shards) == workers

        covered = []
        for shard in shards:
            assert shard.external_ip == cfg.external_ip
            assert shard.internal_device == cfg.internal_device
            assert shard.external_device == cfg.external_device
            assert shard.expiration_time == cfg.expiration_time
            covered.extend(shard.port_range())
        # Disjoint (no duplicates), exhaustive (exactly the parent range),
        # ordered (worker i's slice precedes worker i+1's).
        assert covered == list(cfg.port_range())
        assert sum(shard.max_flows for shard in shards) == cfg.max_flows

    @settings(max_examples=100, deadline=None)
    @given(
        port=st.integers(min_value=1000, max_value=1999),
        workers=st.integers(min_value=1, max_value=16),
    )
    def test_every_port_has_exactly_one_owner(self, port, workers):
        cfg = NatConfig(max_flows=1000, start_port=1000)
        owners = [
            w for w, shard in enumerate(cfg.partition(workers))
            if shard.owns_port(port)
        ]
        assert len(owners) == 1

    def test_partition_of_one_is_the_config_itself(self):
        cfg = NatConfig(max_flows=100, start_port=1000)
        (only,) = cfg.partition(1)
        assert only == cfg

    def test_rejects_bad_worker_counts(self):
        cfg = NatConfig(max_flows=4, start_port=1000)
        with pytest.raises(ValueError):
            cfg.partition(0)
        with pytest.raises(ValueError):
            cfg.partition(5)  # more workers than ports

    def test_rejects_port_range_escaping_16_bits(self):
        # ``__post_init__`` validates constructor input, but a config
        # can reach partition() holding a corrupt range (deserialized
        # or mutated around the frozen dataclass). The old code split
        # such a range into shards whose tail ports no packet can
        # carry; it must refuse instead.
        cfg = NatConfig(max_flows=100, start_port=1000)
        object.__setattr__(cfg, "max_flows", 70_000)
        assert cfg.end_port > 0xFFFF
        with pytest.raises(ValueError, match="does not fit the valid port space"):
            cfg.partition(4)

    def test_rejects_nonpositive_start_port(self):
        cfg = NatConfig(max_flows=100, start_port=1000)
        object.__setattr__(cfg, "start_port", 0)
        with pytest.raises(ValueError, match="does not fit the valid port space"):
            cfg.partition(2)


class TestKeywordOnly:
    """One call form: ``NatConfig(field=...)`` and ``Nf(config)``."""

    def test_positional_construction_rejected(self):
        with pytest.raises(TypeError):
            NatConfig(NatConfig().external_ip, 0, 1, 100, 5_000_000, 2000)

    @pytest.mark.parametrize(
        "nf_class", [VigNat, UnverifiedNat, NetfilterNat, IcmpAwareNat]
    )
    def test_nf_constructors_take_only_a_config(self, nf_class):
        assert nf_class(NatConfig(max_flows=50)).config.max_flows == 50
        assert nf_class().config == NatConfig()
        with pytest.raises(TypeError):
            nf_class(max_flows=50, start_port=3000)
        with pytest.raises(TypeError):
            nf_class(NatConfig(), max_flows=50)

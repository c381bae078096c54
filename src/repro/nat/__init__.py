"""Network functions: VigNAT and the evaluation baselines.

- :mod:`repro.nat.config` — :class:`NatConfig`, the unified NF
  configuration every NAT accepts (and ``NatConfig.partition`` for the
  sharded data path),
- :mod:`repro.nat.concrete` — the concrete half every loop-bound NF
  shares (`KeyView`/`PacketView`, `ConcreteEnv`, `LibvigNf`: the one turn),
- :mod:`repro.nat.vignat` — the verified NAT (the paper's contribution),
- :mod:`repro.nat.cgnat` — the stateless deterministic CGNAT
  (``DetNat``, a closed-form RFC 7422-style port bijection),
- :mod:`repro.nat.unverified` — the unverified DPDK NAT baseline,
- :mod:`repro.nat.netfilter` — the Linux NetFilter/conntrack-style NAT,
- :mod:`repro.nat.fastpath` — the microflow action cache over any of
  the above (`FastPathNat`),
- :mod:`repro.nat.compiled` — learned rewrites compiled into closures
  that rewrite a wire-backed packet image to image (`compile_action`),
- :mod:`repro.nat.noop` — DPDK no-op forwarding,
- :mod:`repro.nat.firewall` — a second verified NF (stateful firewall),
- :mod:`repro.nat.discard` — the §3 discard-protocol worked example.

The names exported here are the package's stable public surface; code
outside the repository should import from ``repro.nat`` directly.
"""

from repro.nat.base import NetworkFunction
from repro.nat.bridge import BridgeConfig, VigBridge
from repro.nat.cgnat import CgnatConfig, DetNat
from repro.nat.config import NatConfig
from repro.nat.compiled import compile_action
from repro.nat.discard import DiscardNF
from repro.nat.fastpath import (
    FASTPATH_MODES,
    CachedAction,
    FastPathNat,
    check_fastpath,
)
from repro.nat.firewall import VigFirewall
from repro.nat.flow import Flow, FlowId, flow_id_of_packet
from repro.nat.icmp_ext import IcmpAwareNat
from repro.nat.limiter import LimiterConfig, VigLimiter
from repro.nat.netfilter import NetfilterNat
from repro.nat.noop import NoopForwarder
from repro.nat.unverified import UnverifiedNat
from repro.nat.vignat import VigNat

__all__ = [
    "FASTPATH_MODES",
    "BridgeConfig",
    "CachedAction",
    "CgnatConfig",
    "DetNat",
    "DiscardNF",
    "FastPathNat",
    "compile_action",
    "check_fastpath",
    "Flow",
    "FlowId",
    "IcmpAwareNat",
    "LimiterConfig",
    "NatConfig",
    "NetfilterNat",
    "NetworkFunction",
    "NoopForwarder",
    "UnverifiedNat",
    "VigBridge",
    "VigFirewall",
    "VigLimiter",
    "VigNat",
    "flow_id_of_packet",
]

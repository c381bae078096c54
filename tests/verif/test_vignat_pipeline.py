"""The full Vigor pipeline on VigNat — and on deliberately broken NATs.

The positive test is the paper's headline: the stateless NAT logic, the
very function the deployed NAT runs, passes exhaustive symbolic
execution and the lazy-proof validation of P1-P5.

The mutation tests are the reproduction's soundness check on the
*verifier*: each classic NAT bug, injected into the stateless logic,
must be caught by the specific sub-proof that owns that bug class.
"""

import pytest

from repro.nat.config import NatConfig
from repro.packets.headers import ETHERTYPE_IPV4, PROTO_TCP, PROTO_UDP
from repro.verif.engine import ExhaustiveSymbolicEngine
from repro.verif.nf_env import SymbolicFlowTableEnv
from repro.verif.proofs import nat_proof
from repro.verif.semantics import NatSemantics
from repro.verif.validator import Validator

CFG = NatConfig()


def validate(body, cfg=CFG):
    result = ExhaustiveSymbolicEngine().explore(body)
    return result, Validator(NatSemantics(cfg)).validate(result, "nf")


class TestVigNatVerifies:
    @pytest.fixture(scope="class")
    def outcome(self):
        return validate(nat_proof(CFG).body)

    def test_all_properties_proven(self, outcome):
        _, report = outcome
        assert report.verified, report.render()

    def test_exploration_is_exhaustive_and_fast(self, outcome):
        result, _ = outcome
        assert result.stats.paths >= 12
        assert result.stats.wall_seconds < 60  # paper: <1 minute

    def test_trace_accounting(self, outcome):
        result, report = outcome
        assert report.traces > report.paths  # prefixes counted (431 vs 108)

    def test_every_path_crash_free(self, outcome):
        result, _ = outcome
        assert result.crash_free

    def test_obligation_volume(self, outcome):
        _, report = outcome
        assert report.p1.obligations >= 30
        assert report.p4.obligations >= 10
        assert report.p5.obligations >= 20


def _receive_flow_packet(env):
    """Shared mutation-test prelude: expire, receive, header checks."""
    now = env.current_time()
    if now >= CFG.expiration_time:
        min_time = now - CFG.expiration_time + 1
    else:
        min_time = 0
    env.expire_flows(min_time)
    packet = env.receive()
    if packet is None:
        return None, now
    if packet.ethertype != ETHERTYPE_IPV4:
        env.drop(packet)
        return None, now
    if (packet.protocol == PROTO_TCP) | (packet.protocol == PROTO_UDP):
        pass
    else:
        env.drop(packet)
        return None, now
    return packet, now


class TestMutationsAreCaught:
    def test_forwarding_unsolicited_fails_p1(self):
        """Skip the membership check on the external path."""

        def body(ctx):
            env = SymbolicFlowTableEnv(ctx, CFG)
            packet, now = _receive_flow_packet(env)
            if packet is None:
                return
            if packet.device == CFG.external_device:
                index = env.flow_table_get_external(packet)
                if index is None:
                    # BUG: forward it anyway, unrewritten.
                    env.emit(
                        packet,
                        device=CFG.internal_device,
                        src_ip=packet.src_ip,
                        src_port=packet.src_port,
                        dst_ip=packet.dst_ip,
                        dst_port=packet.dst_port,
                    )
                    return
                env.flow_table_rejuvenate(index, now)
                ip, port = env.flow_internal_endpoint(index)
                env.emit(packet, CFG.internal_device, packet.src_ip,
                         packet.src_port, ip, port)
            else:
                env.drop(packet)

        _, report = validate(body)
        assert not report.p1.proven
        assert any("forward-justified" in f for f in report.p1.failures)

    def test_wrong_source_rewrite_fails_p1(self):
        """Forget to substitute the external IP on the outbound path."""

        def body(ctx):
            env = SymbolicFlowTableEnv(ctx, CFG)
            packet, now = _receive_flow_packet(env)
            if packet is None:
                return
            if packet.device == CFG.internal_device:
                index = env.flow_table_get_internal(packet)
                if index is None:
                    index = env.flow_table_create(packet, now)
                    if index is None:
                        env.drop(packet)
                        return
                else:
                    env.flow_table_rejuvenate(index, now)
                port = env.flow_external_port(index)
                env.emit(
                    packet,
                    device=CFG.external_device,
                    src_ip=packet.src_ip,  # BUG: leaks the internal IP
                    src_port=port,
                    dst_ip=packet.dst_ip,
                    dst_port=packet.dst_port,
                )
            else:
                env.drop(packet)

        result, report = validate(body)
        assert result.crash_free  # caught by the spec, not by a broken harness
        assert not report.p1.proven
        assert any("forward-justified" in f for f in report.p1.failures)

    def test_creating_state_for_external_fails_p1(self):
        """The security property: external packets must not create flows."""

        def body(ctx):
            env = SymbolicFlowTableEnv(ctx, CFG)
            packet, now = _receive_flow_packet(env)
            if packet is None:
                return
            if packet.device == CFG.external_device:
                index = env.flow_table_get_external(packet)
                if index is None:
                    # BUG: full-cone behaviour — allocate state for
                    # unsolicited external traffic.
                    index = env.flow_table_create(packet, now)
                    if index is None:
                        env.drop(packet)
                        return
                else:
                    env.flow_table_rejuvenate(index, now)
                ip, port = env.flow_internal_endpoint(index)
                env.emit(packet, CFG.internal_device, packet.src_ip,
                         packet.src_port, ip, port)
            else:
                env.drop(packet)

        _, report = validate(body)
        assert not report.p1.proven
        assert any("create-only-internal" in f for f in report.p1.failures)

    def test_skipping_rejuvenation_fails_p1(self):
        """Matched flows must have their timestamps refreshed."""

        def body(ctx):
            env = SymbolicFlowTableEnv(ctx, CFG)
            packet, now = _receive_flow_packet(env)
            if packet is None:
                return
            if packet.device == CFG.internal_device:
                index = env.flow_table_get_internal(packet)
                if index is None:
                    env.drop(packet)
                    return
                # BUG: no rejuvenate — long flows expire under traffic.
                port = env.flow_external_port(index)
                env.emit(packet, CFG.external_device, CFG.external_ip,
                         port, packet.dst_ip, packet.dst_port)
            else:
                env.drop(packet)

        _, report = validate(body)
        assert not report.p1.proven
        assert any("match-implies-refresh" in f for f in report.p1.failures)

    def test_out_of_bounds_index_fails_p4(self):
        """Pass a derived index the contract cannot bound."""

        def body(ctx):
            env = SymbolicFlowTableEnv(ctx, CFG)
            packet, now = _receive_flow_packet(env)
            if packet is None:
                return
            if packet.device == CFG.internal_device:
                index = env.flow_table_get_internal(packet)
                if index is None:
                    env.drop(packet)
                    return
                env.flow_table_rejuvenate(index + 1, now)  # BUG: off by one
                port = env.flow_external_port(index)
                env.emit(packet, CFG.external_device, CFG.external_ip,
                         port, packet.dst_ip, packet.dst_port)
            else:
                env.drop(packet)

        _, report = validate(body)
        assert not report.p4.proven
        assert any("dchain_rejuvenate_index" in f for f in report.p4.failures)

    def test_unguarded_time_subtraction_fails_p2(self):
        """Dropping the underflow guard breaks the low-level proof."""

        def body(ctx):
            env = SymbolicFlowTableEnv(ctx, CFG)
            now = env.current_time()
            # BUG: unsigned underflow when now < Texp - 1.
            env.expire_flows(now - CFG.expiration_time + 1)
            packet = env.receive()
            if packet is not None:
                env.drop(packet)

        _, report = validate(body)
        assert not report.p2.proven
        assert any("arith-bounds" in f for f in report.p2.failures)

    def test_crash_on_crafted_input_fails_p2(self):
        """A data-dependent crash is found by exhaustive exploration."""

        def body(ctx):
            env = SymbolicFlowTableEnv(ctx, CFG)
            packet, _now = _receive_flow_packet(env)
            if packet is None:
                return
            if packet.src_port == 31337:
                raise ZeroDivisionError("crafted packet of death")
            env.drop(packet)

        result, report = validate(body)
        assert not result.crash_free
        assert not report.p2.proven
        assert any("crashed" in f for f in report.p2.failures)

"""Channel semantics: tags, blocking, accounting, helpers."""

import threading
import time

import pytest

from repro.errors import GCProtocolError
from repro.gc.channel import TrafficStats, local_channel, run_two_party


class TestBasics:
    def test_send_recv_round_trip(self):
        a, b = local_channel()
        a.send("x", b"payload")
        assert b.recv("x") == b"payload"

    def test_tag_mismatch_detected(self):
        a, b = local_channel()
        a.send("x", b"payload")
        with pytest.raises(GCProtocolError):
            b.recv("y")

    def test_fifo_order(self):
        a, b = local_channel()
        a.send("m", b"1")
        a.send("m", b"2")
        assert b.recv("m") == b"1"
        assert b.recv("m") == b"2"

    def test_non_bytes_rejected(self):
        a, _ = local_channel()
        with pytest.raises(GCProtocolError):
            a.send("x", "a string")

    def test_empty_recv_times_out(self):
        _, b = local_channel()
        with pytest.raises(GCProtocolError):
            b.recv("x", timeout=0.05)

    def test_duplex(self):
        a, b = local_channel()
        a.send("ping", b"1")
        b.send("pong", b"2")
        assert b.recv("ping") == b"1"
        assert a.recv("pong") == b"2"

    def test_pending_counts(self):
        a, b = local_channel()
        assert b.pending == 0
        a.send("x", b"")
        assert b.pending == 1


class TestBlocking:
    def test_recv_blocks_until_peer_sends(self):
        a, b = local_channel()
        result = []

        def late_sender():
            time.sleep(0.05)
            a.send("slow", b"data")

        t = threading.Thread(target=late_sender)
        t.start()
        result.append(b.recv("slow", timeout=2.0))
        t.join()
        assert result == [b"data"]

    def test_run_two_party_returns_both_results(self):
        a, b = local_channel()

        def left():
            a.send("q", b"hello")
            return a.recv("r")

        def right():
            msg = b.recv("q")
            b.send("r", msg.upper())
            return msg

        left_out, right_out = run_two_party(left, right)
        assert left_out == b"HELLO"
        assert right_out == b"hello"

    def test_run_two_party_propagates_right_exception(self):
        a, b = local_channel()

        def left():
            return a.recv("never", timeout=0.5)

        def right():
            raise ValueError("boom")

        with pytest.raises((ValueError, GCProtocolError)):
            run_two_party(left, right)

    def test_run_two_party_surfaces_both_failures(self):
        """Deadlock post-mortems: the left error carries the right one."""

        def left():
            raise GCProtocolError("left timed out")

        def right():
            raise ValueError("right exploded first")

        with pytest.raises(GCProtocolError) as exc_info:
            run_two_party(left, right)
        message = str(exc_info.value)
        assert "left timed out" in message
        assert "right exploded first" in message
        assert "ValueError" in message
        # the chained cause is the actual right-side exception object
        assert isinstance(exc_info.value.__cause__, ValueError)

    def test_run_two_party_single_failure_unwrapped(self):
        def left():
            return "ok"

        def right():
            raise ValueError("only failure")

        with pytest.raises(ValueError, match="only failure"):
            run_two_party(left, right)


class TestAccounting:
    def test_bytes_and_messages_counted(self):
        a, b = local_channel()
        a.send("t1", b"12345")
        a.send("t2", b"abc")
        assert a.sent.messages == 2
        assert a.sent.payload_bytes == 8
        assert a.sent.by_tag == {"t1": 5, "t2": 3}

    def test_stats_record_direct(self):
        stats = TrafficStats()
        stats.record("x", 10)
        stats.record("x", 5)
        assert stats.by_tag["x"] == 15


class TestServingErrorPaths:
    """Wire-level failures must surface as typed errors, never hangs.

    These drive the *real* sequential evaluator against hand-crafted
    garbler messages: truncated table payloads, out-of-order tags, and
    a silent peer all raise ``GCProtocolError`` with the evaluator's
    state intact enough to report, instead of corrupting or deadlocking.
    """

    @staticmethod
    def _evaluator(chan):
        from repro.accel.tree_mac import build_scheduled_mac
        from repro.gc.sequential_gc import SequentialEvaluator

        circuit = build_scheduled_mac(4).circuit
        n_in = len(circuit.netlist.evaluator_inputs)
        return SequentialEvaluator(circuit, chan), [[0] * n_in]

    def test_truncated_tables_payload_raises_typed_error(self):
        g_chan, e_chan = local_channel()
        evaluator, rounds = self._evaluator(e_chan)
        g_chan.send("seq.rounds", (1).to_bytes(4, "big"))
        g_chan.send("seq.tables", b"\x00" * 31)  # not a whole table
        with pytest.raises(GCProtocolError, match="table bytes"):
            evaluator.run(rounds)

    def test_out_of_order_tags_raise_typed_error(self):
        g_chan, e_chan = local_channel()
        evaluator, rounds = self._evaluator(e_chan)
        g_chan.send("seq.rounds", (1).to_bytes(4, "big"))
        # garbler skips the tables and jumps straight to its labels
        g_chan.send("seq.garbler_labels", b"\x00" * 16)
        with pytest.raises(GCProtocolError, match="seq.tables"):
            evaluator.run(rounds)

    def test_round_count_mismatch_rejected(self):
        g_chan, e_chan = local_channel()
        evaluator, rounds = self._evaluator(e_chan)
        g_chan.send("seq.rounds", (7).to_bytes(4, "big"))
        with pytest.raises(GCProtocolError, match="rounds"):
            evaluator.run(rounds)

    def test_silent_garbler_times_out_not_hangs(self):
        import repro.gc.channel as channel_mod

        _, e_chan = local_channel()
        evaluator, rounds = self._evaluator(e_chan)
        original = channel_mod.RECV_TIMEOUT_S
        channel_mod.RECV_TIMEOUT_S = 0.1
        try:
            with pytest.raises(GCProtocolError, match="timed out"):
                evaluator.run(rounds)
        finally:
            channel_mod.RECV_TIMEOUT_S = original

    def test_ragged_label_payload_raises_typed_error(self):
        g_chan, e_chan = local_channel()
        evaluator, rounds = self._evaluator(e_chan)
        net = evaluator.circuit.netlist
        n_tables = sum(1 for g in net.gates if not g.is_free)
        g_chan.send("seq.rounds", (1).to_bytes(4, "big"))
        g_chan.send("seq.tables", b"\x00" * (32 * n_tables))
        g_chan.send("seq.garbler_labels", b"\x01" * 15)  # not 16-aligned
        with pytest.raises(GCProtocolError, match="16-byte"):
            evaluator.run(rounds)


class TestChannelTelemetry:
    def test_sends_land_in_shared_counters(self):
        from repro.telemetry import MetricsRegistry

        reg = MetricsRegistry()
        a, b = local_channel(telemetry=reg)
        a.send("x", b"12345")
        b.send("y", b"abc")
        assert reg.counter("channel.messages").value == 2
        assert reg.counter("channel.bytes").value == 8

    def test_per_tag_byte_counters(self):
        from repro.telemetry import MetricsRegistry, traffic_by_tag

        reg = MetricsRegistry()
        a, _ = local_channel(telemetry=reg)
        a.send("seq.tables", b"12345")
        a.send("seq.tables", b"678")
        a.send("ot.base.A", b"ab")
        assert reg.counter("channel.bytes.seq.tables").value == 8
        assert reg.counter("channel.bytes.ot.base.A").value == 2
        assert traffic_by_tag(reg.snapshot()) == {"seq.tables": 8, "ot.base.A": 2}

    def test_uninstrumented_channel_unaffected(self):
        a, _ = local_channel()
        assert a.telemetry is None
        a.send("x", b"1")
        assert a.sent.payload_bytes == 1


class TestU128Helpers:
    def test_round_trip(self):
        a, b = local_channel()
        values = [0, 1, (1 << 128) - 1]
        a.send_u128_list("labels", values)
        assert b.recv_u128_list("labels") == values

    def test_ragged_payload_rejected(self):
        a, b = local_channel()
        a.send("labels", b"x" * 17)
        with pytest.raises(GCProtocolError):
            b.recv_u128_list("labels")


class TestRecvTimeoutConfiguration:
    """The REPRO_RECV_TIMEOUT_S / per-endpoint / explicit precedence chain."""

    def test_env_var_governs_default(self, monkeypatch):
        from repro.gc.channel import resolve_recv_timeout

        monkeypatch.setenv("REPRO_RECV_TIMEOUT_S", "12.5")
        assert resolve_recv_timeout() == 12.5

    def test_explicit_beats_everything(self, monkeypatch):
        from repro.gc.channel import resolve_recv_timeout

        monkeypatch.setenv("REPRO_RECV_TIMEOUT_S", "12.5")
        assert resolve_recv_timeout(3.0, 7.0) == 3.0

    def test_endpoint_config_beats_env(self, monkeypatch):
        from repro.gc.channel import resolve_recv_timeout

        monkeypatch.setenv("REPRO_RECV_TIMEOUT_S", "12.5")
        assert resolve_recv_timeout(None, 7.0) == 7.0

    def test_module_global_is_final_fallback(self, monkeypatch):
        import repro.gc.channel as channel_mod

        monkeypatch.delenv("REPRO_RECV_TIMEOUT_S", raising=False)
        monkeypatch.setattr(channel_mod, "RECV_TIMEOUT_S", 42.0)
        assert channel_mod.resolve_recv_timeout() == 42.0

    def test_bad_env_value_typed(self, monkeypatch):
        from repro.errors import ConfigurationError
        from repro.gc.channel import resolve_recv_timeout

        monkeypatch.setenv("REPRO_RECV_TIMEOUT_S", "soon")
        with pytest.raises(ConfigurationError, match="REPRO_RECV_TIMEOUT_S"):
            resolve_recv_timeout()
        monkeypatch.setenv("REPRO_RECV_TIMEOUT_S", "-1")
        with pytest.raises(ConfigurationError, match="positive"):
            resolve_recv_timeout()

    def test_env_var_times_out_blocked_recv(self, monkeypatch):
        monkeypatch.setenv("REPRO_RECV_TIMEOUT_S", "0.05")
        _, b = local_channel()
        start = time.perf_counter()
        with pytest.raises(GCProtocolError, match="timed out"):
            b.recv("never")
        assert time.perf_counter() - start < 5.0

    def test_channel_recv_timeout_parameter(self):
        _, b = local_channel(recv_timeout_s=0.05)
        with pytest.raises(GCProtocolError, match="timed out"):
            b.recv("never")

    def test_serving_config_rejects_bad_recv_timeout(self):
        from repro.errors import ConfigurationError
        from repro.serve import ServingConfig

        with pytest.raises(ConfigurationError, match="receive timeout"):
            ServingConfig(recv_timeout_s=0.0).validate()
        assert ServingConfig(recv_timeout_s=5.0).validate().recv_timeout_s == 5.0

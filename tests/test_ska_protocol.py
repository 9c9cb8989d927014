import pytest

import oracles
from skalab.errors import (
    ChartInvalid,
    DegenerateH,
    NotCompleted,
    PhaseError,
    RoundMismatch,
    SpecMismatch,
    TooLarge,
    UnsupportedField,
)
from skalab.finite_field import build_field_spec
from skalab.projective_plane import (
    ChartCoords,
    Flag,
    ProjLine,
    ProjPoint,
    enumerate_plane,
    to_chart,
)
from skalab.ska_protocol import (
    AliceState,
    BobState,
    Message,
    SecrecyAudit,
    alice_round2,
    bob_key,
    bob_round1,
    key_bits,
    run_session,
    secrecy_audit,
    transcript_accounting,
)

F9 = build_field_spec(3, 2)


def worked_flag():
    one, zero, xi = F9.one(), F9.zero(), F9.xi()
    return Flag(
        ProjLine((one, F9.elt(1, 2), zero)),
        ProjPoint((xi, F9.elt(2, 1), one)),
    )


class TestBobRound1:
    def test_sends_s(self):
        bob = BobState(F9, g=0, t=1, h=2, s=1)
        m1 = bob_round1(bob)
        assert (m1.round, m1.payload) == (1, 1)
        assert bob.phase == "sent_m1"

    def test_zero_is_a_legal_message(self):
        bob = BobState(F9, g=1, t=1, h=1, s=0)
        assert bob_round1(bob).payload == 0

    def test_second_call_rejected(self):
        bob = BobState(F9, g=0, t=1, h=2, s=1)
        bob_round1(bob)
        with pytest.raises(PhaseError):
            bob_round1(bob)


class TestAliceRound2:
    def test_reconstruction_identity_example(self):
        # r*s*xi^2 = 2*1*2 = 1 (mod 3), so m2 = 0 - 1 = 2 = g + f*h
        alice = AliceState(F9, f=1, r=2, u_p=0, v_p=0)
        m2 = alice_round2(alice, Message(1, 1))
        assert (m2.round, m2.payload) == (2, 2)
        assert alice.phase == "sent_m2"

    def test_r_zero_echoes_u_prime(self):
        for m1_payload in range(3):
            alice = AliceState(F9, f=2, r=0, u_p=1, v_p=2)
            assert alice_round2(alice, Message(1, m1_payload)).payload == 1

    def test_round_mismatch(self):
        alice = AliceState(F9, f=1, r=2, u_p=0, v_p=0)
        with pytest.raises(RoundMismatch):
            alice_round2(alice, Message(2, 1))

    def test_prime_field_rejected(self):
        alice = AliceState(build_field_spec(3, 1), f=1, r=2, u_p=0, v_p=0)
        with pytest.raises(SpecMismatch):
            alice_round2(alice, Message(1, 1))
        assert alice.phase == "awaiting_m1"

    def test_phase_error(self):
        alice = AliceState(F9, f=1, r=2, u_p=0, v_p=0)
        alice_round2(alice, Message(1, 1))
        with pytest.raises(PhaseError):
            alice_round2(alice, Message(1, 1))


class TestBobKey:
    def test_worked_trace(self):
        bob = BobState(F9, g=0, t=1, h=2, s=1)
        bob_round1(bob)
        assert bob_key(bob, Message(2, 2)) == 1
        assert bob.phase == "done"

    def test_degenerate_h(self):
        bob = BobState(F9, g=0, t=1, h=0, s=1)
        bob_round1(bob)
        with pytest.raises(DegenerateH):
            bob_key(bob, Message(2, 2))

    def test_m2_equals_g_gives_zero_key(self):
        for h in (1, 2):
            bob = BobState(F9, g=2, t=0, h=h, s=0)
            bob_round1(bob)
            assert bob_key(bob, Message(2, 2)) == 0

    def test_phase_error_before_round1(self):
        bob = BobState(F9, g=0, t=1, h=2, s=1)
        with pytest.raises(PhaseError):
            bob_key(bob, Message(2, 2))


class TestRunSession:
    def test_worked_example(self):
        result = run_session(worked_flag())
        assert result.status == "ok"
        assert result.transcript == (1, 2)
        assert result.alice_key == result.bob_key == 1

    def test_chart_invalid_when_y2_zero(self):
        zero, one = F9.zero(), F9.one()
        line = ProjLine((one, zero, zero))
        point = ProjPoint((zero, one, zero))  # y2 = 0
        result = run_session(Flag(line, point))
        assert result.status == "chart_invalid"
        assert result.alice_key is None

    def test_prime_field_rejected(self):
        f3 = build_field_spec(3, 1)
        line = ProjLine((f3.one(), f3.zero(), f3.zero()))
        point = ProjPoint((f3.zero(), f3.one(), f3.zero()))
        with pytest.raises(UnsupportedField):
            run_session(Flag(line, point))

    def test_exhaustive_correctness_q9(self):
        plane = enumerate_plane(9)
        ok = 0
        for i in range(len(plane.flag_ids)):
            result = run_session(plane.flag(i))
            if result.status == "ok":
                ok += 1
                assert result.alice_key == result.bob_key
        # q^3 chart-valid flags, of which a 1/p fraction have h = 0
        assert ok == 729 * 2 // 3

    def test_session_json_schema(self):
        data = run_session(worked_flag()).to_json_dict()
        assert set(data) == {
            "q", "flag", "transcript", "alice_key", "bob_key", "status", "bits", "p",
        }
        assert data["bits"] == {"alice": 2, "bob": 2, "key": 2}


class TestReconstructionIdentity:
    def test_g_plus_fh_equals_u_diff_on_all_tuples_p3(self):
        # dual route: protocol m2 vs direct g + f*h, over all of G^6
        for f in range(3):
            for r in range(3):
                for g in range(3):
                    for t in range(3):
                        for h in range(3):
                            for s in range(3):
                                chart = ChartCoords(F9, f, r, g, t, h, s)
                                alice = AliceState.from_chart(chart)
                                m2 = alice_round2(alice, Message(1, s))
                                assert m2.payload == (g + f * h) % 3

    def test_alice_from_line_matches_from_chart(self):
        plane = enumerate_plane(9)
        valid = 0
        for i in range(len(plane.flag_ids)):
            flag = plane.flag(i)
            try:
                chart = to_chart(flag)
            except ChartInvalid:
                continue
            valid += 1
            a1 = oracles.alice_from_line(flag.line)
            a2 = AliceState.from_chart(chart)
            assert (a1.f, a1.r, a1.u_p, a1.v_p) == (a2.f, a2.r, a2.u_p, a2.v_p)
            b1, b2 = oracles.bob_from_point(flag.point), BobState.from_chart(chart)
            assert (b1.g, b1.t, b1.h, b1.s) == (b2.g, b2.t, b2.h, b2.s)
        assert valid == 9**3


class TestSecrecyAudit:
    def test_q9_exact_uniformity(self):
        audit = secrecy_audit(9)
        assert isinstance(audit, SecrecyAudit)
        assert audit.uniform is True
        assert audit.transcripts == 9
        assert audit.expected_per_key == 18
        assert audit.min_count == audit.max_count == 18
        # total tuples per transcript: p keys x 18
        for per_key in audit.histogram.values():
            assert sum(per_key.values()) == 54

    def test_q25_exact_uniformity(self):
        audit = secrecy_audit(25)
        assert audit.uniform is True
        assert audit.expected_per_key == 100
        assert audit.transcripts == 25

    def test_every_transcript_realized(self):
        audit = secrecy_audit(9)
        assert set(audit.histogram) == {(m1, m2) for m1 in range(3) for m2 in range(3)}

    def test_too_large(self):
        with pytest.raises(TooLarge):
            secrecy_audit(17**2)

    def test_prime_field_rejected(self):
        with pytest.raises(UnsupportedField):
            secrecy_audit(7)


class TestTranscriptAccounting:
    @pytest.mark.parametrize("q,bits", [(9, 2), (25, 3), (49, 3)])
    def test_balanced_profile(self, q, bits):
        plane = enumerate_plane(q)
        for i in range(len(plane.flag_ids)):
            result = run_session(plane.flag(i))
            if result.status == "ok":
                assert transcript_accounting(result) == (bits, bits, bits)
                break
        else:
            raise AssertionError("no ok session found")

    def test_not_completed(self):
        zero, one = F9.zero(), F9.one()
        bad = run_session(Flag(ProjLine((one, zero, zero)), ProjPoint((zero, one, zero))))
        with pytest.raises(NotCompleted):
            transcript_accounting(bad)


class TestWireFormat:
    def test_frame_length(self):
        for p, width in ((3, 1), (5, 1), (13, 1), (251, 1), (257, 2)):
            assert oracles.payload_width(p) == width
            msg = Message(1, p - 1)
            assert len(oracles.encode_message(msg, p)) == 1 + width

    def test_round_trip_all_frames_p3(self):
        for rnd in (1, 2):
            for payload in range(3):
                msg = Message(rnd, payload)
                wire = oracles.encode_message(msg, 3)
                assert oracles.decode_message(wire, 3) == msg
                assert oracles.encode_message(oracles.decode_message(wire, 3), 3) == wire

    def test_round_tag_bytes(self):
        assert oracles.encode_message(Message(1, 0), 3)[0] == 0x01
        assert oracles.encode_message(Message(2, 0), 3)[0] == 0x02

    def test_bad_frames(self):
        with pytest.raises(RoundMismatch):
            oracles.decode_message(b"\x03\x00", 3)
        with pytest.raises(ValueError):
            oracles.decode_message(b"\x01", 3)
        with pytest.raises(ValueError):
            oracles.decode_message(b"\x01\x07", 3)

    def test_key_bits(self):
        assert [key_bits(p) for p in (2, 3, 5, 7, 13)] == [1, 2, 3, 3, 4]

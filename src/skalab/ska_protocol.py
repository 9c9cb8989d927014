"""Balanced two-round key agreement over a quadratic-extension plane.

Alice holds a line, Bob holds an incident point; both reduce to the affine
chart (f, r, g, t, h, s) over the prime subfield.  Bob opens with m1 = s,
Alice answers m2 = g + f*h (recovered from her own parameters as u' - u''
where x2' = u' + v'*xi and r*m1*xi^2 = u'' + v''*xi), and the shared key is
f: Alice reads it off her input, Bob computes (m2 - g) * h^-1.

`run_session` reads the flag's chart once (`to_chart`) and builds both
parties from it.  Rounds 2 and 3 are small functions on subfield residues:
`alice_m2` (xi^2 = u + v*xi and r*m1 lies in the prime subfield, so
u'' = r*m1*u) and `bob_recover`, with `chart_u_prime` giving u'.  The state
machines (`AliceState`, `BobState`, `bob_round1`, `alice_round2`, `bob_key`)
and the audit both call them.

The transcript (m1, m2) is exactly uniformizing: for every transcript each
key value is consistent with the same number of chart tuples, which
`secrecy_audit` verifies by exhaustive enumeration, calling the step
functions and counting into a flat list.  No step reads t, so the audit
evaluates each (f, r, g, h, s) once and counts it with weight p, one for
each t: p^4(p-1) evaluations for the p^5(p-1) tuples.  Flags with h = 0
cannot finish (h is not invertible) and are reported as degenerate rather
than re-randomized; flags outside the chart (x0 = 0 or y2 = 0) are reported
as chart_invalid.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    ChartInvalid,
    DegenerateH,
    InvariantViolation,
    NotCompleted,
    PhaseError,
    RoundMismatch,
    SpecMismatch,
    TooLarge,
    UnsupportedField,
)
from .finite_field import FieldSpec, field_for_size
from .projective_plane import (
    ChartCoords, Flag, chart_u_prime, chart_v_prime, flag_to_json, to_chart,
)

AUDIT_MAX_P = 13


@dataclass(frozen=True)
class Message:
    """One protocol message: round tag and a subfield residue payload."""

    round: int
    payload: int


def key_bits(p: int) -> int:
    """ceil(log2 p): bits of one subfield symbol."""
    return (p - 1).bit_length()


def alice_m2(p: int, u: int, u_p: int, r: int, m1: int) -> int:
    """Round 2 payload: m2 = u' - u'' where r*m1*xi^2 = u'' + v''*xi.

    r*m1 lies in the prime subfield and xi^2 = u + v*xi, so u'' = r*m1*u.
    """
    return (u_p - r * m1 * u) % p


def bob_recover(p: int, g: int, h_inv: int, m2: int) -> int:
    """Bob's key (m2 - g) * h^-1; `h_inv` is the inverse of h mod p."""
    return (m2 - g) * h_inv % p


class AliceState:
    """Line side: knows f, r (from x1/x0) and u', v' (from -x2/x0)."""

    __slots__ = ("spec", "f", "r", "u_p", "v_p", "phase")

    def __init__(self, spec: FieldSpec, f: int, r: int, u_p: int, v_p: int):
        self.spec = spec
        self.f = f
        self.r = r
        self.u_p = u_p
        self.v_p = v_p
        self.phase = "awaiting_m1"

    @classmethod
    def from_chart(cls, chart: ChartCoords) -> "AliceState":
        spec = chart.spec
        p = spec.p
        f, r, g, t, h, s = chart.as_tuple()
        u_p = chart_u_prime(p, spec.u, f, r, g, h, s)
        v_p = chart_v_prime(p, spec.v, f, r, t, h, s)
        return cls(spec, f, r, u_p, v_p)


class BobState:
    """Point side: knows g, t (from y0/y2) and h, s (from y1/y2)."""

    __slots__ = ("spec", "g", "t", "h", "s", "phase")

    def __init__(self, spec: FieldSpec, g: int, t: int, h: int, s: int):
        self.spec = spec
        self.g = g
        self.t = t
        self.h = h
        self.s = s
        self.phase = "start"

    @classmethod
    def from_chart(cls, chart: ChartCoords) -> "BobState":
        return cls(chart.spec, chart.g, chart.t, chart.h, chart.s)


def bob_round1(bob: BobState) -> Message:
    """Bob opens with m1 = s."""
    if bob.phase != "start":
        raise PhaseError(f"bob_round1 in phase {bob.phase!r}")
    bob.phase = "sent_m1"
    return Message(1, bob.s)


def alice_round2(alice: AliceState, m1: Message) -> Message:
    """Alice answers m2 = u' - u'' where r*m1*xi^2 = u'' + v''*xi."""
    if alice.phase != "awaiting_m1":
        raise PhaseError(f"alice_round2 in phase {alice.phase!r}")
    if m1.round != 1:
        raise RoundMismatch(f"expected round 1, got {m1.round}")
    spec = alice.spec
    if spec.degree != 2:
        raise SpecMismatch("xi exists only in quadratic extensions")
    alice.phase = "sent_m2"
    return Message(2, alice_m2(spec.p, spec.u, alice.u_p, alice.r, m1.payload))


def bob_key(bob: BobState, m2: Message) -> int:
    """Bob recovers the key: (m2 - g) * h^-1 in the subfield."""
    if bob.phase != "sent_m1":
        raise PhaseError(f"bob_key in phase {bob.phase!r}")
    if m2.round != 2:
        raise RoundMismatch(f"expected round 2, got {m2.round}")
    if bob.h == 0:
        raise DegenerateH("h = 0: the key equation is not invertible")
    p = bob.spec.p
    key = bob_recover(p, bob.g, pow(bob.h, p - 2, p), m2.payload)
    bob.phase = "done"
    return key


@dataclass
class SessionResult:
    """Outcome of one orchestrated session."""

    q: int
    flag: Flag
    status: str  # ok | chart_invalid | degenerate_h
    transcript: tuple[int, int] | None = None
    alice_key: int | None = None
    bob_key: int | None = None

    def to_json_dict(self) -> dict:
        p = field_for_size(self.q).p
        bits = None
        if self.status == "ok":
            b_alice, b_bob, b_key = transcript_accounting(self)
            bits = {"alice": b_alice, "bob": b_bob, "key": b_key}
        return {
            "q": self.q,
            "flag": flag_to_json(self.flag),
            "transcript": list(self.transcript) if self.transcript else None,
            "alice_key": self.alice_key,
            "bob_key": self.bob_key,
            "status": self.status,
            "bits": bits,
            "p": p,
        }


def run_session(flag: Flag) -> SessionResult:
    """Drive chart extraction, both rounds, and key derivation for one flag."""
    q = flag.line.spec.size
    try:
        chart = to_chart(flag)
    except ChartInvalid:
        return SessionResult(q=q, flag=flag, status="chart_invalid")
    alice = AliceState.from_chart(chart)
    bob = BobState.from_chart(chart)
    m1 = bob_round1(bob)
    m2 = alice_round2(alice, m1)
    transcript = (m1.payload, m2.payload)
    try:
        k_bob = bob_key(bob, m2)
    except DegenerateH:
        return SessionResult(q=q, flag=flag, status="degenerate_h", transcript=transcript)
    alice.phase = "done"
    return SessionResult(
        q=q,
        flag=flag,
        status="ok",
        transcript=transcript,
        alice_key=alice.f,
        bob_key=k_bob,
    )


def transcript_accounting(result: SessionResult) -> tuple[int, int, int]:
    """Bits on the wire per party and key bits: one subfield symbol each."""
    if result.status != "ok":
        raise NotCompleted(f"session status is {result.status!r}")
    bits = key_bits(field_for_size(result.q).p)
    return (bits, bits, bits)


@dataclass
class SecrecyAudit:
    """Exhaustive transcript/key histogram over all chart tuples with h != 0."""

    q: int
    p: int
    transcripts: int
    expected_per_key: int
    uniform: bool
    min_count: int
    max_count: int
    histogram: dict[tuple[int, int], dict[int, int]]

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "p": self.p,
            "transcripts": self.transcripts,
            "per_key_count": self.expected_per_key,
            "uniform": self.uniform,
            "min_count": self.min_count,
            "max_count": self.max_count,
        }


def secrecy_audit(q: int) -> SecrecyAudit:
    """Run the protocol over every chart tuple in G^6 with h != 0.

    For each transcript (m1, m2) the key histogram must be exactly flat:
    every key value f occurs (p-1)*p^2 times (g is pinned by (f, h, m2), h
    ranges over the p-1 nonzero values, r and t are free).

    No step reads t: u' = g + f*h + r*s*u, m2 and Bob's key leave it out, so
    the p tuples that differ only in t run the same evaluation.  Each
    (f, r, g, h, s) is evaluated once and counted with weight p, which covers
    all p^5(p-1) tuples with p^4(p-1) evaluations.  The loop order is that of
    G^6 at t = 0, so a mismatch names the first failing tuple of G^6.
    """
    spec = field_for_size(q)
    if spec.degree != 2:
        raise UnsupportedField("the audit needs q = p^2")
    p = spec.p
    if p > AUDIT_MAX_P:
        raise TooLarge(f"exhaustive audit is capped at p <= {AUDIT_MAX_P}")
    u = spec.u
    t = 0  # every t gives this evaluation; the weight p counts them all
    counts = [0] * p**3  # at (m1*p + m2)*p + key
    for f in range(p):
        for r in range(p):
            for g in range(p):
                for h in range(1, p):
                    h_inv = pow(h, p - 2, p)
                    for s in range(p):
                        m1 = s  # Bob's round 1
                        m2 = alice_m2(p, u, chart_u_prime(p, u, f, r, g, h, s), r, m1)
                        key = bob_recover(p, g, h_inv, m2)
                        if key != f:
                            raise InvariantViolation(
                                f"key mismatch at (f, r, g, t, h, s) = "
                                f"{(f, r, g, t, h, s)}: {key} != {f}"
                            )
                        counts[(m1 * p + m2) * p + key] += p
    histogram: dict[tuple[int, int], dict[int, int]] = {}
    for m1 in range(p):
        for m2 in range(p):
            row = (m1 * p + m2) * p
            per_key = {k: counts[row + k] for k in range(p) if counts[row + k]}
            if per_key:
                histogram[(m1, m2)] = per_key
    expected = (p - 1) * p * p
    key_counts = [
        per_key.get(k, 0)
        for per_key in histogram.values()
        for k in range(p)
    ]
    uniform = (
        len(histogram) == p * p
        and all(c == expected for c in key_counts)
    )
    return SecrecyAudit(
        q=q,
        p=p,
        transcripts=len(histogram),
        expected_per_key=expected,
        uniform=uniform,
        min_count=min(key_counts),
        max_count=max(key_counts),
        histogram=histogram,
    )

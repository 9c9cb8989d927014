import json
import math
import os
import random
import subprocess
import sys
import time

import pytest

# every command module is imported up front: one first imported by `main`
# while a test patches a name it imports would keep the patched name
import skalab.halving_walk  # noqa: F401
import skalab.ska_protocol  # noqa: F401
import skalab.subplane_cover  # noqa: F401
from skalab import projective_plane
from skalab.cli import main
from skalab.finite_field import TABLE_MAX_ENTRIES, FieldSpec
from skalab.projective_plane import PLANE_MAX_FLAGS, flag_count


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("SKALAB_SEED", None)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "skalab", *args],
        capture_output=True,
        env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestPlane:
    def test_q3_json(self):
        code, out, _ = run_cli("plane", "--q", "3", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["points"] == 13
        assert data["lines"] == 13
        assert data["flags"] == 52
        assert data["degree"] == 4
        assert data["schema_version"] == 1
        assert data["config"]["q"] == 3

    def test_unsupported_q_exits_2(self):
        for q in ("6", "8", "12"):
            code, out, err = run_cli("plane", "--q", q)
            assert code == 2
            assert out == b""
            assert b"skalab" in err

    def test_q4_is_a_prime_square_and_works(self):
        code, out, _ = run_cli("plane", "--q", "4", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert (data["points"], data["flags"]) == (21, 105)

    def test_flag_listing_csv(self):
        code, out, _ = run_cli("plane", "--q", "2", "--format", "csv", "--flags")
        assert code == 0
        lines = out.decode().split("\r\n")
        assert lines[0] == "q,line_id,point_id"
        assert len([l for l in lines[1:] if l]) == 21

    def test_counts_enumerate_nothing(self, monkeypatch, capsys):
        def no_work(*args):
            raise AssertionError("plane enumeration started")

        monkeypatch.setattr(projective_plane, "enumerate_plane", no_work)
        monkeypatch.setattr(projective_plane, "flag_rows", no_work)
        monkeypatch.delenv("SKALAB_SEED", raising=False)
        assert main(["plane", "--q", "101"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert (data["points"], data["flags"], data["degree"]) == (10303, 1050906, 102)

    def test_flag_csv_chunks_join_to_one_table(self, monkeypatch, capsys):
        # three lines per chunk: PG(2,13)'s 183 lines make 61 chunks
        import skalab.cli as cli_mod

        chunks = []
        flag_csv_chunks = cli_mod._flag_csv_chunks

        def counted(plane):
            for chunk in flag_csv_chunks(plane):
                chunks.append(chunk.count("\r\n") - chunk.startswith("q,line_id,point_id\r\n"))
                yield chunk

        monkeypatch.setattr(cli_mod, "_flag_csv_chunks", counted)
        monkeypatch.setattr(cli_mod, "FLAG_CHUNK_ROWS", 3 * 14)
        monkeypatch.delenv("SKALAB_SEED", raising=False)
        assert main(["plane", "--q", "13", "--format", "csv", "--flags"]) == 0
        assert chunks == [3 * 14] * 61
        lines = capsys.readouterr().out.split("\r\n")
        assert lines[0] == "q,line_id,point_id" and lines[-1] == ""
        plane = projective_plane.enumerate_plane(13)
        assert lines[1:-1] == [f"13,{lid},{pid}" for lid, pid in plane.flag_ids]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_flags_out_file_equals_stdout(self, fmt, tmp_path, monkeypatch, capsys):
        import skalab.cli as cli_mod

        monkeypatch.setattr(cli_mod, "FLAG_CHUNK_ROWS", 3 * 14)
        monkeypatch.delenv("SKALAB_SEED", raising=False)
        argv = ["plane", "--q", "13", "--format", fmt, "--flags"]
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        target = tmp_path / f"flags.{fmt}"
        assert main(argv + ["--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_bytes() == stdout.encode("utf-8")

    @pytest.mark.parametrize("q, rows", [(2, 3 * 3), (13, 3 * 14), (13, 8192), (49, 1), (49, 100)])
    def test_flag_json_chunks_join_to_the_whole_report(self, q, rows, monkeypatch):
        # the streamed report equals the canonical JSON of the whole flag list
        import skalab.cli as cli_mod
        from skalab.reporting import canonical_json

        writes = []
        monkeypatch.setattr(cli_mod, "FLAG_CHUNK_ROWS", rows)
        monkeypatch.setattr(sys.stdout, "write", writes.append)
        monkeypatch.delenv("SKALAB_SEED", raising=False)
        assert main(["plane", "--q", str(q), "--flags"]) == 0
        plane = projective_plane.enumerate_plane(q)
        n_lines = plane.counts()[1]
        assert len(writes) == 2 + math.ceil(n_lines / max(1, rows // (q + 1)))
        data = json.loads("".join(writes))
        assert data["flag_list"] == [list(pair) for pair in plane.flag_ids]
        assert "".join(writes) == canonical_json(data)

    def test_byte_identical_runs(self):
        a = run_cli("plane", "--q", "9", "--format", "json")
        b = run_cli("plane", "--q", "9", "--format", "json")
        assert a == b


class TestAudit:
    def test_baer_row(self):
        code, out, _ = run_cli("audit", "--q", "9", "--baer")
        assert code == 0
        lines = out.decode().strip().split("\r\n")
        header = lines[0].split(",")
        row = lines[1].split(",")
        rec = dict(zip(header, row))
        assert rec["left_size"] == "13" and rec["right_size"] == "13"
        assert rec["edges"] == "52"
        assert float(rec["sdz_ratio"]) == pytest.approx(1.208, abs=1e-3)
        assert rec["field_prime"] == "false"

    def test_greedy_deterministic_and_bounded(self):
        a = run_cli("audit", "--q", "13", "--a", "14", "--b", "14",
                    "--strategy", "greedy-peel", "--seed", "7")
        b = run_cli("audit", "--q", "13", "--a", "14", "--b", "14",
                    "--strategy", "greedy-peel", "--seed", "7")
        assert a == b
        assert a[0] == 0
        lines = a[1].decode().strip().split("\r\n")
        rec = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert int(rec["edges"]) <= 57  # Zarankiewicz guard for (14,14)

    def test_exhaustive_q2(self):
        code, out, _ = run_cli(
            "audit", "--q", "2", "--a", "3", "--b", "3", "--strategy", "exhaustive"
        )
        assert code == 0
        lines = out.decode().strip().split("\r\n")
        rec = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert rec["edges"] == "6"

    def test_infeasible_exhaustive_exits_2(self):
        code, _, err = run_cli(
            "audit", "--q", "5", "--a", "15", "--b", "15", "--strategy", "exhaustive"
        )
        assert code == 2
        assert b"candidate pairs" in err

    def test_one_by_one_query_exits_0(self, capsys, monkeypatch):
        # one edge on a 1 x 1 query: the density exponent was log(1) / log(1)
        monkeypatch.delenv("SKALAB_SEED", raising=False)
        assert main(["audit", "--q", "4", "--a", "1", "--b", "1"]) == 0
        header, row = capsys.readouterr().out.strip().split("\r\n")
        rec = dict(zip(header.split(","), row.split(",")))
        assert (rec["edges"], rec["density_exponent"]) == ("1", "0")

    def test_baer_audit_builds_no_graph_and_enumerates_nothing(self, monkeypatch, capsys):
        import skalab.incidence_graph as graph_mod

        def no_work(*args):
            raise AssertionError("graph, C4 check or plane enumeration started")

        for module, name in ((graph_mod, "build_plane_graph"), (graph_mod, "c4_free_check"),
                             (graph_mod, "enumerate_plane"), (projective_plane, "enumerate_plane"),
                             (projective_plane, "flag_rows")):
            monkeypatch.setattr(module, name, no_work)
        monkeypatch.delenv("SKALAB_SEED", raising=False)
        assert main(["audit", "--q", "49", "--baer"]) == 0
        header, row = capsys.readouterr().out.strip().split("\r\n")
        rec = dict(zip(header.split(","), row.split(",")))
        assert (rec["left_size"], rec["edges"], rec["kst_bound"]) == ("57", "456", "456")

    def test_greedy_audit_under_the_cap_skips_the_c4_check(self, monkeypatch, capsys):
        import skalab.incidence_graph as graph_mod

        def no_check(*args):
            raise AssertionError("C4 check started")

        monkeypatch.setattr(graph_mod, "c4_free_check", no_check)
        monkeypatch.delenv("SKALAB_SEED", raising=False)
        assert main(["audit", "--q", "53", "--a", "40", "--b", "40"]) == 0
        header, row = capsys.readouterr().out.strip().split("\r\n")
        rec = dict(zip(header.split(","), row.split(",")))
        assert int(rec["edges"]) < float(rec["kst_bound"])

    @pytest.mark.parametrize("host, code", [("plane", 3), ("k22", 0)])
    def test_count_over_the_cap_runs_the_c4_check(self, host, code, monkeypatch, capsys):
        # over the cap, only a C4-free host makes the report an invariant violation
        import skalab.incidence_graph as graph_mod

        monkeypatch.setattr(graph_mod.BiGraph, "induced_edges", lambda g, query: 4)
        if host == "k22":
            k22 = graph_mod.BiGraph([0, 1], [0, 1], {(0, 0), (0, 1), (1, 0), (1, 1)}, q=2)
            monkeypatch.setattr(graph_mod, "build_plane_graph", lambda q: k22)
        monkeypatch.delenv("SKALAB_SEED", raising=False)
        assert main(["audit", "--q", "2", "--a", "2", "--b", "2"]) == code
        out, err = capsys.readouterr()
        if code == 3:
            assert out == ""
            assert err.startswith("skalab: invariant violation: C4-free host exceeds "
                                  "the Zarankiewicz bound: 4 > 3.236")

    def test_baer_count_over_the_cap_exits_3(self, monkeypatch, capsys):
        import skalab.incidence_graph as graph_mod

        monkeypatch.setattr(graph_mod.PlaneHost, "induced_edges", lambda host, query: 53)
        monkeypatch.delenv("SKALAB_SEED", raising=False)
        assert main(["audit", "--q", "9", "--baer"]) == 3
        assert capsys.readouterr().out == ""

    def test_missing_sizes_exits_2(self):
        code, _, _ = run_cli("audit", "--q", "9")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["--q", "2", "--a", "5", "--b", "2", "--strategy", "exhaustive"],
        ["--q", "3", "--a", "8", "--b", "3", "--strategy", "exhaustive"],
        ["--q", "5", "--a", "20", "--b", "4"],
        ["--q", "13", "--a", "100", "--b", "10"],
    ])
    def test_unbalanced_audit_within_cap_exits_0(self, argv, capsys, monkeypatch):
        monkeypatch.delenv("SKALAB_SEED", raising=False)
        assert main(["audit", *argv]) == 0
        header, row = capsys.readouterr().out.strip().split("\r\n")
        rec = dict(zip(header.split(","), row.split(",")))
        assert int(rec["edges"]) <= float(rec["kst_bound"])


class TestSka:
    def test_audit_q9(self):
        code, out, _ = run_cli("ska", "audit", "--q", "9")
        assert code == 0
        data = json.loads(out)
        assert data["audit"]["uniform"] is True
        assert data["audit"]["per_key_count"] == 18
        assert data["audit"]["transcripts"] == 9

    def test_run_q9_schema(self):
        code, out, _ = run_cli("ska", "run", "--q", "9", "--seed", "1")
        assert code == 0
        session = json.loads(out)["session"]
        assert session["status"] in ("ok", "chart_invalid", "degenerate_h")
        assert set(session["flag"]) == {"line", "point"}

    def test_prime_q_exits_2(self):
        code, _, err = run_cli("ska", "run", "--q", "5")
        assert code == 2
        assert b"subfield" in err

    def test_nonuniform_audit_exits_3(self, monkeypatch, capsys):
        # regression guard: exit 3 is wired to the uniformity verdict
        import skalab.ska_protocol as ska

        class FakeAudit:
            uniform = False

            def to_json_dict(self):
                return {"uniform": False}

        monkeypatch.setattr(ska, "secrecy_audit", lambda q: FakeAudit())
        code = main(["ska", "audit", "--q", "9"])
        capsys.readouterr()
        assert code == 3

    def test_key_mismatch_exits_3_without_traceback(self, monkeypatch, capsys):
        # fault injection: Alice's round 2 answers one off on every tuple
        import skalab.ska_protocol as ska

        honest = ska.alice_m2
        monkeypatch.setattr(ska, "alice_m2", lambda p, *args: (honest(p, *args) + 1) % p)
        code = main(["ska", "audit", "--q", "9"])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        assert err.startswith("skalab: invariant violation: key mismatch")
        assert err.count("\n") == 1 and "Traceback" not in err


class TestCover:
    def test_full_coverage(self):
        code, out, _ = run_cli("cover", "--q", "9", "--c", "3", "--seed", "0")
        assert code == 0
        data = json.loads(out)["cover"]
        assert data["coverage_fraction"] == 1.0
        assert data["N"] == 552
        assert data["uncovered_flag_ids"] == []

    def test_undersampled(self):
        code, out, _ = run_cli("cover", "--q", "9", "--c", "0.01", "--seed", "0")
        assert code == 0
        data = json.loads(out)["cover"]
        assert data["coverage_fraction"] < 1.0

    def test_prime_q_exits_2(self):
        code, _, _ = run_cli("cover", "--q", "5")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["--q", "9", "--c", "1e6"],
        ["--q", "121"],  # default c = 3: about 94 M flags of work
        ["--q", "169", "--c", "0.1"],
        ["--q", "361", "--c", "0.001"],  # PG(2,361) alone has 47 M flags
    ])
    def test_over_budget_refused_before_work(self, argv, monkeypatch, capsys):
        import skalab.subplane_cover as cover_mod

        def no_work(*args):
            raise AssertionError("sampling or enumeration started")

        monkeypatch.setattr(cover_mod, "sample_automorphisms", no_work)
        monkeypatch.setattr(cover_mod, "baer_flags", no_work)
        monkeypatch.setattr(cover_mod, "enumerate_plane", no_work)
        code = main(["cover", *argv])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert "budget" in err and err.count("\n") == 1


class TestHalve:
    def test_ramp_64_byte_inputs(self, tmp_path):
        x = tmp_path / "x.bin"
        y = tmp_path / "y.bin"
        x.write_bytes(bytes(range(64)))
        y.write_bytes(bytes(range(64, 128)))
        code, out, _ = run_cli(
            "halve", "--x-file", str(x), "--y-file", str(y), "--estimator", "ramp"
        )
        assert code == 0
        data = json.loads(out)["halve"]
        assert data["winding"] == 1
        assert data["status"] == "ok"

    def test_missing_file_exits_2(self):
        code, _, err = run_cli(
            "halve", "--x-file", "/nonexistent/x", "--y-file", "/nonexistent/y"
        )
        assert code == 2
        assert b"cannot read" in err

    @pytest.mark.parametrize("estimator", ["zlib", "ramp", "prefix-gap"])
    def test_over_budget_refused_before_any_estimate(self, estimator, tmp_path, monkeypatch,
                                                     capsys):
        import skalab.halving_walk as walk

        def no_work(*args):
            raise AssertionError("estimator called")

        for cls in (walk.CompressionEstimator, walk.RampEstimator, walk.PrefixGapEstimator):
            monkeypatch.setattr(cls, "est", no_work)
        (tmp_path / "x").write_bytes(bytes(999))
        (tmp_path / "y").write_bytes(bytes(999))
        code = main(["halve", "--estimator", estimator,
                     "--x-file", str(tmp_path / "x"), "--y-file", str(tmp_path / "y")])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("skalab: ") and "budget" in err and err.count("\n") == 1


    def test_zlib_byte_budget_refused_before_any_estimate(self, tmp_path, monkeypatch, capsys):
        import skalab.halving_walk as walk

        def no_work(*args):
            raise AssertionError("estimator called")

        monkeypatch.setattr(walk.CompressionEstimator, "est", no_work)
        monkeypatch.setattr(walk.CompressionEstimator, "prefetch", no_work)
        # within the call budget, over the zlib byte budget
        (tmp_path / "x").write_bytes(bytes(270))
        (tmp_path / "y").write_bytes(bytes(270))
        code = main(["halve", "--estimator", "zlib",
                     "--x-file", str(tmp_path / "x"), "--y-file", str(tmp_path / "y")])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("skalab: ") and "zlib budget" in err and err.count("\n") == 1


class TestConfigAndEnv:
    def test_config_file_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# defaults\nformat=csv\nseed=5\n")
        code, out, _ = run_cli("plane", "--q", "3", "--config", str(cfg))
        assert code == 0
        assert out.startswith(b"schema_version,")  # csv from config
        rec = dict(zip(*[l.split(",") for l in out.decode().strip().split("\r\n")]))
        assert rec["seed"] == "5"

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format=csv\n")
        code, out, _ = run_cli(
            "plane", "--q", "3", "--config", str(cfg), "--format", "json"
        )
        assert code == 0
        json.loads(out)  # json despite config

    def test_env_seed_default(self):
        code, out, _ = run_cli(
            "ska", "run", "--q", "9", env_extra={"SKALAB_SEED": "1"}
        )
        assert code == 0
        with_flag = run_cli("ska", "run", "--q", "9", "--seed", "1")
        assert out == with_flag[1]

    def test_flag_overrides_env_seed(self):
        _, out, _ = run_cli(
            "ska", "run", "--q", "9", "--seed", "2", env_extra={"SKALAB_SEED": "1"}
        )
        want = run_cli("ska", "run", "--q", "9", "--seed", "2")
        assert out == want[1]

    def test_out_file(self, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli("plane", "--q", "3", "--out", str(target))
        assert code == 0
        assert out == b""
        assert json.loads(target.read_text())["points"] == 13


@pytest.mark.parametrize("argv, config, env", [
    pytest.param(["cover", "--q", "9", "--c", "nan"], None, None, id="cover-c-nan"),
    pytest.param(["cover", "--q", "9", "--c", "inf"], None, None, id="cover-c-inf"),
    pytest.param(["cover", "--q", "9", "--c", "1e308"], None, None, id="cover-N-overflows"),
    pytest.param(["cover", "--q", "9", "--c", "0"], None, None, id="cover-c-zero"),
    pytest.param(["cover", "--q", "9", "--c=-1"], None, None, id="cover-c-negative"),
    pytest.param(["cover", "--q", "9"], "c=nan", None, id="config-c-nan"),
    pytest.param(["halve", "--x-file", "{empty}", "--y-file", "{full}"], None, None,
                 id="halve-empty-input"),
    pytest.param(["plane", "--q", "2", "--out", "{tmp}/missing/f.json"], None, None,
                 id="out-dir-missing"),
    pytest.param(["plane", "--q", "2"], "seed=abc", None, id="config-seed-not-int"),
    pytest.param(["plane", "--q", "2"], None, "x", id="env-seed-not-int"),
    pytest.param(["halve", "--x-file", "{full}", "--y-file", "{full}"], "estimator=bogus", None,
                 id="config-estimator-unknown"),
    pytest.param(["plane", "--q", "2"], "format=xml", None, id="config-format-unknown"),
    pytest.param(["audit", "--q", "2", "--a", "2", "--b", "2", "--iters", "-5"], None, None,
                 id="audit-iters-negative"),
    pytest.param(["audit", "--q", "2", "--a", "2", "--b", "2"], "iters=-5", None,
                 id="config-iters-negative"),
])
def test_bad_input_exits_2(argv, config, env, tmp_path, monkeypatch, capsys):
    (tmp_path / "empty").write_bytes(b"")
    (tmp_path / "full").write_bytes(b"abc")
    argv = [a.format(tmp=tmp_path, empty=tmp_path / "empty", full=tmp_path / "full")
            for a in argv]
    if config is not None:
        (tmp_path / "run.cfg").write_text(config + "\n")
        argv += ["--config", str(tmp_path / "run.cfg")]
    monkeypatch.delenv("SKALAB_SEED", raising=False)
    if env is not None:
        monkeypatch.setenv("SKALAB_SEED", env)
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("skalab: ") and err.count("\n") == 1


@pytest.fixture
def no_over_budget_work(monkeypatch):
    """Fail, instead of allocating, if a table or plane past its budget starts."""
    elements, plane_init = FieldSpec.elements, projective_plane.Plane.__init__
    flag_rows = projective_plane.flag_rows

    def guarded_elements(self):  # the first step of building the field tables
        if self.size ** 2 > TABLE_MAX_ENTRIES:
            raise AssertionError(f"tables of GF({self.size}) started")
        return elements(self)

    def guarded_plane(self, spec):
        if flag_count(spec.size) > PLANE_MAX_FLAGS:
            raise AssertionError(f"enumeration of PG(2,{spec.size}) started")
        plane_init(self, spec)

    def guarded_rows(spec):  # the flat flag array of a plane
        if flag_count(spec.size) > PLANE_MAX_FLAGS:
            raise AssertionError(f"flag array of PG(2,{spec.size}) started")
        return flag_rows(spec)

    monkeypatch.setattr(FieldSpec, "elements", guarded_elements)
    monkeypatch.setattr(projective_plane.Plane, "__init__", guarded_plane)
    monkeypatch.setattr(projective_plane, "flag_rows", guarded_rows)
    monkeypatch.delenv("SKALAB_SEED", raising=False)


def _run_in_process(argv, capsys):
    """(exit code, stdout, stderr) of `main`, including argparse's exits."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("argv", [
    ["plane", "--q", "10007"],
    ["plane", "--q", "173"],
    ["audit", "--q", "10007", "--a", "2", "--b", "2"],
    ["audit", "--q", "173", "--baer"],
    ["ska", "run", "--q", "10201"],
])
def test_over_budget_refused_before_tables_or_flags(argv, no_over_budget_work, capsys):
    code, out, err = _run_in_process(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("skalab: ") and "budget" in err and err.count("\n") == 1


@pytest.mark.parametrize("q", [2**61 - 1, (2**31 - 1) ** 2])
@pytest.mark.parametrize("command", [["ska", "run"], ["ska", "audit"], ["cover"]])
def test_huge_field_sizes_refused_promptly(command, q, no_over_budget_work, capsys):
    # resolving the field costs a few modular powers, not a scan up to sqrt(q) or p
    start = time.perf_counter()
    code, out, err = _run_in_process(command + ["--q", str(q)], capsys)
    assert time.perf_counter() - start < 5.0
    assert (code, out) == (2, "")
    assert err.startswith("skalab: ") and err.count("\n") == 1


Q_KINDS = (("small", ("2", "3", "4", "9")), ("over", ("10007", "10201", "173")),
           ("invalid", ("0", "-1", "6", "text")))


def _draw_argv(rng: random.Random) -> tuple[list[str], str]:
    """One seeded command line, and the kind of q it was given."""
    kind, qs = rng.choices(Q_KINDS, weights=(2, 1, 1))[0]
    command = rng.choice(("plane", "audit", "ska run", "ska audit", "cover"))
    argv = command.split() + [f"--q={rng.choice(qs)}", f"--seed={rng.randrange(5)}"]
    if command == "plane":
        argv += rng.choice(([], ["--flags"], ["--format=csv"]))
    elif command == "audit":
        if rng.random() < 0.3:
            argv.append("--baer")
        else:
            argv += [f"--a={rng.choice((0, 1, 3, 14))}", f"--b={rng.choice((1, 3, 14))}",
                     f"--strategy={rng.choice(('greedy-peel', 'local-swap', 'exhaustive'))}",
                     "--iters=5"]
    elif command == "cover":
        argv.append(f"--c={rng.choice(('0.05', '0.3', '1', 'nan', '1e9'))}")
    return argv, kind


def test_seeded_cli_arguments_exit_cleanly(no_over_budget_work, capsys):
    rng = random.Random("cli:arguments")
    codes = set()
    for _ in range(150):
        argv, kind = _draw_argv(rng)
        code, out, err = _run_in_process(argv, capsys)
        assert code in (0, 2, 3), argv
        assert "Traceback" not in err, argv
        if code == 2:
            assert out == "" and err.splitlines()[-1].startswith("skalab"), argv
        if kind != "small":
            assert code == 2, argv
        codes.add(code)
    assert codes == {0, 2}


def test_version_loads_no_command_module():
    check = ("import sys\nfrom skalab.cli import main\n"
             "try:\n    main(['--version'])\nexcept SystemExit:\n    pass\n"
             "sys.exit(any(m in sys.modules for m in "
             "('skalab.projective_plane', 'skalab.halving_walk')))")
    proc = subprocess.run([sys.executable, "-c", check], capture_output=True)
    assert proc.returncode == 0 and proc.stdout.startswith(b"skalab ")


def test_estimator_ids_match_the_halving_walk():
    from skalab import cli, halving_walk

    assert cli.ESTIMATOR_IDS == halving_walk.ESTIMATOR_IDS


def test_cli_import_does_not_load_thread_pool():
    # the thread-pool package must not come back as an import-time cost
    check = "import sys, skalab.cli; sys.exit('concurrent' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", check]).returncode == 0

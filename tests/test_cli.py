import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gtfaces import cli
from gtfaces.cli import main
from gtfaces.engine import ResourceLimitError
from gtfaces.families import MAX_K

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_f_signature_human(capsys):
    code, out, _ = run(capsys, "f", "--signature", "1,1,1")
    assert code == 0
    assert "f-vector: 7 11 6 1" in out
    assert "h-vector: 1 2 3 1" in out
    assert "GZ(1 2 3)" in out


def test_f_point(capsys):
    code, out, _ = run(capsys, "f", "--signature", "4")
    assert code == 0
    assert "f-vector: 1" in out


def test_f_lambda_json(capsys):
    code, out, _ = run(capsys, "f", "--lambda", "1,2,3", "--json")
    assert code == 0
    rec = json.loads(out)
    assert rec["f_vector"] == ["7", "11", "6", "1"]
    assert rec["h_vector"] == ["1", "2", "3", "1"]
    assert rec["dimension"] == 3
    assert rec["signature"] == [1, 1, 1]


def test_f_json_round_trips_byte_identical(capsys):
    _, out, _ = run(capsys, "f", "--lambda", "1,2,2,3", "--json")
    reparsed = json.loads(out)
    assert json.dumps(reparsed, sort_keys=True, indent=2) + "\n" == out


def test_half_integer_levels_match_signature(capsys):
    _, out_sig, _ = run(capsys, "f", "--signature", "1,1,1", "--json")
    _, out_lam, _ = run(capsys, "f", "--lambda", "1.5,2,2.5", "--json")
    a, b = json.loads(out_sig), json.loads(out_lam)
    assert a["f_vector"] == b["f_vector"]
    assert a["signature"] == b["signature"]


def test_f_csv(capsys):
    code, out, _ = run(capsys, "f", "--signature", "2,1", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "dim,f,h"
    assert lines[1:] == ["0,3,1", "1,3,1", "2,1,1"]


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["f", "--signature", "1,1", "--lambda", "1,2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["f"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["family", "--family", "nope", "--k", "1"])
    assert exc.value.code == 2


def test_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "f", "--lambda", "2,1")
    assert code == 2
    assert "nondecreasing" in err
    code, _, err = run(capsys, "family", "--family", "12k3", "--k", "abc")
    assert code == 2
    code, _, err = run(capsys, "family", "--family", "12k3", "--k", "3:1")
    assert code == 2
    assert "bad k range" in err


def test_lambda_exponent_is_a_usage_error(capsys):
    # Fraction would expand these into integers of millions of digits
    code, out, err = run(capsys, "f", "--lambda", "1e3000000,2e3000000")
    assert (code, out) == (2, "")
    assert err == "gtfaces: error: cannot parse level value '1e3000000'\n"
    code, _, err = run(capsys, "f", "--lambda", "1e400,1")
    assert code == 2
    assert "'1e400'" in err and len(err) < 60
    # a value that is not an integer or half-integer stays a usage error
    code, _, err = run(capsys, "f", "--lambda", "1,1.25")
    assert code == 2
    assert "1.25" in err


def test_family_12k3(capsys):
    code, out, _ = run(capsys, "family", "--family", "12k3", "--k", "5")
    assert code == 0
    assert "h-vector: 1 2 3 4 5 6 7 6 5 4 3 1" in out


def test_family_123k_check_json(capsys):
    code, out, _ = run(capsys, "family", "--family", "123k", "--k", "3",
                       "--check", "--json")
    assert code == 0
    rec = json.loads(out)
    assert rec["h_vector"] == ["1", "2", "3", "4", "6", "8", "5", "1"]
    assert rec["engine_agrees"] is True


def test_family_223k_k0(capsys):
    code, out, _ = run(capsys, "family", "--family", "223k", "--k", "0")
    assert code == 0
    assert "h-vector: 1" in out


def test_family_k_range_csv(capsys):
    code, out, _ = run(capsys, "family", "--family", "223k", "--k", "0:2", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,dim,f,h"
    assert lines[1] == "0,0,1,1"
    # k = 1 rows describe the triangle
    assert "1,0,3,1" in lines


def test_gf_expansion(capsys):
    code, out, _ = run(capsys, "gf", "--family", "123k", "--kmax", "3")
    assert code == 0
    assert "k=0: h = (1, 1)" in out
    assert "k=3: h = (1, 2, 3, 4, 6, 8, 5, 1)" in out
    assert "MISMATCH" not in out


def test_gf_223k_kmax1(capsys):
    code, out, _ = run(capsys, "gf", "--family", "223k", "--kmax", "1", "--json")
    assert code == 0
    recs = json.loads(out)
    assert recs[0]["h_vector"] == ["1"]
    assert recs[1]["h_vector"] == ["1", "1", "1"]
    assert all(r["matches_formula"] for r in recs)


def test_gf_12k3_matches_family_table(capsys):
    code, out, _ = run(capsys, "gf", "--family", "12k3", "--kmax", "3", "--json")
    assert code == 0
    series = json.loads(out)
    _, out, _ = run(capsys, "family", "--family", "12k3", "--k", "0:3", "--json")
    table = json.loads(out)
    assert [r["h_vector"] for r in series] == [r["h_vector"] for r in table]
    assert len(series) == 4 and all(r["matches_formula"] for r in series)


def test_check_flag_never_changes_values(capsys):
    _, plain, _ = run(capsys, "family", "--family", "123k", "--k", "2", "--json")
    _, checked, _ = run(capsys, "family", "--family", "123k", "--k", "2",
                        "--json", "--check")
    a, b = json.loads(plain), json.loads(checked)
    assert "engine_agrees" not in a and b.pop("engine_agrees") is True
    a.pop("timing_ms"), b.pop("timing_ms")
    assert a == b


def test_disagreement_exits_1(capsys, monkeypatch):
    from gtfaces.poly import IntPoly

    monkeypatch.setattr("gtfaces.families.family_h", lambda fam, k: IntPoly([9]))
    code, out, _ = run(capsys, "gf", "--family", "223k", "--kmax", "1")
    assert code == 1
    assert "MISMATCH" in out


@pytest.mark.parametrize("argv", [
    ["gf", "--family", "223k", "--kmax", "1", "--json"],
    ["family", "--family", "223k", "--k", "0:1", "--check", "--json"],
], ids=["gf", "family-check"])
def test_failed_comparison_keeps_json_parseable(argv, capsys, monkeypatch):
    from gtfaces.poly import IntPoly

    monkeypatch.setattr("gtfaces.families.family_h", lambda fam, k: IntPoly([9]))
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert len(json.loads(out)) == 2
    assert err.startswith("gtfaces: ") and "disagree" in err


def test_family_json_shape_follows_the_k_spec(capsys):
    # a range spec always gives a list, even of one record; a single k an object
    _, out, _ = run(capsys, "family", "--family", "12k3", "--k", "3:3", "--json")
    assert [rec["k"] for rec in json.loads(out)] == [3]
    _, out, _ = run(capsys, "family", "--family", "12k3", "--k", "3", "--json")
    assert json.loads(out)["k"] == 3


def test_verify_planted_failure_exits_1(capsys, monkeypatch):
    from gtfaces.poly import IntPoly

    monkeypatch.setattr("gtfaces.checks.f_polynomial", lambda sig: IntPoly([2]))
    code, out, _ = run(capsys, "verify", "--max-s", "2")
    assert code == 1
    assert "FAIL euler: (1,): f(-1) != 1" in out
    assert "ok   reversal" in out


def test_verify_planted_adjudication_failure_exits_1(capsys, monkeypatch):
    from gtfaces.checks import LEGACY_223_K3_VECTOR
    from gtfaces.poly import IntPoly

    monkeypatch.setattr("gtfaces.checks.h_223k",
                        lambda k: IntPoly(LEGACY_223_K3_VECTOR))
    code, out, _ = run(capsys, "verify", "--max-s", "2", "--adjudicate-223-k3")
    assert code == 1
    assert "FAIL adjudicate-223-k3: three paths disagree: {" in out
    assert out.endswith("7/8 checks passed\n")


def test_verify_planted_family_route_failure_exits_1(capsys, monkeypatch):
    from gtfaces.families import HPair
    from gtfaces.poly import IntPoly

    monkeypatch.setattr("gtfaces.checks.h_pair_matrix",
                        lambda k: HPair(IntPoly([9]), IntPoly([9])))
    code, out, _ = run(capsys, "verify", "--max-s", "2")
    assert code == 1
    assert "FAIL family-routes: 123k k=0: closed form differs from matrix\n" in out
    assert out.endswith("6/7 checks passed\n")


def test_verify_trivial(capsys):
    code, out, _ = run(capsys, "verify", "--max-s", "1")
    assert code == 0
    assert "checks passed" in out


def test_verify_small_sweep(capsys):
    code, out, _ = run(capsys, "verify", "--max-s", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    names = {c["name"] for c in payload["checks"]}
    assert {"oracle-vs-engine", "euler", "reversal", "dimension-degree",
            "simplex-shortcut", "fiber-decomposition", "family-routes"} <= names
    routes = [c for c in payload["checks"] if c["name"] == "family-routes"]
    assert [c["passed"] for c in routes] == [True]


def test_verify_resource_limit(capsys):
    code, _, err = run(capsys, "verify", "--max-s", "99")
    assert code == 3
    assert "resource" in err.lower()


def test_verify_adjudication(capsys):
    code, out, _ = run(capsys, "verify", "--max-s", "2", "--adjudicate-223-k3")
    assert code == 0
    assert "adjudicate-223-k3" in out
    assert "sides with the closed form" in out
    assert "(1, 1, 1, 1, 2, 3, 1)" in out


def test_out_file(tmp_path, capsys):
    target = tmp_path / "record.json"
    code = main(["f", "--signature", "1,1,1", "--json", "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    rec = json.loads(target.read_text())
    assert rec["f_vector"] == ["7", "11", "6", "1"]


@pytest.mark.parametrize("argv, code", [
    (["f", "--signature", "x"], 2),
    (["gf", "--family", "223k", "--kmax", str(MAX_K + 1)], 3),
], ids=["usage-error", "resource-limit"])
def test_failed_run_leaves_out_file_untouched(argv, code, tmp_path, capsys):
    target = tmp_path / "existing.txt"
    target.write_text("earlier output\n")
    assert main([*argv, "--out", str(target)]) == code
    capsys.readouterr()
    assert target.read_text() == "earlier output\n"


def test_budget_errors_carry_their_numbers():
    with pytest.raises(ResourceLimitError) as info:
        cli._check_k(MAX_K + 1)
    exc = info.value
    assert (exc.budget, exc.limit, exc.reached) == ("MAX_K", MAX_K, MAX_K + 1)
    args = cli.build_parser().parse_args(["verify", "--max-s", "6"])
    with pytest.raises(ResourceLimitError) as info:
        args.func(args, io.StringIO())
    exc = info.value
    assert (exc.budget, exc.limit, exc.reached) == ("MAX_S", 5, 6)


def test_quiet_human(capsys):
    code, out, _ = run(capsys, "f", "--signature", "1,1,1", "--quiet")
    assert code == 0
    assert out == "f-vector: 7 11 6 1\nh-vector: 1 2 3 1\n"


def test_f_runs_the_engine_once(capsys, monkeypatch):
    from gtfaces import engine

    # h is the Taylor shift of the command's own f, not a second evaluation
    monkeypatch.setattr(engine, "_H_ENGINE", engine.FaceCountEngine(-1))
    code, out, _ = run(capsys, "f", "--signature", "1,1,1", "--quiet")
    assert (code, out) == (0, "f-vector: 7 11 6 1\nh-vector: 1 2 3 1\n")
    assert not engine._H_ENGINE._cache


def test_engine_budget_exits_3(capsys, monkeypatch):
    from gtfaces import engine

    monkeypatch.setattr(engine, "MAX_ENGINE_WORK", 20)
    monkeypatch.setattr(engine, "_DEFAULT_ENGINE", engine.FaceCountEngine())
    code, out, err = run(capsys, "f", "--signature", "1,1,1,1,1")
    assert code == 3
    assert out == ""
    assert "engine budget MAX_ENGINE_WORK=20" in err
    assert "(1, 1, 1, 1, 1)" in err


@pytest.mark.parametrize("argv, code, needle", [
    (["f", "--signature", "1,1,1", "--json", "--csv"], 2, ""),
    (["verify", "--max-s", "0"], 2, ""),
    (["verify", "--max-s", "6"], 3, "--max-s 6 exceeds oracle budget MAX_S=5"),
    (["f", "--signature", "1,2", "--out", "{tmp}/missing/x.json"], 2, "cannot write"),
    (["f", "--signature", "1,2", "--out", "{tmp}"], 2, "cannot write"),
    (["f", "--signature", "1,2", "--quiet", "--out", ""], 2, "cannot write '':"),
    (["family", "--family", "12k3", "--k", "0:10000000000000"], 3, "MAX_K"),
    (["gf", "--family", "223k", "--kmax", str(MAX_K + 1)], 3, "MAX_K"),
    (["f", "--signature", "2,2400"], 3, "engine budget MAX_ENGINE_WORK="),
    (["verify", "--max-s", "2", "--csv"], 2, "unrecognized arguments: --csv"),
    (["gf", "--family", "123k", "--kmax", "2", "--quiet"], 2,
     "unrecognized arguments: --quiet"),
], ids=["json-with-csv", "max-s-zero", "max-s-over-default", "out-missing-dir",
        "out-is-dir", "out-empty", "family-k-over-max", "gf-kmax-over-max",
        "engine-work-over-max", "verify-csv", "gf-quiet"])
def test_bad_input_exits_cleanly(argv, code, needle, tmp_path):
    argv = [a.format(tmp=tmp_path) for a in argv]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-m", "gtfaces", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.startswith(("gtfaces: ", "usage: "))
    assert "Traceback" not in proc.stderr
    assert needle in proc.stderr


# one refused token per count input; test_parse_count_reads_ascii_digits_only
# checks the message for every refused spelling.  "--opt=value" hands
# argparse every token, also one such as "-1,3" that it would otherwise take
# for an option
@pytest.mark.parametrize("argv, what, tok", [
    (["f", "--signature={},3"], "multiplicity", "-1"),
    (["family", "--family", "12k3", "--k={}"], "k", "\u0663"),
    (["gf", "--family", "223k", "--kmax={}"], "--kmax", "9" * 5000),
    (["verify", "--max-s={}"], "--max-s", "1_0"),
], ids=["signature-minus", "k-arabic-indic", "kmax-5000-digits", "max-s-underscore"])
def test_count_spellings_exit_2(argv, what, tok):
    # every count is plain ASCII digits; the message names the token
    argv = [a.format(tok) for a in argv]
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONIOENCODING": "utf-8"}
    proc = subprocess.run([sys.executable, "-m", "gtfaces", *argv], capture_output=True,
                          encoding="utf-8", env=env, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == f"gtfaces: error: cannot parse {what} {tok!r}\n"


def test_closed_stdout_exits_141_without_traceback():
    # the reader takes the first line of about 447 KB of CSV and closes the pipe
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    argv = [sys.executable, "-m", "gtfaces", "f", "--signature", "2,600", "--csv"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as proc:
        assert proc.stdout.readline() == b"dim,f,h\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    assert proc.returncode == cli.EXIT_BROKEN_PIPE == 141
    assert err == b""  # no traceback, no "Exception ignored" from the final flush

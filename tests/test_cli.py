import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gtfaces.cli import main

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


def test_verify_planted_failure_exits_1(capsys, monkeypatch):
    from gtfaces.poly import IntPoly

    monkeypatch.setattr("gtfaces.checks.f_polynomial", lambda sig: IntPoly([2]))
    code, out, _ = run(capsys, "verify", "--max-s", "2")
    assert code == 1
    assert "FAIL euler: (1,): f(-1) != 1" in out
    assert "ok   reversal" in out


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
            "simplex-shortcut", "fiber-decomposition"} <= names


def test_verify_resource_limit(capsys):
    code, _, err = run(capsys, "verify", "--max-s", "99")
    assert code == 3
    assert "resource" in err.lower()


def test_verify_env_override(capsys, monkeypatch):
    monkeypatch.setenv("GTFACES_ORACLE_MAX_S", "3")
    code, _, err = run(capsys, "verify", "--max-s", "4")
    assert code == 3
    monkeypatch.setenv("GTFACES_ORACLE_MAX_S", "not-a-number")
    code, _, err = run(capsys, "verify", "--max-s", "2")
    assert code == 2


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


def test_quiet_human(capsys):
    code, out, _ = run(capsys, "f", "--signature", "1,1,1", "--quiet")
    assert code == 0
    assert out == "f-vector: 7 11 6 1\nh-vector: 1 2 3 1\n"


@pytest.mark.parametrize("argv, env, code", [
    (["f", "--signature", "2,600"], {}, 3),
    (["f", "--signature", "1,1,1", "--json", "--csv"], {}, 2),
    (["verify", "--max-s", "0"], {}, 2),
    (["verify", "--max-s", "2"], {"GTFACES_ORACLE_MAX_S": "-1"}, 2),
], ids=["recursion-depth", "json-with-csv", "max-s-zero", "negative-oracle-budget"])
def test_bad_input_exits_cleanly(argv, env, code):
    env = {**os.environ, "PYTHONPATH": str(SRC), **env}
    proc = subprocess.run([sys.executable, "-m", "gtfaces", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.startswith(("gtfaces: ", "usage: "))
    assert "Traceback" not in proc.stderr

import json
import subprocess
import sys

import pytest

from ptfcount.cli import (InputError, main, parse_polynomial,
                          serialize_polynomial)
from ptfcount.polynomials import Polynomial


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_parse_basic():
    p = parse_polynomial("1.0 1 2\n")
    assert p.coeffs == {(1, 2): 1.0}


def test_parse_constant_and_merge():
    p = parse_polynomial("1 1 1\n-1\n# comment\n2 1 1\n")
    assert p.coeffs == {(1, 1): 3.0, (): -1.0}


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_polynomial("abc 1\n")
    with pytest.raises(ValueError):
        parse_polynomial("1 0\n")
    with pytest.raises(ValueError):
        parse_polynomial("1 " + " ".join(["1"] * 9) + "\n")
    # non-finite coefficients, which the counters would answer arbitrarily
    with pytest.raises(InputError):
        parse_polynomial("nan 1 2\n0.3\n")
    with pytest.raises(InputError):
        parse_polynomial("inf 1\n")
    with pytest.raises(InputError):
        parse_polynomial("1e400 1\n")


def test_serialize_round_trip():
    p = Polynomial(3, {(1, 2): -0.25, (): 1.5, (3, 3): 2.0})
    q = parse_polynomial(serialize_polynomial(p))
    assert q.coeffs == p.coeffs


def test_count_gaussian_report(tmp_path, capsys):
    f = tmp_path / "f.poly"
    f.write_text("1 1 2\n0.3\n")
    code, out = run_cli(["count-gaussian", "--eps", "0.1", str(f)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "count-gaussian"
    assert 0.0 <= report["value"] <= 1.0
    assert "budget" in report and "params" in report
    assert "threads" not in report["params"]
    assert "max_grid" not in report["params"]
    assert "mode" not in report["params"]


def test_count_boolean_report(tmp_path, capsys):
    f = tmp_path / "f.poly"
    f.write_text("1 1\n1 2\n1 3\n")
    code, out = run_cli(["count-boolean", str(f)], capsys)
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.5)


def test_eigreg_report(tmp_path, capsys):
    f = tmp_path / "f.poly"
    f.write_text("1 1 2\n")
    code, out = run_cli(["eigreg", str(f)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["levels"]["2"]["lambda_max"] == pytest.approx(0.5)


def test_clt_bound_report(tmp_path, capsys):
    f = tmp_path / "f.poly"
    f.write_text("0.7071067811865476 1 1\n-0.7071067811865476\n")
    code, out = run_cli(["clt-bound", "--alpha-dd", "2", str(f)], capsys)
    assert code == 0
    assert json.loads(out)["bound"] == pytest.approx(2 ** 0.5, rel=1e-6)


def test_moment_report(tmp_path, capsys):
    f = tmp_path / "f.poly"
    f.write_text("1 1\n1 2\n1 3\n")
    code, out = run_cli(["moment", "--k", "1", str(f)], capsys)
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(1.5, rel=0.05)


def test_decompose_report(tmp_path, capsys):
    f = tmp_path / "f.poly"
    f.write_text("1 1 2\n1 3 4\n")
    code, out = run_cli(["decompose", str(f)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["var_gap"] <= 0.05
    assert report["num_inner"] >= 1


def test_verify_report(tmp_path, capsys):
    (tmp_path / "a.poly").write_text("1 1\n")
    (tmp_path / "b.poly").write_text("1 1 2\n0.25\n")
    code, out = run_cli(["verify", "--samples", "100000", str(tmp_path)],
                        capsys)
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert len(report["entries"]) == 2


def test_input_error_exit_code(tmp_path, capsys):
    f = tmp_path / "bad.poly"
    f.write_text("1 0 2\n")
    code, _ = run_cli(["count-gaussian", str(f)], capsys)
    assert code == 2


def test_missing_file_exit_code(capsys):
    code, _ = run_cli(["count-boolean", "/nonexistent/x.poly"], capsys)
    assert code == 2


def test_cap_exceeded_exit_code(tmp_path, capsys):
    # with the one-entry schedule 0.4 the regularizer runs out of eta values
    # before the quadratic chaos level of this cubic settles; the CLI maps
    # that RuntimeError to 3
    f = tmp_path / "f.poly"
    f.write_text("2 1 2\n1 3 4\n1 5 6\n1 1 3\n1 7 8 9\n")
    sched = tmp_path / "schedule.txt"
    sched.write_text("0.4\n")
    code, _ = run_cli(["decompose", "--schedule", str(sched),
                       "--eps", "0.05", str(f)], capsys)
    assert code == 3


@pytest.mark.parametrize("text", ["", "nan\n", "inf 0.1\n", "0.2 0\n",
                                  "0.1 0.2\n"],
                         ids=["empty", "nan", "inf", "zero", "increasing"])
def test_bad_schedule_exit_code(tmp_path, capsys, text):
    f = tmp_path / "f.poly"
    f.write_text("1 1 2\n1 3 4\n")
    sched = tmp_path / "schedule.txt"
    sched.write_text(text)
    code, _ = run_cli(["decompose", "--schedule", str(sched), str(f)],
                      capsys)
    assert code == 2


def test_params_echo_only_read_flags(tmp_path, capsys):
    f = tmp_path / "f.poly"
    f.write_text("1 1 2\n0.3\n")
    d = tmp_path / "dir"
    d.mkdir()
    (d / "a.poly").write_text("1 1\n")
    cases = [
        (["count-gaussian", str(f)], {"eps"}),
        (["count-boolean", str(f)], {"eps"}),
        (["moment", str(f)], {"eps", "k"}),
        (["decompose", str(f)], {"eps", "tau", "schedule"}),
        (["eigreg", str(f)], set()),
        (["clt-bound", str(f)], {"alpha_dd"}),
        (["verify", "--samples", "1000", str(d)], {"eps", "samples", "seed"}),
    ]
    for args, keys in cases:
        code, out = run_cli(args, capsys)
        assert code == 0
        assert set(json.loads(out)["params"]) == keys, args[0]


@pytest.mark.parametrize("flag", [["--seed", "1"], ["--max-k", "5"]])
def test_unread_flags_refused(tmp_path, capsys, flag):
    f = tmp_path / "f.poly"
    f.write_text("1 1 2\n0.3\n")
    with pytest.raises(SystemExit) as exc:
        main(["count-gaussian", *flag, str(f)])
    assert exc.value.code == 2


@pytest.mark.parametrize("args", [
    ["count-gaussian", "--eps", "0"],
    ["count-gaussian", "--eps", "-1"],
    ["count-gaussian", "--eps", "inf"],
    ["count-boolean", "--eps", "0"],
    ["count-boolean", "--eps", "nan"],
    ["moment", "--k", "0"],
    ["decompose", "--tau", "nan"],
    ["decompose", "--tau", "-1"],
    ["decompose", "--eps", "0"],
    ["clt-bound", "--alpha-dd", "nan"],
    ["verify", "--samples", "0"],
    ["verify", "--seed", "-1"],
], ids=lambda a: " ".join(a))
def test_bad_numeric_flag_exit_code(tmp_path, capsys, args):
    f = tmp_path / "f.poly"
    f.write_text("1 1 2\n1 3 4\n0.1\n")
    target = tmp_path if args[0] == "verify" else f
    with pytest.raises(SystemExit) as exc:
        main([*args, str(target)])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert "Traceback" not in err


def test_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "ptfcount.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "count-gaussian" in proc.stdout

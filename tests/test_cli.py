import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction as Q
from pathlib import Path

import pytest

from robustlrs import qmath
from robustlrs.lrs import Lrr, InitialConfig, scaled_term
from robustlrs.serialize import parse_problem, ProblemError, decimal_str
from robustlrs.cli import main, emit_plot_data

FIB_POS = '{"coeffs":["1","1"],"init":["1","1"],"question":"exists-robust-positivity"}'


REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"


def run_cli(args, stdin=None, env=None):
    """Run ``python -m robustlrs`` on this checkout's ``src``.

    The child runs in the repo root with ``src`` first on ``PYTHONPATH``,
    so it imports this checkout whatever the caller's cwd. An inherited
    ``ROBUSTLRS_CONFIG`` is dropped so a developer's own defaults cannot
    change the verdicts asserted here; ``env`` entries are applied last.
    """
    child_env = dict(os.environ)
    child_env.pop("ROBUSTLRS_CONFIG", None)
    inherited = child_env.get("PYTHONPATH")
    child_env["PYTHONPATH"] = (str(SRC) + os.pathsep + inherited
                               if inherited else str(SRC))
    child_env.update(env or {})
    return subprocess.run([sys.executable, "-m", "robustlrs", *args],
                          capture_output=True, text=True, input=stdin,
                          cwd=REPO_ROOT, env=child_env, timeout=300)


def test_parse_problem_valid():
    spec = parse_problem(FIB_POS)
    assert spec.lrr.coeffs == (Q(1), Q(1))
    assert spec.question == "exists-robust-positivity"
    assert spec.ball is None


def test_parse_problem_roundtrip():
    spec = parse_problem(FIB_POS)
    again = parse_problem(json.dumps(spec.to_json()))
    assert again == spec


def test_parse_problem_a0_zero():
    with pytest.raises(ProblemError, match=r"a_0 must be nonzero"):
        parse_problem('{"coeffs":["0","1"],"init":["1","1"]}')


def test_parse_problem_negative_radius():
    with pytest.raises(ProblemError, match="radius > 0"):
        parse_problem('{"coeffs":["1","1"],"init":["1","1"],'
                      '"ball":{"radius":"-1/2"}}')


def test_parse_problem_length_mismatch():
    with pytest.raises(ProblemError, match="does not match"):
        parse_problem('{"coeffs":["1","1"],"init":["1"]}')


def test_parse_problem_ball_question_compat():
    with pytest.raises(ProblemError, match="requires a ball"):
        parse_problem('{"coeffs":["1","1"],"init":["1","1"],'
                      '"question":"robust-ultpos-open"}')
    with pytest.raises(ProblemError, match="must be omitted"):
        parse_problem('{"coeffs":["1","1"],"init":["1","1"],'
                      '"ball":{"radius":"1/2"},'
                      '"question":"exists-robust-positivity"}')


def test_decide_exit_codes():
    p = run_cli(["decide", "exists-robust-positivity", "--problem", "-"],
                stdin=FIB_POS)
    assert p.returncode == 0, p.stderr
    doc = json.loads(p.stdout)
    assert doc["verdict"] == "YES"
    assert doc["certificate"]["kind"] == "tail"
    assert "timing_seconds" not in doc

    neg = '{"coeffs":["-1"],"init":["1"]}'
    p = run_cli(["decide", "exists-robust-ultpos", "--problem", "-"], stdin=neg)
    assert p.returncode == 1
    doc = json.loads(p.stdout)
    assert doc["verdict"] == "NO"
    assert doc["certificate"]["optimum"]["verdict"] == "NEGATIVE"


def test_decide_open_ball():
    doc = ('{"coeffs":["1","1"],"init":["1","1"],'
           '"ball":{"radius":"1/10","topology":"open"},'
           '"question":"robust-ultpos-open"}')
    p = run_cli(["decide", "robust-ultpos-open", "--problem", "-"], stdin=doc)
    assert p.returncode == 0, p.stderr
    assert json.loads(p.stdout)["verdict"] == "YES"


def test_open_ball_searches_at_the_given_height_bound(monkeypatch):
    """The open ball's relation lattice uses --height-bound, as the
    provenance says, like the three existential questions."""
    from robustlrs import cli, decide
    seen = []
    real = decide.relation_lattice

    def spy(units, height_bound=64):
        seen.append(height_bound)
        return real(units, height_bound)

    monkeypatch.setattr(decide, "relation_lattice", spy)
    spec = parse_problem('{"coeffs":["1","1"],"init":["1","1"],'
                         '"ball":{"radius":"1/10","topology":"open"}}')
    text, code = cli.run(spec, "robust-ultpos-open", Q(1, 1 << 20), 100, 5)
    assert code == 0
    assert seen == [5]
    assert json.loads(text)["provenance"]["height_bound"] == 5


def test_decide_bad_problem_exit3():
    p = run_cli(["decide", "exists-robust-positivity", "--problem", "-"],
                stdin='{"coeffs":["0","1"],"init":["1","1"]}')
    assert p.returncode == 3
    assert "a_0" in p.stderr


def test_eval_csv():
    p = run_cli(["eval", "--problem", "-", "--n-max", "6"],
                stdin='{"coeffs":["1","1"],"init":["1","1"]}')
    assert p.returncode == 0, p.stderr
    lines = p.stdout.strip().split("\n")
    assert lines[0] == "n,u_n"
    assert lines[1:] == ["0,1", "1,1", "2,2", "3,3", "4,5", "5,8", "6,13"]


@pytest.mark.parametrize("args", [
    ["eval", "--n-max", "-3"],
    ["plot", "--kind", "orbit", "--range", "-2"],
], ids=["eval", "plot-orbit"])
def test_negative_count_exit3(args):
    # an order-6 start: a negative count once printed some initial terms
    p = run_cli([*args, "--problem", "-"],
                stdin='{"coeffs":["-1","4","-8","10","-8","4"],'
                      '"init":["1","0","0","0","0","0"]}')
    assert p.returncode == 3, p.stdout + p.stderr
    assert "must be >= 0" in p.stderr
    assert p.stdout == ""


def test_roots_json():
    p = run_cli(["roots", "--problem", "-"],
                stdin='{"coeffs":["-1","4","-8","10","-8","4"],'
                      '"init":["1","0","0","0","0","0"]}')
    assert p.returncode == 0, p.stderr
    doc = json.loads(p.stdout)
    assert sum(r["multiplicity"] for r in doc) == 6
    assert all(r["multiplicity"] == 2 for r in doc)


def test_torus_json():
    p = run_cli(["torus", "--problem", "-"],
                stdin='{"coeffs":["-1","4","-8","10","-8","4"],'
                      '"init":["1","0","0","0","0","0"]}')
    assert p.returncode == 0, p.stderr
    doc = json.loads(p.stdout)
    assert doc["complete"] is True
    assert doc["free_rank"] == 0
    assert len(doc["finite_part"]) == 6


def test_mu_verb():
    p = run_cli(["mu", "--problem", "-"],
                stdin='{"coeffs":["1","1"],"init":["1","1"]}')
    assert p.returncode == 0, p.stderr
    doc = json.loads(p.stdout)
    assert doc["verdict"] == "POSITIVE"


@pytest.mark.parametrize("verb,flags,config,key,want", [
    (["mu"], [], None, "tolerance", "1/4"),
    (["mu"], [], {"tol": "1/8"}, "tolerance", "1/4"),
    (["mu"], ["--tol", "1/16"], None, "tolerance", "1/16"),
    (["torus"], [], None, "height_bound", 3),
    (["torus"], [], {"height_bound": 7}, "height_bound", 3),
    (["torus"], ["--height-bound", "5"], None, "height_bound", 5),
], ids=["mu-file", "mu-file-over-config", "mu-flag", "torus-file",
        "torus-file-over-config", "torus-flag"])
def test_settings_order_flag_file_config(tmp_path, monkeypatch, capsys, verb,
                                         flags, config, key, want):
    """`mu` and `torus` resolve tol and height bound as `decide` does: the
    flag, else the problem file, else the defaults file."""
    problem = tmp_path / "fib.json"
    problem.write_text('{"coeffs":["1","1"],"init":["1","1"],'
                       '"tol":"1/4","height_bound":3}')
    monkeypatch.delenv("ROBUSTLRS_CONFIG", raising=False)
    if config is not None:
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(config))
        monkeypatch.setenv("ROBUSTLRS_CONFIG", str(cfgfile))
    code = main([*verb, "--problem", str(problem), *flags])
    out, err = capsys.readouterr()
    assert code == 0, err
    assert json.loads(out)[key] == want


def test_lab_build():
    p = run_cli(["lab", "build", "--p", "1/2"])
    assert p.returncode == 0, p.stderr
    doc = json.loads(p.stdout)
    assert doc["coeffs"] == ["-1", "4", "-8", "10", "-8", "4"]


def test_lab_cone():
    p = run_cli(["lab", "cone", "--z", "2", "--x", "1", "--y", "1"])
    assert p.returncode == 0, p.stderr
    assert json.loads(p.stdout)["inside"] is True
    p = run_cli(["lab", "cone", "--z", "1", "--x", "1", "--y", "1"])
    assert p.returncode == 1


@pytest.mark.parametrize("args", [
    ["prefix-L", "--p", "3/5", "--q", "1/2", "--n", "50"],
    ["approx-L", "--p", "3/5", "--q", "1/2", "--eps", "1/20",
     "--horizon", "2000"],
    ["ball-term", "--p", "3/5", "--q", "1/2", "--ell", "1", "--eps", "1/20",
     "--n", "5"],
], ids=["prefix-L", "approx-L", "ball-term"])
def test_lab_off_circle_exit3(args):
    p = run_cli(["lab", *args])
    assert p.returncode == 3, p.stdout + p.stderr
    assert "unit circle" in p.stderr
    assert p.stdout == ""


def test_lab_prefix_L_irrational_angle_needs_q_exit3():
    p = run_cli(["lab", "prefix-L", "--p", "3/5", "--n", "5"])
    assert p.returncode == 3, p.stdout + p.stderr
    assert "exact sine value q" in p.stderr
    assert p.stdout == ""


@pytest.mark.parametrize("horizon", ["0", "-5"])
def test_lab_approx_L_horizon_below_one_exit3(horizon):
    p = run_cli(["lab", "approx-L", "--p", "3/5", "--q", "4/5",
                 "--eps", "1/20", "--horizon", horizon])
    assert p.returncode == 3, p.stdout + p.stderr
    assert "horizon" in p.stderr
    assert p.stdout == ""


def test_decide_zero_coset_unknown_in_time():
    # modulus 2/sqrt(3) at angle pi/6 with u_1 = 0: one finite-torus coset
    # value is exactly zero, and its refiner has no exact zero test
    doc = '{"coeffs":["-4/3","2"],"init":["-5/2","0"]}'
    start = time.monotonic()
    p = run_cli(["decide", "exists-robust-skolem", "--problem", "-"],
                stdin=doc)
    elapsed = time.monotonic() - start
    assert p.returncode == 2, p.stderr
    assert json.loads(p.stdout)["verdict"] == "UNKNOWN"
    assert elapsed < 60, f"took {elapsed:.1f} s"


@pytest.mark.parametrize("tol", [f"1/{10**400}", str(10**400)])
def test_mu_tol_beyond_float_range(tol):
    # the working precision comes from tol exactly: 1/10^400 underflows a
    # float (log2 domain error) and 10^400 overflows one
    doc = ('{"coeffs":["-1","22/5","-231/25","292/25","-231/25","22/5"],'
           '"init":["3","1","0","2","1","5"]}')
    p = run_cli(["mu", "--problem", "-", "--tol", tol], stdin=doc)
    assert p.returncode == 0, p.stderr
    out = json.loads(p.stdout)
    assert out["verdict"] == "POSITIVE"
    assert out["tolerance"] == tol


def test_plot_orbit_deterministic():
    doc = '{"coeffs":["1","1"],"init":["1","1"]}'
    p1 = run_cli(["plot", "--kind", "orbit", "--range", "20",
                  "--problem", "-"], stdin=doc)
    p2 = run_cli(["plot", "--kind", "orbit", "--range", "20",
                  "--problem", "-"], stdin=doc)
    assert p1.returncode == 0, p1.stderr
    assert p1.stdout == p2.stdout
    lines = p1.stdout.strip().split("\n")
    assert lines[0] == "n,u_n,v_n"
    assert len(lines) == 22


def test_plot_orbit_bytes_pinned():
    # a real root and a complex pair: x^3 = x^2/2 + x - 4
    p = run_cli(["plot", "--kind", "orbit", "--range", "60", "--problem", "-"],
                stdin='{"coeffs":["-4","1","1/2"],"init":["1","0","2"]}')
    assert p.returncode == 0, p.stderr
    assert hashlib.sha256(p.stdout.encode()).hexdigest() == \
        "86c22a12fd013ef163f93f1b51300633a8d7e483568d1c22dde453c113543e34"


@pytest.fixture
def no_int_digit_limit():
    """Lift Python's int/str digit limit (3.11+) for the test, then restore it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(old)


def test_decide_margin_beyond_int_digit_limit(no_int_digit_limit):
    # u_n = 1/21 + (999/1000)^n: the YES certificate's exact margin u_3735
    # has about 11 000 digits
    p = run_cli(["decide", "exists-robust-positivity", "--problem", "-"],
                stdin='{"coeffs":["-999/1000","1999/1000"],'
                      '"init":["22/21","21979/21000"]}')
    assert p.returncode == 0, p.stderr
    doc = json.loads(p.stdout)
    assert doc["verdict"] == "YES"
    cert = doc["certificate"]
    assert cert["threshold"] == 3735
    lrr = Lrr((Q(-999, 1000), Q(1999, 1000)))
    c = InitialConfig((Q(22, 21), Q(21979, 21000)))
    assert Q(cert["prefix_margin"]) == Q(*scaled_term(lrr, c, 3735))


def test_eval_term_beyond_int_digit_limit():
    p = run_cli(["eval", "--problem", "-", "--n-max", "800"],
                stdin='{"coeffs":["1000000"],"init":["1"]}')
    assert p.returncode == 0, p.stderr
    assert p.stdout.strip().split("\n")[-1] == "800,1" + "0" * 4800


def test_precision_exhausted_exits_internal(tmp_path, monkeypatch, capsys,
                                           no_int_digit_limit):
    # every exact decision refines on qmath.precisions; with a cap below the
    # first rung the golden-ratio roots cannot be separated
    problem = tmp_path / "fib.json"
    problem.write_text(FIB_POS)
    monkeypatch.setattr(qmath, "MAX_BITS", 32)
    code = main(["decide", "exists-robust-positivity", "--problem", str(problem)])
    assert code == 4
    err = capsys.readouterr().err
    assert "PrecisionExhausted" in err and "undecided at 32 bits" in err


def test_plot_cone_section_requires_family():
    p = run_cli(["plot", "--kind", "cone-section", "--problem", "-"],
                stdin='{"coeffs":["1","1"],"init":["1","1"]}')
    assert p.returncode == 3


def test_report_determinism():
    p1 = run_cli(["decide", "exists-robust-positivity", "--problem", "-"],
                 stdin=FIB_POS)
    p2 = run_cli(["decide", "exists-robust-positivity", "--problem", "-"],
                 stdin=FIB_POS)
    assert p1.stdout == p2.stdout


def test_decimal_str():
    assert decimal_str(Q(1, 2), 4) == "0.5"
    assert decimal_str(Q(-1, 3), 6) == "-0.333333"
    assert decimal_str(Q(5), 4) == "5"


def test_env_config_default(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text('{"tol": "1/1048576", "prefix_cap": 500}')
    p = run_cli(["decide", "exists-robust-positivity", "--problem", "-"],
                stdin=FIB_POS, env={"ROBUSTLRS_CONFIG": str(cfgfile)})
    assert p.returncode == 0, p.stderr
    doc = json.loads(p.stdout)
    assert doc["provenance"]["tol"] == "1/1048576"
    assert doc["provenance"]["prefix_cap"] == 500


def _decide_fib(tmp_path, monkeypatch, capsys, flags, config=None):
    """Run `decide` in process on FIB_POS; returns (exit code, report or
    None, stderr)."""
    problem = tmp_path / "fib.json"
    problem.write_text(FIB_POS)
    monkeypatch.delenv("ROBUSTLRS_CONFIG", raising=False)
    if config is not None:
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(config))
        monkeypatch.setenv("ROBUSTLRS_CONFIG", str(cfgfile))
    code = main(["decide", "exists-robust-positivity", "--problem",
                 str(problem), *flags])
    out, err = capsys.readouterr()
    return code, (json.loads(out) if out else None), err


@pytest.mark.parametrize("flags,config", [
    (["--prefix-cap", "0"], None),
    ([], {"prefix_cap": 0}),
], ids=["flag", "config"])
def test_zero_prefix_cap_is_kept(tmp_path, monkeypatch, capsys, flags,
                                 config):
    """A prefix cap of 0 is a value: the report does not swap in the
    default of 10^6."""
    code, doc, err = _decide_fib(tmp_path, monkeypatch, capsys, flags, config)
    assert code in (0, 1, 2), err
    assert doc["provenance"]["prefix_cap"] == 0


@pytest.mark.parametrize("flags,config", [
    (["--prefix-cap", "-3"], None),
    (["--height-bound", "0"], None),
    ([], {"prefix_cap": -1}),
    ([], {"height_bound": 0}),
    ([], {"prefix_cap": "5"}),
    ([], {"tol": 0.001}),
], ids=["cap-flag", "height-flag", "cap-config", "height-config",
        "cap-string-config", "tol-float-config"])
def test_bad_setting_exit3(tmp_path, monkeypatch, capsys, flags, config):
    """A cap below 0, a height bound below 1 or a setting of the wrong type
    in the defaults file is a usage error (exit 3), not an internal one."""
    code, doc, err = _decide_fib(tmp_path, monkeypatch, capsys, flags, config)
    assert code == 3 and doc is None
    assert "must be" in err


# sha256 of `robustlrs eval --n-max 40` as the `Fraction` recursion wrote it,
# for Fibonacci and for the order-6 family at p = 3/5
EVAL_BYTES = {
    '{"coeffs":["1","1"],"init":["0","1"]}':
        "ac8e547fffe56381ffaf9547dc3ab820c2381ec6778457be74935c15849b9542",
    '{"coeffs":["-1","22/5","-231/25","292/25","-231/25","22/5"],'
    '"init":["1","-2","3/2","0","5","-1/3"]}':
        "df3ba9578fd0fdf0cb58ef036117f55066f002a1d90d69a27a9472c809d9f1b7",
}


@pytest.mark.parametrize("problem", list(EVAL_BYTES),
                         ids=["fibonacci", "order6"])
def test_eval_bytes_pinned(problem, tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(problem, encoding="utf-8")
    out = run_cli(["eval", "--problem", str(path), "--n-max", "40"])
    assert out.returncode == 0, out.stderr
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == EVAL_BYTES[problem]

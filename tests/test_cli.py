import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction as Q
from pathlib import Path

import pytest

from robustlrs import cli, qmath
from robustlrs.lrs import Lrr, InitialConfig, scaled_term
from robustlrs.serialize import (parse_problem, ProblemError, decimal_str,
                                 QUESTIONS, BALL_QUESTIONS)
from robustlrs.cli import main, emit_plot_data

from oracles import clear_analysis_memos, problem_json

FIB_POS = '{"coeffs":["1","1"],"init":["1","1"],"question":"exists-robust-positivity"}'


REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"


def run_cli(args, stdin=None, env=None, python=("-m", "robustlrs")):
    """Run ``python -m robustlrs`` (or ``python *python``) on this
    checkout's ``src``.

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
    return subprocess.run([sys.executable, *python, *args],
                          capture_output=True, text=True, input=stdin,
                          cwd=REPO_ROOT, env=child_env, timeout=300)


def test_parse_problem_valid():
    spec = parse_problem(FIB_POS)
    assert spec.lrr.coeffs == (Q(1), Q(1))
    assert spec.question == "exists-robust-positivity"
    assert spec.ball is None


def test_parse_problem_roundtrip():
    spec = parse_problem(FIB_POS)
    again = parse_problem(json.dumps(problem_json(spec)))
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


@pytest.mark.parametrize("doc,path", [
    ('{"coeffs":"11","init":["1","1"]}', "$.coeffs"),
    ('{"coeffs":["1","1"],"init":"11"}', "$.init"),
    ('{"coeffs":"11","init":"11"}', "$.coeffs"),
    ('{"coeffs":["1","1"],"init":{"1":"a","2":"b"}}', "$.init"),
], ids=["coeffs", "init", "both", "init-object"])
def test_parse_problem_rejects_non_array_terms(doc, path):
    """A string is not read character by character, nor an object key by
    key, as a list of rationals."""
    with pytest.raises(ProblemError, match=r"must be an array") as exc:
        parse_problem(doc)
    assert exc.value.path == path


@pytest.mark.parametrize("key,value", [
    ("prefix_cap", "true"), ("prefix_cap", "false"),
    ("height_bound", "true"),
])
def test_parse_problem_rejects_non_integer_counts(key, value):
    """JSON booleans load as Python bools, which are ints: still refused."""
    with pytest.raises(ProblemError, match="must be an integer") as exc:
        parse_problem(f'{{"coeffs":["1","1"],"init":["1","1"],'
                      f'"{key}":{value}}}')
    assert exc.value.path == f"$.{key}"


def test_decide_string_terms_exit3():
    p = run_cli(["decide", "exists-robust-positivity", "--problem", "-"],
                stdin='{"coeffs":"11","init":"11"}')
    assert p.returncode == 3 and not p.stdout
    assert "$.coeffs" in p.stderr


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
    clear_analysis_memos()
    spec = parse_problem('{"coeffs":["1","1"],"init":["1","1"],'
                         '"ball":{"radius":"1/10","topology":"open"}}')
    text, code = cli.run(spec, "robust-ultpos-open", Q(1, 1 << 20), 100, 5)
    assert code == 0
    assert seen == [5]
    assert json.loads(text)["provenance"]["height_bound"] == 5


def test_run_checks_the_asked_question_against_the_ball(tmp_path):
    """A ball with an existential question is a usage error whether the
    question comes from the file or from the caller of `run`."""
    from robustlrs import cli
    doc = '{"coeffs":["1","1"],"init":["1","1"],"ball":{"radius":"1/10"}}'
    spec = parse_problem(doc)
    for question in ("exists-robust-positivity", "exists-robust-skolem",
                     "exists-robust-ultpos"):
        with pytest.raises(ProblemError, match="must be omitted"):
            cli.run(spec, question, Q(1, 1 << 20), 100, 64)
    no_ball = parse_problem('{"coeffs":["1","1"],"init":["1","1"]}')
    with pytest.raises(ProblemError, match="requires a ball"):
        cli.run(no_ball, "robust-ultpos-open", Q(1, 1 << 20), 100, 64)
    path = tmp_path / "ball.json"
    path.write_text(doc, encoding="utf-8")
    assert main(["decide", "exists-robust-positivity",
                 "--problem", str(path)]) == 3


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


@pytest.mark.parametrize("args", [
    ["decide", "exists-robust-positivity", "--problem", "-", "--bogus"],
    ["eval", "--problem", "-", "--n-max", "x"],
    ["eval", "--problem", "-", "--tol", "1/2"],
    ["roots", "--problem", "-", "--height-bound", "5"],
    ["plot", "--kind", "orbit", "--problem", "-", "--timing"],
    ["torus", "--problem", "-", "--prefix-cap", "10"],
    ["mu", "--problem", "-", "--timing"],
], ids=["unknown-flag", "bad-int", "eval-tol", "roots-height-bound",
        "plot-timing", "torus-prefix-cap", "mu-timing"])
def test_usage_error_exit3(args, capsys):
    """argparse's own usage errors exit 3, not 2 (UNKNOWN), and each verb
    takes only the settings it reads."""
    assert main(args) == 3
    assert "usage:" in capsys.readouterr().err


def test_unknown_flag_process_exit3():
    p = run_cli(["decide", "exists-robust-positivity", "--problem", "-",
                 "--bogus"], stdin=FIB_POS)
    assert p.returncode == 3, p.stderr
    assert "unrecognized arguments: --bogus" in p.stderr
    assert p.stdout == ""


@pytest.mark.parametrize("args", [["--help"], ["--version"],
                                  ["decide", "--help"]])
def test_help_and_version_exit0(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 0
    assert capsys.readouterr().out


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


@pytest.mark.parametrize("args", [
    ["prefix-L", "--p", "2", "--n", "5"],
    ["ball-term", "--n", "1", "--p", "2", "--ell", "1", "--eps", "1/20"],
    ["approx-L", "--p=-3/2", "--eps", "1/20", "--horizon", "2000"],
], ids=["prefix-L", "ball-term", "approx-L"])
def test_lab_cosine_outside_unit_interval_exit3(args, capsys):
    """p is the cosine of the rotation: outside [-1, 1] the message says
    so, with or without q."""
    assert main(["lab", *args]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "-1 <= p <= 1" in err


@pytest.mark.parametrize("args", [
    ["ball-term", "--p", "3/5", "--ell", "1", "--eps", "1/20",
     "--n", "5000"],
    ["approx-L", "--p", "3/5", "--eps", "1/20", "--horizon", "20000"],
], ids=["ball-term", "approx-L"])
def test_lab_irrational_angle_needs_q_exit3(args):
    """A term of an irrational angle is read off an enclosure of the angle,
    which arccos alone would give; the exact sine is still required."""
    p = run_cli(["lab", *args])
    assert p.returncode == 3, p.stdout + p.stderr
    assert "exact sine value q" in p.stderr
    assert p.stdout == ""


def test_lab_approx_L_horizon_of_10_to_12():
    """The tail scans visit only near returns, so a horizon of 10^12 costs
    about what 10^5 does."""
    t0 = time.perf_counter()
    p = run_cli(["lab", "approx-L", "--p", "3/5", "--q", "4/5",
                 "--eps", "1/20", "--horizon", "1000000000000"])
    elapsed = time.perf_counter() - t0
    assert p.returncode == 0, p.stdout + p.stderr
    doc = json.loads(p.stdout)
    assert doc["horizon"] == 10**12 and not doc["horizon_exhausted"]
    assert elapsed < 10


@pytest.mark.parametrize("horizon", ["0", "-5"])
def test_lab_approx_L_horizon_below_one_exit3(horizon):
    p = run_cli(["lab", "approx-L", "--p", "3/5", "--q", "4/5",
                 "--eps", "1/20", "--horizon", horizon])
    assert p.returncode == 3, p.stdout + p.stderr
    assert "horizon" in p.stderr
    assert p.stdout == ""


def test_lab_ball_term_output_under_1kb(capsys):
    """A term of an irrational angle prints rounded endpoints, not exact
    powers whose denominators grow like 5^n (8 842 bytes here once)."""
    code = main(["lab", "ball-term", "--p", "3/5", "--q", "4/5", "--ell", "3",
                 "--eps", "1/20", "--n", "3083"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["term"]["hi_decimal"].startswith("-0.000605")
    assert len(out.encode("utf-8")) < 1024


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


# Three problems whose root fields meet: the order-6 family at p = 1/2
# and at p = 3/5, then the pair x^2 - 6/5 x + 1 of the p = 3/5 member.
SHARED_FIELDS = (
    ("exists-robust-ultpos",
     '{"coeffs":["-1","4","-8","10","-8","4"],'
     '"init":["3","1","0","2","1","5"]}'),
    ("exists-robust-ultpos",
     '{"coeffs":["-1","22/5","-231/25","292/25","-231/25","22/5"],'
     '"init":["3","1","0","2","1","5"]}'),
    ("exists-robust-skolem", '{"coeffs":["-1","6/5"],"init":["1","0"]}'),
)


def test_decide_reports_independent_of_earlier_problems(tmp_path):
    """A field refines its cached root box in place, so a report could
    depend on what the same process decided before.  Decided one after
    another in one interpreter, each problem gives the bytes it gives in
    an interpreter of its own."""
    args = []
    for i, (question, doc) in enumerate(SHARED_FIELDS):
        (tmp_path / f"p{i}.json").write_text(doc, encoding="utf-8")
        args += [question, str(tmp_path / f"p{i}.json"),
                 str(tmp_path / f"r{i}.json")]
    script = ("import sys\n"
              "from robustlrs.cli import main\n"
              "for q, path, out in zip(*[iter(sys.argv[1:])] * 3):\n"
              "    main(['decide', q, '--problem', path, '--out', out])\n")
    p = run_cli(args, python=("-c", script))
    assert p.returncode == 0 and p.stderr == "", p.stderr
    for i, (question, doc) in enumerate(SHARED_FIELDS):
        alone = run_cli(["decide", question, "--problem", "-"], stdin=doc)
        assert alone.stdout
        assert (tmp_path / f"r{i}.json").read_text(encoding="utf-8") \
            == alone.stdout


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


def test_plot_orbit_bytes_pinned_alternating():
    # u_n = 2 - (-1)^n - 3 (-1/4)^n: negative alphas on alternating real
    # powers, the last sinking into the scan's error band
    p = run_cli(["plot", "--kind", "orbit", "--range", "100", "--problem", "-"],
                stdin='{"coeffs":["1/4","1","-1/4"],"init":["-2","15/4","13/16"]}')
    assert p.returncode == 0, p.stderr
    assert hashlib.sha256(p.stdout.encode()).hexdigest() == \
        "49c0fe50b608291e89eb5a633aaed7906e1f4e11479dff02c207b56e38f580f7"


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
    clear_analysis_memos()
    code = main(["decide", "exists-robust-positivity", "--problem", str(problem)])
    assert code == 4
    err = capsys.readouterr().err
    assert "PrecisionExhausted" in err and "undecided at 32 bits" in err


def test_broken_invariant_exits_internal(tmp_path, monkeypatch, capsys):
    # a relation search that hands power_product_is_one one exponent too
    # few breaks its invariant: an internal error (4), not a usage one (3)
    from robustlrs import algebraic, torus
    problem = tmp_path / "pair.json"
    problem.write_text('{"coeffs":["-1","6/5"],"init":["1","0"],'
                       '"question":"exists-robust-positivity"}')
    monkeypatch.setattr(torus, "power_product_is_one",
                        lambda g, e: algebraic.power_product_is_one(g, e[:-1]))
    clear_analysis_memos()
    code = main(["decide", "exists-robust-positivity", "--problem", str(problem)])
    assert code == 4
    err = capsys.readouterr().err
    assert err == ("internal error: RuntimeError: gammas and exponents must "
                   "have equal length\n")


def test_nonpositive_threshold_eps_exits_internal(tmp_path, monkeypatch,
                                                  capsys):
    # the tail stage hands residual_threshold half of a certified positive
    # minimum; a non-positive eps there is an internal fault (4), not a
    # usage error (3)
    from robustlrs import decide, lrs
    problem = tmp_path / "fib.json"
    problem.write_text(FIB_POS)
    monkeypatch.setattr(decide, "residual_threshold",
                        lambda res, eps: lrs.residual_threshold(res, -eps))
    clear_analysis_memos()
    code = main(["decide", "exists-robust-positivity", "--problem", str(problem)])
    assert code == 4
    assert capsys.readouterr().err == ("internal error: RuntimeError: eps "
                                       "must be positive\n")


def test_negative_square_root_exits_internal(tmp_path, monkeypatch, capsys):
    # every square root is taken of a square, a checked positive value or
    # 1 - p^2 with p checked, so a negative one is an internal fault (4),
    # not a usage error (3): here the radius of an isolating disk
    from robustlrs import algebraic
    problem = tmp_path / "fib.json"
    problem.write_text('{"coeffs":["1","1"],"init":["1","1"]}')
    monkeypatch.setattr(algebraic, "sqrt_up",
                        lambda x, bits: qmath.sqrt_up(-1 - x, bits))
    assert main(["roots", "--problem", str(problem)]) == 4
    assert capsys.readouterr().err == ("internal error: RuntimeError: sqrt "
                                       "of negative rational\n")


@pytest.mark.parametrize("ns", [{"command": "bogus"},
                                {"command": "lab", "lab_command": "bogus"}])
def test_unhandled_command_exits_internal(monkeypatch, capsys, ns):
    # argparse admits only declared verbs, each with its handler, so a
    # namespace without one is an internal fault (4), not a usage one
    class Parser:
        def parse_args(self, argv):
            return argparse.Namespace(**ns)

    monkeypatch.setattr(cli, "_build_parser", Parser)
    assert main([]) == 4
    assert capsys.readouterr().err.startswith("internal error:")


def test_broken_refinement_invariant_exits_internal(tmp_path):
    """`AlgebraicNumber.refine` is only asked for a positive width; a
    separation bound of 0 breaks that, an internal fault (4), not a usage
    one (3)."""
    problem = tmp_path / "fib.json"
    problem.write_text('{"coeffs":["1","1"],"init":["1","1"]}')
    script = ("import sys\n"
              "from fractions import Fraction\n"
              "from robustlrs import algebraic, cli\n"
              "algebraic.separation_bound = lambda p: Fraction(0)\n"
              "sys.exit(cli.main(sys.argv[1:]))\n")
    p = run_cli(["roots", "--problem", str(problem)], python=("-c", script))
    assert p.returncode == 4, p.stderr
    assert p.stderr == ("internal error: RuntimeError: width must be "
                        "positive\n")
    assert p.stdout == ""


CUBIC_POS = ('{"coeffs":["-3","-1","0"],"init":["1","0","0"],'
             '"question":"exists-robust-positivity"}')

# each patch moves some seeds: for degree >= 3 a non-real root's isolating
# rectangle 100 to the right or a real root's interval by 1/8 (in x^3 + x +
# 3's problem), for degree 2 a real root's interval by 1/8 (in x^2 - x - 1's)
_SHIFT_REAL = ("real = algebraic._real_interval\n"
               "def wrong(r, bits):\n"
               "    lo, hi = real(r, bits)\n"
               "    shift = Fraction(1, 8) if r.poly.degree() {} else 0\n"
               "    return lo + shift, hi + shift\n"
               "algebraic._real_interval = wrong\n")
_WRONG_SEEDS = {
    "complex": (CUBIC_POS,
                "adopt = algebraic._BisectionPath._adopt\n"
                "def wrong(self, iv):\n"
                "    adopt(self, iv)\n"
                "    if len(self.coeffs) > 3:\n"
                "        u, v, s, t = self.rect\n"
                "        self.rect = (u + 100, v, s + 100, t)\n"
                "algebraic._BisectionPath._adopt = wrong\n",
                "where no root lies"),
    "real": (CUBIC_POS, _SHIFT_REAL.format("> 2"), "where its sign does not change"),
    "real-quadratic": (FIB_POS, _SHIFT_REAL.format("== 2"),
                       "where its sign does not change"),
}


@pytest.mark.parametrize("kind", list(_WRONG_SEEDS))
def test_wrong_seed_of_a_cubic_exits_internal(tmp_path, kind):
    """A non-real root's isolating rectangle must meet one of the certified
    enclosures of its polynomial's roots, and a real root's interval must
    change the sign of its polynomial: a wrong rectangle or interval for
    the roots of x^3 + x + 3, or a wrong interval for a root of x^2 - x - 1,
    is an internal fault (4), in a fresh interpreter so that every seed is
    taken anew."""
    doc, patch, message = _WRONG_SEEDS[kind]
    problem = tmp_path / "problem.json"
    problem.write_text(doc)
    script = ("import sys\n"
              "from fractions import Fraction\n"
              "from robustlrs import algebraic, cli\n"
              + patch + "sys.exit(cli.main(sys.argv[1:]))\n")
    p = run_cli(["decide", "exists-robust-positivity", "--problem", str(problem)],
                python=("-c", script))
    assert p.returncode == 4, p.stderr
    assert p.stderr.startswith("internal error: RuntimeError: sympy isolates a")
    assert message in p.stderr and p.stdout == ""


_STEP_GUARD = """
import json, sys, traceback
from sympy.polys import rootisolation
from robustlrs import algebraic, cli, serialize
from robustlrs.decide import DEFAULT_PREFIX_CAP
from robustlrs.optimize import DEFAULT_TOL
from robustlrs.torus import DEFAULT_HEIGHT_BOUND

# sympy's first isolation refines its intervals apart; the replay's own
# fallback hands a request to sympy's refinement, and is counted apart
EXEMPT = {"_get_reals", "_get_complexes", "_fallback"}
calls = {"steps": 0, "real": 0, "complex": 0, "fallback": 0}

def counted(obj, name, key, exempt=False):
    call = getattr(obj, name)
    def counting(*args):
        if not exempt or not EXEMPT & {f.name for f in traceback.extract_stack()}:
            calls[key] += 1
        return call(*args)
    setattr(obj, name, counting)

counted(rootisolation.RealInterval, "_inner_refine", "steps", True)
counted(rootisolation.ComplexInterval, "_inner_refine", "steps", True)
counted(algebraic, "_real_interval", "real")
counted(algebraic._BisectionPath, "centre", "complex")
counted(algebraic._BisectionPath, "_fallback", "fallback")
for doc in sys.argv[1:]:
    cli.run(serialize.parse_problem(doc), "exists-robust-positivity",
            DEFAULT_TOL, DEFAULT_PREFIX_CAP, DEFAULT_HEIGHT_BOUND)
print(json.dumps(calls))
"""


def test_root_seeds_take_no_sympy_refinement_steps():
    """Every seed box is refined by the package: on an order-2 pair of
    irrational modulus (x^2 - x + 3, whose gamma / rho is a quartic), a
    split cubic ((x - 2)(x^2 - x + 3)), x^3 + x + 3 and x^2 - 2x + 2 (roots
    1 +- i, on a line of sympy's grid, so replayed), sympy's
    `_inner_refine` runs only in its first isolation, while both replays
    run and the replay never falls back to sympy's refinement."""
    docs = ['{"coeffs":["-3","1"],"init":["1","0"]}',
            '{"coeffs":["6","-5","3"],"init":["1","0","0"]}',
            '{"coeffs":["-3","-1","0"],"init":["1","0","0"]}',
            '{"coeffs":["-2","2"],"init":["1","1"]}']
    p = run_cli(docs, python=("-c", _STEP_GUARD))
    assert p.returncode == 0, p.stderr
    calls = json.loads(p.stdout)
    assert calls["steps"] == calls["fallback"] == 0, calls
    assert calls["real"] > 0 and calls["complex"] > 0, calls


@pytest.mark.parametrize("args,config,source", [
    (["decide", "exists-robust-positivity", "--tol", "0.001"], None,
     "argument --tol"),
    (["lab", "cone", "--z", "x", "--x", "1", "--y", "1"], None,
     "argument --z"),
    (["decide", "exists-robust-positivity"], {"tol": "1.5"}, "tol: "),
], ids=["tol-flag", "lab-flag", "tol-config"])
def test_malformed_rational_names_its_source(tmp_path, monkeypatch, capsys,
                                             args, config, source):
    """A rational that does not parse is a usage error (exit 3) whose
    message names the flag or the defaults-file key it came from."""
    problem = tmp_path / "fib.json"
    problem.write_text(FIB_POS)
    monkeypatch.delenv("ROBUSTLRS_CONFIG", raising=False)
    if config is not None:
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(config))
        monkeypatch.setenv("ROBUSTLRS_CONFIG", str(cfgfile))
    if args[0] == "decide":
        args = [*args, "--problem", str(problem)]
    assert main(args) == 3
    out, err = capsys.readouterr()
    assert out == "" and source in err


VERBS = ("decide", "eval", "roots", "torus", "mu", "plot", "lab",
         "lab build", "lab cone", "lab ball-term", "lab approx-L",
         "lab prefix-L")


@pytest.mark.parametrize("verb", VERBS)
def test_every_verb_help_exit0(verb, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*verb.split(), "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: robustlrs {verb} ")


@pytest.mark.parametrize("group", ["", "lab"])
def test_help_lists_every_verb(group, capsys):
    """`VERBS` above is the whole command set, so every verb's help is
    tested."""
    with pytest.raises(SystemExit):
        main([*group.split(), "--help"])
    usage = capsys.readouterr().out
    listed = usage[usage.index("{") + 1:usage.index("}")].split(",")
    assert {f"{group} {v}".strip() for v in listed} == \
        {v for v in VERBS if v.rpartition(" ")[0] == group}


# sha256 of `robustlrs plot --range 60` on the order-6 family at p = 3/5,
# as the per-step rotation wrote it
PLOT_BYTES = {
    "cone-section":
        "71bec7cd308a9150e04cbfbeadaa0ed25fd17d1ff2c4b54a02fca735b8cc8456",
    "hyperplane-trace":
        "42d03d0f010f08ffff4523e644cd227aec63f4800875ab08f496bc8ad0ef2b28",
}


@pytest.mark.parametrize("kind", list(PLOT_BYTES))
def test_plot_cone_bytes_pinned(kind):
    p = run_cli(["plot", "--kind", kind, "--range", "60", "--problem", "-"],
                stdin='{"coeffs":["-1","22/5","-231/25","292/25","-231/25",'
                      '"22/5"],"init":["1","-2","3/2","0","5","-1/3"]}')
    assert p.returncode == 0, p.stderr
    assert hashlib.sha256(p.stdout.encode()).hexdigest() == PLOT_BYTES[kind]


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
    ([], {"prefix_cap": True}),
    ([], {"height_bound": True}),
], ids=["cap-flag", "height-flag", "cap-config", "height-config",
        "cap-string-config", "tol-float-config", "cap-bool-config",
        "height-bool-config"])
def test_bad_setting_exit3(tmp_path, monkeypatch, capsys, flags, config):
    """A cap below 0, a height bound below 1 or a setting of the wrong type
    in the defaults file is a usage error (exit 3), not an internal one."""
    code, doc, err = _decide_fib(tmp_path, monkeypatch, capsys, flags, config)
    assert code == 3 and doc is None
    assert "must be" in err


@pytest.mark.parametrize("verb,config,want", [
    (["torus"], {"prefix_cap": -1}, 0),
    (["torus"], {"tol": "0"}, 0),
    (["mu"], {"prefix_cap": -1}, 0),
    (["decide", "exists-robust-positivity"], {"prefix_cap": -1}, 3),
    (["mu"], {"height_bound": 0}, 3),
    (["decide", "exists-robust-positivity"], {"tol": "0"}, 3),
], ids=["torus-cap", "torus-tol", "mu-cap", "decide-cap", "mu-height",
        "decide-tol"])
def test_verb_checks_only_the_settings_it_reads(tmp_path, monkeypatch,
                                                capsys, verb, config, want):
    """A bad setting in the defaults file refuses only the verbs that read
    it: `torus` takes the height bound, `mu` tol and the height bound,
    `decide` all three."""
    problem = tmp_path / "fib.json"
    problem.write_text('{"coeffs":["1","1"],"init":["1","1"]}')
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(config))
    monkeypatch.setenv("ROBUSTLRS_CONFIG", str(cfgfile))
    code = main([*verb, "--problem", str(problem)])
    out, err = capsys.readouterr()
    assert code == want, err
    assert (out == "" and "must be" in err) if want == 3 else err == ""


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("tol", ["0", "-1"])
@pytest.mark.parametrize("question", QUESTIONS)
def test_nonpositive_tol_exit3(tmp_path, monkeypatch, capsys, question, tol,
                               source):
    """A tol <= 0, from the flag or the defaults file, is a usage error
    (exit 3) for every question, found before the question runs: the
    open-ball question would otherwise answer YES on Fibonacci."""
    ball = (',"ball":{"radius":"1/10","topology":"open"}'
            if question in BALL_QUESTIONS else "")
    problem = tmp_path / "fib.json"
    problem.write_text('{"coeffs":["1","1"],"init":["1","1"]' + ball + "}")
    monkeypatch.delenv("ROBUSTLRS_CONFIG", raising=False)
    flags = []
    if source == "flag":
        flags = ["--tol", tol]
    else:
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"tol": tol}))
        monkeypatch.setenv("ROBUSTLRS_CONFIG", str(cfgfile))
    code = main(["decide", question, "--problem", str(problem), *flags])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert f"tol: must be > 0, got {tol}" in err


@pytest.mark.parametrize("text,message", [
    ("{bad", "invalid JSON"),
    ("[]", "top-level value must be an object"),
], ids=["invalid-json", "not-an-object"])
def test_bad_config_file_exit3(tmp_path, monkeypatch, capsys, text, message):
    """A defaults file that is not a JSON object is a usage error (exit 3):
    not a traceback with exit 1, the NO code, nor an internal error."""
    problem = tmp_path / "fib.json"
    problem.write_text(FIB_POS)
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(text)
    monkeypatch.setenv("ROBUSTLRS_CONFIG", str(cfgfile))
    code = main(["decide", "exists-robust-ultpos", "--problem", str(problem)])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert "ROBUSTLRS_CONFIG" in err and message in err


def test_missing_config_file_exit3():
    """A `ROBUSTLRS_CONFIG` naming a file that does not exist is a usage
    error (exit 3), not a silent run on the built-in defaults."""
    p = run_cli(["decide", "exists-robust-ultpos", "--problem", "-"],
                stdin=FIB_POS, env={"ROBUSTLRS_CONFIG": "/no/such/file.json"})
    assert p.returncode == 3 and p.stdout == ""
    assert "file.json" in p.stderr


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

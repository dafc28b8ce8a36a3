"""`robustlrs decide` reports pinned byte for byte.

Each problem goes through `cli.main` as a problem file, and the sha256 of
the report it writes is compared with the digest recorded for it.  The
problems cover the four questions; the optimizer's finite-exact,
pair-closed-form, branch-and-bound and ball-bnb routes; root seeds of
degree >= 3, complex and real, refined by the package; and both prefix
paths of positivity and Skolem: a residual threshold at or below
`lrs.EXACT_TERMS` (4096), scanned exactly, and one past it, scanned by
the certified orbit scan.  The long-prefix shapes are those of
`test_prefix_golden.py`; the pair, finite-torus, open-ball and rho = 2
problems are those of `optimize_golden.json`.
"""

import hashlib
import json

import pytest

from robustlrs.cli import CONFIG_ENV, main

P12 = ["-1", "4", "-8", "10", "-8", "4"]
P35 = ["-1", "22/5", "-231/25", "292/25", "-231/25", "22/5"]
PAIR_M1 = ["-1", "1/5", "1/5"]

# name: (problem document, exit code, sha256 of the report)
CASES = {
    # 1/21 + (50/51)^n: threshold 188, exact prefix
    "short-prefix-positivity-yes": (
        {"coeffs": ["-50/51", "101/51"], "init": ["22/21", "367/357"],
         "question": "exists-robust-positivity"}, 0,
        "75e51fe3eede575cf74015ba460390b510ddbd4021d6546695dd3f5c14292ae6"),
    # 1/10 - r^n + 2 r'^n, r = 1 - 1/201, r' = 1 - 2/201: fails at n = 203
    "short-prefix-positivity-no": (
        {"coeffs": ["39800/40401", "-119999/40401", "200/67"],
         "init": ["11/10", "727/670", "432421/404010"],
         "question": "exists-robust-positivity"}, 1,
        "b963cf695173f72dbeceb74d6ed423c3ecb10393de616391bbc7e1de8662901c"),
    # test_prefix_golden's M1301, M4201 and REPEATED: thresholds past 4096
    "long-prefix-positivity-yes": (
        {"coeffs": ["-1300/1301", "2601/1301"],
         "init": ["22/21", "28601/27321"],
         "question": "exists-robust-positivity"}, 0,
        "b860c507961bdfbcc6e0f15baff198459e78534221631ca385529c4cee8374df"),
    "long-prefix-positivity-no": (
        {"coeffs": ["17635800/17648401", "-52919999/17648401",
                    "12600/4201"],
         "init": ["11/10", "46181/42010", "193880421/176484010"],
         "question": "exists-robust-positivity"}, 1,
        "983b03253081b55b6378113ab0cbaab01ebdb4dc0b908178c4e816b5f2c9ed76"),
    "long-prefix-skolem-yes": (
        {"coeffs": ["1/2", "-2", "5/2"], "init": ["1503", "3005/2", "6011/4"],
         "question": "exists-robust-skolem"}, 0,
        "92f8236b546f24c02901b135f0e02a1e4310aa6c944fc093a9ad07ac88503e11"),
    "pair-closed-form-skolem": (
        {"coeffs": PAIR_M1, "init": ["4", "-12/5", "68/25"],
         "question": "exists-robust-skolem"}, 0,
        "2678c6557ad1d8945988747878d58434f343e296eec2f7d446f68d0199d606e8"),
    "pair-closed-form-ultpos": (
        {"coeffs": PAIR_M1, "init": ["4", "-12/5", "68/25"],
         "question": "exists-robust-ultpos"}, 1,
        "0295e64bbe89aa9499722289a2b56d590f56064f569314d7518b9afc04eecc88"),
    "finite-exact-ultpos": (
        {"coeffs": P12, "init": ["3", "1", "0", "2", "1", "5"],
         "question": "exists-robust-ultpos"}, 0,
        "26e08e2e1d07756b32f05dcf94a1c89e2ad51049f5f1af9356233c6d28c1ab80"),
    # a conjugate pair of modulus 2: two free angles
    "branch-and-bound-skolem": (
        {"coeffs": ["-4", "-1/2"], "init": ["-3/2", "-5/3"],
         "question": "exists-robust-skolem", "tol": "1/1024"}, 2,
        "3f4e39a7344176bf540598d904f11701d1e3c61408c24e5a01a83072b47a6794"),
    # x^2 - x + 3: a pair of modulus sqrt(3), whose gamma / rho is a root
    # of a quartic, seeded through its certified enclosure
    "pair-irrational-modulus-positivity": (
        {"coeffs": ["-3", "1"], "init": ["1", "0"],
         "question": "exists-robust-positivity"}, 1,
        "27be25b4a183bdaa494490812a0f570f236ad2b98e725c3ff3b24cd17bcd1f7b"),
    # x^3 + x + 3: a real root and a pair, each of degree 3, seeded by the
    # package's refinement
    "cubic-positivity-no": (
        {"coeffs": ["-3", "-1", "0"], "init": ["1", "0", "0"],
         "question": "exists-robust-positivity"}, 1,
        "984097648ace8aa5bfaa848c3a5dbe2aafda3089a942889560a2c357b8940a62"),
    "ball-bnb-open-ball": (
        {"coeffs": P35, "init": ["3", "1", "0", "2", "1", "5"],
         "question": "robust-ultpos-open", "ball": {"radius": "1/20"}}, 0,
        "2e1ec598689e5a7d182df12aacc939a92a64f021a4641498cf67dedaf8ef0d64"),
}


@pytest.mark.parametrize("name", list(CASES))
def test_decide_report_digest(name, tmp_path, monkeypatch):
    doc, code, digest = CASES[name]
    monkeypatch.delenv(CONFIG_ENV, raising=False)
    problem, report = tmp_path / "problem.json", tmp_path / "report.json"
    problem.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["decide", doc["question"], "--problem", str(problem),
                 "--out", str(report)]) == code
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digest

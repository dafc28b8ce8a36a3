"""The recurrence half of the analysis is found once and shared.

`lrs.trace_system` (factors, roots, trace-form matrix and inverse),
`lrs.recurrence` (spectral data, ratios to rho, unit starts' forms) and
`decide.closure_torus` (relation lattice and torus at one height bound)
are bounded memos keyed by the recurrence, so every start and question
of a recurrence reads the same objects.  These tests
check that sharing them changes no report byte, that no question changes
a shared entry, and that `AlgebraicNumber.is_unit_modulus` keeps its
answer on the object.
"""

import dataclasses
import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction as Q
from pathlib import Path

import pytest

from robustlrs import decide, lrs
from robustlrs.algebraic import AlgebraicNumber, FieldElement, NumberField
from robustlrs.decide import (Analysis, exists_robust_positivity,
                              exists_robust_skolem,
                              exists_robust_ultimate_positivity,
                              robust_nonuniform_ultpos_open_ball)
from robustlrs.lrs import Ball, InitialConfig, Lrr
from robustlrs.serialize import BALL_QUESTIONS, QUESTIONS
from robustlrs.torus import DEFAULT_HEIGHT_BOUND

from oracles import clear_analysis_memos

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

P35 = ["-1", "22/5", "-231/25", "292/25", "-231/25", "22/5"]
# (coeffs, starts, tol): an irrational pair and its field (Fibonacci), a
# conjugate pair of modulus 2 (rho = 2, two free angles), the order-6
# family at p = 3/5 (one free angle, multiplicity 2) and a unit pair
# beside the root -1
RECURRENCES = [
    (["1", "1"], [["1", "1"], ["0", "1"], ["2", "-1"]], None),
    (["-4", "-1/2"], [["-3/2", "-5/3"], ["1", "2"], ["2", "-1"]], "1/1024"),
    (P35, [["3", "1", "0", "2", "1", "5"], ["1", "0", "0", "0", "0", "0"],
           ["0", "1", "2", "3", "4", "5"]], None),
    (["-1", "1/5", "1/5"], [["4", "-12/5", "68/25"], ["1", "2", "3"],
                            ["1", "0", "0"]], None),
]


def _batch():
    """Every question on every start, the recurrences interleaved, so each
    memo entry is read again after other recurrences ran."""
    out = []
    for s in range(3):
        for question in QUESTIONS:
            for coeffs, starts, tol in RECURRENCES:
                doc = {"coeffs": coeffs, "init": starts[s]}
                if question in BALL_QUESTIONS:
                    doc["ball"] = {"radius": "1/20", "topology": "open"}
                if tol is not None:
                    doc["tol"] = tol
                out.append((doc, question))
    return out


SCRIPT = """
import json, sys
from robustlrs import cli, decide, lrs
from robustlrs.optimize import DEFAULT_TOL
from robustlrs.serialize import parse_problem
from oracles import clear_analysis_memos
clear = sys.argv[1] == "clear"
reports = []
for doc, question in json.load(sys.stdin):
    if clear:
        clear_analysis_memos()
    spec = parse_problem(json.dumps(doc))
    reports.append(cli.run(spec, question, spec.tol or DEFAULT_TOL,
                           cli.DEFAULT_PREFIX_CAP, cli.DEFAULT_HEIGHT_BOUND))
print(json.dumps({"reports": reports,
                  "misses": [memo.cache_info().misses for memo in
                             (lrs.trace_system, lrs.recurrence,
                              decide.closure_torus)]}))
"""


def _run_batch(mode):
    env = dict(os.environ)
    env.pop("ROBUSTLRS_CONFIG", None)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(TESTS),
                                         env.get("PYTHONPATH", "")])
    p = subprocess.run([sys.executable, "-c", SCRIPT, mode],
                       input=json.dumps(_batch()), capture_output=True,
                       text=True, env=env, timeout=600)
    assert p.returncode == 0, p.stderr
    return json.loads(p.stdout)


def test_memo_changes_no_report_byte():
    """The same batch in two interpreters: one reads the memos, the other
    clears them before every problem.  A refinement order that the
    sharing changed would show up as other report bytes."""
    shared, fresh = _run_batch("memo"), _run_batch("clear")
    # each recurrence analysed once in the first interpreter
    assert shared["misses"] == [len(RECURRENCES)] * 3
    assert len(shared["reports"]) == len(_batch())
    for doc, (got, want) in zip(_batch(), zip(shared["reports"],
                                              fresh["reports"])):
        assert got == want, doc


def _plain(x):
    """A value-only copy of a record: exact numbers by their exact data,
    dataclasses field by field.  The fields' root boxes and the numbers'
    kept answers (minimal polynomial, root-of-unity index, unit test) are
    caches of exact facts, not record data."""
    if isinstance(x, AlgebraicNumber):
        return (("Q", x.as_rational()) if x.is_rational
                else ("K",) + _plain(x.elem))
    if isinstance(x, FieldElement):
        return _plain(x.field) + (x.coeffs,)
    if isinstance(x, NumberField):
        return (x.minpoly, x.root_index)
    if dataclasses.is_dataclass(x):
        return (type(x).__name__,) + tuple(
            (f.name, _plain(getattr(x, f.name)))
            for f in dataclasses.fields(x))
    if isinstance(x, (list, tuple)):
        return (type(x).__name__,) + tuple(_plain(v) for v in x)
    if isinstance(x, dict):
        return tuple(sorted((k, _plain(v)) for k, v in x.items()))
    assert isinstance(x, (Q, int, str, type(None))), type(x)
    return x


def _decide_all(lrr, starts, tol):
    for c in starts:
        a = Analysis.build(lrr, c)
        exists_robust_positivity(a, tol=tol)
        exists_robust_skolem(a, tol=tol)
        exists_robust_ultimate_positivity(a, tol=tol)
        robust_nonuniform_ultpos_open_ball(a, Ball(c, Q(1, 20)), tol=tol)


@pytest.mark.parametrize("coeffs,starts,tol", RECURRENCES,
                         ids=["fibonacci", "rho=2", "order6 p=3/5",
                              "pair beside -1"])
def test_questions_leave_the_shared_entries_unchanged(coeffs, starts, tol):
    """The trace system, the spectral data, the unit-start basis and the
    torus with its lattice are read by every problem of the recurrence,
    so no question may change them in place."""
    lrr = Lrr(tuple(Q(v) for v in coeffs))
    configs = [InitialConfig(tuple(Q(v) for v in s)) for s in starts]
    clear_analysis_memos()

    def entries():
        return (lrs.trace_system(lrr), lrs.recurrence(lrr),
                decide.closure_torus(lrr, DEFAULT_HEIGHT_BOUND))

    shared = entries()
    before = _plain(shared)
    assert len(shared[1].units) == lrr.order
    _decide_all(lrr, configs, Q(tol) if tol else decide.DEFAULT_TOL)
    assert all(a is b for a, b in zip(entries(), shared))
    assert _plain(shared) == before


def test_unit_modulus_found_once_per_object(monkeypatch):
    """`is_unit_modulus` keeps its answer: asked many times over the four
    questions, it runs the exact test once per number."""
    evaluated, asked = [], Counter()
    real_eval = AlgebraicNumber._unit_modulus
    real_ask = AlgebraicNumber.is_unit_modulus

    def evaluating(self):
        evaluated.append(self)      # keeps the object, so ids stay unique
        return real_eval(self)

    def asking(self):
        asked[id(self)] += 1
        return real_ask(self)

    monkeypatch.setattr(AlgebraicNumber, "_unit_modulus", evaluating)
    monkeypatch.setattr(AlgebraicNumber, "is_unit_modulus", asking)
    clear_analysis_memos()
    for coeffs, starts, tol in RECURRENCES[:3]:
        lrr = Lrr(tuple(Q(v) for v in coeffs))
        configs = [InitialConfig(tuple(Q(v) for v in s)) for s in starts]
        _decide_all(lrr, configs, Q(tol) if tol else decide.DEFAULT_TOL)
    counts = Counter(id(a) for a in evaluated)
    assert evaluated and max(counts.values()) == 1
    assert sum(asked.values()) > len(evaluated)

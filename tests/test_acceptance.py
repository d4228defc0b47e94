"""The thirteen end-to-end verification criteria, one test each.

Criterion 1 is expected to fail: its reference table carries a residue entry
for sigma = -7/4 (0.25505) that disagrees with the analytic value
(0.255504...) by 4.5e-4, beyond the stated 1e-4 tolerance.  A faithful
computation cannot match a misprinted constant, so the red result is pinned
here as strict xfail; everything else must be green.
"""

import io
import re

import pytest

import delta_lens.acceptance as acceptance
from delta_lens.acceptance import (VerificationContext, run_all,
                                   run_criterion)
from delta_lens.errors import DomainError


@pytest.fixture(scope="module")
def ctx():
    return VerificationContext()


def _run(number, ctx):
    result = run_criterion(number, ctx)
    assert result.number == number
    assert result.passed, f"criterion {number} ({result.slug}): {result.detail}"
    return result


@pytest.mark.xfail(strict=True,
                   reason="the sigma=-7/4 reference residue 0.25505 differs "
                          "from the analytic value 0.2555041 by 4.5e-4, over "
                          "the 1e-4 tolerance; the table entry is inconsistent "
                          "and a faithful computation cannot reproduce it")
def test_criterion_01_residues(ctx):
    _run(1, ctx)


def test_criterion_02_slopes(ctx):
    _run(2, ctx)


def test_criterion_03_functional_equation(ctx):
    _run(3, ctx)


def test_criterion_04_critical_phase(ctx):
    _run(4, ctx)


def test_criterion_05_singular_sequence(ctx):
    result = _run(5, ctx)
    assert "oracle" in result.detail


def test_criterion_06_termini(ctx):
    _run(6, ctx)


def test_criterion_07_box_balance(ctx):
    _run(7, ctx)


def test_criterion_08_census_identity(ctx):
    _run(8, ctx)


def test_criterion_09_zero_counts(ctx):
    _run(9, ctx)


def test_criterion_10_amplitude_circles(ctx):
    _run(10, ctx)


def test_criterion_11_bracket_anchors(ctx):
    _run(11, ctx)


def test_criterion_12_render_regression(ctx):
    result = _run(12, ctx)
    assert "row partitions 64/37" in result.detail


def test_criterion_13_special_values(ctx):
    _run(13, ctx)


def test_run_criterion_accepts_slug(ctx):
    result = run_criterion("special-values", ctx)
    assert result.number == 13 and result.passed


def test_run_criterion_rejects_unknown():
    with pytest.raises(DomainError):
        run_criterion("no-such-check")


def test_run_criterion_propagates_other_exceptions(monkeypatch):
    def broken(ctx):
        raise ZeroDivisionError("not a library error")

    monkeypatch.setattr(acceptance, "REGISTRY", ((13, "special-values", broken),))
    with pytest.raises(ZeroDivisionError):
        run_criterion(13)


def test_run_all_report_format(ctx):
    stream = io.StringIO()
    results = run_all(only="amplitude-circles", stream=stream, ctx=ctx)
    assert len(results) == 1
    lines = stream.getvalue().splitlines()
    assert re.match(r"^\[10/13\] amplitude-circles\s+PASS\s+\d+\.\ds  ", lines[0])
    assert lines[-1] == "1/1 criteria passed"

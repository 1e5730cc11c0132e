"""Tests for the self-check battery's results and report formatting."""

import numpy as np

from unravel import verify
from unravel.verify import (
    CheckResult,
    check_eigenvalue_identity,
    check_shift_invariance,
    check_stepper_equivalence,
    format_report,
)


class TestCheckResult:
    def test_line_format(self):
        result = CheckResult(
            name="demo", passed=True, value=1e-12, threshold=1e-8, detail="ok"
        )
        line = result.to_line()
        assert line.startswith("PASS demo:")
        assert "value=1.000e-12" in line and "threshold=1.000e-08" in line

    def test_report_counts_failures(self):
        good = CheckResult("a", True, 0.0, 1.0, "fine")
        bad = CheckResult("b", False, 2.0, 1.0, "off")
        report = format_report([good, bad, good])
        assert "1 of 3 checks failed: b" in report

    def test_report_all_pass(self):
        good = CheckResult("a", True, 0.0, 1.0, "fine")
        report = format_report([good, good])
        assert "all 2 checks passed" in report.splitlines()[-1]


class TestChecks:
    def test_eigenvalue_identity_passes(self):
        result = check_eigenvalue_identity(seed=5)
        assert result.passed
        assert result.value < result.threshold

    def test_shift_invariance_passes(self):
        # the kernel steps one presentation for a model and its shift
        result = check_shift_invariance(seed=5)
        assert result.passed
        assert result.value <= 1e-12

    def test_stepper_equivalence_fails_an_unconjugated_projector_step(self, monkeypatch):
        # negative control: a projector step fed dxi in place of dxi^* is
        # inconsistent, and its fitted strong orders fall to near 0
        step_sme = verify.step_sme
        monkeypatch.setattr(
            verify, "step_sme", lambda model, rho, dxi, dt: step_sme(model, rho, np.conj(dxi), dt)
        )
        result = check_stepper_equivalence(0)
        assert not result.passed
        assert result.value < result.threshold

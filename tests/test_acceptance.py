"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run `pytest tests/test_acceptance.py -v -s` to watch the lines appear, or
`grwsim check` for the same criteria outside pytest.  The statistical
tolerances and runtime budgets live in grwsim.acceptance.
"""

import pytest

from grwsim.acceptance import _CRITERIA, run_criteria


@pytest.mark.parametrize(
    "number,name",
    [(num, name) for num, name, _, _ in _CRITERIA],
    ids=[f"criterion_{num:02d}_{name.replace(' ', '_')}" for num, name, _, _ in _CRITERIA],
)
def test_acceptance_criterion(number, name):
    result = run_criteria(numbers=[number])[0]
    status = "PASS" if result.passed else "FAIL"
    print(
        f"ACCEPTANCE {result.number:2d} [{status}] {result.name}: {result.detail} "
        f"({result.elapsed:.1f}s, budget {result.budget:.0f}s)"
    )
    assert result.passed, f"criterion {number} ({name}): {result.detail}"

"""Shared pytest wiring: the acceptance report, and a solver starved into failing."""

import pytest

from barrons.domain import nudge_interior

ACCEPTANCE_LINES: list = []


@pytest.fixture
def starved_solver(monkeypatch):
    """One Newton iteration per solve, from the nudged starts that the learners' predicted starts fall back to.

    From its predicted starts ada solves most rounds of the blowup market at n=2 in one Newton iteration or
    none; from the nudged ones one iteration is too few, and a barrier stage of its second round raises
    ``SolverFailure``.
    """
    monkeypatch.setattr("barrons.solver.MAX_NEWTON_ITERS", 1)
    for module in ("barrons.core", "barrons.adaptive"):
        monkeypatch.setattr(f"{module}.predicted_start", lambda prediction, x, dims: nudge_interior(x, dims))


@pytest.fixture
def acceptance(request):
    """Record one pass/fail line for an acceptance test, then assert it.

    The lines are replayed in the terminal summary so they appear exactly
    once in captured runs as well.
    """

    def record(ok: bool, detail: str = ""):
        status = "PASS" if ok else "FAIL"
        line = f"[acceptance] {request.node.name}: {status}"
        if detail:
            line += f" ({detail})"
        ACCEPTANCE_LINES.append(line)
        print(line)
        assert ok, line

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)

"""The digest script's tamper cases: each one must make verify report a problem, and none may raise."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "trace_digests.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("trace_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tamper_is_reported_and_none_raises():
    script = _load_script()
    problems = script.tamper_problems()
    assert len(problems) == len(script.TAMPERS)
    raised = {name: found for name, found in problems.items() if isinstance(found, dict)}
    assert not raised, raised
    silent = [name for name, found in problems.items() if not found]
    assert not silent, silent

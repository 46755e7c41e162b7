"""The repository's pytest settings: a failing test never hides the others."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(n):
    assert False


def test_plain_passes():
    assert True
'''


def test_failing_property_test_does_not_abort_the_session(tmp_path):
    # Warnings are errors; one raised in hypothesis's report hook must not turn
    # a failed property test into an INTERNALERROR that skips every later test.
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout

"""The suite's own pytest settings: a failing test fails alone."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = '''from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
'''


def test_failing_hypothesis_test_does_not_end_the_session(tmp_path):
    # Hypothesis's failure report imports modules that raise a
    # DeprecationWarning; as an error it ended the session in INTERNALERROR
    # (exit 3) before the next test ran.
    (tmp_path / "test_probe.py").write_text(PROBE, encoding="utf-8")
    done = subprocess.run([sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
                           "-p", "no:cacheprovider", "--rootdir", str(tmp_path), "-q", "test_probe.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout, done.stdout

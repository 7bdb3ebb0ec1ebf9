"""Test-wide setup.

Thread pinning must happen before numpy first loads anywhere in the test
process: single-threaded BLAS is what makes training bit-reproducible, and
several tests assert exact digests.

Every acceptance line, and every value a test hands to `golden_record` (the
criterion-9 replica digest, the criterion-6 coord-CSV hashes), must equal
its line in golden/acceptance.txt: at the end of a session in which any of
them ran, a difference fails the session and is printed. A deliberate change
of a number updates that file.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")

from pathlib import Path  # noqa: E402

import pytest  # noqa: E402

GOLDEN = Path(__file__).with_name("golden") / "acceptance.txt"

_ACCEPTANCE_LINES: list[str] = []
_GOLDEN_SEEN: dict[str, str] = {}
_GOLDEN_MISMATCHES: list[str] = []


@pytest.fixture
def acceptance_record():
    """Collect one `criterion: PASS/FAIL - detail` line for the final summary."""

    def record(criterion: str, passed: bool, detail: str) -> None:
        line = f"{criterion}: {'PASS' if passed else 'FAIL'} - {detail}"
        _ACCEPTANCE_LINES.append(line)
        _GOLDEN_SEEN[criterion] = line
        print(line)

    return record


@pytest.fixture
def golden_record():
    """Record one named value, such as a digest, for the golden-file check."""

    def record(name: str, value: str) -> None:
        _GOLDEN_SEEN[name] = f"{name}: {value}"

    return record


def pytest_sessionfinish(session, exitstatus):
    """Fail the session when a criterion or value that ran printed something
    other than its line in the golden file, the line that starts with its
    name and ': ' (lines starting with '#' are comments)."""
    if not _GOLDEN_SEEN:
        return
    golden = [line for line in GOLDEN.read_text(encoding="utf-8").splitlines()
              if not line.startswith("#")]
    for name, line in _GOLDEN_SEEN.items():
        want = next((g for g in golden if g.startswith(f"{name}: ")), None)
        if line != want:
            _GOLDEN_MISMATCHES.append(f"ran:    {line}\ngolden: {want or '(no line of that name)'}")
    if _GOLDEN_MISMATCHES and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
    if _GOLDEN_MISMATCHES:
        terminalreporter.section(f"differs from {GOLDEN.parent.name}/{GOLDEN.name}", red=True)
        for mismatch in _GOLDEN_MISMATCHES:
            terminalreporter.write_line(mismatch)

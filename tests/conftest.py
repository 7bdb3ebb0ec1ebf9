"""Test-wide setup.

Thread pinning must happen before numpy first loads anywhere in the test
process: single-threaded BLAS is what makes training bit-reproducible, and
several tests assert exact digests.

Every acceptance line, and every value a test hands to `golden_record` (the
criterion-9 replica digest, the criterion-6 coord-CSV hashes), must equal
its line in golden/acceptance.txt: at the end of a session in which any of
them ran, a difference fails the session and is printed, with the BLAS
kernel this session ran under: the golden numbers hold for the one named in
the file. A deliberate change of a number updates that file.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")

from pathlib import Path  # noqa: E402

import pytest  # noqa: E402

GOLDEN = Path(__file__).with_name("golden") / "acceptance.txt"
RECORDED_UNDER = "# recorded under OpenBLAS core "

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


def _blas_core() -> str:
    """The kernel NumPy's bundled OpenBLAS picked for this CPU, such as
    'SkylakeX', or 'unknown' where that library or its symbol is missing."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(lib).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
    if _GOLDEN_MISMATCHES:
        terminalreporter.section(f"differs from {GOLDEN.parent.name}/{GOLDEN.name}", red=True)
        recorded = next((line[len(RECORDED_UNDER):] for line in
                         GOLDEN.read_text(encoding="utf-8").splitlines()
                         if line.startswith(RECORDED_UNDER)), "unknown")
        terminalreporter.write_line(f"OpenBLAS core: running {_blas_core()}, "
                                    f"golden recorded under {recorded}")
        for mismatch in _GOLDEN_MISMATCHES:
            terminalreporter.write_line(mismatch)

import numpy as np
import pytest

_acceptance = []


def pytest_runtest_logreport(report):
    if report.when == "call" and "::test_criterion_" in report.nodeid:
        _acceptance.append((report.nodeid.split("::")[-1], report.outcome))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance:
        return
    terminalreporter.section("acceptance criteria")
    for name, outcome in sorted(_acceptance):
        verdict = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"{verdict}  {name}")


@pytest.fixture
def svd_calls(monkeypatch):
    """Counter of numpy.linalg.svd calls made while the test runs."""
    calls = [0]
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls[0] += 1
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls

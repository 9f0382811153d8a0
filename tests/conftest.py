import os
import sys


def pytest_configure(config):
    # the tests import ldimkit through pythonpath = ["src"]; the solver
    # subprocesses some of them start (python -m ldimkit.satshim) need the
    # same path in their environment
    src = str(config.rootpath / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("tests.test_acceptance") or sys.modules.get(
        "test_acceptance")
    lines = getattr(mod, "ACCEPTANCE_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)

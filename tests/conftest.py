import sys
from pathlib import Path

# make tests/oracles.py importable regardless of invocation directory
sys.path.insert(0, str(Path(__file__).parent))

from oracles import versions  # noqa: E402


def pytest_report_header(config):
    return versions()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # -q hides the header, so a run that failed repeats it under its failures
    if config.get_verbosity() < 0 and (terminalreporter.stats.get("failed")
                                       or terminalreporter.stats.get("error")):
        terminalreporter.write_line(versions())

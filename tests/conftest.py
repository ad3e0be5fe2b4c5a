import platform
import sys
from pathlib import Path

import numpy as np

# make tests/oracles.py importable regardless of invocation directory
sys.path.insert(0, str(Path(__file__).parent))


def _versions() -> str:
    """Python, numpy and the BLAS numpy was built against, as numpy's own
    build record names it (no threadpoolctl)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        blas = "unknown"
    return f"python {platform.python_version()}, numpy {np.__version__}, blas {blas}"


def pytest_report_header(config):
    return _versions()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # -q hides the header, so a run that failed repeats it under its failures
    if config.get_verbosity() < 0 and (terminalreporter.stats.get("failed")
                                       or terminalreporter.stats.get("error")):
        terminalreporter.write_line(_versions())

"""Put src/ on PYTHONPATH so the CLI and demo subprocesses import risuav uninstalled.

pyproject.toml's ``pythonpath`` covers the pytest process itself; child
processes see only the environment.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
_paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
if _SRC not in _paths:
    os.environ["PYTHONPATH"] = os.pathsep.join([_SRC] + _paths)

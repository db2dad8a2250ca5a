"""Make ``bench_e2e`` and the checkout's ``repro`` importable under
``python -m pytest bench_e2e`` without touching ``pyproject.toml``."""

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for _path in (_ROOT / "src", _ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

"""Import smsp from the checkout's own ``src/``, never from an installed copy."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_src() -> None:
    if not (SRC / "smsp" / "__init__.py").is_file():
        raise SystemExit(f"smsp sources not found under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))

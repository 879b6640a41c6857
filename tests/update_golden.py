"""Rewrite ``tests/golden.json`` from the outputs of this source tree.

    PYTHONPATH=src python tests/update_golden.py

Run it only after a change that alters an output on purpose, and say
which digests changed and why.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from test_golden import GOLDEN, build_outputs, versions  # noqa: E402


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        digests = build_outputs(Path(workdir))
    old = json.loads(GOLDEN.read_text(encoding="utf-8"))["digests"] if GOLDEN.exists() else {}
    GOLDEN.write_text(
        json.dumps({"versions": versions(), "digests": digests}, indent=2) + "\n",
        encoding="utf-8",
    )
    changed = sorted(name for name in digests if old.get(name) != digests[name])
    gone = sorted(set(old) - set(digests))
    print(f"{len(digests)} digests written; changed: {changed or 'none'}; removed: {gone or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

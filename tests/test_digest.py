"""The command-line outputs against the checked-in digest of ``tools/output_digest.py``.

``tests/data/output_digest_seed1.txt`` holds the lines that ``python
tools/output_digest.py --seed 1`` prints. A change that alters an output
updates that file in the same commit and names each changed line and its
cause; a new sweep appends lines, and the existing ones stay byte-identical.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_output_digest_matches_the_checked_in_lines():
    expected = (ROOT / "tests" / "data" / "output_digest_seed1.txt").read_bytes()
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "output_digest.py"), "--seed", "1"],
        capture_output=True, cwd=ROOT, check=False,
    )
    assert run.returncode == 0 and not run.stderr, run.stderr.decode(errors="replace")
    assert run.stdout.decode().splitlines() == expected.decode().splitlines()
    assert run.stdout == expected

"""Every output section of scripts/differential.py against tests/differential.sha256.

The listing holds one sha256 per section and, on its first line, the Python
and numpy versions it was taken under.  A change that alters an output on
purpose regenerates the listing (see the README's Tests section).
"""

import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
LISTING = Path(__file__).with_name("differential.sha256")


def _sections(lines):
    return dict(reversed(line.split("  ", 1)) for line in lines)


def test_digests_match_the_committed_listing():
    taken, *want = LISTING.read_text().splitlines()
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "differential.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stderr
    got = run.stdout.splitlines()
    if got == want:
        return
    mine, theirs = _sections(got), _sections(want)
    changed = sorted(n for n in mine.keys() | theirs.keys() if mine.get(n) != theirs.get(n))
    message = f"sections {', '.join(changed)} differ from {LISTING.name}"
    now = f"# python {platform.python_version()} numpy {np.__version__}"
    if now != taken:
        message += f"; the listing was taken under {taken[2:]}, this run under {now[2:]}"
    raise AssertionError(message)

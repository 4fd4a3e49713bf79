"""The repository's tools, run as a user runs them.

The benchmark's tracer wraps the engine's public functions by name, so a
change to src/ that renames or bypasses one of them fails its self-check.
The s4 corpus script reads and prints every entry of the corpus file.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selfcheck_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selfcheck.py")],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.rstrip().endswith("selfcheck: ok")


def test_the_s4_corpus_script_regenerates_the_corpus_file(tmp_path):
    # the script parses and prints every entry, so the reader and the
    # printer must agree for the file to come out byte for byte
    out = tmp_path / "s4_nonflat.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "make_s4_corpus.py"), "--out", str(out)],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert out.read_bytes() == (ROOT / "src" / "curvedchern" / "corpus" / "s4_nonflat.json").read_bytes()

"""Byte identity of the reports: every `scripts/*_argv.json` file and the
seed-11 benchmark decks, hashed as `scripts/compare_outputs.py` hashes them
(exit code, stdout and the stderr lines that begin ``ntbounds``), against the
sha256 values pinned in `output_hashes.json`.

Each file runs in a fresh process from the repo root: the search argv files
name `scripts/curve_f1.json` by a relative path, and the preset Gammas keep
their walks from request to request within a process.  The argparse usage
lines are hashed too, so the pins hold for the Python minor version recorded
beside them.  A change that alters report bytes on purpose updates the pin
and lists the argvs whose output changed.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
PINS = json.loads((Path(__file__).resolve().parent / "output_hashes.json").read_text())
ARGV_FILES = sorted(path.name for path in (REPO / "scripts").glob("*_argv.json"))


def _digest(*source: str) -> tuple[int, str]:
    """(request count, sha256) from `compare_outputs.py` run on this tree."""
    result = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "compare_outputs.py"), *source, ".", "--worker"],
        cwd=REPO, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    count, hexdigest = result.stdout.split()
    return int(count), hexdigest


def _check(name: str, got, pinned) -> None:
    version = f"{sys.version_info.major}.{sys.version_info.minor}"
    assert got == tuple(pinned), (
        f"{name}: (requests, sha256) {got} != pinned {tuple(pinned)}; the pins were "
        f"made with Python {PINS['python']}, this is Python {version}")


def test_every_argv_file_is_pinned():
    assert ARGV_FILES == sorted(PINS["argv_files"])


@pytest.mark.parametrize("name", ARGV_FILES)
def test_argv_file_bytes_are_pinned(name):
    _check(name, _digest("--argv-file", f"scripts/{name}"), PINS["argv_files"][name])


@pytest.mark.parametrize("workload", sorted(PINS["decks"]))
def test_deck_bytes_are_pinned(workload):
    seed, decks, *pinned = PINS["decks"][workload]
    _check(f"{workload} seed {seed}, {decks} decks",
           _digest(workload, "--decks", str(decks), "--seed", str(seed)), pinned)

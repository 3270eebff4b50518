"""Extract files of a git revision of this repository, with only the standard library and git."""

from __future__ import annotations

import io
import subprocess
import zipfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def git(*args) -> bytes:
    """The output of a git command run in this repository; ValueError when it fails."""
    result = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True)
    if result.returncode:
        raise ValueError(f"git {args[0]} failed: {result.stderr.decode().strip()}")
    return result.stdout


def extract(ref: str, directory: Path, paths) -> str:
    """Extract REF's paths into directory; return REF's commit hash."""
    commit = git("rev-parse", "--verify", f"{ref}^{{commit}}").decode().strip()
    with zipfile.ZipFile(io.BytesIO(git("archive", "--format=zip", commit, *paths))) as archive:
        archive.extractall(directory)
    return commit

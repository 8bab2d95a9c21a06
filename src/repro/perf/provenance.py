"""Provenance stamp for the committed bench artifacts."""

from __future__ import annotations

import subprocess
from pathlib import Path


def git_rev(repo_root: Path | str) -> str:
    """The short HEAD rev of ``repo_root``, suffixed ``-dirty`` when
    ``git status --porcelain`` lists any change (an artifact generated
    from uncommitted code must not claim a committed rev), or
    ``"unknown"`` outside a git checkout."""

    def git(*args: str) -> str | None:
        out = subprocess.run(
            ["git", *args], cwd=repo_root, capture_output=True, text=True, timeout=10
        )
        return out.stdout.strip() if out.returncode == 0 else None

    try:
        rev = git("rev-parse", "--short", "HEAD")
        status = git("status", "--porcelain")
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if not rev or status is None:
        return "unknown"
    return f"{rev}-dirty" if status else rev

"""The bench artifacts' provenance stamp: a committed rev, or -dirty."""

import shutil
import subprocess

import pytest

from repro.perf.provenance import git_rev

pytestmark = pytest.mark.skipif(shutil.which("git") is None, reason="needs git")


def git(repo, *args):
    return subprocess.run(
        ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com",
         *args],
        cwd=repo, check=True, capture_output=True, text=True,
    ).stdout.strip()


@pytest.fixture
def repo(tmp_path):
    git(tmp_path, "init", "-q")
    (tmp_path / "model.txt").write_text("v1\n")
    git(tmp_path, "add", "model.txt")
    git(tmp_path, "commit", "-q", "-m", "one")
    return tmp_path


def test_clean_tree_stamps_the_short_head_rev(repo):
    assert git_rev(repo) == git(repo, "rev-parse", "--short", "HEAD")


def test_uncommitted_change_stamps_dirty(repo):
    (repo / "model.txt").write_text("v2\n")
    assert git_rev(repo) == git(repo, "rev-parse", "--short", "HEAD") + "-dirty"


def test_outside_a_checkout_is_unknown(tmp_path):
    assert git_rev(tmp_path) == "unknown"

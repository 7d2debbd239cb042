"""A benchmark run leaves the repository tree byte-for-byte unchanged."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from perfbench import run

#: Directories a run may write (its own output, byte-code caches).
SKIP = {".perfbench", "__pycache__", ".git", ".pytest_cache"}


def snapshot(root: Path):
    files = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in SKIP]
        for name in filenames:
            path = Path(dirpath) / name
            files[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return files


def test_run_leaves_tree_unchanged():
    before = snapshot(run.ROOT)
    tmp_dir = run.OUT / "tmp"
    tmp_before = set(tmp_dir.iterdir()) if tmp_dir.is_dir() else set()
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "serve-mixed",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=str(run.ROOT), capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True
    after = snapshot(run.ROOT)
    assert after == before
    assert set(tmp_dir.iterdir()) == tmp_before


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-mixed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

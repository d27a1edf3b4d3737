"""Repository hygiene: nothing that .gitignore excludes is tracked, and no
private name is imported from one package module into another."""

import ast
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_no_ignored_files_are_tracked():
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        pytest.skip("not a git checkout")
    listed = subprocess.run(
        ["git", "ls-files", "-ci", "--exclude-standard"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert listed == ""


def test_no_private_names_imported_across_modules():
    crossing = []
    for path in sorted((ROOT / "src" / "hilbworst").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                crossing += [
                    f"{path.name}:{node.lineno} {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert crossing == []

"""Every script under scripts/ loads against the current package.

A script imports names from tornzeta at the top, so a renamed or deleted
name fails here rather than at the next person who runs the script.
"""

import runpy
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


def test_scripts_found():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_loads_without_running(path):
    namespace = runpy.run_path(str(path), run_name="not_main")
    assert callable(namespace["main"])

"""Each public name has one import path: the module that defines it."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _fresh(statement: str) -> list[str]:
    """Words printed by ``statement`` run in a fresh interpreter on src/."""
    done = subprocess.run([sys.executable, "-c", f"import sys\n{statement}"],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, check=True)
    return done.stdout.split()


def _loaded_after(module: str) -> set[str]:
    return set(_fresh(f"import {module}\n"
                      "print(*(n for n in sys.modules if n.split('.')[0] == 'biosketch'))"))


def test_package_binds_no_public_name():
    assert _fresh("import biosketch\n"
                  "print(*(n for n in vars(biosketch) if not n.startswith('_')))") == []


def test_importing_the_codec_loads_only_what_it_needs():
    assert _loaded_after("biosketch.rs") == {
        "biosketch", "biosketch.errors", "biosketch.gf", "biosketch.rs"}


def test_importing_sketch_loads_no_pipeline_or_cli_module():
    loaded = _loaded_after("biosketch.sketch")
    for name in ("evaluate", "pipeline", "fusion", "synth", "store", "cli"):
        assert f"biosketch.{name}" not in loaded


def test_importing_the_cli_loads_what_auth_uses_and_not_evaluate():
    assert _loaded_after("biosketch.cli") == {f"biosketch{name}" for name in (
        "", ".cli", ".errors", ".fusion", ".gf", ".pipeline", ".quantizer", ".rs",
        ".sketch", ".store", ".synth")}


README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_name_on_the_readme_module_line_exists():
    line = next(ln for ln in README.read_text().splitlines() if ln.startswith("Modules: "))
    listed = re.findall(r"`(\w+)` \(([^)]*)\)", line)
    assert len(listed) == 9
    for module, names in listed:
        loaded = importlib.import_module(f"biosketch.{module}")
        for name in re.findall(r"`(\w+)`", names):
            assert hasattr(loaded, name), f"biosketch.{module}.{name}"

"""Package metadata agrees with the code: the version has one source."""

from pathlib import Path

import pytest

import repro

try:
    import tomllib
except ImportError:  # Python 3.10
    tomllib = pytest.importorskip("tomli")

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_version_is_single_sourced_from_the_package():
    config = tomllib.loads(PYPROJECT.read_text())
    project = config["project"]
    assert "version" not in project, "pyproject.toml must not pin its own version"
    assert "version" in project["dynamic"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "repro.__version__"}


def test_package_version_is_a_release_number():
    parts = repro.__version__.split(".")
    assert len(parts) == 3 and all(part.isdigit() for part in parts)

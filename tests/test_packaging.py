"""Packaging metadata: one version string, numpy a runtime dependency."""

import tomllib
from pathlib import Path

PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"


def load_pyproject() -> dict:
    return tomllib.loads(PYPROJECT.read_text())


def test_version_comes_from_the_package():
    pyproject = load_pyproject()
    assert "version" not in pyproject["project"]
    assert "version" in pyproject["project"]["dynamic"]
    assert pyproject["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "repro.__version__"
    }


def test_numpy_is_a_runtime_dependency():
    project = load_pyproject()["project"]
    assert "numpy" in project["dependencies"]
    assert "numpy" not in project["optional-dependencies"]["test"]

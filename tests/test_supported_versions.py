"""pyproject.toml, the CI jobs and README name the same lowest supported
Python, and the interpreter running the tests meets it; pyproject.toml, the
`checks` job's pinned install and README name the same numpy floor, and the
numpy running the tests meets it."""

import platform
import re
import tomllib
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def _version(text: str) -> tuple[int, ...]:
    return tuple(map(int, text.split(".")))


def _job_lines(workflow: str) -> dict[str, list[str]]:
    """The lines of each job of a workflow file."""
    lines = workflow.splitlines()
    jobs: dict[str, list[str]] = {}
    job = None
    for line in lines[lines.index("jobs:") + 1:]:
        header = re.fullmatch(r"  ([\w-]+):", line)
        if header:
            job = jobs.setdefault(header[1], [])
        elif job is not None:
            job.append(line)
    return jobs


def _job_versions(workflow: str) -> dict[str, list[str]]:
    """The quoted python-version values of each job of a workflow file, a
    matrix list included."""
    return {job: [version for line in lines if "python-version:" in line
                  for version in re.findall(r'"(\d+\.\d+)"', line)]
            for job, lines in _job_lines(workflow).items()}


def test_pyproject_ci_and_readme_name_the_same_floor():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    floor = re.fullmatch(r">=(\d+\.\d+)", project["requires-python"])[1]
    jobs = _job_versions((ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8"))
    for name in ("tier1", "checks"):
        assert jobs[name], f"{name} names no python-version"
        assert min(jobs[name], key=_version) == floor, name
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    install = readme.split("\n## Install and test\n", 1)[1].split("\n## ", 1)[0]
    assert f"Python {floor} or later" in install
    running = tuple(map(int, platform.python_version_tuple()[:2]))
    assert running >= _version(floor)


def test_pyproject_ci_and_readme_name_the_same_numpy_floor():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    floors = [re.fullmatch(r"numpy>=([\d.]+)", dep) for dep in project["dependencies"]]
    (floor,) = [match[1] for match in floors if match]
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    pins = [pin for line in _job_lines(workflow)["checks"] if "pip install" in line
            for pin in re.findall(r"numpy==([\d.]+)", line)]
    assert pins == [floor]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    install = readme.split("\n## Install and test\n", 1)[1].split("\n## ", 1)[0]
    assert f"numpy {floor} or later" in " ".join(install.split())
    assert np.lib.NumpyVersion(np.__version__) >= floor

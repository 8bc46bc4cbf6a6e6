"""The demo scenarios give the same results under every supported Python.

pyproject.toml claims Python 3.10 and later. Each other python3.1x
interpreter found on PATH runs every demo scenario through the command
line, against the source tree and with the standard library only, and
must return the exit codes, print the output and write the bytes that
the running interpreter does. The test is skipped when no other
interpreter is found.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = sorted((ROOT / "demos" / "scenarios").glob("*.json"))


def other_interpreters():
    """For each minor version 3.10-3.19 other than the running one, the
    first python3.<minor> on PATH that starts and reports that version;
    a launcher that fails to start one, such as an unselected version
    manager shim, is passed over."""
    found = []
    for minor in range(10, 20):
        if minor == sys.version_info.minor:
            continue
        for directory in os.get_exec_path():
            path = os.path.join(directory, f"python3.{minor}")
            if not (os.path.isfile(path) and os.access(path, os.X_OK)):
                continue
            probe = subprocess.run(
                [path, "-c", "import sys; print(sys.version_info[:2])"],
                capture_output=True, text=True, timeout=60,
            )
            if probe.returncode == 0 and \
                    probe.stdout.strip() == f"(3, {minor})":
                found.append(path)
                break
    return found


def demo_outputs(python, workdir):
    """Run and check every demo scenario under python in workdir. Returns
    each command's exit code and stdout, and the bytes of every file the
    commands wrote."""
    workdir.mkdir()
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    results = []
    for scenario in SCENARIOS:
        name = scenario.stem
        for command in (
            ["run", "--trace", f"{name}.csv", "--metrics", f"{name}.json"],
            ["check", "--witness", f"{name}.witness.csv"],
        ):
            proc = subprocess.run(
                [python, "-m", "envelopesim.cli", *command,
                 "--scenario", str(scenario)],
                capture_output=True, cwd=workdir, env=env, timeout=120,
            )
            results.append((name, command[0], proc.returncode, proc.stdout))
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    return results, files


def test_demos_agree_across_interpreters(tmp_path):
    others = other_interpreters()
    if not others:
        pytest.skip("no other python3.1x interpreter on PATH")
    want = demo_outputs(sys.executable, tmp_path / "running")
    # every command ran, and the runs wrote their traces and metrics
    assert len(want[0]) == 2 * len(SCENARIOS)
    assert len(want[1]) >= 2 * len(SCENARIOS)
    for i, python in enumerate(others):
        assert demo_outputs(python, tmp_path / str(i)) == want, python

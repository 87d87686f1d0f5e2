"""scripts/make_golden_fixtures.py, run on a copy of the checkout, writes the
packaged golden fixtures byte for byte as committed."""
import os
import shutil
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")
GOLDEN = os.path.join("src", "coachplan", "data", "golden")


def files_under(top):
    """{path relative to top: bytes} for every file below top."""
    found = {}
    for dirpath, _, names in os.walk(top):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, top)] = fh.read()
    return found


def test_script_reproduces_the_committed_fixtures(tmp_path):
    skip = shutil.ignore_patterns("__pycache__")
    for tree in ("scripts", "src"):
        shutil.copytree(os.path.join(ROOT, tree), tmp_path / tree, ignore=skip)
    # The copy's own src must be the package the script and its CLI runs import.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    subprocess.run([sys.executable, os.path.join("scripts", "make_golden_fixtures.py")],
                   cwd=tmp_path, env=env, check=True, capture_output=True)
    written = files_under(tmp_path / GOLDEN)
    committed = files_under(os.path.join(ROOT, GOLDEN))
    assert sorted(written) == sorted(committed)
    for name, data in committed.items():
        assert written[name] == data, name

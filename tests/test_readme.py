"""The README's documented API runs as written."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

from rlnd.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def test_the_readme_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README, re.DOTALL)
    assert len(blocks) == 1
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", blocks[0]], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_the_readme_spec_file_examples_run(tmp_path, capsys):
    """Each JSON example is a spec file: an uncertainty spec when it has
    ``rows``, else a scenario spec; each runs on the bundled network."""
    blocks = re.findall(r"```json\n(.*?)```", README, re.DOTALL)
    assert len(blocks) == 2
    for k, block in enumerate(blocks):
        path = tmp_path / f"spec{k}.json"
        path.write_text(block, encoding="utf-8")
        command = ["robust", "--uncertainty"] if "rows" in json.loads(block) \
            else ["scenario", "--spec"]
        assert main([*command, str(path)]) == 0, capsys.readouterr().err

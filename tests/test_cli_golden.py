"""Golden CLI outputs: every shipped config under every run of the CI
cli-smoke job, compared exactly with the files in tests/golden/.

The one part left out is the `strategy` block of `optimize` and
`discriminate`: restarts that tie to rounding may swap which one is printed,
so only that block may move when the arithmetic is reordered. Every printed
number, flag and verdict, the exit code and stderr must stay as they are.

The files are rewritten only by running this module as a script:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from netbell import cli

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.json"))
GOLDEN = Path(__file__).resolve().parent / "golden"
RUNS = [
    "analyze", "build", "eval", "bounds", "oracle", "optimize", "discriminate",
    "visibility", "visibility --format csv",
    "oracle --mode random --budget 20000 --seed 7",
]


def _parse(text: str):
    """A JSON document as its object, anything else as its lines."""
    try:
        return json.loads(text)
    except ValueError:
        return text.splitlines()


def run(config: Path, command: str) -> dict:
    """Exit code, stdout and stderr of one in-process CLI run, with the
    `strategy` block dropped from a JSON report."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*command.split(), str(config)])
    stdout = _parse(out.getvalue())
    if isinstance(stdout, dict):
        stdout.pop("strategy", None)
    return {"exit": code, "stdout": stdout, "stderr": _parse(err.getvalue())}


@pytest.mark.parametrize("config", CONFIGS, ids=[c.stem for c in CONFIGS])
def test_cli_golden(config):
    expected = json.loads((GOLDEN / config.name).read_text())
    assert sorted(expected) == sorted(RUNS)
    for command in RUNS:
        # Dumped text, so 1 and 1.0 differ as they do on stdout.
        got = json.dumps(run(config, command), indent=1)
        assert got == json.dumps(expected[command], indent=1), command


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for config in CONFIGS:
        runs = {command: run(config, command) for command in RUNS}
        (GOLDEN / config.name).write_text(json.dumps(runs, indent=1) + "\n")
        print(f"wrote tests/golden/{config.name}", file=sys.stderr)

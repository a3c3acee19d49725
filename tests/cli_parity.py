"""CLI parity against another checkout of this repository.

Every run of `test_cli_golden.RUNS`, plus two seeded searches, on every
shipped config, each run a fresh process, once with this checkout's code
and once with OTHER_CHECKOUT's. Both read this checkout's configs. A run
differs when its exit code, stderr or stdout does, the `strategy` blocks of
`optimize` and `discriminate` included. Prints every run that differs and
the count, and exits 1 if any does:

    python tests/cli_parity.py OTHER_CHECKOUT

A base commit to compare with can be checked out beside this one with
`git worktree add --detach ../base <commit>`.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
from test_cli_golden import CONFIGS, RUNS  # noqa: E402

SEARCHES = ["optimize --restarts 64 --seed 3", "discriminate --restarts 32 --seed 2"]


def run(checkout: Path, command: str, config: Path) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one CLI run on checkout's code."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), "OMP_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "netbell.cli", *command.split(), str(config)],
        capture_output=True, text=True, env=env, cwd=checkout,
    )
    return proc.returncode, proc.stdout, proc.stderr


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    other = Path(argv[0]).resolve()
    runs = [(config, command) for config in CONFIGS for command in [*RUNS, *SEARCHES]]
    differ = []
    for config, command in runs:
        here, there = run(ROOT, command, config), run(other, command, config)
        moved = [part for part, a, b in zip(("exit", "stdout", "stderr"), here, there) if a != b]
        if moved:
            differ.append(f"{config.stem}: {command} ({', '.join(moved)})")
    print("\n".join(differ + [f"{len(differ)} of {len(runs)} runs differ"]))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

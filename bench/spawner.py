"""Start `python -m ydow.cli` processes from a small interpreter, so that
their peak memory can be measured.

On Linux the peak RSS that wait4 reports for a child includes the memory
high-water mark of the process that started it, because exec carries it
over.  The harness holds ydow and its own samples, so it does not start CLI
processes itself.  A `Spawner` runs this file with `python -S` as a helper
that reads one JSON argument list per line, runs the CLI process to its end,
and answers with one JSON line: exit code, stdout, stderr and peak RSS in
KiB.  The helper exits when its input closes.
"""

import json
import os
import subprocess
import sys


def run_cli(argv: list) -> list:
    proc = subprocess.Popen([sys.executable, "-m", "ydow.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        # The CLI writes at most one line to stderr, so reading stdout to its
        # end first cannot leave the child blocked on a full stderr pipe.
        out = proc.stdout.read()
        err = proc.stderr.read()
    finally:
        proc.stdout.close()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return [proc.returncode, out.decode(), err.decode(), usage.ru_maxrss]


class Spawner:
    """Context manager; call it with CLI arguments to run one CLI process."""

    def __init__(self, env: dict):
        self._proc = subprocess.Popen(
            [sys.executable, "-S", __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env
        )

    def __call__(self, argv: list) -> tuple[int, str, str, int]:
        self._proc.stdin.write(json.dumps(argv) + "\n")
        self._proc.stdin.flush()
        return tuple(json.loads(self._proc.stdout.readline()))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        self._proc.wait(timeout=120)
        self._proc.stdout.close()


if __name__ == "__main__":
    for line in sys.stdin:
        print(json.dumps(run_cli(json.loads(line))), flush=True)

"""Run the movcone CLI in this process and capture what it printed.

`invoke("h0", path, "1,1")` calls `movcone.cli.main` with stdout and stderr
redirected, turns `SystemExit` into the exit code and returns a `Result`.
Any other exception propagates, so a traceback fails the calling test.
"""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

from movcone.cli import main


@dataclass
class Result:
    exit_code: int
    stdout: str
    stderr: str
    exception: SystemExit | None  # the SystemExit of a nonzero exit

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


def invoke(*args: str) -> Result:
    out, err = io.StringIO(), io.StringIO()
    exception = None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            main(list(args))
            code = 0
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
            exception = exc if code else None
    return Result(code, out.getvalue(), err.getvalue(), exception)

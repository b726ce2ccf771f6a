#!/usr/bin/env python3
"""Report the lines of src/berrypick/ that a pytest run never executes.

Runs pytest in this process, with its report on stderr, under a
sys.settrace tracer that follows only the frames of files in
src/berrypick/. A file's executable lines are the line numbers that its code
objects, nested ones included, list in co_lines(). Prints one sorted-key
JSON document on stdout:

  files     each file's executable line count and its unrun lines;
  unlisted  "file:line" for each unrun line that ALLOWED does not name;
  pytest    pytest's exit code.

Usage:
    python3 scripts/line_reach.py [pytest args]
    python3 scripts/line_reach.py -q -p no:cacheprovider tests/test_chamfer.py

Run it from the repository root, as the tests are. berrypick is imported
from this checkout's src/, and it must not be imported before the tracer
starts, or its module-level lines would read as unrun. Lines that run only
in a child process, such as a test that starts the CLI as its own process,
are not seen.

Exit status: pytest's own when the tests fail, else 1 when a line outside
ALLOWED went unrun, else 0. Tracing makes a run about 1.3 times slower.
"""

from __future__ import annotations

import contextlib
import json
import sys
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "berrypick"

# Lines no tier-1 test can run in-process, each with the reason.
ALLOWED = {
    "cli.py:251": "sys.exit(main()) runs only under `python -m berrypick.cli`",
}


def executable_lines(path: Path) -> set[int]:
    """Every line number that a code object compiled from path lists."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv: list[str]) -> int:
    import pytest

    prefix = str(PACKAGE) + "/"
    seen: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            seen[frame.f_code.co_filename].add(frame.f_lineno)
            return local
        return None

    sys.path.insert(0, str(SRC))
    sys.settrace(tracer)
    try:
        with contextlib.redirect_stdout(sys.stderr):  # stdout holds only the JSON
            status = int(pytest.main(argv))
    finally:
        sys.settrace(None)

    files, unlisted = {}, []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        unrun = sorted(lines - seen[str(path)])
        files[path.name] = {"executable": len(lines), "unrun": unrun}
        unlisted += [f"{path.name}:{n}" for n in unrun if f"{path.name}:{n}" not in ALLOWED]
    print(json.dumps({"files": files, "unlisted": unlisted, "pytest": status},
                     indent=2, sort_keys=True))
    if status:
        return status
    return 1 if unlisted else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

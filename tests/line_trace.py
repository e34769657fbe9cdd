"""Print every executable line of ``src/oilab`` that no tier-1 test runs.

Run from anywhere, with any extra pytest options (such as ``-x``) after
the script:

    python tests/line_trace.py [pytest options]

The script runs the tier-1 suite in this process under ``sys.settrace``
(the suite's subprocesses are not traced), records each line executed in a
file under ``src/oilab``, and prints ``path:line: source`` for every line
that can start a statement and never ran.  pytest does not collect this
file: its name does not start with ``test_``.

A test can fail under the tracer (its own allocations count against a
memory bound such as ``TestMemoryBounds::test_kept_polarized_instances``);
the script then reports the failures, prints the lines anyway, and exits
with pytest's exit code.
"""

import dis
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "oilab"


def executable_lines(path: Path) -> set[int]:
    """The lines that start a statement in any code object of the file."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        stack.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def trace_suite(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest under the tracer; its exit code and the lines run, by file."""
    reached: dict[str, set[int]] = {str(path): set() for path in PACKAGE.glob("*.py")}

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename in reached else None  # lines of the package only

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(calls)
    sys.settrace(calls)
    try:
        code = pytest.main([str(ROOT / "tests"), "-q", "-p", "no:cacheprovider", *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), reached


def main() -> int:
    code, reached = trace_suite(sys.argv[1:])
    if code:
        print(f"\npytest exited with {code} under the tracer; the lines below are still "
              "the ones no test reached")
    missed = 0
    for filename in sorted(reached):
        path = Path(filename)
        source = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - reached[filename]):
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
            missed += 1
    print(f"{missed} executable lines not reached")
    return code


if __name__ == "__main__":
    sys.exit(main())

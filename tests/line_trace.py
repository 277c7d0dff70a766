"""List the statements of ``src/conemetric`` that no tier-1 test executes.

    python tests/line_trace.py [PYTEST_ARGS...]

Runs pytest in-process on this directory (or on PYTEST_ARGS, given as on
the pytest command line) under ``sys.settrace`` and prints, per source
file, each statement whose lines never ran, as ``file:line: source``,
then a count per file.  Only frames of the package's own files are traced
line by line, so the run takes little longer than plain tier-1.
A statement counts once any of its lines ran (the header lines of an
``if``, ``for``, ``def`` and the like, all lines of a simple statement);
a statement with no bytecode, such as a docstring, is not listed.  Code
that runs only in a child process (the tests that start ``python -m
conemetric.cli``) counts as not executed.  The exit code is pytest's.
pytest does not collect this file.
"""

import ast
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
PACKAGE = HERE.parent / "src" / "conemetric"


def code_lines(code):
    """The line numbers that the bytecode of ``code`` and of the code
    objects nested in it maps instructions to."""
    lines = {line for *_, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def statements(tree):
    """(first line, last line) of each statement's own lines: the header
    of a compound statement, everything of a simple one."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        body = [child for name in ("body", "orelse", "finalbody", "handlers")
                for child in getattr(node, name, ())]
        first_child = min((c.lineno for c in body), default=None)
        last = node.end_lineno if first_child is None else first_child - 1
        yield node.lineno, max(node.lineno, last)


def untraced(path, hit):
    """The statements of ``path`` with bytecode but no line in ``hit``."""
    source = path.read_text()
    executable = code_lines(compile(source, str(path), "exec"))
    out = []
    for first, last in sorted(set(statements(ast.parse(source)))):
        own = executable.intersection(range(first, last + 1))
        if own and not own & hit:
            out.append(first)
    return out, source.splitlines()


def main(argv):
    import pytest

    hit, files = {}, {}

    def local(frame, event, arg):
        if event == "line":
            files[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in files:
            path = Path(name).resolve()
            files[name] = hit.setdefault(path, set()) \
                if path.parent == PACKAGE else None
        return None if files[name] is None else local(frame, event, arg)

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider",
                            "--continue-on-collection-errors"]
                           + (argv or [str(HERE)]))
    finally:
        sys.settrace(None)
        threading.settrace(None)
    counts = []
    for path in sorted(PACKAGE.glob("*.py")):
        missed, lines = untraced(path, hit.get(path, set()))
        rel = path.relative_to(HERE.parent)
        for line in missed:
            print(f"{rel}:{line}: {lines[line - 1].strip()}")
        counts.append(f"{rel}: {len(missed)} statements not executed")
    print("\n".join(counts))
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

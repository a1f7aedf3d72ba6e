"""List the functions under ``src/repro`` that nothing outside the tests
calls while the collected tests run.

Load it explicitly; nothing registers it::

    PYTHONPATH=src python -m pytest -p tests.uncalled [pytest args]

A ``sys.setprofile`` hook (and ``threading.setprofile`` for worker
threads) records every code object entered in this process whose calling
frame lies outside ``tests/``; at the end the summary lists each function
of the package that was never entered that way, with its raw line count.
A function that only test code calls is listed, however many tests call
it: it is surface that the system itself never drives. Child processes
are not followed. The name keeps the file out of test collection
(``test_*.py``).
"""

import inspect
import os
import sys
import threading

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_ROOT = os.path.join(_REPO, "src", "repro")
_TESTS = os.path.join(_REPO, "tests") + os.sep
_seen = set()


def _hook(frame, event, arg):
    if event == "call":
        caller = frame.f_back
        if caller is None or not caller.f_code.co_filename.startswith(_TESTS):
            _seen.add(frame.f_code)


def _functions(code):
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            if const.co_flags & inspect.CO_NEWLOCALS and not const.co_name.startswith("<"):
                yield const
            yield from _functions(const)


threading.setprofile(_hook)
sys.setprofile(_hook)


def pytest_terminal_summary(terminalreporter):
    sys.setprofile(None)
    threading.setprofile(None)
    called = {(os.path.abspath(c.co_filename), c.co_firstlineno) for c in _seen}
    rows = []
    for folder, _, names in sorted(os.walk(_ROOT)):
        for name in sorted(n for n in names if n.endswith(".py")):
            path = os.path.join(folder, name)
            with open(path) as handle:
                module = compile(handle.read(), path, "exec")
            for code in _functions(module):
                if (path, code.co_firstlineno) not in called:
                    last = max(line for _, _, line in code.co_lines() if line)
                    span = last - code.co_firstlineno + 1
                    rows.append((os.path.relpath(path, _ROOT), code, span))
    terminalreporter.section(f"uncalled functions under {_ROOT}")
    for rel, code, span in rows:
        terminalreporter.write_line(
            f"{rel}:{code.co_firstlineno} {code.co_qualname} ({span} lines)"
        )
    terminalreporter.write_line(
        f"{len(rows)} uncalled, {sum(row[2] for row in rows)} raw lines"
    )

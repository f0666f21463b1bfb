"""List the executable lines of src/ that no tier-1 test reaches.

    python3 tests/unreached_lines.py

Runs the tier-1 suite in this process under sys.settrace (about a minute)
and prints every executable src/ line it never executes, with the reason
ALLOWED gives for keeping it.  ALLOWED is keyed by file name and stripped
source text, so it survives edits that move lines; each entry excuses
one line.  Exits 1 when the suite fails, when a line outside ALLOWED is
unreached, or when an ALLOWED entry is stale: the suite now reaches its
line, or no src/ line matches it any more.
"""

import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "semipoison"

ALLOWED = []  # (file, stripped source text, why no test reaches it): every line is reached


def executable_lines(path):
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: the module's entry
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main():
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    hits = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def enter(frame, event, arg):  # a line tracer for src/ frames only
        return local if frame.f_code.co_filename.startswith(str(SRC)) else None

    sys.settrace(enter)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    left = Counter((name, source) for name, source, _ in ALLOWED)
    reasons = {(name, source): why for name, source, why in ALLOWED}
    unreached = unexpected = 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path) - {n for f, n in hits if f == str(path)}):
            key = (path.name, text[line - 1].strip())
            allowed = left[key] > 0
            left[key] -= allowed
            unreached, unexpected = unreached + 1, unexpected + (not allowed)
            print(f"{path.name}:{line}: {reasons[key] if allowed else 'NOT ALLOWED'}: {key[1]}")
    stale = sorted(left.elements())
    for name, source in stale:
        print(f"{name}: STALE (reached, or no such line), delete from ALLOWED: {source}")
    print(f"{unreached} unreached lines, {unexpected} not allowed, {len(stale)} stale entries")
    return 1 if status or unexpected or stale else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Unit test for tools/src_lines.py: what counts as a code line, and the
per-directory grouping. Exits non-zero on any mismatch."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import src_lines  # noqa: E402


def check(actual, expected, what):
    if actual != expected:
        print(f"FAIL: {what}: got {actual!r}, want {expected!r}",
              file=sys.stderr)
        sys.exit(1)


def main():
    text = ("// a comment line\n"
            "\n"
            "int a = 1;  // trailing comment\n"
            "/* block\n"
            "   still block */ int b;\n"
            "   \n"
            'const char* s = "// not a comment";\n'
            "/// doc comment\n")
    check(src_lines.code_lines(text), 3, "code lines")
    check(src_lines.directory_of("src/engine/session.cc"), "src/engine",
          "subdirectory")
    check(src_lines.directory_of("src/main.cc"), "src", "top-level file")
    counts = src_lines.worktree_counts()
    check("src/engine" in counts and counts["src/engine"] > 0, True,
          "worktree counts src/engine")
    print("src_lines_test: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

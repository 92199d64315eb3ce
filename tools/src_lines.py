#!/usr/bin/env python3
"""Counts non-blank, non-comment C++ lines per src/ subdirectory.

A line counts when anything but whitespace is left on it once comments are
removed (the comment/string stripper is tools/dqm_lint.py's, so both tools
agree on what a comment is). Files are the *.h and *.cc under src/.

Usage:
  tools/src_lines.py                    # the worktree, per directory
  tools/src_lines.py --base <git-ref>   # plus the ref's counts and the delta

The --base counts are read with `git show <ref>:<path>`; nothing is checked
out. Run from anywhere inside the repository.
"""

import argparse
import subprocess
import sys
from collections import Counter
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
ROOT = TOOLS.parent
sys.path.insert(0, str(TOOLS))
import dqm_lint  # noqa: E402

SUFFIXES = (".h", ".cc")


def code_lines(text):
    """Number of lines of `text` that hold code once comments are gone."""
    code, _ = dqm_lint.strip_comments_and_strings(text)
    return sum(1 for line in code if line.strip())


def directory_of(path):
    """'src/engine/session.cc' -> 'src/engine'; files directly in src/ -> 'src'."""
    parts = Path(path).parts
    return "/".join(parts[:2]) if len(parts) > 2 else parts[0]


def worktree_counts():
    counts = Counter()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.suffix in SUFFIXES and path.is_file():
            rel = path.relative_to(ROOT).as_posix()
            counts[directory_of(rel)] += code_lines(
                path.read_text(errors="replace"))
    return counts


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True,
                          errors="replace").stdout


def ref_counts(ref):
    counts = Counter()
    for rel in git("ls-tree", "-r", "--name-only", ref, "--", "src").split():
        if rel.endswith(SUFFIXES):
            counts[directory_of(rel)] += code_lines(git("show", f"{ref}:{rel}"))
    return counts


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="git ref to compare the worktree with")
    args = parser.parse_args()
    now = worktree_counts()
    base = ref_counts(args.base) if args.base else None
    dirs = sorted(set(now) | set(base or ()))
    header = f"{'directory':<20} {'lines':>7}"
    if base is not None:
        header += f" {'base':>7} {'delta':>7}"
    print(header)
    for name in dirs + ["total"]:
        lines = sum(now.values()) if name == "total" else now[name]
        row = f"{name:<20} {lines:>7}"
        if base is not None:
            before = sum(base.values()) if name == "total" else base[name]
            row += f" {before:>7} {lines - before:>+7}"
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""DQM source lint: project-specific concurrency and telemetry contracts.

Rules (each suppressible on a single line with `// dqm-lint: allow(<rule>)`):

  raw-sync          std::mutex / std::lock_guard / <mutex> and friends are
                    allowed only inside src/common/mutex.{h,cc}. Everything
                    else must use the annotated dqm::Mutex wrappers, or the
                    Clang thread-safety analysis and the debug lock-order
                    checker silently lose coverage.

  seqlock           Sequence-word manipulation (the `seq`/`seq_` atomic
                    odd/even protocol) is allowed only inside the audited
                    seqlock implementations: engine/session.{h,cc}
                    (SnapshotCell) and telemetry/flight_recorder.{h,cc}.
                    Everyone else consumes those helpers; hand-rolled
                    seqlocks are where fences go missing.

  metric-name       Every exported metric name lives in
                    telemetry/metric_names.h and must match the canonical
                    grammar `dqm_[a-z][a-z0-9_]*`. A "dqm_*" string literal
                    anywhere else in src/ bypasses the registry of record.

  check-discipline  A DQM_CHECK in a serving path (src/engine/,
                    src/crowd/response_log.*) aborts the process for every
                    caller of the engine. Each one must carry an
                    `// invariant:` justification in the preceding lines,
                    forcing the author to state why the condition is a
                    programming invariant rather than a recoverable error
                    (which belongs in a Status return).

  include-hygiene   Project headers are included with quotes relative to
                    src/ (never angle brackets); standard headers with
                    angle brackets (never quotes); every header under src/
                    carries a DQM_*_H_ include guard.

  raw-syscall       Inside the failpoint-instrumented durability sources
                    (the FAILPOINT_WRAPPED_GLOBS patterns: crowd/wal*.cc,
                    engine/durability*.cc, engine/replication*.cc), raw
                    POSIX I/O calls (::write, ::fsync, ::rename, ::pread,
                    ...) are forbidden: every syscall edge must go through
                    the crowd/io.h wrappers so fault injection, retry, and
                    the dqm_wal_retries_total accounting see it. A raw call
                    is an edge chaos tests cannot reach. So is strerror():
                    errno formatting lives only in crowd/io.cc
                    (io::ErrnoError), so every I/O error reads the same and
                    ENOENT is classified NotFound in one place. The
                    patterns are globs, not a file list, so a new WAL or
                    replication TU is covered the day it lands.

Usage:
  tools/dqm_lint.py --root src [--compile-commands build/compile_commands.json]
  tools/dqm_lint.py --root tools/lint_fixtures/src

Exits 0 when clean; exits 1 and prints `file:line: [rule] message` per
finding otherwise. With --compile-commands, the file set is the union of the
compiled TUs under --root and all headers under --root (headers never appear
as TUs); without it, every *.h/*.cc under --root is scanned.
"""

import argparse
import fnmatch
import json
import re
import sys
from pathlib import Path

# --- file-set policy (paths relative to the scanned root) -------------------

RAW_SYNC_ALLOWED = {"common/mutex.h", "common/mutex.cc"}
SEQLOCK_ALLOWED = {
    "engine/session.h",
    "engine/session.cc",
    "telemetry/flight_recorder.h",
    "telemetry/flight_recorder.cc",
}
METRIC_NAMES_HEADER = "telemetry/metric_names.h"
SERVING_PATH_PREFIXES = ("engine/",)
SERVING_PATH_FILES = ("crowd/response_log.h", "crowd/response_log.cc")
# Glob patterns (fnmatch, matched against the src/-relative path) naming the
# sources whose syscall edges are failpoint-instrumented: every POSIX I/O
# call must route through the crowd/io.h wrappers (crowd/io.cc itself is
# the one place the raw calls live, and stays exempt). Globs rather than a
# file list so a new durability-touching TU (a wal_*.cc split, a second
# replication transport) is covered without editing this policy.
FAILPOINT_WRAPPED_GLOBS = (
    "crowd/wal*.cc",
    "engine/durability*.cc",
    "engine/replication*.cc",
)

# --- rule patterns ----------------------------------------------------------

RAW_SYNC_TOKENS = re.compile(
    r"std\s*::\s*(?:recursive_|timed_|recursive_timed_|shared_)?mutex\b"
    r"|std\s*::\s*(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b"
    r"|std\s*::\s*condition_variable(?:_any)?\b"
)
RAW_SYNC_INCLUDES = re.compile(
    r"#\s*include\s*<(?:mutex|shared_mutex|condition_variable)>"
)
SEQLOCK_TOKENS = re.compile(
    r"\bseq_?\s*\.\s*(?:load|store|fetch_add|exchange|compare_exchange\w*)\s*\("
    r"|std\s*::\s*atomic\s*<\s*\w+\s*>\s+seq_?\b"
)
METRIC_LITERAL = re.compile(r'"(dqm_[^"]*)"')
METRIC_GRAMMAR = re.compile(r"dqm_[a-z][a-z0-9_]*$")
DQM_CHECK_STMT = re.compile(r"^\s*DQM_CHECK(?:_[A-Z]+)?\s*\(")
INVARIANT_TAG = re.compile(r"invariant:")
# How far above a DQM_CHECK the `// invariant:` justification may sit. Four
# lines lets one comment cover a small cluster of adjacent checks.
INVARIANT_WINDOW = 4
QUOTED_STD_HEADERS = {
    "algorithm", "array", "atomic", "bit", "cstdint", "cstdio", "cstdlib",
    "cstring", "deque", "functional", "future", "map", "memory", "mutex",
    "optional", "shared_mutex", "condition_variable", "span", "sstream",
    "string", "string_view", "thread", "utility", "vector",
}
INCLUDE_LINE = re.compile(r'#\s*include\s*(<([^>]+)>|"([^"]+)")')
# Global-scope POSIX I/O calls (the leading `::` with no qualifier before
# it keeps namespaced wrappers like io::Open out of scope).
RAW_SYSCALL = re.compile(
    r"(?<![\w:])::\s*(write|pwrite|pwritev|read|pread|preadv|fsync"
    r"|fdatasync|rename|renameat|ftruncate|open|openat)\s*\(")
# errno formatting outside crowd/io.cc (std::strerror, strerror_r, ...).
ERRNO_FORMAT = re.compile(r"(?<![\w])(?:std\s*::\s*)?(strerror(?:_r)?)\s*\(")
SUPPRESS = re.compile(r"dqm-lint:\s*allow\(([a-z-]+)\)")


def strip_comments_and_strings(text):
    """Blank out comments and string literals, preserving line structure.

    Returns (code_lines, comment_lines): per-line views where code_lines has
    comments/strings blanked (strings become `""`) and comment_lines holds
    only the comment text (for rules that inspect comments).
    """
    code = []
    comments = []
    i = 0
    n = len(text)
    code_buf = []
    comment_buf = []
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                i += 2
                continue
            if c == '"':
                state = "string"
                code_buf.append('"')
                i += 1
                continue
            if c == "'":
                state = "char"
                i += 1
                continue
            if c == "\n":
                code.append("".join(code_buf))
                comments.append("".join(comment_buf))
                code_buf, comment_buf = [], []
            else:
                code_buf.append(c)
            i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                code.append("".join(code_buf))
                comments.append("".join(comment_buf))
                code_buf, comment_buf = [], []
            else:
                comment_buf.append(c)
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                i += 2
                continue
            if c == "\n":
                code.append("".join(code_buf))
                comments.append("".join(comment_buf))
                code_buf, comment_buf = [], []
            else:
                comment_buf.append(c)
            i += 1
        elif state == "string":
            if c == "\\":
                i += 2
                continue
            if c == '"':
                state = "code"
                code_buf.append('"')
            elif c == "\n":  # unterminated; keep line structure
                state = "code"
                code.append("".join(code_buf))
                comments.append("".join(comment_buf))
                code_buf, comment_buf = [], []
            i += 1
        elif state == "char":
            if c == "\\":
                i += 2
                continue
            if c == "'" or c == "\n":
                state = "code"
            i += 1
    code.append("".join(code_buf))
    comments.append("".join(comment_buf))
    return code, comments


class Linter:
    def __init__(self, root):
        self.root = root
        self.findings = []

    def report(self, rel, lineno, rule, message, raw_line):
        m = SUPPRESS.search(raw_line)
        if m and m.group(1) == rule:
            return
        self.findings.append((str(rel), lineno, rule, message))

    def lint_file(self, path):
        rel = path.relative_to(self.root).as_posix()
        text = path.read_text(encoding="utf-8")
        raw_lines = text.split("\n")
        code_lines, comment_lines = strip_comments_and_strings(text)

        self._raw_sync(rel, raw_lines, code_lines)
        self._raw_syscall(rel, raw_lines, code_lines)
        self._seqlock(rel, raw_lines, code_lines)
        self._metric_name(rel, raw_lines)
        self._check_discipline(rel, raw_lines, code_lines, comment_lines)
        self._include_hygiene(path, rel, raw_lines, code_lines)

    # -- raw-sync -----------------------------------------------------------

    def _raw_sync(self, rel, raw, code):
        if rel in RAW_SYNC_ALLOWED:
            return
        for i, line in enumerate(code):
            m = RAW_SYNC_TOKENS.search(line) or RAW_SYNC_INCLUDES.search(line)
            if m:
                self.report(
                    rel, i + 1, "raw-sync",
                    f"raw standard-library synchronization ('{m.group(0)}') "
                    "outside common/mutex.h; use the annotated dqm::Mutex "
                    "wrappers so the thread-safety analysis and lock-order "
                    "checker see this lock",
                    raw[i])

    # -- raw-syscall --------------------------------------------------------

    def _raw_syscall(self, rel, raw, code):
        if not any(fnmatch.fnmatch(rel, g) for g in FAILPOINT_WRAPPED_GLOBS):
            return
        for i, line in enumerate(code):
            m = RAW_SYSCALL.search(line)
            if m:
                self.report(
                    rel, i + 1, "raw-syscall",
                    f"raw ::{m.group(1)}() in a failpoint-instrumented file; "
                    "route it through the crowd/io.h wrappers so fault "
                    "injection, transient-errno retry, and the retry "
                    "counters see this edge",
                    raw[i])
            m = ERRNO_FORMAT.search(line)
            if m:
                self.report(
                    rel, i + 1, "raw-syscall",
                    f"{m.group(1)}() in a failpoint-instrumented file; "
                    "format errno through io::ErrnoError (crowd/io.h) so "
                    "every I/O error reads the same and ENOENT stays "
                    "NotFound",
                    raw[i])

    # -- seqlock ------------------------------------------------------------

    def _seqlock(self, rel, raw, code):
        if rel in SEQLOCK_ALLOWED:
            return
        for i, line in enumerate(code):
            m = SEQLOCK_TOKENS.search(line)
            if m:
                self.report(
                    rel, i + 1, "seqlock",
                    "sequence-word manipulation outside the audited seqlock "
                    "implementations (SnapshotCell, FlightRecorder); consume "
                    "their snapshot helpers instead of hand-rolling the "
                    "odd/even protocol",
                    raw[i])

    # -- metric-name --------------------------------------------------------

    def _metric_name(self, rel, raw):
        # Scan raw lines: the literals live inside strings, which the
        # comment stripper blanks. Comment-only mentions of dqm_* names (docs
        # quote them) are fine because we require the surrounding quotes and
        # skip pure-comment lines.
        for i, line in enumerate(raw):
            stripped = line.lstrip()
            if stripped.startswith("//") or stripped.startswith("*"):
                continue
            for m in METRIC_LITERAL.finditer(line):
                name = m.group(1)
                if rel == METRIC_NAMES_HEADER:
                    if not METRIC_GRAMMAR.match(name):
                        self.report(
                            rel, i + 1, "metric-name",
                            f"metric name '{name}' violates the canonical "
                            "grammar dqm_[a-z][a-z0-9_]*",
                            line)
                else:
                    self.report(
                        rel, i + 1, "metric-name",
                        f"metric name literal '{name}' outside "
                        "telemetry/metric_names.h; add a constant there and "
                        "reference it so the exposition surface stays "
                        "reviewable in one place",
                        line)

    # -- check-discipline ---------------------------------------------------

    def _check_discipline(self, rel, raw, code, comments):
        serving = rel.startswith(SERVING_PATH_PREFIXES) or rel in SERVING_PATH_FILES
        if not serving:
            return
        for i, line in enumerate(code):
            if not DQM_CHECK_STMT.match(line):
                continue
            lo = max(0, i - INVARIANT_WINDOW)
            window = comments[lo:i + 1]
            if not any(INVARIANT_TAG.search(c) for c in window):
                self.report(
                    rel, i + 1, "check-discipline",
                    "DQM_CHECK in a serving path without an '// invariant:' "
                    "justification; if the condition can be caused by caller "
                    "input it must return a Status, and if it cannot, say "
                    "why in an invariant comment",
                    raw[i])

    # -- include-hygiene ----------------------------------------------------

    def _include_hygiene(self, path, rel, raw, code):
        is_header = rel.endswith(".h")
        guard_expected = "DQM_" + re.sub(r"[\/.]", "_", rel).upper() + "_"
        if is_header:
            if f"#ifndef {guard_expected}" not in "\n".join(raw):
                self.report(
                    rel, 1, "include-hygiene",
                    f"header missing include guard '{guard_expected}' "
                    "(#ifndef/#define pair named after the src/-relative "
                    "path)",
                    raw[0] if raw else "")
        for i, line in enumerate(code):
            m = INCLUDE_LINE.search(line)
            if not m:
                continue
            angle, quoted = m.group(2), m.group(3)
            if angle is not None:
                if (self.root / angle).exists():
                    self.report(
                        rel, i + 1, "include-hygiene",
                        f"project header <{angle}> included with angle "
                        "brackets; use quotes so the project include root "
                        "is searched first",
                        raw[i])
            else:
                if quoted in QUOTED_STD_HEADERS:
                    self.report(
                        rel, i + 1, "include-hygiene",
                        f'standard header "{quoted}" included with quotes; '
                        "use angle brackets",
                        raw[i])
                elif not (self.root / quoted).exists():
                    self.report(
                        rel, i + 1, "include-hygiene",
                        f'quoted include "{quoted}" does not resolve under '
                        "the project include root",
                        raw[i])


def collect_files(root, compile_commands):
    files = set()
    for pattern in ("**/*.h", "**/*.cc"):
        files.update(root.glob(pattern))
    if compile_commands is not None:
        compiled = set()
        for entry in json.loads(compile_commands.read_text()):
            src = Path(entry["directory"], entry["file"]).resolve()
            try:
                src.relative_to(root.resolve())
            except ValueError:
                continue
            compiled.add(src)
        # Headers never appear as TUs; keep all of them, and restrict .cc
        # files to the set the build actually compiles.
        files = {f for f in files
                 if f.suffix == ".h" or f.resolve() in compiled}
    return sorted(files)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default="src",
                        help="directory to scan (default: src)")
    parser.add_argument("--compile-commands", default=None,
                        help="optional compile_commands.json restricting the "
                             ".cc set to compiled translation units")
    args = parser.parse_args(argv)

    root = Path(args.root)
    if not root.is_dir():
        print(f"dqm_lint: no such directory: {root}", file=sys.stderr)
        return 2
    compile_commands = (
        Path(args.compile_commands) if args.compile_commands else None)
    if compile_commands is not None and not compile_commands.is_file():
        print(f"dqm_lint: no such file: {compile_commands}", file=sys.stderr)
        return 2

    linter = Linter(root)
    for path in collect_files(root, compile_commands):
        linter.lint_file(path)

    for rel, lineno, rule, message in sorted(linter.findings):
        print(f"{rel}:{lineno}: [{rule}] {message}")
    if linter.findings:
        print(f"dqm_lint: {len(linter.findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Golden test for tools/dqm_lint.py.

Runs the linter over the seeded fixture tree and compares the findings,
line for line, against tools/lint_fixtures/golden.txt. The fixtures carry at
least one deliberate violation per rule plus a clean counterpart proving
each allowlist and the `// dqm-lint: allow(<rule>)` suppression, so a rule
that silently stops firing (or starts over-firing) breaks this test rather
than surfacing months later in review.

Also asserts a handful of unit-level properties of the comment/string
stripper that the rules lean on.

Usage: tools/dqm_lint_test.py   (exits non-zero on any mismatch)
"""

import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
FIXTURES = TOOLS / "lint_fixtures" / "src"
GOLDEN = TOOLS / "lint_fixtures" / "golden.txt"

sys.path.insert(0, str(TOOLS))
import dqm_lint  # noqa: E402


def fail(message):
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def test_stripper():
    code, comments = dqm_lint.strip_comments_and_strings(
        'a = 1;  // std::mutex in a comment\n'
        'b = "std::mutex in a string";\n'
        '/* block\n'
        '   std::lock_guard */ c = 2;\n'
        "char q = '\"';  // quote char must not open a string\n")
    if any("std::mutex" in line for line in code):
        fail("stripper leaked comment/string text into code lines")
    if "std::mutex in a comment" not in comments[0]:
        fail("stripper lost comment text needed by check-discipline")
    if len(code) != 6:  # 5 input lines + trailing empty
        fail(f"stripper changed line structure: {len(code)} lines")
    if "c = 2;" not in code[3]:
        fail("stripper dropped code after a block comment close")


def test_fixture_golden():
    result = subprocess.run(
        [sys.executable, str(TOOLS / "dqm_lint.py"), "--root", str(FIXTURES)],
        capture_output=True, text=True)
    if result.returncode != 1:
        fail(f"expected exit 1 on fixtures, got {result.returncode}\n"
             f"stderr: {result.stderr}")
    actual = result.stdout.splitlines()
    expected = GOLDEN.read_text().splitlines()
    # The golden is recorded with --root tools/lint_fixtures/src from the
    # repo root; normalize to the path-independent tail.
    if actual != expected:
        diff = "\n".join(
            f"  -{e}" for e in expected if e not in actual) + "\n" + "\n".join(
            f"  +{a}" for a in actual if a not in expected)
        fail(f"fixture findings diverge from golden.txt:\n{diff}")
    rules = {line.split("[", 1)[1].split("]", 1)[0]
             for line in actual if "[" in line}
    missing = {"raw-sync", "raw-syscall", "seqlock", "metric-name",
               "check-discipline", "include-hygiene"} - rules
    if missing:
        fail(f"fixtures no longer exercise rule(s): {sorted(missing)}")


def test_allowlists_and_suppressions():
    findings = GOLDEN.read_text()
    if "common/mutex.h:" in findings:
        fail("raw-sync allowlist regressed: the mutex.h twin was flagged")
    if "bad_mutex.cc:25" in findings:
        fail("dqm-lint: allow(raw-sync) suppression regressed")
    if "bad_check.cc:14" in findings:
        fail("'// invariant:' justification no longer satisfies "
             "check-discipline")
    if "bad_check.cc:16" in findings:
        fail("dqm-lint: allow(check-discipline) suppression regressed")
    if "kGoodCounter" in findings or "dqm_good_counter_total" in findings:
        fail("a grammar-conforming name in metric_names.h was flagged")
    if "wal.cc:20" in findings or "replication.cc:21" in findings:
        fail("dqm-lint: allow(raw-syscall) suppression regressed")


def main():
    test_stripper()
    test_fixture_golden()
    test_allowlists_and_suppressions()
    print("dqm_lint_test: OK")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Repo-specific lint for the KARL codebase.

Fast, dependency-free regex checks enforcing the conventions that the
compiler cannot (and clang-tidy does not) check:

  raw-threading      std::mutex / lock_guard / condition_variable / ...
                     anywhere outside src/util/mutex.h — all code goes
                     through the annotated karl wrappers so Clang
                     thread-safety analysis sees every lock.
  bare-assert        assert(...) instead of KARL_CHECK / KARL_DCHECK
                     (static_assert is fine).
  stdout-io          std::cout / printf / fprintf(stdout, ...) in src/
                     library code — diagnostics go through util/log.h,
                     data goes through explicit streams.
  nolint-reason      NOLINT / NOLINTNEXTLINE without "(check): reason".
  tsa-optout-reason  KARL_NO_THREAD_SAFETY_ANALYSIS("") — the opt-out
                     demands a non-empty justification.
  include-guard      header guard must be KARL_<RELPATH>_H_ (path
                     relative to the repo with a leading src/ stripped);
                     #pragma once is banned.
  json-writer        a "%.17g" or "\\u%04x" format string in src/
                     outside src/util/json_text.cc — JSON numbers and
                     string escapes go through util/json_text.h.

Usage:
  karl_lint.py [--report FILE] PATH...     lint C++ files under PATHs
  karl_lint.py --self-test                 verify every rule fires on
                                           the fixture corpus

Exit status: 0 clean, 1 violations found (or a self-test gap), 2 usage.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

CXX_EXTENSIONS = (".h", ".hpp", ".cc", ".cpp", ".cxx")

# Fixtures intentionally violate every rule; they are linted only by
# --self-test, never by a normal scan.
FIXTURE_DIR_NAME = "lint_fixtures"

SKIP_DIR_NAMES = {".git", "build", FIXTURE_DIR_NAME}


def repo_relpath(path: str, root: str) -> str:
    return os.path.relpath(os.path.abspath(path), root).replace(os.sep, "/")


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# ---------------------------------------------------------------------------
# Rules. Each takes (relpath, lines) and yields Finding.

RAW_THREADING = re.compile(
    r"std::(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|lock_guard|unique_lock|shared_lock|"
    r"scoped_lock|condition_variable(_any)?)\b"
    r"|#\s*include\s*<(mutex|shared_mutex|condition_variable)>"
)

# Allowed to reference the raw primitives: the wrapper itself.
RAW_THREADING_EXEMPT = {"src/util/mutex.h"}

BARE_ASSERT = re.compile(r"(?<![\w.])assert\s*\(")
STD_COUT = re.compile(r"std::cout\b")
BARE_PRINTF = re.compile(r"(?<![\w.>])printf\s*\(")
FPRINTF_STDOUT = re.compile(r"fprintf\s*\(\s*stdout\b")

# NOLINT / NOLINTNEXTLINE / NOLINTBEGIN must carry "(checks): reason".
NOLINT_ANY = re.compile(r"NOLINT(NEXTLINE|BEGIN|END)?\b")
NOLINT_OK = re.compile(r"NOLINT(NEXTLINE|BEGIN)?\([^)]+\):\s*\S")
NOLINT_END = re.compile(r"NOLINTEND\b")

TSA_OPTOUT = re.compile(r"KARL_NO_THREAD_SAFETY_ANALYSIS\s*\(\s*(.?)")

# The JSON number format and the control-byte escape format, as C++
# string literals; only the shared writer may spell them.
JSON_WRITER_FORMAT = re.compile(r'"%\.17g"|"\\\\u%04x"')
JSON_WRITER_EXEMPT = {"src/util/json_text.cc"}

GUARD_DIRECTIVE = re.compile(r"^#ifndef\s+(\w+)\s*$")
PRAGMA_ONCE = re.compile(r"^#\s*pragma\s+once\b")


def expected_guard(relpath: str) -> str:
    stem = relpath
    if stem.startswith("src/"):
        stem = stem[len("src/"):]
    token = re.sub(r"[^A-Za-z0-9]", "_", stem).upper()
    return f"KARL_{token}_"


def in_comment_or_string(line: str, pos: int) -> bool:
    """Cheap check: is `pos` inside a // comment or a string literal?"""
    comment = line.find("//")
    if 0 <= comment <= pos:
        return True
    # Count unescaped quotes before pos; odd means inside a string.
    quotes = 0
    i = 0
    while i < pos:
        if line[i] == '"' and (i == 0 or line[i - 1] != "\\"):
            quotes += 1
        i += 1
    return quotes % 2 == 1


def check_raw_threading(relpath, lines):
    if relpath in RAW_THREADING_EXEMPT:
        return
    for n, line in enumerate(lines, 1):
        m = RAW_THREADING.search(line)
        if m and not in_comment_or_string(line, m.start()):
            yield Finding(
                relpath, n, "raw-threading",
                f"'{m.group(0)}' — use the annotated wrappers in "
                "src/util/mutex.h (karl::util::Mutex, MutexLock, CondVar)")


def check_bare_assert(relpath, lines):
    for n, line in enumerate(lines, 1):
        m = BARE_ASSERT.search(line)
        if not m or in_comment_or_string(line, m.start()):
            continue
        if "static_assert" in line[max(0, m.start() - 7):m.end()]:
            continue
        yield Finding(relpath, n, "bare-assert",
                      "assert() — use KARL_CHECK (always on) or "
                      "KARL_DCHECK (debug-only) from util/check.h")


def check_stdout_io(relpath, lines):
    if not relpath.startswith("src/"):
        return
    for n, line in enumerate(lines, 1):
        for pat, what in ((STD_COUT, "std::cout"),
                          (BARE_PRINTF, "printf"),
                          (FPRINTF_STDOUT, "fprintf(stdout, ...)")):
            m = pat.search(line)
            if m and not in_comment_or_string(line, m.start()):
                yield Finding(
                    relpath, n, "stdout-io",
                    f"{what} in library code — log through util/log.h or "
                    "take an explicit stream")


def check_nolint_reason(relpath, lines):
    for n, line in enumerate(lines, 1):
        m = NOLINT_ANY.search(line)
        if not m:
            continue
        if NOLINT_END.search(line):
            continue  # NOLINTEND closes a justified NOLINTBEGIN.
        if NOLINT_OK.search(line):
            continue
        yield Finding(relpath, n, "nolint-reason",
                      "NOLINT without '(check-name): reason' — name the "
                      "check and say why the suppression is right")


def check_tsa_optout_reason(relpath, lines):
    if relpath == "src/util/mutex.h":
        return  # The macro definition itself.
    for n, line in enumerate(lines, 1):
        m = TSA_OPTOUT.search(line)
        if not m or in_comment_or_string(line, m.start()):
            continue
        arg = m.group(1)
        if arg != '"':
            # Not a string literal at all (e.g. a bare `)`): flag it.
            yield Finding(relpath, n, "tsa-optout-reason",
                          "KARL_NO_THREAD_SAFETY_ANALYSIS needs a "
                          "non-empty reason string")
            continue
        rest = line[m.end():]
        if rest.startswith('"'):  # KARL_NO_THREAD_SAFETY_ANALYSIS("")
            yield Finding(relpath, n, "tsa-optout-reason",
                          "KARL_NO_THREAD_SAFETY_ANALYSIS reason must "
                          "not be empty")


def check_json_writer(relpath, lines):
    if not relpath.startswith("src/") or relpath in JSON_WRITER_EXEMPT:
        return
    for n, line in enumerate(lines, 1):
        m = JSON_WRITER_FORMAT.search(line)
        comment = line.find("//")
        if m and not 0 <= comment <= m.start():
            yield Finding(
                relpath, n, "json-writer",
                f"{m.group(0)} — write JSON numbers and strings with "
                "util::AppendJsonNumber / AppendJsonString "
                "(util/json_text.h)")


def check_include_guard(relpath, lines):
    if not relpath.endswith((".h", ".hpp")):
        return
    want = expected_guard(relpath)
    guard = None
    guard_line = 0
    for n, line in enumerate(lines, 1):
        if PRAGMA_ONCE.match(line):
            yield Finding(relpath, n, "include-guard",
                          f"#pragma once — use the guard {want}")
            return
        m = GUARD_DIRECTIVE.match(line)
        if m:
            guard = m.group(1)
            guard_line = n
            break
    if guard is None:
        yield Finding(relpath, 1, "include-guard",
                      f"missing include guard {want}")
        return
    if guard != want:
        yield Finding(relpath, guard_line, "include-guard",
                      f"guard is {guard}, expected {want}")
        return
    define = f"#define {want}"
    body = "\n".join(lines[guard_line:guard_line + 2])
    if define not in body:
        yield Finding(relpath, guard_line + 1, "include-guard",
                      f"#ifndef {want} not followed by {define}")


RULES = (
    check_raw_threading,
    check_bare_assert,
    check_stdout_io,
    check_nolint_reason,
    check_tsa_optout_reason,
    check_include_guard,
    check_json_writer,
)

RULE_NAMES = (
    "raw-threading",
    "bare-assert",
    "stdout-io",
    "nolint-reason",
    "tsa-optout-reason",
    "include-guard",
    "json-writer",
)


def lint_file(path: str, root: str,
              relpath: str | None = None) -> list[Finding]:
    if relpath is None:
        relpath = repo_relpath(path, root)
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            lines = f.read().split("\n")
    except OSError as err:
        return [Finding(relpath, 0, "io", str(err))]
    findings = []
    for rule in RULES:
        findings.extend(rule(relpath, lines))
    return findings


def collect_files(paths, root):
    out = []
    for p in paths:
        if os.path.isfile(p):
            if p.endswith(CXX_EXTENSIONS):
                out.append(p)
            continue
        for dirpath, dirnames, filenames in os.walk(p):
            dirnames[:] = sorted(
                d for d in dirnames
                if d not in SKIP_DIR_NAMES and not d.startswith("build"))
            for name in sorted(filenames):
                if name.endswith(CXX_EXTENSIONS):
                    out.append(os.path.join(dirpath, name))
    return out


def self_test(root: str) -> int:
    """Every rule must fire on the fixture corpus — and the fixture
    corpus only. A rule that stops firing was silently broken."""
    fixture_dir = os.path.join(root, "tools", FIXTURE_DIR_NAME)
    if not os.path.isdir(fixture_dir):
        print(f"karl_lint: fixture dir missing: {fixture_dir}",
              file=sys.stderr)
        return 1
    files = []
    for dirpath, _, filenames in os.walk(fixture_dir):
        for name in sorted(filenames):
            if name.endswith(CXX_EXTENSIONS):
                files.append(os.path.join(dirpath, name))
    findings = []
    for path in files:
        # Fixtures are linted as if they lived under src/ so the
        # library-only rules (stdout-io) apply to them too.
        virtual = f"src/{FIXTURE_DIR_NAME}/{os.path.basename(path)}"
        findings.extend(lint_file(path, root, relpath=virtual))
    fired = {f.rule for f in findings}
    status = 0
    for rule in RULE_NAMES:
        if rule in fired:
            count = sum(1 for f in findings if f.rule == rule)
            print(f"self-test: {rule}: fired {count}x")
        else:
            print(f"self-test: {rule}: DID NOT FIRE on fixtures",
                  file=sys.stderr)
            status = 1
    return status


def main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="karl_lint.py",
        description="Repo-specific lint for the KARL codebase.")
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint")
    parser.add_argument("--root", default=None,
                        help="repo root for relative paths "
                             "(default: this script's parent dir)")
    parser.add_argument("--report", default=None,
                        help="also write findings to this file")
    parser.add_argument("--self-test", action="store_true",
                        help="check that every rule fires on the "
                             "fixture corpus")
    args = parser.parse_args(argv)

    root = os.path.abspath(
        args.root
        or os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

    if args.self_test:
        return self_test(root)

    if not args.paths:
        parser.print_usage(sys.stderr)
        return 2

    findings = []
    for path in collect_files(args.paths, root):
        findings.extend(lint_file(path, root))
    findings.sort(key=lambda f: (f.path, f.line))

    report_lines = [str(f) for f in findings]
    for line in report_lines:
        print(line)
    if args.report is not None:
        with open(args.report, "w", encoding="utf-8") as f:
            f.write("\n".join(report_lines) + ("\n" if report_lines else ""))
    if findings:
        print(f"karl_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Fail when a CI step names a test, benchmark or fuzz target that does
not exist.

`go test -run NoSuchName ./pkg/` prints "no tests to run" and exits 0,
so a renamed or deleted test silently drops out of every CI step that
selects it by name. This script reads the workflow, takes every
`go test` command's -run, -bench and -fuzz patterns, splits them on
top-level `|`, and requires each alternative to match at least one name
that `go test -list` reports for that command's packages. The patterns
`^$` and `NONE` deliberately select nothing and are skipped.

Run from the repository root:

    python3 .github/scripts/check_named_tests.py [.github/workflows/ci.yml]
"""
import re
import shlex
import subprocess
import sys

SELECTORS = ("-run", "-bench", "-fuzz")
SELECT_NOTHING = {"^$", "NONE"}


def go_test_commands(workflow):
    """Yields the argument list of every `go test` command in workflow."""
    for line in open(workflow, encoding="utf-8"):
        line = line.strip()
        if line.startswith("run:"):
            line = line[len("run:"):].strip()
        for part in line.split("&&"):
            if part.strip().startswith("go test "):
                yield shlex.split(part, comments=True)[2:]


def alternatives(pattern):
    """Splits a regexp on the `|` that are not inside a group."""
    out, depth, cur = [], 0, ""
    for ch in pattern:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "|" and depth == 0:
            out.append(cur)
            cur = ""
        else:
            cur += ch
    return out + [cur]


listed = {}


def names(pkg):
    if pkg not in listed:
        res = subprocess.run(["go", "test", "-list", ".*", pkg],
                             capture_output=True, text=True)
        if res.returncode != 0:
            sys.exit(f"go test -list {pkg} failed:\n{res.stdout}{res.stderr}")
        listed[pkg] = [l for l in res.stdout.splitlines()
                       if re.match(r"(Test|Benchmark|Fuzz|Example)", l)]
    return listed[pkg]


def main():
    workflow = sys.argv[1] if len(sys.argv) > 1 else ".github/workflows/ci.yml"
    missing, checked = [], 0
    for args in go_test_commands(workflow):
        pkgs = [a for a in args if a.startswith("./")]
        for i, a in enumerate(args[:-1]):
            if a not in SELECTORS or args[i + 1] in SELECT_NOTHING:
                continue
            for alt in alternatives(args[i + 1]):
                checked += 1
                if not any(re.search(alt, n) for p in pkgs for n in names(p)):
                    missing.append(f"{a} {alt!r} in {' '.join(pkgs)}")
    if missing:
        sys.exit("CI names tests that do not exist:\n  " + "\n  ".join(missing))
    print(f"{checked} named test patterns each match an existing test")


if __name__ == "__main__":
    main()

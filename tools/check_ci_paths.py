#!/usr/bin/env python3
"""Fails when a CI workflow names a repository path that does not exist.

Usage: check_ci_paths.py <repo-root> [workflow ...]

Scans each workflow (default: .github/workflows/ci.yml) for tokens that
start with one of the repository's top-level source directories (for
example bench/baselines/bench_detect_throughput.json) and checks that each
exists under <repo-root>. Build outputs such as ./build/bench/... or
bench-out/... are not repository paths and are skipped: the token must
start at a word boundary with the directory name itself.
"""

import os
import re
import sys

TOP_DIRS = ("bench", "docs", "examples", "perfbench", "src", "tests", "tools")
PATH_RE = re.compile(r"(?<![\w./-])((?:%s)/[\w./-]*[\w])" % "|".join(TOP_DIRS))


def missing_paths(root, workflow):
    missing = []
    with open(os.path.join(root, workflow)) as f:
        for lineno, line in enumerate(f, 1):
            for path in PATH_RE.findall(line):
                if "*" in path:
                    continue
                if not os.path.exists(os.path.join(root, path)):
                    missing.append((lineno, path))
    return missing


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    root = argv[1]
    workflows = argv[2:] or [".github/workflows/ci.yml"]
    failed = False
    for workflow in workflows:
        for lineno, path in missing_paths(root, workflow):
            print("%s:%d: %s does not exist" % (workflow, lineno, path))
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

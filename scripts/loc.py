#!/usr/bin/env python3
"""Net non-test Rust lines between two git revisions.

Usage: scripts/loc.py <base-rev> <head-rev>

At each revision, for every crate, counts the non-blank lines of
crates/<crate>/src/**/*.rs that come before each file's first column-0
`#[cfg(test)]` (unit tests live below that line). Prints both counts and
their difference per crate and in total.
"""

import subprocess
import sys
from collections import Counter


def non_test_lines(source):
    count = 0
    for line in source.splitlines():
        if line.startswith("#[cfg(test)]"):
            break
        if line.strip():
            count += 1
    return count


def count_at(rev):
    listing = subprocess.run(
        ["git", "ls-tree", "-r", "--name-only", rev, "--", "crates"],
        capture_output=True, check=True, text=True,
    ).stdout.split("\n")
    paths = [
        p for p in listing
        if p.endswith(".rs") and len(p.split("/")) > 3 and p.split("/")[2] == "src"
    ]
    query = "".join(f"{rev}:{p}\n" for p in paths).encode()
    blobs = subprocess.run(
        ["git", "cat-file", "--batch"], input=query, capture_output=True, check=True,
    ).stdout
    per_crate = Counter()
    offset = 0
    for path in paths:
        header_end = blobs.index(b"\n", offset)
        size = int(blobs[offset:header_end].split()[2])
        body = blobs[header_end + 1:header_end + 1 + size].decode("utf-8")
        offset = header_end + 1 + size + 1
        per_crate[path.split("/")[1]] += non_test_lines(body)
    return per_crate


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__.strip())
    base_rev, head_rev = sys.argv[1:]
    base, head = count_at(base_rev), count_at(head_rev)
    rows = [(c, base[c], head[c]) for c in sorted(set(base) | set(head))]
    rows.append(("total", sum(base.values()), sum(head.values())))
    print(f"{'crate':<16}{'base':>8}{'head':>8}{'delta':>8}")
    for name, b, h in rows:
        print(f"{name:<16}{b:>8}{h:>8}{h - b:>+8}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Check that README's metrics table lists exactly the counter registry.

The registry is the IDF_COUNTERS X-macro in src/engine/metrics.h (one
`X(CamelName, snake_name)` line per counter). The README table sits
between the `<!-- metrics-table:begin -->` and `<!-- metrics-table:end -->`
markers, one row per counter with the name in backticks in the first
column. Both must name the same counters in the same order; any
difference is printed and the script exits 1.

Usage: check_metric_docs.py [REPO_ROOT]   (default: the script's parent)
"""

import os
import re
import sys


def registry(path):
    with open(path) as f:
        text = f.read()
    start = text.find("#define IDF_COUNTERS(X)")
    if start < 0:
        sys.exit(f"{path}: no IDF_COUNTERS definition")
    names = []
    for line in text[start:].splitlines()[1:]:
        m = re.match(r"\s*X\(\s*\w+\s*,\s*(\w+)\s*\)", line)
        if m:
            names.append(m.group(1))
        if not line.rstrip().endswith("\\"):
            break  # the macro's last line
    return names


def readme_table(path):
    with open(path) as f:
        text = f.read()
    m = re.search(r"<!-- metrics-table:begin -->(.*?)<!-- metrics-table:end -->",
                  text, re.S)
    if m is None:
        sys.exit(f"{path}: no metrics-table markers")
    return re.findall(r"^\|\s*`(\w+)`\s*\|", m.group(1), re.M)


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    code = registry(os.path.join(root, "src", "engine", "metrics.h"))
    docs = readme_table(os.path.join(root, "README.md"))
    if code == docs:
        print(f"README metrics table matches the {len(code)}-counter registry")
        return 0
    for name in code:
        if name not in docs:
            print(f"missing from README: {name}")
    for name in docs:
        if name not in code:
            print(f"not in the registry: {name}")
    if sorted(code) == sorted(docs):
        print("same counters, different order; list them in registry order")
    return 1


if __name__ == "__main__":
    sys.exit(main())

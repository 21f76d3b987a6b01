#!/usr/bin/env python3
"""Require two neatbound JSON summaries to be semantically identical.

Usage:
    diff_summaries.py A.json B.json [--ignore KEY ...]

Compares the full documents key by key and exits 1 on the first
difference, printing every diverging path.  Meta keys that legitimately
vary between otherwise-identical runs are ignored: wall-clock timings
(elapsed_seconds and anything ending in _seconds) and thread counts.
Use it to show that a change keeps every bundled scenario's
`neatbound_cli run --json` summary identical to the parent commit's, or
that a summary does not depend on --threads.
"""
import argparse
import json
import sys

DEFAULT_IGNORED = {"elapsed_seconds", "threads"}


def volatile(key: str, ignored: set[str]) -> bool:
    return key in ignored or key.endswith("_seconds")


def diff(a, b, path: str, ignored: set[str], out: list[str]) -> None:
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if volatile(key, ignored):
                continue
            diff(a.get(key), b.get(key), f"{path}/{key}", ignored, out)
        return
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            diff(x, y, f"{path}[{i}]", ignored, out)
        return
    if a != b:
        out.append(f"{path}: {a!r} != {b!r}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--ignore", action="append", default=[],
                        help="additional meta keys to ignore")
    args = parser.parse_args()

    with open(args.a, encoding="utf-8") as fh:
        doc_a = json.load(fh)
    with open(args.b, encoding="utf-8") as fh:
        doc_b = json.load(fh)

    ignored = DEFAULT_IGNORED | set(args.ignore)
    differences: list[str] = []
    diff(doc_a, doc_b, "", ignored, differences)
    if differences:
        print(f"FAIL: {args.a} and {args.b} diverge:", file=sys.stderr)
        for line in differences:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"OK: {args.a} == {args.b} (modulo timing meta)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

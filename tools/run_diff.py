#!/usr/bin/env python3
"""Compare two jtps run documents field by field.

    tools/run_diff.py OLD.json NEW.json [--ignore PATTERN ...]

Every leaf of both documents is addressed by a path: object keys joined
with "/", list elements as "[i]" (for example
"stats/counters/hv.demand_allocs" or "throughput/per_vm_rq_s[2]").
Each leaf that moved is printed on its own line with both values and,
for numbers, the relative delta against OLD; leaves present on one side
only are printed as added or removed. --ignore takes shell-style glob
patterns matched against paths (repeatable, e.g. --ignore 'hosts*').

Stdlib only. Exits 0 when the documents agree on every non-ignored
leaf, 1 when any differs, 2 on bad usage or unreadable input.
"""

import argparse
import fnmatch
import json
import sys


def flatten(node, path, out):
    """Collect (path -> leaf) for every leaf under @p node."""
    if isinstance(node, dict):
        for key, value in node.items():
            flatten(value, f"{path}/{key}" if path else key, out)
        if not node:
            out[path] = {}
    elif isinstance(node, list):
        for i, value in enumerate(node):
            flatten(value, f"{path}[{i}]", out)
        if not node:
            out[path] = []
    else:
        out[path] = node
    return out


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def describe_change(old, new):
    """Render one moved leaf: both values, plus the relative delta."""
    text = f"{json.dumps(old)} -> {json.dumps(new)}"
    if is_number(old) and is_number(new):
        if old != 0:
            text += f" ({(new - old) / abs(old):+.6%})"
        else:
            text += " (from 0)"
    return text


def diff(old_doc, new_doc, ignore):
    """@return (lines, ignored_count) describing every difference."""
    old = flatten(old_doc, "", {})
    new = flatten(new_doc, "", {})
    lines = []
    ignored = 0
    for path in sorted(old.keys() | new.keys()):
        in_old, in_new = path in old, path in new
        if in_old and in_new and old[path] == new[path] and \
                type(old[path]) is type(new[path]):
            continue
        if any(fnmatch.fnmatchcase(path, pat) for pat in ignore):
            ignored += 1
            continue
        if not in_new:
            lines.append(f"removed  {path}: {json.dumps(old[path])}")
        elif not in_old:
            lines.append(f"added    {path}: {json.dumps(new[path])}")
        else:
            lines.append(
                f"changed  {path}: {describe_change(old[path], new[path])}")
    return lines, ignored


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"run_diff: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def main():
    ap = argparse.ArgumentParser(
        description="Compare two jtps run documents field by field.")
    ap.add_argument("old", help="reference run document")
    ap.add_argument("new", help="run document to check against it")
    ap.add_argument("--ignore", action="append", default=[],
                    metavar="PATTERN",
                    help="glob over field paths to leave out (repeatable)")
    args = ap.parse_args()

    lines, ignored = diff(load(args.old), load(args.new), args.ignore)
    for line in lines:
        print(line)
    note = f"; {ignored} ignored" if ignored else ""
    if lines:
        print(f"run_diff: {len(lines)} field(s) differ{note}")
        return 1
    print(f"run_diff: documents agree{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Docs link checker: every relative link in the markdown docs must
resolve to a file in the repository, and every code name a table row
places in a file must occur there.

Usage:
  check_links.py [--root DIR]

Scans README.md plus every *.md under docs/ for markdown links and
inline code-span file references of the form `path/file.ext:line`.
External links (http/https/mailto) are ignored; anchors are stripped
before the existence check.

Table rows are split at `;` into clauses of the form
`Name`, `Other` — `path/a.h`, `path/b.cc`. Each backticked name before
the ` — ` must occur as a word in at least one of the files named after
it. A path may carry names of its own, `path/a.h` (`Name`). `A::B` and
`Suite.Test` check each part; a trailing `*` makes the last part a
prefix (`Suite.Ex31*`, `Suite.*`). A bare file name after a path
(`src/core/engine.h` / `engine.cc`) lives in that path's directory.
Backticked spans that are not names (`ω+k`) and clauses without a
` — ` or without a file are skipped.

Exit 1 with a per-item report when a target is missing or a name is
stale — CI runs this so a doc rename, a dead cross-reference or a
renamed symbol fails the build instead of rotting silently.
"""

import argparse
import glob
import os
import re
import sys

# [text](target) — excluding images' alt text edge cases is unnecessary;
# ![alt](img) matches the same shape and images must exist too.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

EXTERNAL = ("http://", "https://", "mailto:")

CODE_RE = re.compile(r"`([^`]+)`")
NAME_RE = re.compile(r"^[A-Za-z_]\w*(?:(?:::|\.)[A-Za-z_]\w*)*(?:\.\*|\*)?$")
PATH_RE = re.compile(r"^[\w./-]+\.(?:h|cc|cpp|py|md|txt|json)$")
DASH = " \u2014 "


def resolve_path(path, prev, root):
    """Repository file for a backticked path: repo-relative, src-relative,
    or a bare name beside the previous path of the clause."""
    candidates = [os.path.join(root, path), os.path.join(root, "src", path)]
    if prev is not None and "/" not in path:
        candidates.insert(0, os.path.join(os.path.dirname(prev), path))
    for c in candidates:
        if os.path.isfile(c):
            return c
    return None


def name_pattern(name):
    """Regexes that must all match for `name` to occur in a file."""
    prefix = name.endswith("*")
    parts = re.split(r"::|\.", name.rstrip("*"))
    if prefix and parts[-1] == "":
        parts.pop()  # `Suite.*`: any test of the suite
        prefix = False
    pats = [re.compile(r"(?<!\w)" + re.escape(p) + r"(?!\w)")
            for p in parts[:-1]]
    last = re.escape(parts[-1])
    pats.append(re.compile(r"(?<!\w)" + last + (r"\w*" if prefix else
                                                   r"(?!\w)")))
    return pats


def table_clauses(text):
    """(line number, names, files) for each `names — files` clause of a
    table row."""
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.lstrip().startswith("|"):
            continue
        for cell in line.split("|"):
            for clause in cell.split(";"):
                if DASH not in clause:
                    continue
                left, right = clause.split(DASH, 1)
                names = [c for c in CODE_RE.findall(left) if NAME_RE.match(c)]
                files = []
                for c in CODE_RE.findall(right):
                    if PATH_RE.match(c):
                        files.append(c)
                    elif NAME_RE.match(c):
                        names.append(c)
                yield lineno, names, files


def check_names(md_path, root):
    stale = []
    with open(md_path, encoding="utf-8") as f:
        text = f.read()
    rel = os.path.relpath(md_path, root)
    for lineno, names, files in table_clauses(text):
        if not names or not files:
            continue
        contents = []
        prev = None
        for path in files:
            resolved = resolve_path(path, prev, root)
            if resolved is None:
                stale.append(f"{rel}:{lineno}: no file '{path}'")
                continue
            prev = resolved
            with open(resolved, encoding="utf-8") as f:
                contents.append(f.read())
        if not contents:
            continue
        for name in names:
            pats = name_pattern(name)
            if not any(all(p.search(c) for p in pats) for c in contents):
                stale.append(f"{rel}:{lineno}: '{name}' not found in "
                             f"{', '.join(files)}")
    return stale


def check_file(md_path: str, root: str) -> list[str]:
    broken = []
    base = os.path.dirname(md_path)
    with open(md_path, encoding="utf-8") as f:
        text = f.read()
    for match in LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(EXTERNAL):
            continue
        path = target.split("#", 1)[0]
        if not path:  # pure in-page anchor
            continue
        resolved = os.path.normpath(os.path.join(base, path))
        if not os.path.exists(resolved):
            rel = os.path.relpath(md_path, root)
            broken.append(f"{rel}: broken link '{target}'")
    return broken


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", default=".")
    args = parser.parse_args()

    files = [os.path.join(args.root, "README.md")]
    files += sorted(glob.glob(os.path.join(args.root, "docs", "*.md")))
    files = [f for f in files if os.path.exists(f)]

    broken = []
    stale = []
    for md in files:
        broken += check_file(md, args.root)
        stale += check_names(md, args.root)

    print(f"checked {len(files)} markdown files")
    for line in broken:
        print(f"  BROKEN {line}")
    for line in stale:
        print(f"  STALE {line}")
    if broken or stale:
        return 1
    print("  all relative links resolve; all table names exist")
    return 0


if __name__ == "__main__":
    sys.exit(main())

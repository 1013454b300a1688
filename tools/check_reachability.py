#!/usr/bin/env python3
"""Fails when a library header is reached only by its own tests.

A module whose header is included from nothing but tests/ and its own .cpp
is code no bench, example or perfbench driver runs: it costs build time and
review attention and proves nothing about the system. This check walks the
#include graph from every translation unit outside src/ and tests/ (the
bench/, examples/ and perfbench/ mains) and, from each reached header, into
its own .cpp. Every src/**/*.h left unreached must be one of the reasoned
keeps in DESIGN.md §2; anything else fails the check.

Usage: check_reachability.py [REPO_ROOT]   (default: the repo holding this
script). Exit 0 when clean, 1 with the offending headers listed.
"""

import pathlib
import re
import sys

# The reasoned keeps of DESIGN.md §2: the paper's cited matrix-completion
# substrate, and the sparse-channel contrast (reached by an example today).
REASONED_KEEPS = {
    "estimation/matrix_completion.h",
    "estimation/compressed_sensing.h",
}
ROOT_DIRS = ("bench", "examples", "perfbench")
SOURCE_SUFFIXES = {".h", ".cpp"}
INCLUDE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)


def includes(path, src):
    """Resolved local includes of one file: src/-relative first, then the
    including file's own directory."""
    out = []
    for name in INCLUDE.findall(path.read_text(encoding="utf-8")):
        for candidate in (src / name, path.parent / name):
            if candidate.is_file():
                out.append(candidate.resolve())
                break
    return out


def unreached_headers(repo):
    src = repo / "src"
    roots = [
        p.resolve()
        for d in ROOT_DIRS
        if (repo / d).is_dir()
        for p in sorted((repo / d).rglob("*"))
        if p.suffix in SOURCE_SUFFIXES
    ]
    reached = set()
    stack = list(roots)
    while stack:
        path = stack.pop()
        if path in reached:
            continue
        reached.add(path)
        stack.extend(includes(path, src))
        own_cpp = path.with_suffix(".cpp")
        if path.suffix == ".h" and own_cpp.is_file():
            stack.append(own_cpp)
    return sorted(
        h.relative_to(src).as_posix()
        for h in src.rglob("*.h")
        if h.resolve() not in reached
    )


def main(argv):
    repo = pathlib.Path(argv[1] if len(argv) > 1 else
                        pathlib.Path(__file__).resolve().parent.parent)
    if not (repo / "src").is_dir():
        print(f"check_reachability: no src/ under {repo}", file=sys.stderr)
        return 2
    unreached = unreached_headers(repo)
    offenders = [h for h in unreached if h not in REASONED_KEEPS]
    if offenders:
        print("headers reached only from tests/ (and their own .cpp):")
        for h in offenders:
            print(f"  src/{h}")
        print("delete the module, or reach it from a bench/example and "
              "say why in DESIGN.md §2")
        return 1
    print(f"ok: every other src header is reached from bench/, examples/ "
          f"or perfbench/ ({len(unreached)} reasoned keep(s) unreached)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

#!/usr/bin/env python3
"""Static checker enforcing BitFlow's module layering (the include DAG).

Each top-level directory under src/ is a module.  The DAG below records, for
every module, the modules it may include *directly*; anything in the
transitive closure is also allowed (a module may name what its dependencies
already force into every TU).  The spec itself is verified acyclic on every
run, so a stray edge that would legalize an include cycle is caught in the
same breath as the include that wanted it.

The layering (leaves first):

    core                          — Status/Result, checks, failpoints, sync
    tensor, simd      -> core
    data              -> tensor
    telemetry         -> core
    runtime           -> core, telemetry
    bitpack, kernels  -> core, runtime, simd, tensor
    baseline          -> kernels (+ the floors below)
    graph             -> baseline, bitpack, kernels, telemetry, ...
    models, ops, io   -> graph, ...
    serve             -> graph, io, ...
    net               -> serve, core, telemetry (the wire front-end; it may
                         NOT reach around the router into graph/kernels)
    train             -> graph, io, data, bitpack
    gpuref            — self-contained reference, includes nothing

Special case: src/core/bitflow.hpp (and its TU) is the umbrella facade — the
one header downstream *users* include to get the whole library.  It may
include any module, and in exchange NOTHING inside src/ may include it:
internal code naming the facade would dissolve the layering into "everything
sees everything" the first time it happened.

Exit status: 0 when the tree is clean, 1 with one "file:line: message" per
violation otherwise.  `--self-test` runs against the fixture trees in
tools/lint_fixtures/layering/.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

# Module -> modules it may include DIRECTLY.  Transitive closure is allowed.
DIRECT_DEPS: dict[str, set[str]] = {
    "core": set(),
    "tensor": {"core"},
    "simd": {"core"},
    "data": {"tensor"},
    "telemetry": {"core"},
    "runtime": {"core", "telemetry"},
    "bitpack": {"core", "runtime", "simd", "tensor"},
    "kernels": {"core", "runtime", "simd", "tensor"},
    "baseline": {"kernels", "runtime", "simd", "tensor"},
    "graph": {"baseline", "bitpack", "core", "kernels", "runtime", "simd",
              "telemetry", "tensor"},
    "models": {"graph", "tensor"},
    "ops": {"baseline", "bitpack", "graph", "kernels", "runtime", "tensor"},
    "io": {"core", "graph", "kernels", "tensor"},
    "serve": {"core", "graph", "io", "runtime", "simd", "telemetry", "tensor"},
    "net": {"core", "serve", "telemetry"},
    "train": {"bitpack", "data", "graph", "io"},
    "gpuref": set(),
}

# The umbrella facade: may include everything; includable by nothing in src/.
FACADE = "core/bitflow.hpp"
FACADE_FILES = {"src/core/bitflow.hpp", "src/core/bitflow.cpp"}

SOURCE_SUFFIXES = {".cpp", ".cc", ".cxx", ".hpp", ".h", ".hh"}

QUOTED_INCLUDE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)


def strip_comments(text: str) -> str:
    """Blanks // and /* */ comments, offset-preserving, so a commented-out
    include cannot trip (or hide) a violation."""
    out = []
    i, n = 0, len(text)
    while i < n:
        if text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif text.startswith("/*", i):
            j = text.find("*/", i)
            j = n if j < 0 else j + 2
            out.append("".join(c if c == "\n" else " " for c in text[i:j]))
            i = j
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def line_of(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


def topo_check(deps: dict[str, set[str]]) -> list[str]:
    """Errors for unknown modules in the spec and for cycles (DFS)."""
    errors = []
    for mod, ds in deps.items():
        for d in ds:
            if d not in deps:
                errors.append(f"layering spec: module '{mod}' depends on unknown '{d}'")
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {m: WHITE for m in deps}

    def dfs(m: str, path: list[str]) -> None:
        color[m] = GRAY
        for d in sorted(deps[m]):
            if d not in color:
                continue
            if color[d] == GRAY:
                cyc = path[path.index(d):] + [d] if d in path else [m, d]
                errors.append("layering spec: dependency cycle " + " -> ".join(cyc))
            elif color[d] == WHITE:
                dfs(d, path + [d])
        color[m] = BLACK

    for m in sorted(deps):
        if color[m] == WHITE:
            dfs(m, [m])
    return errors


def transitive_closure(deps: dict[str, set[str]]) -> dict[str, set[str]]:
    closure: dict[str, set[str]] = {}

    def visit(m: str) -> set[str]:
        if m in closure:
            return closure[m]
        closure[m] = set(deps[m])  # provisional (spec is acyclic by topo_check)
        for d in deps[m]:
            if d in deps:
                closure[m] |= visit(d)
        return closure[m]

    for m in deps:
        visit(m)
    return closure


def scan_tree(root: pathlib.Path,
              deps: dict[str, set[str]] | None = None) -> tuple[list[str], int]:
    deps = DIRECT_DEPS if deps is None else deps
    errors = topo_check(deps)
    allowed = transitive_closure(deps)

    src = root / "src"
    n_files = 0
    for path in sorted(src.rglob("*")) if src.is_dir() else []:
        if not path.is_file() or path.suffix not in SOURCE_SUFFIXES:
            continue
        rel = path.relative_to(root).as_posix()
        rel_in_src = path.relative_to(src).as_posix()
        parts = rel_in_src.split("/")
        if len(parts) < 2:
            continue  # a file directly under src/ belongs to no module
        module = parts[0]
        n_files += 1
        if module not in deps:
            errors.append(f"{rel}:1: module '{module}' is not in the layering spec — "
                          "add it to DIRECT_DEPS in tools/check_layering.py with its "
                          "allowed dependencies")
            continue
        is_facade = rel in FACADE_FILES
        scan = strip_comments(path.read_text(errors="replace"))
        for m in QUOTED_INCLUDE.finditer(scan):
            inc = m.group(1)
            lineno = line_of(scan, m.start())
            if inc == FACADE and not is_facade:
                errors.append(
                    f"{rel}:{lineno}: includes the umbrella facade {FACADE} — internal "
                    "code must include the specific headers it uses, only downstream "
                    "users include the facade")
                continue
            if "/" not in inc:
                continue  # same-directory relative include
            target = inc.split("/")[0]
            if target not in deps:
                continue  # not one of our modules (e.g. third-party style path)
            if target == module or is_facade:
                continue
            if target not in allowed[module]:
                direct = ", ".join(sorted(deps[module])) or "(nothing)"
                errors.append(
                    f"{rel}:{lineno}: module '{module}' must not include '{inc}' — "
                    f"'{target}' is not in its dependency closure (direct deps: {direct}). "
                    "Either the include points the wrong way through the layering, or the "
                    "DAG in tools/check_layering.py needs a deliberate new edge")
    return errors, n_files


def self_test(fixtures: pathlib.Path) -> int:
    failures = []
    ok_errors, ok_n = scan_tree(fixtures / "good")
    if ok_errors:
        failures.append("good fixture tree should be clean, got:\n    "
                        + "\n    ".join(ok_errors))
    if ok_n == 0:
        failures.append("good fixture tree scanned no files")

    bad_errors, bad_n = scan_tree(fixtures / "bad")
    if bad_n == 0:
        failures.append("bad fixture tree scanned no files")
    joined = "\n".join(bad_errors)
    expectations = [
        ("upward include", r"src/tensor/up\.hpp:\d+: module 'tensor' must not include 'serve/"),
        ("leaf include", r"src/core/leafy\.hpp:\d+: module 'core' must not include 'tensor/"),
        ("facade include", r"src/simd/facade_user\.cpp:\d+: includes the umbrella facade"),
        ("unknown module", r"src/mystery/new\.hpp:1: module 'mystery' is not in the layering spec"),
    ]
    for label, pat in expectations:
        if not re.search(pat, joined):
            failures.append(f"bad fixture tree: expected a '{label}' violation matching "
                            f"/{pat}/, checker reported:\n{joined or '  (nothing)'}")
    # A commented-out upward include must NOT be flagged.
    if re.search(r"src/tensor/commented\.hpp", joined):
        failures.append("bad fixture tree: commented-out include was flagged")

    # The cycle detector must reject a looped spec.
    looped = {m: set(d) for m, d in DIRECT_DEPS.items()}
    looped["core"] = {"serve"}
    cycle_errors = topo_check(looped)
    if not any("cycle" in e for e in cycle_errors):
        failures.append("topo_check accepted a spec with core -> serve -> ... -> core")

    if failures:
        print(f"layering self-test: {len(failures)} failure(s):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"layering self-test: OK ({ok_n}+{bad_n} fixture files, "
          f"{len(bad_errors)} seeded violations caught)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parent.parent,
                        help="repository root (default: parent of tools/)")
    parser.add_argument("--self-test", action="store_true",
                        help="run against tools/lint_fixtures/layering/ instead of the tree")
    args = parser.parse_args()

    if args.self_test:
        return self_test(pathlib.Path(__file__).resolve().parent
                         / "lint_fixtures" / "layering")

    errors, n_files = scan_tree(args.root.resolve())
    if errors:
        print(f"module layering: {len(errors)} violation(s) in {n_files} scanned files:",
              file=sys.stderr)
        for e in errors:
            print(f"  {e}", file=sys.stderr)
        return 1
    print(f"module layering: OK ({n_files} files scanned)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

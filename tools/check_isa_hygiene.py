#!/usr/bin/env python3
"""Static lint enforcing BitFlow's ISA-hygiene invariant.

The whole dispatch design of this repository rests on one property that the
compiler cannot check: *every* use of a vector ISA must live in a translation
unit compiled with exactly that ISA's -m flags, selected at runtime by CPUID.
If an intrinsic (or an -m flag) leaks into a shared header or a generic TU,
the binary silently requires wider hardware than the baseline x86-64 the
README promises, and the scalar baselines stop being honest.

Three rules, in decreasing order of severity:

  1. Raw SIMD intrinsic calls (_mm_*/_mm256_*/_mm512_*), vector register
     types (__m128/__m256/__m512) and <immintrin.h> includes may appear only
     in the per-ISA translation units, or in the designated SIMD
     implementation headers that those TUs include.  The register-view
     header bitpack/bit64.hpp may *name* register types (its Table II
     unions) and include <immintrin.h>, but must not call intrinsics.

  2. SIMD implementation headers (simd/bitops_inline.hpp and
     simd/bitops_tile.hpp) may be included only by per-ISA translation
     units: they contain real intrinsic bodies whose lowering depends on
     the including TU's -m flags.

  3. In the CMake tree, ISA -m flags (-msse*, -mavx*, -mpopcnt, -mfma, ...)
     may be attached only to per-ISA translation units via
     set_source_files_properties — never through add_compile_options,
     target_compile_options, or CMAKE_CXX_FLAGS.

Exit status: 0 when the tree is clean, 1 with one "file:line: message" per
violation otherwise.  Run from anywhere: paths are resolved relative to the
repository root (the parent of this script's directory).

`--objects ARCHIVE...` checks the built code instead of the source: it runs
`nm -A` over the static archives that hold the per-ISA translation units and
fails when one of their objects defines a symbol the linker may merge across
objects (nm types W, V and u: weak and unique definitions), other than the
personality reference every throwing TU emits.  Two per-ISA TUs that emit
the same such symbol (an un-inlined `inline` helper of a SIMD header, a
template instantiated the same way) leave the linker free to keep one TU's
lowering for both, so an AVX-512 VPOPCNTDQ entry point could run byte-LUT
code with every test still bit-exact.  Exit 77 (ctest's skip code) when nm
is missing.  `--self-test` runs that check on canned `nm -A` text.

`--lowering ARCHIVE` checks what each per-ISA kernel object issues: it runs
`objdump -d` over the kernels archive and asserts, per member, that the
VPOPCNTDQ object issues vpopcntq and no vpshufb, the byte-LUT AVX-512
object issues vpshufb on zmm and no vpopcntq, the AVX2 object names no zmm
register and the u64 object no ymm or zmm.  With --objects, which leaves the
linker nothing to merge, this pins each entry point to its lowering.  A
per-ISA member (pressedconv_<isa>.cpp.o) that is missing or has no rule
fails it; exit 77 when objdump is missing.  `--self-test=lowering` runs
this check on canned `objdump -d` text.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import shutil
import subprocess
import sys

# --- the allowlists: the only places ISA-specific code may live --------------

# Translation units compiled with per-ISA -m flags (see the matching
# set_source_files_properties calls in the CMake tree).
PER_ISA_TUS = {
    "src/simd/bitops_u64.cpp",
    "src/simd/bitops_sse.cpp",
    "src/simd/bitops_avx2.cpp",
    "src/simd/bitops_avx512.cpp",
    "src/kernels/pressedconv_u64.cpp",
    "src/kernels/pressedconv_avx2.cpp",
    "src/kernels/pressedconv_avx512.cpp",
    "src/kernels/pressedconv_avx512vp.cpp",
    "src/bitpack/pack_avx2.cpp",
    "src/baseline/sgemm_avx2.cpp",
    "src/baseline/unopt_popcount.cpp",
}

# Headers holding intrinsic implementations; their lowering depends on the
# including TU's flags, so only per-ISA TUs may include them.
SIMD_IMPL_HEADERS = {
    "src/simd/bitops_inline.hpp",
    "src/simd/bitops_tile.hpp",
}

# Headers that may name vector register types (byte-compatible union views)
# but must not call intrinsics.
REGISTER_VIEW_HEADERS = {
    "src/bitpack/bit64.hpp",
}

SCAN_DIRS = ("src", "tests", "bench", "tools", "examples")
SOURCE_SUFFIXES = {".cpp", ".cc", ".cxx", ".hpp", ".h", ".hh"}

INTRINSIC_CALL = re.compile(r"\b_mm(?:256|512)?_[A-Za-z0-9_]+\s*\(")
VECTOR_TYPE = re.compile(r"\b__m(?:128|256|512)[id]?\b")
INTRIN_INCLUDE = re.compile(
    r'#\s*include\s*[<"](?:imm|x86|xmm|emm|pmm|tmm|smm|nmm|wmm|amm|avx\w*)intrin\.h[>"]')
IMPL_HEADER_INCLUDE = re.compile(r'#\s*include\s*[<"]([^">]*bitops_(?:inline|tile)\.hpp)[">]')

# ISA-selecting -m flags.  Deliberately narrow so flags like -march (banned
# separately in review) or -mtune never match by accident, and generic flags
# (-m64) stay out of scope.
ISA_FLAG = re.compile(
    r"-m(?:sse[0-9.]*[a-z0-9.]*|ssse3|avx(?:2|512[a-z0-9]*)?|popcnt|fma4?|bmi2?|f16c|xop)\b")

SET_SRC_PROPS = re.compile(r"set_source_files_properties\s*\(", re.IGNORECASE)


STRING_LITERAL = re.compile(r'"(?:[^"\\\n]|\\.)*"')


def strip_string_literals(text: str) -> str:
    """Blanks double-quoted string literals (offset-preserving) so intrinsic
    names inside report/log strings don't trip the lint."""
    return STRING_LITERAL.sub(lambda m: '"' + " " * (len(m.group(0)) - 2) + '"', text)


def strip_line_comments(text: str, marker: str) -> str:
    """Blanks everything from `marker` to end of line, preserving offsets."""
    out = []
    for line in text.splitlines(keepends=True):
        idx = line.find(marker)
        if idx >= 0:
            body = line[:idx]
            tail = line[idx:]
            line = body + re.sub(r"[^\n]", " ", tail)
        out.append(line)
    return "".join(out)


def line_of(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


def check_cxx_file(rel: str, text: str, errors: list[str]) -> None:
    if rel in PER_ISA_TUS or rel in SIMD_IMPL_HEADERS:
        return  # may contain anything ISA-specific
    scan = strip_line_comments(strip_string_literals(text), "//")
    if rel in REGISTER_VIEW_HEADERS:
        for m in INTRINSIC_CALL.finditer(scan):
            errors.append(
                f"{rel}:{line_of(scan, m.start())}: intrinsic call {m.group(0).strip('( ')} in a "
                "register-view header (bit64.hpp may name __m types but not call intrinsics)")
        return
    for m in INTRINSIC_CALL.finditer(scan):
        errors.append(
            f"{rel}:{line_of(scan, m.start())}: raw SIMD intrinsic {m.group(0).strip('( ')} "
            "outside the per-ISA translation units")
    for m in VECTOR_TYPE.finditer(scan):
        errors.append(
            f"{rel}:{line_of(scan, m.start())}: vector register type {m.group(0)} outside the "
            "per-ISA translation units / register-view headers")
    for m in INTRIN_INCLUDE.finditer(scan):
        errors.append(
            f"{rel}:{line_of(scan, m.start())}: <immintrin.h>-family include outside the per-ISA "
            "translation units")


def check_impl_header_includes(rel: str, text: str, errors: list[str]) -> None:
    if rel in PER_ISA_TUS or rel in SIMD_IMPL_HEADERS:
        return
    scan = strip_line_comments(text, "//")
    for m in IMPL_HEADER_INCLUDE.finditer(scan):
        errors.append(
            f"{rel}:{line_of(scan, m.start())}: includes SIMD impl header {m.group(1)} — only "
            "per-ISA translation units may include it (its lowering depends on the TU's -m flags)")


def allowed_flag_spans(rel_dir: str, text: str, errors: list[str]) -> list[tuple[int, int]]:
    """Spans of set_source_files_properties(...) calls whose sources are all
    per-ISA TUs.  A call on any other source file is itself reported."""
    spans = []
    for m in SET_SRC_PROPS.finditer(text):
        depth = 1
        i = m.end()
        while i < len(text) and depth > 0:
            if text[i] == "(":
                depth += 1
            elif text[i] == ")":
                depth -= 1
            i += 1
        body = text[m.end():i - 1]
        files = []
        for tok in body.replace("\n", " ").split():
            if tok.upper() == "PROPERTIES":
                break
            files.append(tok.strip('"'))
        if not ISA_FLAG.search(body):
            continue
        bad = [f for f in files
               if (f"{rel_dir}/{f}" if rel_dir else f) not in PER_ISA_TUS]
        if bad:
            errors.append(
                f"{rel_dir or '.'}/CMakeLists.txt:{line_of(text, m.start())}: ISA -m flags "
                f"attached to non-per-ISA source(s): {', '.join(bad)}")
        else:
            spans.append((m.start(), i))
    return spans


def check_cmake_file(rel: str, text: str, errors: list[str]) -> None:
    scan = strip_line_comments(text, "#")
    rel_dir = str(pathlib.PurePosixPath(rel).parent)
    if rel_dir == ".":
        rel_dir = ""
    spans = allowed_flag_spans(rel_dir, scan, errors)
    for m in ISA_FLAG.finditer(scan):
        if any(lo <= m.start() < hi for lo, hi in spans):
            continue
        errors.append(
            f"{rel}:{line_of(scan, m.start())}: ISA flag {m.group(0)} outside a "
            "set_source_files_properties call on a per-ISA translation unit")


# --- object mode: what the linker sees of the per-ISA TUs ---------------------

# nm types of definitions the linker may merge across objects: weak (W, V)
# and unique global (u).
MERGEABLE_TYPES = {"W", "V", "u"}
# The personality routine's reference: the same bytes whatever the -m flags.
MERGEABLE_ALLOWED = {"DW.ref.__gxx_personality_v0"}
# One `nm -A` line of an archive member: "archive:member.o:address type name"
# (no address for undefined symbols).
NM_LINE = re.compile(
    r"^(?P<archive>.*):(?P<member>[^:/]+\.o):\s*[0-9A-Fa-f]*\s+(?P<type>\S)\s+(?P<name>\S+)$")
SKIP = 77


def per_isa_objects() -> set[str]:
    """Archive member names of the per-ISA TUs (CMake names them <tu>.o)."""
    return {pathlib.PurePosixPath(tu).name + ".o" for tu in PER_ISA_TUS}


def check_nm_output(text: str) -> list[str]:
    """Violations in `nm -A` output over the archives: a mergeable symbol
    defined by a per-ISA object, or a per-ISA object the archives lack."""
    objects = per_isa_objects()
    seen: set[str] = set()
    errors = []
    for line in text.splitlines():
        m = NM_LINE.match(line)
        if not m or m["member"] not in objects:
            continue
        seen.add(m["member"])
        if m["type"] in MERGEABLE_TYPES and m["name"] not in MERGEABLE_ALLOWED:
            errors.append(
                f"{m['archive']}({m['member']}): defines {m['type']} {m['name']} — a per-ISA "
                "object's weak or unique symbol lets the linker keep another TU's lowering")
    for missing in sorted(objects - seen):
        errors.append(f"{missing}: per-ISA object not found in the archives")
    return errors


def check_objects(nm: str, archives: list[str]) -> int:
    tool = shutil.which(nm or "nm")
    if tool is None:
        print(f"ISA object hygiene: skipped ({nm or 'nm'} not found)")
        return SKIP
    run = subprocess.run([tool, "-A", *archives], capture_output=True, text=True)
    if run.returncode != 0:
        print(f"ISA object hygiene: nm failed: {run.stderr.strip()}", file=sys.stderr)
        return 1
    errors = check_nm_output(run.stdout)
    if errors:
        print(f"ISA object hygiene: {len(errors)} violation(s):", file=sys.stderr)
        for e in errors:
            print(f"  {e}", file=sys.stderr)
        return 1
    print(f"ISA object hygiene: OK ({len(per_isa_objects())} per-ISA objects in "
          f"{len(archives)} archives)")
    return 0


# --- lowering mode: what each per-ISA kernel object issues --------------------

# Per member of the kernels archive: instruction counts that must be zero and
# ones that must be positive.  Counted keys: vpopcntq, vpshufb, vpshufb_zmm
# (a vpshufb with a zmm operand), zmm and ymm (instructions naming one).
LOWERING_RULES = {
    "pressedconv_avx512vp.cpp.o": {"positive": ["vpopcntq"], "zero": ["vpshufb"]},
    "pressedconv_avx512.cpp.o": {"positive": ["vpshufb_zmm"], "zero": ["vpopcntq"]},
    "pressedconv_avx2.cpp.o": {"positive": [], "zero": ["zmm"]},
    "pressedconv_u64.cpp.o": {"positive": [], "zero": ["ymm", "zmm"]},
}
PER_ISA_KERNEL_MEMBER = re.compile(r"^pressedconv_\w+\.cpp\.o$")
# "member.o:     file format elf64-x86-64" opens each archive member.
OBJDUMP_MEMBER = re.compile(r"^(?P<member>[^\s:]+\.o):\s+file format")
# "  addr:<TAB>bytes<TAB>mnemonic operands"; a wrapped line of bytes alone
# has no second tab.
OBJDUMP_INSN = re.compile(r"^\s*[0-9a-f]+:\t[^\t]*\t(?P<mnemonic>\S+)\s*(?P<operands>.*)$")


def count_lowering(text: str) -> dict[str, dict[str, int]]:
    """Per archive member of `objdump -d` output, the counted instructions."""
    counts: dict[str, dict[str, int]] = {}
    member = None
    for line in text.splitlines():
        m = OBJDUMP_MEMBER.match(line)
        if m:
            member = m["member"]
            counts[member] = {"vpopcntq": 0, "vpshufb": 0, "vpshufb_zmm": 0, "zmm": 0, "ymm": 0}
            continue
        m = OBJDUMP_INSN.match(line)
        if not m or member is None:
            continue
        c = counts[member]
        mnemonic, operands = m["mnemonic"], m["operands"]
        c["vpopcntq"] += mnemonic == "vpopcntq"
        c["vpshufb"] += mnemonic == "vpshufb"
        c["vpshufb_zmm"] += mnemonic == "vpshufb" and "%zmm" in operands
        c["zmm"] += "%zmm" in operands
        c["ymm"] += "%ymm" in operands
    return counts


def check_lowering_output(text: str) -> list[str]:
    """Violations in `objdump -d` output over the kernels archive: a rule a
    member breaks, a ruled member that is missing, a per-ISA member with no
    rule."""
    counts = count_lowering(text)
    errors = []
    for member, c in counts.items():
        rule = LOWERING_RULES.get(member)
        if rule is None:
            if PER_ISA_KERNEL_MEMBER.match(member):
                errors.append(f"{member}: per-ISA kernel object with no lowering rule")
            continue
        for key in rule["positive"]:
            if c[key] == 0:
                errors.append(f"{member}: issues no {key} ({c})")
        for key in rule["zero"]:
            if c[key] != 0:
                errors.append(f"{member}: issues {c[key]} {key} ({c})")
    for missing in sorted(set(LOWERING_RULES) - set(counts)):
        errors.append(f"{missing}: per-ISA kernel object not found in the archive")
    return errors


def check_lowering(objdump: str, archive: str) -> int:
    tool = shutil.which(objdump or "objdump")
    if tool is None:
        print(f"ISA lowering: skipped ({objdump or 'objdump'} not found)")
        return SKIP
    run = subprocess.run([tool, "-d", archive], capture_output=True, text=True)
    if run.returncode != 0:
        print(f"ISA lowering: objdump failed: {run.stderr.strip()}", file=sys.stderr)
        return 1
    errors = check_lowering_output(run.stdout)
    if errors:
        print(f"ISA lowering: {len(errors)} violation(s):", file=sys.stderr)
        for e in errors:
            print(f"  {e}", file=sys.stderr)
        return 1
    counts = count_lowering(run.stdout)
    print("ISA lowering: OK (" + "; ".join(
        f"{m}: {counts[m]['vpopcntq']} vpopcntq, {counts[m]['vpshufb_zmm']} zmm vpshufb, "
        f"{counts[m]['zmm']} zmm, {counts[m]['ymm']} ymm" for m in sorted(LOWERING_RULES)) + ")")
    return 0


def lowering_self_test() -> int:
    """check_lowering_output on canned text: a clean listing passes; an
    avx512vp object lowered to the byte-LUT, an avx512 object issuing
    vpopcntq, wider registers in u64 and AVX2, and an unknown and a missing
    member are each reported."""
    def member(name: str, *insns: str) -> list[str]:
        return ["", f"{name}:     file format elf64-x86-64", "",
                "Disassembly of section .text:", "",
                "0000000000000000 <_ZN7bitflow7kernels6detail1fE>:"] + [
            f"  {4 * i:x}:\t62 f2 fd 48\t{insn}" for i, insn in enumerate(insns)] + [
            "  40:\t00 00 00 00 00 00 00 00 00 00 00 00 00 00 00 \tnopw   0x0(%rax,%rax,1)",
            "  4f:\t00 "]

    def listing(*members: list[str]) -> str:
        return "\n".join(["In archive lib/libbitflow_kernels.a:"] + sum(members, []))

    vp = member("pressedconv_avx512vp.cpp.o", "vpopcntq %zmm1,%zmm2", "vpaddq %zmm2,%zmm3,%zmm3")
    lut = member("pressedconv_avx512.cpp.o", "vpshufb %zmm1,%zmm4,%zmm5",
                 "vpsadbw %zmm6,%zmm5,%zmm5")
    avx2 = member("pressedconv_avx2.cpp.o", "vpshufb %ymm1,%ymm4,%ymm5", "vmovdqu (%rdi),%ymm0")
    u64 = member("pressedconv_u64.cpp.o", "popcnt %rax,%rax", "movq %xmm0,%rax")
    generic = member("pressedconv.cpp.o", "vmovdqu (%rdi),%ymm0")
    vp_as_lut = member("pressedconv_avx512vp.cpp.o", "vpshufb %zmm1,%zmm4,%zmm5",
                       "vpsadbw %zmm6,%zmm5,%zmm5")
    avx2_zmm = member("pressedconv_avx2.cpp.o", "vpxorq %zmm1,%zmm1,%zmm1")
    u64_ymm = member("pressedconv_u64.cpp.o", "vpxor %ymm1,%ymm1,%ymm1")
    sse = member("pressedconv_sse.cpp.o", "popcnt %rax,%rax")
    cases = [
        ("clean listing", listing(generic, u64, avx2, lut, vp), []),
        ("avx512vp lowered to the byte-LUT", listing(u64, avx2, lut, vp_as_lut),
         ["pressedconv_avx512vp.cpp.o: issues no vpopcntq",
          "pressedconv_avx512vp.cpp.o: issues 1 vpshufb"]),
        ("avx512 issues vpopcntq",
         listing(u64, avx2, member("pressedconv_avx512.cpp.o", "vpopcntq %zmm1,%zmm2"), vp),
         ["pressedconv_avx512.cpp.o: issues no vpshufb_zmm",
          "pressedconv_avx512.cpp.o: issues 1 vpopcntq"]),
        ("wider registers", listing(u64_ymm, avx2_zmm, lut, vp),
         ["pressedconv_u64.cpp.o: issues 1 ymm", "pressedconv_avx2.cpp.o: issues 1 zmm"]),
        ("unknown and missing members", listing(sse, avx2, lut, vp),
         ["pressedconv_sse.cpp.o: per-ISA kernel object with no lowering rule",
          "pressedconv_u64.cpp.o: per-ISA kernel object not found"]),
    ]
    return run_cases("ISA lowering", check_lowering_output, cases)


def run_cases(check: str, fn, cases) -> int:
    """Runs `fn` on each (name, text, expected error substrings) case."""
    failed = 0
    for name, text, want in cases:
        errors = fn(text)
        if not (len(errors) == len(want) and all(w in e for w, e in zip(want, errors))):
            failed += 1
            print(f"self-test '{name}': expected {want}, got {errors}", file=sys.stderr)
    if failed:
        return 1
    print(f"{check} self-test: OK ({len(cases)} cases)")
    return 0


def self_test() -> int:
    """check_nm_output on canned text: a clean listing passes; seeded shared
    symbols and a missing object are each reported."""
    clean = []
    for obj in sorted(per_isa_objects()):
        clean += [f"lib/libbitflow_x.a:{obj}:0000000000000000 T _ZN7bitflow6kernel_{len(clean)}Ev",
                  f"lib/libbitflow_x.a:{obj}:0000000000000010 t _ZN12_GLOBAL__N_13OpsEv",
                  f"lib/libbitflow_x.a:{obj}:                 U memcpy",
                  f"lib/libbitflow_x.a:{obj}:0000000000000000 V DW.ref.__gxx_personality_v0"]
    # Generic objects may define mergeable symbols: only per-ISA ones count.
    clean += ["lib/libbitflow_x.a:parity.cpp.o:0000000000000000 W _ZN7bitflow4simd6ResultD1Ev",
              "lib/libbitflow_x.a:pressedconv.cpp.o:0000000000000000 u _ZZN6digitsE"]
    shared = "_ZN7bitflow4simd3inl18popcount_epi64_512EDv8_x"
    bad = clean + [
        f"lib/libbitflow_kernels.a:pressedconv_avx512.cpp.o:0000000000000000 W {shared}",
        f"lib/libbitflow_kernels.a:pressedconv_avx512vp.cpp.o:0000000000000000 W {shared}",
        "lib/libbitflow_kernels.a:pressedconv_avx2.cpp.o:0000000000000000 u _ZZN4bitflowE4lut",
        "lib/libbitflow_kernels.a:pressedconv_u64.cpp.o:0000000000000000 V _ZTV8Tile",
    ]
    missing = [line for line in clean if ":bitops_sse.cpp.o:" not in line]
    cases = [
        ("clean listing", "\n".join(clean), []),
        ("shared symbols", "\n".join(bad),
         ["pressedconv_avx512.cpp.o", "pressedconv_avx512vp.cpp.o", "pressedconv_avx2.cpp.o",
          "pressedconv_u64.cpp.o"]),
        ("missing object", "\n".join(missing), ["bitops_sse.cpp.o: per-ISA object not found"]),
    ]
    return run_cases("ISA object hygiene", check_nm_output, cases)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parent.parent,
                        help="repository root (default: parent of tools/)")
    parser.add_argument("--objects", nargs="+", metavar="ARCHIVE",
                        help="check these static archives' per-ISA objects instead of the source")
    parser.add_argument("--nm", default="nm", help="the nm to run in --objects mode")
    parser.add_argument("--lowering", metavar="ARCHIVE",
                        help="check what each per-ISA object of this kernels archive issues")
    parser.add_argument("--objdump", default="objdump",
                        help="the objdump to run in --lowering mode")
    parser.add_argument("--self-test", nargs="?", const="objects",
                        choices=["objects", "lowering"],
                        help="run the --objects (default) or --lowering check on canned "
                             "tool output")
    args = parser.parse_args()
    if args.self_test == "objects":
        return self_test()
    if args.self_test == "lowering":
        return lowering_self_test()
    if args.objects:
        return check_objects(args.nm, args.objects)
    if args.lowering:
        return check_lowering(args.objdump, args.lowering)
    root = args.root.resolve()

    errors: list[str] = []
    n_files = 0
    for d in SCAN_DIRS:
        base = root / d
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if not path.is_file():
                continue
            rel = path.relative_to(root).as_posix()
            if path.name == "CMakeLists.txt":
                n_files += 1
                check_cmake_file(rel, path.read_text(errors="replace"), errors)
            elif path.suffix in SOURCE_SUFFIXES:
                n_files += 1
                text = path.read_text(errors="replace")
                check_cxx_file(rel, text, errors)
                check_impl_header_includes(rel, text, errors)
    # The top-level CMakeLists is outside SCAN_DIRS; check it too.
    top = root / "CMakeLists.txt"
    if top.is_file():
        n_files += 1
        check_cmake_file("CMakeLists.txt", top.read_text(errors="replace"), errors)

    # The allowlist must not rot: every listed file has to exist.
    for listed in sorted(PER_ISA_TUS | SIMD_IMPL_HEADERS | REGISTER_VIEW_HEADERS):
        if not (root / listed).is_file():
            errors.append(f"{listed}: listed in the hygiene allowlist but missing from the tree")

    if errors:
        print(f"ISA hygiene: {len(errors)} violation(s) in {n_files} scanned files:",
              file=sys.stderr)
        for e in errors:
            print(f"  {e}", file=sys.stderr)
        return 1
    print(f"ISA hygiene: OK ({n_files} files scanned)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

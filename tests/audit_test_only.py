#!/usr/bin/env python3
"""Find library code that only tests link.

Builds the repository (every library, test, bench and example) and the
perfbench binary at -O0 -fno-inline with function and data sections and
--gc-sections, so each binary keeps exactly the library functions it
can reach. It then compares the demangled T/W symbols of the src/
archives that name a cllm entity (template instantiations over cllm
types included) with the symbols of

  * the product binaries: everything built under bench/ and examples/,
    and perfbench's cllm_perfbench;
  * the test binaries under tests/.

A library symbol that no product binary links is "test-only" if some
test links it and "dead" if nothing does. Either kind fails the audit
unless tests/test_only_allowlist.txt names it. Run from the repository
root:

  python3 tests/audit_test_only.py [--build-dir DIR] [--jobs N]
                                   [--no-build] [--list]

The build goes to build-audit/ by default (its own tree; it needs a
second full build, so it is not a ctest). Exit status: 0 clean, 1 when
an unlisted test-only or dead symbol exists, 2 on a build error.
"""

import argparse
import fnmatch
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALLOWLIST = os.path.join(ROOT, "tests", "test_only_allowlist.txt")
FLAGS = "-O0 -fno-inline -ffunction-sections -fdata-sections"
LINK_FLAGS = "-Wl,--gc-sections"


def run(cmd):
    print("+", " ".join(cmd), file=sys.stderr, flush=True)
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit(2)


def configure_and_build(src, out, jobs, targets=None):
    run(["cmake", "-S", src, "-B", out,
         "-DCMAKE_BUILD_TYPE=None",
         "-DCMAKE_CXX_FLAGS=" + FLAGS,
         "-DCMAKE_EXE_LINKER_FLAGS=" + LINK_FLAGS])
    cmd = ["cmake", "--build", out, "-j", str(jobs)]
    if targets:
        cmd += ["--target"] + targets
    run(cmd)


def files_under(top, pred):
    for d, _, names in os.walk(top):
        if "CMakeFiles" in d:
            continue
        for n in sorted(names):
            p = os.path.join(d, n)
            if pred(p):
                yield p


def is_exe(p):
    return os.access(p, os.X_OK) and not os.path.isdir(p) and \
        "." not in os.path.basename(p)


def symbols(path):
    """Demangled T/W symbols of `path` that mention a cllm entity."""
    res = subprocess.run(["nm", "-C", "--defined-only", path],
                         capture_output=True, text=True)
    if res.returncode != 0:
        sys.exit(f"nm failed on {path}: {res.stderr.strip()}")
    out = set()
    for line in res.stdout.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] in ("T", "W") and \
                "cllm::" in parts[2]:
            out.add(parts[2])
    return out


def function_name(sym):
    """`sym` up to its parameter list, e.g. `cllm::mem::Foo::bar`."""
    depth = 0
    for i, c in enumerate(sym):
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
        elif c == "(" and depth == 0 and i > 0 and \
                not sym.startswith("operator", i - 8):
            return sym[:i]
    return sym


def load_allowlist():
    """Entries are `pattern  # reason`; an entry without a reason is an
    error. A pattern without wildcards names one cllm function (see
    function_name), overloads included. A pattern with `*` or `?` is a
    glob over whole demangled symbols and only covers template
    instantiations (a symbol whose function name is not a plain
    `cllm::...` name), such as the std containers an allowlisted
    function walks; a cllm function never hides behind a glob."""
    entries = {}
    with open(ALLOWLIST) as fh:
        for n, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            name, sep, reason = line.partition("#")
            if not sep or not reason.strip():
                sys.exit(f"{ALLOWLIST}:{n}: entry without a reason")
            entries[name.strip()] = reason.strip()
    return entries


def allowed_by(sym, allow):
    """The allowlist entry covering `sym`, or None."""
    name = function_name(sym)
    if name in allow:
        return name
    if re.fullmatch(r"cllm::\S+", name):
        return None
    for pattern in allow:
        if any(c in pattern for c in "*?") and \
                fnmatch.fnmatchcase(sym, pattern):
            return pattern
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--build-dir", default=os.path.join(ROOT, "build-audit"))
    ap.add_argument("--jobs", type=int, default=os.cpu_count() or 2)
    ap.add_argument("--no-build", action="store_true",
                    help="reuse an existing audit build")
    ap.add_argument("--list", action="store_true",
                    help="print every test-only and dead symbol")
    args = ap.parse_args()

    main_dir = os.path.join(args.build_dir, "repo")
    bench_dir = os.path.join(args.build_dir, "perfbench")
    if not args.no_build:
        configure_and_build(ROOT, main_dir, args.jobs)
        configure_and_build(os.path.join(ROOT, "perfbench"), bench_dir,
                            args.jobs, ["cllm_perfbench"])

    library = set()
    for a in files_under(os.path.join(main_dir, "src"),
                         lambda p: p.endswith(".a")):
        library |= symbols(a)
    products = [p for sub in ("bench", "examples")
                for p in files_under(os.path.join(main_dir, sub), is_exe)]
    products.append(os.path.join(bench_dir, "cllm_perfbench"))
    tests = list(files_under(os.path.join(main_dir, "tests"), is_exe))
    if not library or len(products) < 2 or not tests:
        sys.exit(f"nothing to audit under {args.build_dir}")

    used = set()
    for p in products:
        used |= symbols(p)
    tested = set()
    for t in tests:
        tested |= symbols(t)

    unused = library - used
    test_only = unused & tested
    dead = unused - tested
    print(f"library symbols: {len(library)}; not linked by any of "
          f"{len(products)} product binaries: {len(unused)} "
          f"({len(test_only)} linked by tests, {len(dead)} by nothing)")

    allow = load_allowlist()
    matched = set()
    bad = []
    for sym in sorted(unused):
        kind = "test-only" if sym in tested else "dead"
        entry = allowed_by(sym, allow)
        if entry:
            matched.add(entry)
        else:
            bad.append((kind, sym))
        if args.list:
            print(f"  {kind:9} {'allowed' if entry else 'NEW    '} {sym}")
    for e in sorted(set(allow) - matched):
        print(f"note: allowlist entry matches nothing, drop it: {e}")
    if bad:
        print(f"\n{len(bad)} library symbol(s) outside {ALLOWLIST} are "
              "linked by no bench, example or perfbench binary:")
        for kind, sym in bad:
            print(f"  {kind:9} {sym}")
        print("Give each a library caller, move it into tests/, delete "
              "it, or allowlist it with a reason.")
        return 1
    print("ok: every test-only library symbol is allowlisted")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""ringnet invariant linter.

Enforces repo-specific invariants that clang-tidy cannot express. Run from
anywhere; the repo root is located relative to this file (override with
--repo). Exit status: 0 clean, 1 violations found, 2 internal error.

Rules
-----
RN001 metrics-string-key
    No string-keyed Metrics mutation (`.incr("...")`, `.gauge_max("...")`)
    in core protocol code (include/core/, src/core/). The hot paths must
    use an obs::names handle; the string overloads hash the name on every
    event. Cold end-of-run *reads*
    (`.counter("...")`) stay allowed, as does bench code (bench_micro
    measures the string-vs-interned gap on purpose).

RN002 map-in-core-header
    No `std::map` in core/ headers unless the declaration carries a
    `// lint: map-ok` rationale within the three lines above it (or on
    the line itself). Node-based ordered maps are a hot-path liability;
    a rationale must say what the ordering buys (e.g. MessageQueue's
    in-order prune/lower_bound walk).

RN003 raw-rng
    No `rand()`, `srand()`, `std::random_device`, or std::mt19937 outside
    util/rng. Every stochastic draw must flow through util::Rng so a
    (seed, config) pair replays bit-identically across runs, platforms,
    and compilers.

RN004 stdout-in-library
    No `std::cout` / `printf` / `puts` in library code (include/, src/).
    The library reports through Metrics/Trace/Table values; only benches,
    tests, and tools own process output.

RN005 header-self-containment
    Every public header under include/ must compile standalone: a
    generated TU containing only `#include "<header>"` is compiled with
    `-fsyntax-only -std=c++20`. Catches headers that lean on includes
    supplied by whoever included them first.

RN006 raw-wall-clock
    No raw wall-clock reads (`std::chrono::*_clock::now`, `gettimeofday`,
    `clock_gettime`, `::time(`) in library code outside runtime/ and
    util/clock.hpp. Simulation logic must take time as a parameter (the
    event-driven clock is what makes runs replayable); real time enters
    only through util::WallClock and the socket runtime that owns it.

RN007 hardcoded-group
    No hardcoded non-zero `GroupId{N}` literal in core/ or runtime/ code
    unless it carries an `// RN007-ok:` rationale within the three lines
    above it (or on the line itself). Ordering state is per-group now;
    a baked-in group id is the single-group assumption sneaking back.
    The zero sentinel (`GroupId{0}` == unset) stays allowed.

RN008 adhoc-metric-name
    No string-literal metric/span name at a registry call site
    (`intern("...")`, `intern_hist("...")`, `counter("...")`,
    `gauge("...")`, `hist("...")`, `incr("...")`, `gauge_max("...")`,
    `hist_record("...")`) in core, sim, runtime, obs, or baseline code.
    Names must come from the constants in obs/names.hpp so the sim oracle
    and the UDP runtime report one vocabulary — a metric that exists under
    two spellings is worse than no metric. obs/names.hpp itself is the
    one place the spellings live; benches, tests, and tools keep free-form
    names.

RN009 token-mutator
    The token's sequence mutators (`append_range`, `bump_group_seq`,
    `set_group_seq`, `set_next_gseq`, `prune_entries_of`, `bump_rotation`)
    are called only from include/core/ordering.hpp on the RN008 paths. The
    token step (WQ drain, WTSNP and per-group assignment, regeneration
    seed) exists once for the sim and the runtime; a second call site is a
    second copy of the ordering policy growing back.

RN010 intern-on-product-path
    No `intern(` / `intern_hist(` call in core, sim, runtime, or baseline
    code. Every counter and gauge is declared once in obs/names.hpp, and
    that declaration is its registry handle (`incr(names::kRetransmits)`),
    so product code has nothing to intern; a call here is a handle mirror
    growing back. obs/ itself, benches, and tests may intern free-form
    names.

Self-test
---------
`--self-test` seeds one violation per rule in a scratch tree and fails
(exit 2) unless every rule fires; it is registered as a ctest case so the
linter cannot silently rot.
"""

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile

CPP_GLOBS = (".hpp", ".cpp")


def repo_files(root, subdirs):
    for sub in subdirs:
        base = os.path.join(root, sub)
        for dirpath, _, names in os.walk(base):
            for name in sorted(names):
                if name.endswith(CPP_GLOBS):
                    yield os.path.join(dirpath, name)


def rel(root, path):
    return os.path.relpath(path, root)


class Finding:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# --------------------------------------------------------------------------
# RN001: string-keyed Metrics mutation in core/

STRING_METRIC_RE = re.compile(r'\.(incr|gauge_max)\s*\(\s*"')


def check_metrics_string_key(root):
    findings = []
    for path in repo_files(root, ("include/core", "src/core")):
        for i, text in enumerate(open(path, encoding="utf-8"), 1):
            m = STRING_METRIC_RE.search(text)
            if m:
                findings.append(Finding(
                    "RN001", rel(root, path), i,
                    f'string-keyed Metrics::{m.group(1)}() on a core path; '
                    'use an obs::names handle instead'))
    return findings


# --------------------------------------------------------------------------
# RN002: std::map in core headers without rationale

MAP_RE = re.compile(r"\bstd::map\s*<")
MAP_OK_RE = re.compile(r"//\s*lint:\s*map-ok")


def check_map_in_core_header(root):
    findings = []
    for path in repo_files(root, ("include/core",)):
        lines = open(path, encoding="utf-8").read().splitlines()
        for i, text in enumerate(lines, 1):
            if not MAP_RE.search(text):
                continue
            window = lines[max(0, i - 4):i]  # the line + three above
            if any(MAP_OK_RE.search(w) for w in window):
                continue
            findings.append(Finding(
                "RN002", rel(root, path), i,
                "std::map in a core header without a '// lint: map-ok' "
                "rationale (ordered node-based maps are hot-path "
                "liabilities; justify the ordering or use a flat/hash "
                "container)"))
    return findings


# --------------------------------------------------------------------------
# RN003: raw randomness outside util/rng

RAW_RNG_RE = re.compile(
    r"\b(?:s?rand)\s*\(|std::random_device|std::mt19937")


def check_raw_rng(root):
    findings = []
    for path in repo_files(root, ("include", "src", "bench", "tests")):
        r = rel(root, path)
        if r.replace(os.sep, "/") == "include/util/rng.hpp":
            continue
        for i, text in enumerate(open(path, encoding="utf-8"), 1):
            m = RAW_RNG_RE.search(text)
            if m:
                findings.append(Finding(
                    "RN003", r, i,
                    f"raw randomness source '{m.group(0).strip()}' outside "
                    "util/rng; draw through util::Rng so replays stay "
                    "deterministic"))
    return findings


# --------------------------------------------------------------------------
# RN004: process output from library code

STDOUT_RE = re.compile(r"std::cout|(?<![A-Za-z_])(?:printf|puts)\s*\(")


def check_stdout_in_library(root):
    findings = []
    for path in repo_files(root, ("include", "src")):
        for i, text in enumerate(open(path, encoding="utf-8"), 1):
            m = STDOUT_RE.search(text)
            if m:
                findings.append(Finding(
                    "RN004", rel(root, path), i,
                    f"'{m.group(0).strip()}' in library code; the library "
                    "reports through Metrics/Trace/Table — process output "
                    "belongs to benches, tests, and tools"))
    return findings


# --------------------------------------------------------------------------
# RN006: raw wall-clock reads outside runtime/ and util/clock

# Clock *reads* only: sleeping or waiting on a duration (sleep_for,
# wait_for_us) is time-consuming, not time-observing, and stays allowed.
WALL_CLOCK_RE = re.compile(
    r"std::chrono::(?:steady_clock|system_clock|high_resolution_clock)"
    r"\s*::\s*now"
    r"|\bgettimeofday\s*\("
    r"|\bclock_gettime\s*\("
    r"|(?<![A-Za-z0-9_])::time\s*\(")

WALL_CLOCK_EXEMPT = ("include/runtime/", "src/runtime/",
                     "include/util/clock.hpp")


def check_raw_wall_clock(root):
    findings = []
    for path in repo_files(root, ("include", "src")):
        r = rel(root, path)
        posix = r.replace(os.sep, "/")
        if posix.startswith(WALL_CLOCK_EXEMPT[:2]) or \
                posix == WALL_CLOCK_EXEMPT[2]:
            continue
        for i, text in enumerate(open(path, encoding="utf-8"), 1):
            m = WALL_CLOCK_RE.search(text)
            if m:
                findings.append(Finding(
                    "RN006", r, i,
                    f"raw wall-clock read '{m.group(0).strip()}' outside "
                    "runtime/; take time as a parameter or go through "
                    "util::WallClock so simulated runs stay replayable"))
    return findings


# --------------------------------------------------------------------------
# RN007: hardcoded non-zero GroupId literal in core/ or runtime/

# Both forms of baking a group in: the inline literal (`GroupId{3}`) and a
# named constant initialized from one (`constexpr GroupId kFoo{3}`).
HARDCODED_GROUP_RE = re.compile(r"\bGroupId\s*(?:\w+\s*)?\{\s*0*[1-9]")
RN007_OK_RE = re.compile(r"//\s*RN007-ok")


def check_hardcoded_group(root):
    findings = []
    for path in repo_files(root, ("include/core", "src/core",
                                  "include/runtime", "src/runtime")):
        lines = open(path, encoding="utf-8").read().splitlines()
        for i, text in enumerate(lines, 1):
            if not HARDCODED_GROUP_RE.search(text):
                continue
            window = lines[max(0, i - 4):i]  # the line + three above
            if any(RN007_OK_RE.search(w) for w in window):
                continue
            findings.append(Finding(
                "RN007", rel(root, path), i,
                "hardcoded non-zero GroupId literal in core/runtime code; "
                "ordering state is per-group — take the gid from the "
                "message/config, or justify with an '// RN007-ok:' "
                "rationale"))
    return findings


# --------------------------------------------------------------------------
# RN008: ad-hoc metric/span name literal at a registry call site

ADHOC_NAME_RE = re.compile(
    r"\.(incr|gauge_max|counter|gauge|intern|intern_hist|hist|hist_record)"
    r'\s*\(\s*"')

RN008_DIRS = ("include/core", "src/core", "include/sim", "src/sim",
              "include/runtime", "src/runtime", "include/obs", "src/obs",
              "include/baseline", "src/baseline")


def check_adhoc_metric_name(root):
    findings = []
    for path in repo_files(root, RN008_DIRS):
        r = rel(root, path)
        if r.replace(os.sep, "/") == "include/obs/names.hpp":
            continue  # the one table the spellings live in
        for i, text in enumerate(open(path, encoding="utf-8"), 1):
            m = ADHOC_NAME_RE.search(text)
            if m:
                findings.append(Finding(
                    "RN008", r, i,
                    f"string-literal metric name at Metrics::{m.group(1)}() "
                    "on a core/runtime path; use a constant from "
                    "obs/names.hpp so sim and runtime share one metric "
                    "vocabulary"))
    return findings


# --------------------------------------------------------------------------
# RN009: token sequence mutator outside the shared token step

TOKEN_MUTATOR_RE = re.compile(
    r"(\.|->)(append_range|bump_group_seq|set_group_seq|set_next_gseq|"
    r"prune_entries_of|bump_rotation)\s*\(")

RN009_HOME = "include/core/ordering.hpp"


def check_token_mutator(root):
    findings = []
    for path in repo_files(root, RN008_DIRS):
        r = rel(root, path)
        if r.replace(os.sep, "/") == RN009_HOME:
            continue
        for i, text in enumerate(open(path, encoding="utf-8"), 1):
            m = TOKEN_MUTATOR_RE.search(text)
            if m:
                findings.append(Finding(
                    "RN009", r, i,
                    f"token mutator {m.group(2)}() outside {RN009_HOME}; "
                    "go through core::accept_token / core::assign_all / "
                    "SeqHighWater::token so the token step exists once"))
    return findings


# --------------------------------------------------------------------------
# RN010: interning on a product path

INTERN_CALL_RE = re.compile(r"\b(intern|intern_hist)\s*\(")

RN010_DIRS = ("include/core", "src/core", "include/sim", "src/sim",
              "include/runtime", "src/runtime", "include/baseline",
              "src/baseline")


def check_intern_on_product_path(root):
    findings = []
    for path in repo_files(root, RN010_DIRS):
        for i, text in enumerate(open(path, encoding="utf-8"), 1):
            m = INTERN_CALL_RE.search(text)
            if m:
                findings.append(Finding(
                    "RN010", rel(root, path), i,
                    f"Metrics::{m.group(1)}() on a product path; use the "
                    "obs::names handle (declare a new counter once in "
                    "obs/names.hpp)"))
    return findings


# --------------------------------------------------------------------------
# RN005: header self-containment

def check_header_self_containment(root, cxx):
    findings = []
    include_dir = os.path.join(root, "include")
    headers = []
    for dirpath, _, names in os.walk(include_dir):
        for name in sorted(names):
            if name.endswith(".hpp"):
                headers.append(os.path.join(dirpath, name))
    with tempfile.TemporaryDirectory(prefix="ringnet_lint_") as tmp:
        for hdr in headers:
            hrel = os.path.relpath(hdr, include_dir).replace(os.sep, "/")
            tu = os.path.join(tmp, "tu.cpp")
            with open(tu, "w", encoding="utf-8") as f:
                f.write(f'#include "{hrel}"\n')
            proc = subprocess.run(
                [cxx, "-fsyntax-only", "-std=c++20", "-I", include_dir, tu],
                capture_output=True, text=True)
            if proc.returncode != 0:
                first = (proc.stderr.strip().splitlines() or ["?"])[0]
                findings.append(Finding(
                    "RN005", rel(root, hdr), 1,
                    f"header is not self-contained ({first})"))
    return findings


# --------------------------------------------------------------------------
# Driver

def run_checks(root, cxx, with_headers=True):
    findings = []
    findings += check_metrics_string_key(root)
    findings += check_map_in_core_header(root)
    findings += check_raw_rng(root)
    findings += check_stdout_in_library(root)
    findings += check_raw_wall_clock(root)
    findings += check_hardcoded_group(root)
    findings += check_adhoc_metric_name(root)
    findings += check_token_mutator(root)
    findings += check_intern_on_product_path(root)
    if with_headers:
        findings += check_header_self_containment(root, cxx)
    return findings


def self_test(cxx):
    """Seed one violation per rule; every rule must fire on its seed."""
    failures = []
    with tempfile.TemporaryDirectory(prefix="ringnet_lint_st_") as tmp:
        for sub in ("include/core", "include/util", "src/core", "bench",
                    "tests"):
            os.makedirs(os.path.join(tmp, sub))

        def write(path, text):
            with open(os.path.join(tmp, path), "w", encoding="utf-8") as f:
                f.write(text)

        # RN001: string-keyed mutation on a core path.
        write("src/core/bad_metrics.cpp",
              'void f(M& m) { m.metrics().incr("token.held"); }\n')
        # Handle mutation and cold string reads must NOT fire.
        write("src/core/good_metrics.cpp",
              "void f(M& m) { m.incr(names::kTokenHeld); }\n"
              'void g(M& m) { (void)m.counter("token.held"); }\n')

        # RN002: bare std::map in a core header; annotated one is fine.
        write("include/core/bad_map.hpp",
              "#include <map>\nstd::map<int, int> m;\n")
        write("include/core/good_map.hpp",
              "#include <map>\n// lint: map-ok — ordered prune walk\n"
              "std::map<int, int> m;\n")

        # RN003: raw randomness outside util/rng.
        write("src/core/bad_rng.cpp",
              "#include <cstdlib>\nint f() { return rand(); }\n")
        write("include/util/rng.hpp",
              "#include <random>\ninline std::mt19937 exempt_here;\n")

        # RN004: stdout from library code; bench output is exempt.
        write("src/core/bad_out.cpp",
              '#include <cstdio>\nvoid f() { printf("x"); }\n')
        write("bench/ok_out.cpp",
              '#include <cstdio>\nint main() { printf("x"); }\n')
        # snprintf into a buffer is formatting, not process output.
        write("src/core/ok_snprintf.cpp",
              "#include <cstdio>\nvoid f(char* b) "
              '{ (void)snprintf(b, 4, "x"); }\n')

        # RN005: header leaning on an include it never pulls in.
        write("include/core/bad_header.hpp",
              "#pragma once\ninline std::vector<int> v;\n")

        # RN006: wall-clock read in sim code; runtime/ and util/clock.hpp
        # (plus duration-only waits) are exempt.
        os.makedirs(os.path.join(tmp, "src/runtime"))
        write("src/core/bad_clock.cpp",
              "#include <chrono>\n"
              "long f() { return std::chrono::steady_clock::now()"
              ".time_since_epoch().count(); }\n")
        write("src/runtime/ok_clock.cpp",
              "#include <chrono>\n"
              "long f() { return std::chrono::steady_clock::now()"
              ".time_since_epoch().count(); }\n")
        write("include/util/clock.hpp",
              "#include <chrono>\n"
              "inline auto t0 = std::chrono::steady_clock::now();\n")
        write("src/core/ok_wait.cpp",
              "#include <thread>\nvoid f() { std::this_thread::sleep_for("
              "std::chrono::microseconds(5)); }\n")

        # RN007: hardcoded group id indexing ordering state; the annotated
        # constant and the zero "unset" sentinel must NOT fire.
        write("src/runtime/bad_group.cpp",
              "void f(S& s) { s.slab(GroupId{1}).push(7); }\n")
        write("src/core/good_group.cpp",
              "// RN007-ok: degenerate single-group deployment.\n"
              "constexpr GroupId kG{1};\n"
              "void g(M& m) { m.gid = GroupId{0}; }\n")

        # RN008: ad-hoc name literal at a registry call; the names-constant
        # call and free-form bench names must NOT fire.
        write("src/runtime/bad_name.cpp",
              'void f(M& m) { m.metrics().intern("my.adhoc.name"); }\n')
        write("src/runtime/good_name.cpp",
              "void f(M& m) { m.intern(obs::names::kTokenHeld); }\n"
              "void g(M& m) { (void)m.hist(obs::names::kMhLatencyUs); }\n")
        write("bench/ok_name.cpp",
              'void f(M& m) { m.intern("bench.freeform"); }\n')

        # RN010: interning in sim engine code, histograms included; obs/
        # (the registry itself), benches and tests must NOT fire.
        for sub in ("src/sim", "src/obs"):
            os.makedirs(os.path.join(tmp, sub))
        write("src/sim/bad_intern.cpp",
              "unsigned f(M& m, const S& n) { return m.intern(n); }\n")
        write("src/core/bad_hist.cpp",
              "void f(M* m) { h = m->intern_hist(names::kMhLatencyUs); }\n")
        write("src/obs/ok_intern.cpp",
              "unsigned f(M& m, const S& n) { return m.intern(n); }\n")
        write("tests/ok_intern.cpp",
              'void f(M& m) { m.intern("test.freeform"); }\n')

        # RN009: a token mutator in engine code; the shared token step and
        # benches/tests (which build tokens by hand) must NOT fire.
        write("src/runtime/bad_token.cpp",
              "void f(T& t) { t.bump_group_seq(g); t.bump_rotation(); }\n")
        write("include/core/ordering.hpp",
              "#pragma once\nstruct T { void append_range(int, int) {} };\n"
              "inline void f(T& t) { t.append_range(0, 0); }\n")
        write("bench/ok_token.cpp",
              "void f(T* t) { t->prune_entries_of(n); }\n")

        findings = run_checks(tmp, cxx)
        fired = {f.rule for f in findings}
        for rule in ("RN001", "RN002", "RN003", "RN004", "RN005", "RN006",
                     "RN007", "RN008", "RN009", "RN010"):
            if rule not in fired:
                failures.append(f"{rule} did not fire on its seeded "
                                "violation")
        by_file = {(f.rule, os.path.basename(f.path)) for f in findings}
        for rule, fname in (("RN010", "bad_intern.cpp"),
                            ("RN010", "bad_hist.cpp")):
            if (rule, fname) not in by_file:
                failures.append(f"{rule} did not fire on {fname}")
        for rule, fname in (("RN001", "good_metrics.cpp"),
                            ("RN002", "good_map.hpp"),
                            ("RN003", "rng.hpp"),
                            ("RN004", "ok_out.cpp"),
                            ("RN004", "ok_snprintf.cpp"),
                            ("RN006", "ok_clock.cpp"),
                            ("RN006", "clock.hpp"),
                            ("RN006", "ok_wait.cpp"),
                            ("RN007", "good_group.cpp"),
                            ("RN008", "good_name.cpp"),
                            ("RN008", "ok_name.cpp"),
                            ("RN009", "ordering.hpp"),
                            ("RN009", "ok_token.cpp"),
                            ("RN010", "ok_intern.cpp")):
            if (rule, fname) in by_file:
                failures.append(f"{rule} false-positive on {fname}")
    if failures:
        for f in failures:
            print(f"self-test FAILED: {f}", file=sys.stderr)
        return 2
    print("ringnet_lint self-test: all rules fire on seeded violations")
    return 0


def main(argv):
    default_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repo", default=default_root,
                    help="repo root (default: parent of tools/)")
    ap.add_argument("--cxx", default=os.environ.get("CXX", "c++"),
                    help="compiler for header self-containment "
                         "(default: $CXX or c++)")
    ap.add_argument("--no-headers", action="store_true",
                    help="skip the header self-containment compile pass")
    ap.add_argument("--self-test", action="store_true",
                    help="verify every rule fires on seeded violations")
    args = ap.parse_args(argv)

    if args.self_test:
        return self_test(args.cxx)

    if shutil.which(args.cxx) is None and not args.no_headers:
        print(f"error: compiler '{args.cxx}' not found (use --no-headers "
              "to skip the self-containment pass)", file=sys.stderr)
        return 2

    findings = run_checks(args.repo, args.cxx,
                          with_headers=not args.no_headers)
    for f in findings:
        print(f)
    if findings:
        print(f"ringnet_lint: {len(findings)} violation(s)", file=sys.stderr)
        return 1
    print("ringnet_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

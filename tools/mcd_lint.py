#!/usr/bin/env python3
"""mcd_lint: enforce the repo's determinism/caching/registration
contracts as hard errors.

Every hard bug in this repro's history was an invariant the compiler
cannot see: config knobs missing from the memo-cache fingerprint,
registrar object files the linker could drop, locale-sensitive double
formatting on cache/wire paths.  This pass parses the C++ sources and
CMake lists directly (no compiler needed) and checks:

  fingerprint-complete  every SimConfig/PowerConfig/ExpConfig/
                        ChipConfig field is hashed in
                        exp::configFingerprint or carries an allow
                        annotation explaining why not
  cache-version-pin     a fingerprint-affecting diff must come with a
                        CACHE_VERSION bump (field-list digest pinned in
                        tools/mcd_lint_pins.json)
  determinism           no rand()/srand()/std::random_device/time()/
                        gettimeofday/default-seeded std RNG engines
                        anywhere; no std::hash near cache-key/wire code
  locale-safety         no ad-hoc precision()/setprecision/imbue() on
                        the cache and MCD/2 wire paths (src/exp/,
                        src/srv/) — doubles go through util::fmtDouble17
  registration          every .cc under src/control/policies/ and
                        src/workload/workloads/ contains its
                        MCD_REGISTER_* macro and is listed in the
                        OBJECT-library CMakeLists
  library-exit          no exit()/std::exit()/_Exit()/quick_exit()/
                        abort() under src/: library code reports bad
                        input by throwing util::SpecError
  lint-docs             every rule above has a section in
                        docs/LINTING.md and is pinned in
                        tests/test_docs.cc

Suppressions (see docs/LINTING.md): on the offending line or in the
contiguous comment block directly above it,

    // mcd-lint: allow(<rule>): <reason>

or, once anywhere in a file, for the whole file:

    // mcd-lint: allow-file(<rule>): <reason>

Findings print as `<path>:<line>: [<rule>] <message>` and exit 1.

Run from anywhere:  python3 tools/mcd_lint.py --check-all
After a deliberate fingerprint change (CACHE_VERSION bumped):
                    python3 tools/mcd_lint.py --update-pins
"""

import argparse
import hashlib
import json
import re
import sys
from pathlib import Path

PIN_FILE = "tools/mcd_lint_pins.json"
FINGERPRINT_CC = "src/exp/experiment.cc"
LINT_DOC = "docs/LINTING.md"
LINT_DOC_TEST = "tests/test_docs.cc"

# struct name -> (header, variable prefix inside configFingerprint)
FINGERPRINT_STRUCTS = {
    "SimConfig": ("src/sim/config.hh", "s"),
    "SamplingConfig": ("src/sim/sampling.hh", "sp"),
    "PowerConfig": ("src/power/power.hh", "p"),
    "ExpConfig": ("src/exp/experiment.hh", "cfg"),
    "ChipConfig": ("src/chip/config.hh", "ch"),
    "LearnedConfig": ("src/control/learned.hh", "ln"),
    "TournamentConfig": ("src/exp/tournament.hh", "tn"),
}

# directories whose .cc/.hh files the determinism rule scans
DETERMINISM_DIRS = ["src", "bench", "tests", "tools", "examples"]
# subtrees where std::hash is additionally banned (anything here is
# one refactor away from a persisted key or a wire message)
STD_HASH_DIRS = ["src/exp", "src/srv", "src/workload", "src/control",
                 "src/chip"]
# cache/wire formatting paths for the locale-safety rule
LOCALE_DIRS = ["src/exp", "src/srv"]
# library code, which must never end the process
LIBRARY_DIRS = ["src"]

REGISTRATION = [
    ("src/control/policies", "MCD_REGISTER_POLICY",
     "src/control/CMakeLists.txt", "mcd_policies"),
    ("src/workload/workloads", "MCD_REGISTER_WORKLOAD",
     "src/workload/CMakeLists.txt", "mcd_workloads"),
]

RULES = {
    "fingerprint-complete":
        "every config field is hashed in exp::configFingerprint "
        "or carries an allow annotation",
    "cache-version-pin":
        "fingerprint-affecting diffs come with a CACHE_VERSION bump",
    "determinism":
        "no wall-clock, unseeded or implementation-defined "
        "randomness in simulation, cache or wire code",
    "locale-safety":
        "doubles on cache/wire paths go through util::fmtDouble17, "
        "not ad-hoc stream state",
    "registration":
        "self-registering .cc files carry their MCD_REGISTER_* "
        "macro and are listed in the OBJECT library",
    "library-exit":
        "library code under src/ throws on bad input and never ends "
        "the process",
    "lint-docs":
        "every lint rule is documented in docs/LINTING.md and "
        "pinned in tests/test_docs.cc",
}

ALLOW = re.compile(r"mcd-lint:\s*allow\(([a-z-]+)\)")
ALLOW_FILE = re.compile(r"mcd-lint:\s*allow-file\(([a-z-]+)\)")


class Findings:
    def __init__(self, root):
        self.root = root
        self.items = []

    def add(self, path, line, rule, message):
        rel = path.relative_to(self.root) if path.is_absolute() else path
        self.items.append((str(rel), line, rule, message))


class Source:
    """One source file: raw text, comment/string-stripped text (same
    length and line numbering, stripped spans blanked with spaces), and
    the suppression annotations found in comments."""

    def __init__(self, path, text):
        self.path = path
        self.text = text
        self.stripped = strip_comments_and_strings(text)
        self.raw_lines = text.split("\n")
        self.lines = self.stripped.split("\n")
        self.file_allows = set(ALLOW_FILE.findall(text))

    def allowed(self, lineno, rule):
        """True if `rule` is suppressed at 1-based `lineno`: file-wide
        allow-file, an allow on the line itself, or an allow in the
        contiguous comment lines directly above it."""
        if rule in self.file_allows:
            return True
        i = lineno - 1
        if i < len(self.raw_lines) and _line_allows(
                self.raw_lines[i], rule):
            return True
        j = i - 1
        while j >= 0:
            raw = self.raw_lines[j].strip()
            is_comment = raw.startswith(("//", "*", "/*", "/**")) or \
                raw.endswith("*/")
            if not is_comment:
                break
            if _line_allows(raw, rule):
                return True
            j -= 1
        return False


def _line_allows(line, rule):
    return any(m == rule for m in ALLOW.findall(line))


def strip_comments_and_strings(text):
    """Blank out //, /*...*/ comments and "..."/'...' literals,
    preserving every newline so line numbers survive."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | dquote | squote
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
            elif c == '"':
                state = "dquote"
                out.append('"')
                i += 1
            elif c == "'":
                # A ' directly after an identifier/digit character is
                # a C++14 digit separator (150'000), not a char
                # literal.
                prev = text[i - 1] if i > 0 else ""
                if prev.isalnum() or prev == "_":
                    out.append("'")
                else:
                    state = "squote"
                    out.append("'")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        else:  # dquote / squote
            quote = '"' if state == "dquote" else "'"
            if c == "\\" and nxt:
                out.append("  ")
                i += 2
            elif c == quote:
                state = "code"
                out.append(quote)
                i += 1
            else:
                out.append(c if c == "\n" else " ")
                i += 1
    return "".join(out)


def load(root, rel):
    path = root / rel
    if not path.is_file():
        return None
    return Source(path, path.read_text(encoding="utf-8"))


def lineno_at(text, offset):
    return text.count("\n", 0, offset) + 1


# ------------------------------------------------------------------ #
# fingerprint-complete / cache-version-pin                           #
# ------------------------------------------------------------------ #

FIELD = re.compile(
    r"^\s*(?:[A-Za-z_][\w:<>,\s]*[&\s])\s*([A-Za-z_]\w*)\s*(?:=[^;]*)?;")


def struct_fields(src, struct_name):
    """(name, lineno) for every data member at depth 1 of the struct
    body.  Methods and constructors are skipped (their declaration
    lines contain parentheses; their bodies sit at depth >= 2)."""
    m = re.search(r"\bstruct\s+%s\b[^;{]*\{" % struct_name,
                  src.stripped)
    if not m:
        return None
    start = m.end()
    depth = 1
    i = start
    while i < len(src.stripped) and depth > 0:
        if src.stripped[i] == "{":
            depth += 1
        elif src.stripped[i] == "}":
            depth -= 1
        i += 1
    body = src.stripped[start:i - 1]
    base_line = lineno_at(src.stripped, start)
    fields = []
    depth = 0
    for k, line in enumerate(body.split("\n")):
        at_depth = depth
        depth += line.count("{") - line.count("}")
        if at_depth != 0 or "(" in line:
            continue
        fm = FIELD.match(line)
        if fm and fm.group(1) not in ("public", "private", "return"):
            fields.append((fm.group(1), base_line + k))
    return fields


def fingerprint_body(src):
    m = re.search(r"\bconfigFingerprint\s*\([^)]*\)\s*\{", src.stripped)
    if not m:
        return None, 0
    start = m.end()
    depth = 1
    i = start
    while i < len(src.stripped) and depth > 0:
        if src.stripped[i] == "{":
            depth += 1
        elif src.stripped[i] == "}":
            depth -= 1
        i += 1
    return src.stripped[start:i - 1], lineno_at(src.stripped, start)


def fingerprint_digest(body):
    """Digest of the ordered hash calls: the f.<kind>() sequence and
    every s./sp./p./cfg./ch. member token, in source order.  Any field
    joining, leaving or reordering — or an int/float encoding change —
    changes the digest; whitespace and comments do not."""
    tokens = re.findall(
        r"f\.(?:u64|i64|f64)|\b(?:sp|s|p|cfg|ch|ln|tn)\.[A-Za-z_]\w*",
        body)
    blob = "\n".join(tokens).encode()
    return hashlib.sha256(blob).hexdigest()


def check_fingerprint(root, findings):
    cc = load(root, FINGERPRINT_CC)
    if cc is None:
        findings.add(Path(FINGERPRINT_CC), 1, "fingerprint-complete",
                     "missing file (looked for exp::configFingerprint"
                     " here)")
        return
    body, body_line = fingerprint_body(cc)
    if body is None:
        findings.add(Path(FINGERPRINT_CC), 1, "fingerprint-complete",
                     "configFingerprint() definition not found")
        return
    hashed = set(
        re.findall(r"\b((?:sp|s|p|cfg|ch|ln|tn)\.[A-Za-z_]\w*)\b",
                   body))

    for struct, (header, prefix) in FINGERPRINT_STRUCTS.items():
        src = load(root, header)
        if src is None:
            findings.add(Path(header), 1, "fingerprint-complete",
                         "missing file (declares %s)" % struct)
            continue
        fields = struct_fields(src, struct)
        if fields is None:
            findings.add(src.path, 1, "fingerprint-complete",
                         "struct %s not found" % struct)
            continue
        for name, lineno in fields:
            if "%s.%s" % (prefix, name) in hashed:
                continue
            if src.allowed(lineno, "fingerprint-complete"):
                continue
            findings.add(
                src.path, lineno, "fingerprint-complete",
                "%s::%s is not hashed in exp::configFingerprint "
                "(%s) and carries no allow annotation — a knob that "
                "shapes outcomes but misses the fingerprint lets "
                "differently-configured runs exchange cache lines"
                % (struct, name, FINGERPRINT_CC))

    check_version_pin(root, cc, body, findings)


def cache_version(cc):
    m = re.search(r"\bCACHE_VERSION\s*=\s*(\d+)\s*;", cc.stripped)
    return int(m.group(1)) if m else None


def check_version_pin(root, cc, body, findings):
    version = cache_version(cc)
    if version is None:
        findings.add(cc.path, 1, "cache-version-pin",
                     "CACHE_VERSION constant not found")
        return
    digest = fingerprint_digest(body)
    pin_path = root / PIN_FILE
    if not pin_path.is_file():
        findings.add(Path(PIN_FILE), 1, "cache-version-pin",
                     "pin file missing; run tools/mcd_lint.py "
                     "--update-pins to create it")
        return
    pins = json.loads(pin_path.read_text(encoding="utf-8"))
    if version == pins.get("cache_version"):
        if digest != pins.get("fingerprint_digest"):
            findings.add(
                cc.path, 1, "cache-version-pin",
                "configFingerprint changed but CACHE_VERSION is "
                "still %d — bump it (old cache lines must be "
                "ignored, never misread) and run --update-pins"
                % version)
    else:
        findings.add(
            Path(PIN_FILE), 1, "cache-version-pin",
            "CACHE_VERSION is %d but the pin records %s; run "
            "tools/mcd_lint.py --update-pins and commit the result"
            % (version, pins.get("cache_version")))


def update_pins(root):
    cc = load(root, FINGERPRINT_CC)
    if cc is None:
        print("error: %s not found" % FINGERPRINT_CC, file=sys.stderr)
        return 2
    body, _ = fingerprint_body(cc)
    version = cache_version(cc)
    if body is None or version is None:
        print("error: configFingerprint/CACHE_VERSION not found in %s"
              % FINGERPRINT_CC, file=sys.stderr)
        return 2
    digest = fingerprint_digest(body)
    pin_path = root / PIN_FILE
    if pin_path.is_file():
        pins = json.loads(pin_path.read_text(encoding="utf-8"))
        if (pins.get("cache_version") == version
                and pins.get("fingerprint_digest") != digest):
            print("refusing to update pins: configFingerprint "
                  "changed but CACHE_VERSION is still %d — bump it "
                  "first (see docs/LINTING.md)" % version,
                  file=sys.stderr)
            return 1
    pin_path.parent.mkdir(parents=True, exist_ok=True)
    pin_path.write_text(
        json.dumps({"cache_version": version,
                    "fingerprint_digest": digest},
                   indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    print("pinned CACHE_VERSION %d, fingerprint %s..."
          % (version, digest[:12]))
    return 0


# ------------------------------------------------------------------ #
# determinism / locale-safety                                        #
# ------------------------------------------------------------------ #

DETERMINISM_BANS = [
    (re.compile(r"(?<![\w.>])rand\s*\("),
     "rand() is seedless global state; draw from a seeded engine "
     "owned by the simulation"),
    (re.compile(r"(?<![\w.>])srand\s*\("),
     "srand() mutates global RNG state; seed an engine instance "
     "instead"),
    (re.compile(r"std::random_device"),
     "std::random_device is nondeterministic; seeds come from "
     "config (e.g. SimConfig::jitterSeed)"),
    (re.compile(r"(?<![\w.>])gettimeofday\b"),
     "wall-clock time must not reach simulation or cache state"),
    (re.compile(r"(?<![\w.>:])time\s*\(\s*(?:NULL|nullptr|0|&|\))"),
     "time() makes output depend on when the run happened"),
    (re.compile(r"std::time\s*\("),
     "std::time() makes output depend on when the run happened"),
    (re.compile(r"std::(?:mt19937(?:_64)?|minstd_rand0?|"
                r"default_random_engine|ranlux\w+|knuth_b)"
                r"\s+\w+\s*;"),
     "default-constructed standard RNG engine; pass an explicit "
     "seed so runs are reproducible"),
]

STD_HASH = re.compile(r"std::hash\s*<")

LOCALE_BANS = [
    (re.compile(r"\bsetprecision\s*\("),
     "stream precision on a cache/wire path; route doubles through "
     "util::fmtDouble17"),
    (re.compile(r"(?<!\w)precision\s*\("),
     "stream precision on a cache/wire path; route doubles through "
     "util::fmtDouble17"),
    (re.compile(r"\bimbue\s*\("),
     "per-stream locale fiddling on a cache/wire path; the "
     "util/text.hh helpers already guarantee the classic locale"),
]


def cpp_files(root, rel_dirs):
    for rel in rel_dirs:
        base = root / rel
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in (".cc", ".hh") and path.is_file():
                if "build" in path.parts or ".git" in path.parts:
                    continue
                yield path


def scan_patterns(src, bans, rule, findings):
    for pattern, why in bans:
        for m in pattern.finditer(src.stripped):
            lineno = lineno_at(src.stripped, m.start())
            if src.allowed(lineno, rule):
                continue
            findings.add(src.path, lineno, rule,
                         "%s (%s)" % (m.group(0).strip(), why))


def check_determinism(root, findings):
    hash_dirs = [root / d for d in STD_HASH_DIRS]
    for path in cpp_files(root, DETERMINISM_DIRS):
        src = Source(path, path.read_text(encoding="utf-8"))
        scan_patterns(src, DETERMINISM_BANS, "determinism", findings)
        if any(d in path.parents for d in hash_dirs):
            for m in STD_HASH.finditer(src.stripped):
                lineno = lineno_at(src.stripped, m.start())
                if src.allowed(lineno, "determinism"):
                    continue
                findings.add(
                    src.path, lineno, "determinism",
                    "std::hash is implementation-defined and may "
                    "change across libraries; cache keys and wire "
                    "identities use util::fnv1a64")


def check_locale(root, findings):
    for path in cpp_files(root, LOCALE_DIRS):
        src = Source(path, path.read_text(encoding="utf-8"))
        scan_patterns(src, LOCALE_BANS, "locale-safety", findings)


# ------------------------------------------------------------------ #
# library-exit                                                       #
# ------------------------------------------------------------------ #

LIBRARY_EXIT_BANS = [
    (re.compile(r"(?<![\w.>])(?:std::|::)?"
                r"(?:exit|_Exit|quick_exit|abort)\s*\("),
     "library code reports bad input by throwing util::SpecError; "
     "ending the process is the CLI's call (tools/args.hh)"),
]


def check_library_exit(root, findings):
    for path in cpp_files(root, LIBRARY_DIRS):
        src = Source(path, path.read_text(encoding="utf-8"))
        scan_patterns(src, LIBRARY_EXIT_BANS, "library-exit", findings)


# ------------------------------------------------------------------ #
# registration                                                       #
# ------------------------------------------------------------------ #

def object_library_sources(cmake_text, target):
    m = re.search(r"add_library\s*\(\s*%s\s+OBJECT\b([^)]*)\)" % target,
                  cmake_text)
    if m is None:
        return None
    sources = set()
    for token in m.group(1).split():
        if not token.startswith("#"):
            sources.add(token)
    return sources


def check_registration(root, findings):
    for rel_dir, macro, cmake_rel, target in REGISTRATION:
        base = root / rel_dir
        if not base.is_dir():
            continue
        cmake_path = root / cmake_rel
        cmake_text = cmake_path.read_text(encoding="utf-8") \
            if cmake_path.is_file() else ""
        listed = object_library_sources(cmake_text, target)
        macro_call = re.compile(r"\b%s\s*\(" % macro)
        for path in sorted(base.glob("*.cc")):
            src = Source(path, path.read_text(encoding="utf-8"))
            if not macro_call.search(src.stripped) and \
                    "registration" not in src.file_allows:
                findings.add(
                    path, 1, "registration",
                    "no %s(...) call — a factory file that never "
                    "registers is dead weight; annotate "
                    "`mcd-lint: allow-file(registration)` if a "
                    "custom registrar covers it" % macro)
            entry = "%s/%s" % (base.name, path.name)
            if listed is None:
                findings.add(
                    Path(cmake_rel), 1, "registration",
                    "add_library(%s OBJECT ...) not found — "
                    "self-registering objects must be injected via "
                    "the OBJECT library or the linker drops them"
                    % target)
            elif entry not in listed:
                findings.add(
                    Path(cmake_rel), 1, "registration",
                    "%s is not listed in add_library(%s OBJECT ...)"
                    " — its static registrar would be silently "
                    "dropped from the archive at link time"
                    % (entry, target))


# ------------------------------------------------------------------ #
# lint-docs                                                          #
# ------------------------------------------------------------------ #

def check_lint_docs(root, findings):
    doc_path = root / LINT_DOC
    if not doc_path.is_file():
        findings.add(Path(LINT_DOC), 1, "lint-docs",
                     "missing — every enforced invariant must be "
                     "documented (docs/LINTING.md)")
        return
    text = doc_path.read_text(encoding="utf-8")
    sections = set(re.findall(r"^##\s+`([a-z-]+)`", text,
                              re.MULTILINE))
    for rule in RULES:
        if rule not in sections:
            findings.add(Path(LINT_DOC), 1, "lint-docs",
                         "no `## \\`%s\\`` section documenting that "
                         "rule" % rule)
    for extra in sorted(sections - set(RULES)):
        findings.add(Path(LINT_DOC), 1, "lint-docs",
                     "documents unknown rule `%s` (stale doc or "
                     "typo)" % extra)
    test_path = root / LINT_DOC_TEST
    test_text = test_path.read_text(encoding="utf-8") \
        if test_path.is_file() else ""
    for rule in RULES:
        if rule not in test_text:
            findings.add(Path(LINT_DOC_TEST), 1, "lint-docs",
                         "rule `%s` is not pinned here — the test "
                         "keeps code, doc and lint in sync" % rule)


# ------------------------------------------------------------------ #
# driver                                                             #
# ------------------------------------------------------------------ #

def run_checks(root):
    findings = Findings(root)
    check_fingerprint(root, findings)
    check_determinism(root, findings)
    check_locale(root, findings)
    check_registration(root, findings)
    check_library_exit(root, findings)
    check_lint_docs(root, findings)
    return findings


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="mcd_lint.py",
        description="repo-invariant static analysis "
                    "(see docs/LINTING.md)")
    ap.add_argument("--root", type=Path,
                    default=Path(__file__).resolve().parent.parent,
                    help="repository root to lint (default: the "
                         "checkout containing this script)")
    ap.add_argument("--check-all", action="store_true",
                    help="run every rule (the default action)")
    ap.add_argument("--list-rules", action="store_true",
                    help="print rule ids and one-line summaries")
    ap.add_argument("--update-pins", action="store_true",
                    help="re-pin the fingerprint digest after a "
                         "deliberate, version-bumped change")
    args = ap.parse_args(argv)
    root = args.root.resolve()

    if args.list_rules:
        for rule in sorted(RULES):
            print("%-21s %s" % (rule, RULES[rule]))
        return 0
    if args.update_pins:
        return update_pins(root)

    findings = run_checks(root)
    for path, line, rule, message in sorted(findings.items):
        print("%s:%d: [%s] %s" % (path, line, rule, message))
    if findings.items:
        print("%d finding(s)" % len(findings.items), file=sys.stderr)
        return 1
    print("mcd_lint: %d rules clean" % len(RULES), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Fixture tests for tools/mcd_lint.py.

Copies tests/lint_fixtures/clean/ (a miniature repo that passes every
rule) into a temp directory, applies one named mutation per case —
each re-introducing a violation class from this repo's history — and
compares the lint's findings against the golden file in
tests/lint_fixtures/expected/<case>.txt, plus the exit code.

Findings are compared as sorted `file: [rule] message` lines: the
line number is dropped and the fixture's CACHE_VERSION is masked
(`<V>`, and `<V+1>` for the bumped value a case writes), so editing
the fixture or bumping its version leaves the goldens alone.

Run directly (python3 tools/test_mcd_lint.py) or via CTest as
`LintFixtures`.  Pass --update-golden to regenerate the expected
files after a deliberate message change.
"""

import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LINT = ROOT / "tools" / "mcd_lint.py"
CLEAN = ROOT / "tests" / "lint_fixtures" / "clean"
EXPECTED = ROOT / "tests" / "lint_fixtures" / "expected"

FINDING = re.compile(r"(?P<file>.*?):\d+: \[(?P<rule>[\w-]+)\] (?P<msg>.*)")


def fixture_version():
    text = (CLEAN / "src" / "exp" / "experiment.cc").read_text(
        encoding="utf-8")
    return int(re.search(r"constexpr int CACHE_VERSION = (\d+);",
                         text).group(1))


VERSION = fixture_version()

# case name -> list of (relative file, old text, new text).  Every
# `old` must occur in the fixture exactly as written; the driver
# fails loudly if a fixture edit breaks a mutation.
CASES = {
    # The tree as committed: no findings, exit 0.
    "clean": [],
    # PR 2's bug class: a knob silently leaves the fingerprint.
    # Expect fingerprint-complete (the field is no longer hashed and
    # has no annotation) plus cache-version-pin (the hash-call list
    # changed under an unchanged CACHE_VERSION).
    "drop-fingerprint-field": [
        ("src/exp/experiment.cc",
         "    f.u64(s.jitterSeed);\n", ""),
    ],
    # A version bump whose pin update was forgotten.
    "stale-version-pin": [
        ("src/exp/experiment.cc",
         "constexpr int CACHE_VERSION = %d;" % VERSION,
         "constexpr int CACHE_VERSION = %d;" % (VERSION + 1)),
    ],
    # PR 9's bug class, sampling flavor: a sampling knob shapes
    # sampled outcomes but leaves the fingerprint, so cached exact
    # and sampled rows could trade places.
    "sampling-knob-unfingerprinted": [
        ("src/exp/experiment.cc",
         "    f.f64(sp.ciBiasPct);\n", ""),
    ],
    # PR 3's bug class: the registrar macro disappears.
    "missing-register-macro": [
        ("src/control/policies/toy.cc",
         "MCD_REGISTER_POLICY(ToyPolicy);\n", ""),
    ],
    # ...or the file falls out of the OBJECT library (the linker
    # would silently drop its static registrar).
    "missing-cmake-entry": [
        ("src/workload/CMakeLists.txt",
         "    workloads/toy.cc\n", ""),
    ],
    # PR 8's bug class, chip flavor: an uncore knob leaves the
    # fingerprint while chip cache keys still depend on it.
    "chip-knob-unfingerprinted": [
        ("src/exp/experiment.cc",
         "    f.f64(ch.uncoreMaxMhz);\n", ""),
    ],
    # PR 10's bug class, learned flavor: a training knob shapes the
    # learned policy's frozen weights (and so every cached learned
    # outcome) but silently leaves the fingerprint.
    "learned-knob-unfingerprinted": [
        ("src/exp/experiment.cc",
         "    f.u64(ln.trainWindow);\n", ""),
    ],
    # Raw rand() on a wire path.
    "raw-rand": [
        ("src/srv/proto.cc",
         "    std::string out = \"ROW \" + key;",
         "    std::string out = \"ROW \" + key;\n"
         "    int jitter = rand();\n"
         "    (void)jitter;"),
    ],
    # PR 2/PR 6's bug class: ad-hoc stream precision on a cache path.
    "locale-unsafe-double": [
        ("src/exp/experiment.cc",
         "    std::string line = key;",
         "    std::ostringstream os;\n"
         "    os.precision(17);\n"
         "    std::string line = key;"),
    ],
    # A rule whose doc section went missing.
    "undocumented-rule": [
        ("docs/LINTING.md",
         "## `determinism`\n", "### determinism (demoted)\n"),
    ],
}


def normalize(stdout):
    """The lint's findings as sorted `file: [rule] message` lines,
    line numbers dropped and the fixture's CACHE_VERSION masked."""
    lines = []
    for raw in stdout.splitlines():
        m = FINDING.fullmatch(raw)
        if not m:
            lines.append(raw)
            continue
        msg = m.group("msg")
        if m.group("rule") == "cache-version-pin":
            msg = re.sub(r"\b%d\b" % (VERSION + 1), "<V+1>", msg)
            msg = re.sub(r"\b%d\b" % VERSION, "<V>", msg)
        lines.append("%s: [%s] %s" % (m.group("file"), m.group("rule"),
                                      msg))
    return "".join(line + "\n" for line in sorted(lines))


def run_case(name, mutations, update):
    with tempfile.TemporaryDirectory(prefix="mcd_lint_fix_") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(CLEAN, tree)
        for rel, old, new in mutations:
            path = tree / rel
            text = path.read_text(encoding="utf-8")
            if old not in text:
                print("%s: mutation text not found in %s:\n%r"
                      % (name, rel, old), file=sys.stderr)
                return False
            path.write_text(text.replace(old, new, 1),
                            encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, str(LINT), "--root", str(tree),
             "--check-all"],
            capture_output=True, text=True)
        got = normalize(proc.stdout)
        golden_path = EXPECTED / (name + ".txt")
        if update:
            golden_path.write_text(got, encoding="utf-8")
            print("updated %s" % golden_path.relative_to(ROOT))
            return True
        ok = True
        want_exit = 0 if not mutations else 1
        if proc.returncode != want_exit:
            print("%s: exit %d, want %d\nstderr: %s"
                  % (name, proc.returncode, want_exit, proc.stderr),
                  file=sys.stderr)
            ok = False
        golden = golden_path.read_text(encoding="utf-8") \
            if golden_path.is_file() else "<missing golden file>"
        if got != golden:
            print("%s: findings differ from %s\n--- got ---\n%s"
                  "--- want ---\n%s"
                  % (name, golden_path.relative_to(ROOT), got, golden),
                  file=sys.stderr)
            ok = False
        if ok:
            print("%s: ok" % name)
        return ok


def main(argv):
    update = "--update-golden" in argv
    EXPECTED.mkdir(parents=True, exist_ok=True)
    failures = [name for name, muts in sorted(CASES.items())
                if not run_case(name, muts, update)]
    if failures:
        print("FAILED: %s" % ", ".join(failures), file=sys.stderr)
        return 1
    print("%d lint fixture case(s) pass" % len(CASES))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

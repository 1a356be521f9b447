#!/usr/bin/env python3
"""snnmap-lint: repo-specific determinism and contract checks.

The dynamic test suite (golden fixtures, serial-vs-parallel determinism
tests) can only catch a nondeterminism bug once an input exposes it; these
rules reject the *source patterns* that produce such bugs, at lint time:

  nondeterminism       No wall-clock, rand()/random_device, std::<random>
                       distributions, or environment reads in src/.  Every
                       stochastic or time-like input must flow through the
                       fully-specified util::Rng / simulated cycle clock.
  unordered-iteration  Every declaration of std::unordered_map/set in src/
                       and every range-for / .begin() walk over one must
                       carry a waiver justifying that iteration order cannot
                       reach outputs, digests, or FP-summation order.
  hoisted-gate         Optional hot-path subsystems stay inert when off:
                       every tracer_.record(...) / fault_model_ call site
                       must sit under a hoisted `*_active_` (or local
                       `trace_on`) gate, so the default config pays no cost
                       and golden digests cannot shift.
  config-key-coverage  Every "section.key" literal read by *_from_config
                       must be written by *_to_config (the save->load->save
                       byte-stability precondition) and must appear in
                       tests/core/config_io_test.cpp's schema coverage.

Waivers: a finding is silenced by a justification comment on the flagged
line or the line directly above it:

    // snnmap-lint: allow(<rule>) -- <why this cannot break determinism>

The justification text is mandatory; a bare allow() does not waive.  For
hoisted-gate, a waiver on an enclosing block's header line (e.g. a function
whose every call site is gated) covers the whole block.

Exit status: 0 clean, 1 findings, 2 usage/configuration error (including a
tree without src/).
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

ALL_RULES = (
    "nondeterminism",
    "unordered-iteration",
    "hoisted-gate",
    "config-key-coverage",
)

WAIVER_RE = re.compile(
    r"//\s*snnmap-lint:\s*allow\(([a-z-]+)\)\s*(?:--|—)\s*(\S.*)"
)
BARE_WAIVER_RE = re.compile(r"//\s*snnmap-lint:\s*allow\(([a-z-]+)\)")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def scan_waivers(raw_lines):
    """Maps 1-based line number -> set of waived rules (with justification).

    A waiver covers its own line and the line below it, matching the common
    shapes `code  // waiver` and `// waiver` above the flagged line.
    """
    waived = {}
    malformed = []
    comment_only = re.compile(r"\s*(?://|#)")
    for i, line in enumerate(raw_lines, start=1):
        m = WAIVER_RE.search(line)
        if m:
            # The waiver covers its own line, any immediately following
            # comment-only continuation lines, and the first code line after
            # them (the flagged line).
            end = i
            while end < len(raw_lines) and \
                    comment_only.match(raw_lines[end]):
                end += 1
            for covered in range(i, end + 2):
                waived.setdefault(covered, set()).add(m.group(1))
        elif BARE_WAIVER_RE.search(line):
            malformed.append(i)
    return waived, malformed


def strip_comments_and_strings(text):
    """Blanks out comments and string/char literal contents, preserving
    line structure and column offsets so findings map back to source."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(c)
            elif c == "'":
                state = "char"
                out.append(c)
            else:
                out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(c)
            elif c == "\n":  # unterminated; bail to code to stay line-stable
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        i += 1
    return "".join(out)


def line_of_offset(text, offset):
    return text.count("\n", 0, offset) + 1


def src_files(repo):
    root = repo / "src"
    return sorted(
        p for p in root.rglob("*") if p.suffix in (".cpp", ".hpp", ".h")
    )


def is_waived(waivers, line, rule):
    return rule in waivers.get(line, set())


# --------------------------------------------------------------------------
# Rule: nondeterminism
# --------------------------------------------------------------------------

NONDET_PATTERNS = (
    (re.compile(r"#\s*include\s*<random>"),
     "std::<random> distributions are implementation-defined; use util::Rng"),
    (re.compile(r"#\s*include\s*<chrono>"),
     "wall-clock time in src/ breaks replayability; use the simulated "
     "cycle clock"),
    (re.compile(r"\brandom_device\b"),
     "random_device is a nondeterminism source; seed util::Rng explicitly"),
    (re.compile(r"\bmt19937(?:_64)?\b"),
     "std::mt19937 streams differ across distribution implementations; "
     "use util::Rng"),
    (re.compile(r"\buniform_(?:int|real)_distribution\b"),
     "std:: distributions are implementation-defined; use util::Rng"),
    (re.compile(r"\b(?:system|steady|high_resolution)_clock\b"),
     "wall-clock reads make runs irreproducible; use the simulated "
     "cycle clock"),
    (re.compile(r"\bsrand\s*\(|(?<![\w.])rand\s*\(\s*\)"),
     "rand()/srand() is seeded process state; use util::Rng"),
    (re.compile(r"\b(?:gettimeofday|clock_gettime|timespec_get)\b"),
     "wall-clock reads make runs irreproducible"),
    (re.compile(r"(?<![\w:])time\s*\(\s*(?:NULL|nullptr|0)\s*\)"),
     "time() is a nondeterminism source"),
    (re.compile(r"\bgetenv\b"),
     "environment reads make results depend on ambient state; thread "
     "settings through config_io"),
)


def rule_nondeterminism(repo):
    findings = []
    for path in src_files(repo):
        raw = path.read_text()
        raw_lines = raw.splitlines()
        waivers, malformed = scan_waivers(raw_lines)
        rel = path.relative_to(repo)
        for line in malformed:
            findings.append(Finding(rel, line, "nondeterminism",
                                    "waiver without justification text"))
        stripped = strip_comments_and_strings(raw)
        for lineno, line in enumerate(stripped.splitlines(), start=1):
            for pattern, why in NONDET_PATTERNS:
                if pattern.search(line):
                    if is_waived(waivers, lineno, "nondeterminism"):
                        continue
                    findings.append(
                        Finding(rel, lineno, "nondeterminism", why))
    return findings


# --------------------------------------------------------------------------
# Rule: unordered-iteration
# --------------------------------------------------------------------------

UNORDERED_DECL_RE = re.compile(r"\bstd::unordered_(?:map|set)\s*<")


def balanced_angle_end(text, open_idx):
    """Index just past the matching '>' for the '<' at open_idx, or -1."""
    depth = 0
    for i in range(open_idx, len(text)):
        c = text[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        elif c == ";":
            return -1
    return -1


def rule_unordered_iteration(repo):
    findings = []
    for path in src_files(repo):
        raw = path.read_text()
        raw_lines = raw.splitlines()
        waivers, _ = scan_waivers(raw_lines)
        rel = path.relative_to(repo)
        stripped = strip_comments_and_strings(raw)

        tracked = set()
        for m in UNORDERED_DECL_RE.finditer(stripped):
            lineno = line_of_offset(stripped, m.start())
            end = balanced_angle_end(stripped, m.end() - 1)
            name = None
            if end > 0:
                nm = re.match(r"\s*&?\s*([A-Za-z_]\w*)\s*[;={(]",
                              stripped[end:end + 120])
                if nm:
                    name = nm.group(1)
            if name:
                tracked.add(name)
            if is_waived(waivers, lineno, "unordered-iteration"):
                continue
            findings.append(Finding(
                rel, lineno, "unordered-iteration",
                "unordered container declared; justify (waiver) that its "
                "iteration order cannot reach outputs, digests, or "
                "FP-summation order"))

        if not tracked:
            continue
        names = "|".join(sorted(tracked))
        iter_res = (
            re.compile(r"for\s*\([^();]*:\s*(" + names + r")\s*\)"),
            re.compile(r"\b(" + names + r")\s*\.\s*c?begin\s*\("),
        )
        for lineno, line in enumerate(stripped.splitlines(), start=1):
            for pattern in iter_res:
                if pattern.search(line):
                    if is_waived(waivers, lineno, "unordered-iteration"):
                        continue
                    findings.append(Finding(
                        rel, lineno, "unordered-iteration",
                        "iteration over unordered container "
                        f"'{pattern.search(line).group(1)}': order can leak "
                        "into results; materialize sorted or waive with "
                        "justification"))
    return findings


# --------------------------------------------------------------------------
# Rule: hoisted-gate
# --------------------------------------------------------------------------

GATED_CALLS = (
    (re.compile(r"\btracer_?\s*\.\s*record\s*\("),
     ("trace_active_", "trace_on"),
     "tracer record call not under a hoisted trace gate"),
    (re.compile(r"\bfault_model_\s*\.\s*\w+\s*\("),
     ("faults_active_",),
     "fault-model call not under the hoisted faults_active_ gate"),
)

GATE_ASSIGN_RE = re.compile(r"\b\w+_active_\s*=[^=]")


def enclosing_headers(stripped):
    """Yields (offset, headers) state by walking the brace structure.

    Returns a list of (start_offset, end_offset, header_text, header_line)
    "block" records plus a function mapping offset -> list of enclosing
    header records, implemented as a closure over a precomputed event list.
    """
    events = []  # (offset, 'push'|'pop', header_text, header_line)
    stmt_start = 0
    for i, c in enumerate(stripped):
        if c == "{":
            header = stripped[stmt_start:i]
            lead = len(header) - len(header.lstrip())
            events.append((i, "push", header,
                           line_of_offset(stripped, stmt_start + lead)))
            stmt_start = i + 1
        elif c == "}":
            events.append((i, "pop", None, None))
            stmt_start = i + 1
        elif c == ";":
            stmt_start = i + 1
    return events


def rule_hoisted_gate(repo):
    findings = []
    for path in src_files(repo):
        raw = path.read_text()
        raw_lines = raw.splitlines()
        waivers, _ = scan_waivers(raw_lines)
        rel = path.relative_to(repo)
        stripped = strip_comments_and_strings(raw)

        matches = []  # (offset, lineno, gates, message)
        for pattern, gates, message in GATED_CALLS:
            for m in pattern.finditer(stripped):
                lineno = line_of_offset(stripped, m.start())
                matches.append((m.start(), lineno, gates, message))
        if not matches:
            continue
        matches.sort()

        events = enclosing_headers(stripped)
        ev_idx = 0
        stack = []  # (header_text, header_line)
        stmt_start = 0
        for offset, lineno, gates, message in matches:
            while ev_idx < len(events) and events[ev_idx][0] < offset:
                ev_offset, kind, header, header_line = events[ev_idx]
                if kind == "push":
                    stack.append((header, header_line))
                elif stack:
                    stack.pop()
                stmt_start = ev_offset + 1
                ev_idx += 1
            # Current partial statement (covers `if (gate && call())` and
            # the hoist assignment `x_active_ = fault_model_.active()`).
            semi = stripped.rfind(";", stmt_start, offset)
            stmt = stripped[semi + 1 if semi >= 0 else stmt_start:offset]
            ok = any(g in stmt for g in gates) or GATE_ASSIGN_RE.search(stmt)
            for header, header_line in stack:
                if ok:
                    break
                if any(g in header for g in gates):
                    ok = True
                elif is_waived(waivers, header_line, "hoisted-gate"):
                    ok = True
            if ok or is_waived(waivers, lineno, "hoisted-gate"):
                continue
            findings.append(Finding(rel, lineno, "hoisted-gate", message))
    return findings


# --------------------------------------------------------------------------
# Rule: config-key-coverage
# --------------------------------------------------------------------------

CONFIG_SOURCES = ("src/core/config_io.cpp", "src/hw/energy_model.cpp")
CONFIG_TEST = "tests/core/config_io_test.cpp"

# Getter calls may carry explicit template arguments
# (`.uint_or<std::uint32_t>("key", ...)`) as well as deduce them.
READ_KEY_RE = re.compile(
    r"\.\s*(?:uint_or|double_or|bool_or|get_string)\s*(?:<[^<>()\"]*>)?"
    r"\s*\(\s*\"([a-z_0-9.]+)\"",
    re.S)
WRITE_KEY_RE = re.compile(r"\.\s*set\s*\(\s*\"([a-z_0-9.]+)\"", re.S)


def rule_config_key_coverage(repo):
    findings = []
    reads, writes = {}, {}
    for rel in CONFIG_SOURCES:
        path = repo / rel
        if not path.exists():
            findings.append(Finding(rel, 1, "config-key-coverage",
                                    "expected config source file missing"))
            continue
        text = path.read_text()
        for m in READ_KEY_RE.finditer(text):
            reads.setdefault(m.group(1), (rel, line_of_offset(text,
                                                              m.start())))
        for m in WRITE_KEY_RE.finditer(text):
            writes.setdefault(m.group(1), (rel, line_of_offset(text,
                                                               m.start())))

    for key, (rel, line) in sorted(reads.items()):
        if key not in writes:
            findings.append(Finding(
                rel, line, "config-key-coverage",
                f"key '{key}' is read by from_config but never written by "
                "to_config: save->load->save cannot be byte-stable"))
    for key, (rel, line) in sorted(writes.items()):
        if key not in reads:
            findings.append(Finding(
                rel, line, "config-key-coverage",
                f"key '{key}' is written by to_config but never read back: "
                "the value silently drops on reload"))

    test_path = repo / CONFIG_TEST
    if not test_path.exists():
        findings.append(Finding(CONFIG_TEST, 1, "config-key-coverage",
                                "round-trip test file missing"))
        return findings
    test_text = test_path.read_text()
    for key, (rel, line) in sorted({**reads, **writes}.items()):
        if key not in test_text:
            findings.append(Finding(
                rel, line, "config-key-coverage",
                f"key '{key}' does not appear in {CONFIG_TEST}: add it to "
                "the byte-stable round-trip schema coverage"))
    for m in re.finditer(r"\"([a-z_0-9]+\.[a-z_0-9]+)\"", test_text):
        key = m.group(1)
        if key not in reads and key not in writes:
            findings.append(Finding(
                CONFIG_TEST, line_of_offset(test_text, m.start()),
                "config-key-coverage",
                f"test references key '{key}' that config_io neither reads "
                "nor writes (stale after a rename?)"))
    return findings


# --------------------------------------------------------------------------

RULE_FNS = {
    "nondeterminism": rule_nondeterminism,
    "unordered-iteration": rule_unordered_iteration,
    "hoisted-gate": rule_hoisted_gate,
    "config-key-coverage": rule_config_key_coverage,
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo", default=None,
                        help="repository root (default: two levels up)")
    parser.add_argument("--rule", action="append", choices=ALL_RULES,
                        help="run only the given rule(s)")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(rule)
        return 0

    repo = pathlib.Path(args.repo) if args.repo else \
        pathlib.Path(__file__).resolve().parents[2]
    rules = args.rule or ALL_RULES
    if not (repo / "src").is_dir():
        print(f"snnmap-lint: no src/ under {repo}", file=sys.stderr)
        return 2

    findings = []
    for rule in rules:
        findings.extend(RULE_FNS[rule](repo))
    for finding in findings:
        print(finding)
    if findings:
        print(f"snnmap-lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""anadex-lint — determinism & contract static analysis for the anadex tree.

Every layer of this library (checkpoint/resume, the parallel EvalEngine,
JSONL tracing, the eval cache and the SoA ranking kernels) stakes its
correctness on two properties that ordinary compilers cannot see:

  * bit-exact determinism — a run is a pure function of (problem, params,
    seed, thread count is *not* in that tuple), so wall clocks, ambient
    randomness, environment reads and hash-order iteration must never leak
    into results; and
  * canonical-order contracts — fronts ascend by population index, floats
    round-trip through the hex/shortest writers in common/textio, public
    headers are self-contained, the layer DAG stays acyclic and every
    RunSettings field is classified digest-or-knob.

This linter enforces the source-level side of those contracts.  Rules:

  rule id             what it flags
  ------------------  ---------------------------------------------------
  raw-random          rand()/srand() — ambient C PRNG (use anadex::Rng)
  random-device       std::random_device — nondeterministic entropy source
  wall-clock          std::time/system_clock/gettimeofday/localtime/... —
                      wall-clock reads outside the telemetry layer
                      (src/obs/); the monotonic steady_clock is fine
  env-read            std::getenv/secure_getenv outside src/obs/ and
                      apps/ — ambient environment is another way real-world
                      state leaks into deterministic paths
  det-unordered       std::unordered_{map,set,multimap,multiset} in the
                      deterministic paths (src/engine, src/moga, src/sacga,
                      src/expt) — hash iteration order can leak into
                      fronts/traces; annotate with a justification
  unordered-iter      range-for iteration over a variable declared as an
                      unordered container in the same translation unit
  float-printf        %f/%e/%g-style float formatting in src/ outside
                      common/textio — printf floats do not round-trip;
                      use textio's shortest/hex writers
  pragma-once         public header without #pragma once before code
                      (mechanically fixable with --fix)
  include-hygiene     relative ("../") or bare quoted includes in src/
                      headers, and `using namespace` at header scope
                      (relative includes are fixable with --fix)
  raw-assert          raw assert()/<cassert> — use ANADEX_REQUIRE (public
                      preconditions) or ANADEX_ASSERT (internal invariants)
                      so failures throw typed, testable exceptions
  process-control     exit()/_exit()/quick_exit()/abort()/signal()/raise()
                      in src/, apps/ or bench/ outside src/robust/shutdown*
                      — ad-hoc process teardown skips the graceful-shutdown
                      layer (snapshot at the generation barrier, exit 130)
                      and can truncate a checkpoint mid-write
  unknown-suppression an `anadex-lint: allow(...)` comment naming a rule
                      this linter does not know — a typo there silently
                      disables nothing and hides the intent
  digest-coverage     (--digest-audit) a RunSettings field that the
                      settings registry classifies neither as digested
                      nor as a pure execution knob, a registry row with no
                      matching field, a digest serializer that stopped
                      expanding the registry, or a declared CLI flag that
                      is not wired in apps/anadex_cli.cpp
  layering            (--layers) an #include edge that violates the layer
                      DAG declared in scripts/layers.toml, a file no layer
                      claims, or a cyclic layer declaration

Suppression: append `// anadex-lint: allow(<rule>[, <rule>...])` to the
offending line, or place the comment on its own line directly above.  A
suppression should carry a justification in the surrounding comment.
digest-coverage and layering findings are whole-repo properties, not line
properties, and cannot be suppressed.

Exit codes: 0 = clean, 1 = violations found, 2 = usage/IO error.

JSON mode (`--json [--output FILE]`) emits a machine-readable report with
schema id "anadex-lint/2" for CI artifact upload; `--validate-report FILE`
asserts that a previously written report has that shape (the CI lint job
runs it on its own artifact, bench_report.py-style).

Whole-repo passes:
  --digest-audit        check the RunSettings field registry
                        (src/expt/settings_registry.hpp) against the struct
                        bodies, the digest serializer and the CLI wiring
  --layers FILE         enforce the include-layer DAG declared in FILE
                        (scripts/layers.toml); requires --compile-commands
  --compile-commands F  compile_commands.json to take include dirs from
  --fix                 mechanically fix pragma-once and relative-include
                        violations in place (idempotent), then lint
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

SCHEMA = "anadex-lint/2"
LAYERS_SCHEMA = "anadex-layers/1"

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_PATHS = ["src", "apps", "bench", "tests"]
CXX_SUFFIXES = {".cpp", ".hpp", ".cc", ".hh", ".cxx", ".h"}
# Fixture files deliberately contain violations; they are linted only when
# named explicitly (the self-test does exactly that).
SKIPPED_DIR_PARTS = ("tests/lint/fixtures",)

# Directories whose iteration order / float text reaches checkpoints,
# fronts or traces.  Hash-order containers here need a justification.
# src/serve is included because the scheduler's admission order, slicing
# and result files are part of the byte-identical reproducibility contract
# (docs/serve.md).
# src/engine/simd is already inside src/engine, but the SoA lane kernels it
# dispatches to live in src/device and src/circuit (batch_mosfet.hpp,
# batch_opamp.*) — result paths that must obey the same determinism rules.
# So do the layers above them that every evaluation passes through:
# src/scint, src/yield (the Monte Carlo) and src/problems.
DETERMINISTIC_DIRS = ("src/engine", "src/engine/simd", "src/moga", "src/sacga",
                      "src/expt", "src/serve", "src/shard", "src/device",
                      "src/circuit", "src/scint", "src/yield", "src/problems")

ALLOW_RE = re.compile(r"anadex-lint:\s*allow\(([^)]*)\)")
COMMENT_ONLY_RE = re.compile(r"^\s*(//|/\*|\*|\*/)")

RULE_DOCS = {
    "raw-random": "rand()/srand() banned: seed-addressed anadex::Rng only",
    "random-device": "std::random_device banned: nondeterministic entropy",
    "wall-clock": "wall-clock read outside src/obs/ (steady_clock is fine)",
    "env-read": "getenv/secure_getenv outside src/obs/ and apps/",
    "det-unordered": "unordered container in a deterministic path",
    "unordered-iter": "range-for over an unordered container",
    "float-printf": "%f-style float formatting outside common/textio",
    "pragma-once": "public header must open with #pragma once",
    "include-hygiene": "relative/bare include or using-namespace in header",
    "raw-assert": "raw assert(): use ANADEX_REQUIRE / ANADEX_ASSERT",
    "process-control": "raw exit/abort/signal outside src/robust/shutdown*",
    "unknown-suppression": "allow(...) names a rule this linter does not know",
    "digest-coverage": "settings field neither digested nor declared a knob",
    "layering": "#include edge violates the declared layer DAG",
}

RAW_RANDOM_RE = re.compile(r"(?<![\w.>])s?rand\s*\(")
RANDOM_DEVICE_RE = re.compile(r"\brandom_device\b")
WALL_CLOCK_RE = re.compile(
    r"std::time\s*\("
    r"|(?<![\w:.])time\s*\(\s*(?:NULL|nullptr|0|&)"
    r"|\bsystem_clock\b"
    r"|\bhigh_resolution_clock\b"
    r"|\bgettimeofday\b"
    r"|\blocaltime\b|\bgmtime\b|\bstrftime\b|\bmktime\b"
    r"|(?<![\w:.])clock\s*\(\s*\)"
)
# `std::getenv` still matches (the lookbehind permits ':'); member calls
# (`env.getenv(...)`) do not.
ENV_READ_RE = re.compile(r"(?<![\w.>])(?:secure_)?getenv\s*\(")
UNORDERED_TYPE_RE = re.compile(r"\bunordered_(?:multi)?(?:map|set)\s*<")
# `std::unordered_map<K, V> name` / `... name;` / `... name{...}` — good
# enough for the single-line declarations this codebase writes.
UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:multi)?(?:map|set)\s*<[^;{}]*>\s+(\w+)\s*[;={(]"
)
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;:()]*:\s*(\w+)\s*\)")
PRINTF_CALL_RE = re.compile(r"\b(?:printf|fprintf|sprintf|snprintf)\s*\(")
FLOAT_FMT_RE = re.compile(r'"[^"]*%[-+ #0-9.*]*(?:l|L)?[aefgAEFG][^"]*"')
RAW_ASSERT_RE = re.compile(r"(?<![\w.:])assert\s*\(")
# Process-teardown and signal-wiring calls. `::`-qualified forms still match
# (the lookbehind permits ':'); member calls (`sim.exit(...)`) do not.
PROCESS_CONTROL_RE = re.compile(
    r"(?<![\w.>])(?:_?exit|_Exit|quick_exit|abort|signal|raise)\s*\("
)
ASSERT_INCLUDE_RE = re.compile(r'#\s*include\s*[<"](?:cassert|assert\.h)[>"]')
RELATIVE_INCLUDE_RE = re.compile(r'#\s*include\s*"(\.\.?/[^"]*)"')
BARE_INCLUDE_RE = re.compile(r'#\s*include\s*"([^"/]+)"')
QUOTED_INCLUDE_RE = re.compile(r'#\s*include\s*"([^"]+)"')
USING_NAMESPACE_RE = re.compile(r"^\s*using\s+namespace\s+\w")
PRAGMA_ONCE_RE = re.compile(r"^\s*#\s*pragma\s+once\b")
PREPROC_OR_CODE_RE = re.compile(r"\S")


def rel(path: Path) -> str:
    try:
        return path.resolve().relative_to(REPO_ROOT).as_posix()
    except ValueError:
        return path.as_posix()


def in_dirs(relpath: str, prefixes) -> bool:
    return any(relpath == p or relpath.startswith(p + "/") for p in prefixes)


class Report:
    def __init__(self):
        self.violations = []
        self.suppressed = []
        self.files_scanned = 0
        self.fixed = 0
        self.digest_audit = None
        self.layering = None

    def add(self, allowed: set, rule: str, path: str, line_no: int, line: str, message: str):
        entry = {
            "rule": rule,
            "path": path,
            "line": line_no,
            "message": message,
            "snippet": line.strip()[:160],
        }
        if rule in allowed or "*" in allowed:
            self.suppressed.append(entry)
        else:
            self.violations.append(entry)


def suppression_names(line: str) -> list:
    m = ALLOW_RE.search(line)
    if not m:
        return []
    return [r.strip() for r in m.group(1).split(",") if r.strip()]


def allowed_rules(lines, idx: int) -> set:
    """Rules suppressed for lines[idx]: same-line or previous-comment-line."""
    rules = set(suppression_names(lines[idx]))
    if idx > 0 and COMMENT_ONLY_RE.match(lines[idx - 1]):
        rules.update(suppression_names(lines[idx - 1]))
    return rules


def strip_line_comment(line: str) -> str:
    """Drops //-comments so commented-out code is not flagged."""
    in_string = False
    i = 0
    while i < len(line) - 1:
        c = line[i]
        if c == '"' and (i == 0 or line[i - 1] != "\\"):
            in_string = not in_string
        elif not in_string and c == "/" and line[i + 1] == "/":
            return line[:i]
        i += 1
    return line


def effective_relpath(path: Path, pretend_prefix: str | None) -> str:
    if pretend_prefix is not None:
        # Self-test hook: treat this file as if it lived at
        # <pretend_prefix>/<name>, so fixtures can exercise path-scoped
        # rules without living inside src/.
        return f"{pretend_prefix.rstrip('/')}/{path.name}"
    return rel(path)


def first_code_line_index(lines) -> int | None:
    """Index of the first non-comment code/preprocessor line, tracking the
    same cheap block-comment state the lint loop uses. None = no code."""
    in_block_comment = False
    for idx, raw in enumerate(lines):
        stripped = raw.strip()
        if in_block_comment:
            if "*/" in stripped:
                in_block_comment = False
            continue
        if stripped.startswith("/*") and "*/" not in stripped:
            in_block_comment = True
            continue
        code = strip_line_comment(raw)
        if PREPROC_OR_CODE_RE.search(code) and not COMMENT_ONLY_RE.match(raw):
            return idx
    return None


def lint_file(path: Path, report: Report, pretend_prefix: str | None = None):
    relpath = effective_relpath(path, pretend_prefix)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        print(f"anadex-lint: cannot read {relpath}: {err}", file=sys.stderr)
        sys.exit(2)
    lines = text.splitlines()
    report.files_scanned += 1

    is_header = path.suffix in {".hpp", ".hh", ".h"}
    in_src = in_dirs(relpath, ("src",))
    in_obs = in_dirs(relpath, ("src/obs",))
    in_det = in_dirs(relpath, DETERMINISTIC_DIRS)
    is_textio = relpath.startswith("src/common/textio")
    # Library/CLI/bench code must route teardown through the shutdown
    # module; tests are exempt (they legitimately raise signals at
    # themselves, and `signal` is a common DSP variable name there).
    in_process_scope = (in_dirs(relpath, ("src", "apps", "bench"))
                        and not relpath.startswith("src/robust/shutdown"))
    # Environment reads are ambient, wall-clock-like state: the telemetry
    # layer may annotate records with them and the CLI front-ends may read
    # their own configuration, but library and bench code must take every
    # input through parameters. (Bench quick-mode reads carry justified
    # suppressions.)
    in_env_scope = (in_dirs(relpath, ("src", "bench", "tests"))
                    and not in_obs)

    # Names declared as unordered containers in this file plus its paired
    # header (eval_cache.cpp iterating a member declared in eval_cache.hpp).
    unordered_names = set()
    scan_texts = [lines]
    if path.suffix == ".cpp":
        header = path.with_suffix(".hpp")
        if header.exists():
            scan_texts.append(header.read_text(encoding="utf-8").splitlines())
    for body in scan_texts:
        for raw in body:
            for m in UNORDERED_DECL_RE.finditer(strip_line_comment(raw)):
                unordered_names.add(m.group(1))

    pragma_seen = False
    pragma_checked = not is_header or not in_src
    in_block_comment = False

    for idx, raw in enumerate(lines):
        line_no = idx + 1
        allowed = allowed_rules(lines, idx)

        # --- unknown-suppression: checked on every line, including comment
        # lines (a typo in allow() silently disables nothing).
        for name in suppression_names(raw):
            if name != "*" and name not in RULE_DOCS:
                report.add(allowed, "unknown-suppression", relpath, line_no,
                           raw,
                           f"suppression names unknown rule '{name}'; known "
                           "rules: " + ", ".join(sorted(RULE_DOCS)))

        # Cheap block-comment tracking: skip fully commented lines.
        stripped = raw.strip()
        if in_block_comment:
            if "*/" in stripped:
                in_block_comment = False
            continue
        if stripped.startswith("/*") and "*/" not in stripped:
            in_block_comment = True
            continue

        code = strip_line_comment(raw)

        # --- pragma-once: must appear before the first real code line.
        if not pragma_checked:
            if PRAGMA_ONCE_RE.match(code):
                pragma_seen = True
                pragma_checked = True
            elif PREPROC_OR_CODE_RE.search(code) and not COMMENT_ONLY_RE.match(raw):
                report.add(allowed, "pragma-once", relpath, line_no, raw,
                           "public header must start with #pragma once "
                           "before any code or preprocessor line")
                pragma_checked = True

        if not PREPROC_OR_CODE_RE.search(code):
            continue

        # --- raw-random / random-device: everywhere except src/obs/.
        if not in_obs:
            if RAW_RANDOM_RE.search(code):
                report.add(allowed, "raw-random", relpath, line_no, raw,
                           "rand()/srand() is ambient, unseeded state; use the "
                           "seed-addressed anadex::Rng instead")
            if RANDOM_DEVICE_RE.search(code):
                report.add(allowed, "random-device", relpath, line_no, raw,
                           "std::random_device draws nondeterministic entropy; "
                           "runs must be pure functions of their seed")

        # --- wall-clock: telemetry (src/obs/) may timestamp, nothing else.
        if not in_obs and WALL_CLOCK_RE.search(code):
            report.add(allowed, "wall-clock", relpath, line_no, raw,
                       "wall-clock reads outside src/obs/ leak real time into "
                       "deterministic paths; use steady_clock for durations")

        # --- env-read: the environment is ambient state like the clock.
        if in_env_scope and ENV_READ_RE.search(code):
            report.add(allowed, "env-read", relpath, line_no, raw,
                       "getenv reads ambient environment state; take the "
                       "value as a parameter/flag instead (telemetry in "
                       "src/obs/ and the CLIs in apps/ are exempt)")

        # --- unordered containers in deterministic paths.
        if in_det:
            if UNORDERED_TYPE_RE.search(code) and not code.lstrip().startswith("#"):
                report.add(allowed, "det-unordered", relpath, line_no, raw,
                           "hash-container iteration order is unspecified and "
                           "can leak into fronts/traces; justify with an "
                           "anadex-lint: allow(det-unordered) annotation or "
                           "use an ordered container")
            m = RANGE_FOR_RE.search(code)
            if m and m.group(1) in unordered_names:
                report.add(allowed, "unordered-iter", relpath, line_no, raw,
                           f"range-for over unordered container '{m.group(1)}' "
                           "iterates in hash order; iterate a sorted index "
                           "instead")

        # --- float-printf: library code must use common/textio writers.
        if in_src and not is_textio:
            if PRINTF_CALL_RE.search(code) and FLOAT_FMT_RE.search(code):
                report.add(allowed, "float-printf", relpath, line_no, raw,
                           "%f-style float text does not round-trip; use "
                           "common/textio's shortest/hex writers")

        # --- include hygiene (headers in src/ must be relocatable).
        if is_header and in_src:
            m = RELATIVE_INCLUDE_RE.search(code)
            if m:
                report.add(allowed, "include-hygiene", relpath, line_no, raw,
                           f'relative include "{m.group(1)}" breaks when the '
                           "header moves; include project-root-relative paths")
            m = BARE_INCLUDE_RE.search(code)
            if m:
                report.add(allowed, "include-hygiene", relpath, line_no, raw,
                           f'bare include "{m.group(1)}" is ambiguous; use the '
                           'project-root-relative "dir/file.hpp" form')
            if USING_NAMESPACE_RE.match(code):
                report.add(allowed, "include-hygiene", relpath, line_no, raw,
                           "using-namespace at header scope pollutes every "
                           "includer")

        # --- raw-assert: typed, throwing checks only.
        if RAW_ASSERT_RE.search(code) or ASSERT_INCLUDE_RE.search(code):
            report.add(allowed, "raw-assert", relpath, line_no, raw,
                       "raw assert() aborts and vanishes in NDEBUG; use "
                       "ANADEX_REQUIRE (precondition) or ANADEX_ASSERT "
                       "(invariant) from common/check.hpp")

        # --- process-control: teardown flows through the shutdown module.
        if in_process_scope and PROCESS_CONTROL_RE.search(code):
            report.add(allowed, "process-control", relpath, line_no, raw,
                       "raw exit/abort/signal bypasses the graceful-shutdown "
                       "layer (src/robust/shutdown.hpp) and can kill the "
                       "process mid-checkpoint; request the stop token or "
                       "return an exit code instead")

    if is_header and in_src and not pragma_seen and not pragma_checked:
        # Header with no code lines at all — still needs the guard.
        report.add(set(), "pragma-once", relpath, max(len(lines), 1),
                   lines[-1] if lines else "", "public header lacks #pragma once")


# ---------------------------------------------------------------------------
# --fix: mechanical rewrites for pragma-once and relative includes.
# ---------------------------------------------------------------------------

def fix_file(path: Path, pretend_prefix: str | None = None) -> int:
    """Applies the mechanical fixes in place. Returns the number of fixes.

    Covered rules (and nothing else — every other rule needs judgement):
      * pragma-once: insert `#pragma once` before the first code line of a
        src/ header that lacks it;
      * include-hygiene, relative form: rewrite `#include "../x/y.hpp"` to
        the project-root-relative path obtained by normalizing against the
        header's own directory. Bare includes stay untouched (the intended
        directory is ambiguous). A rewrite that would escape the repo root
        or (for real files) name a header that does not exist is skipped.
    Idempotent: a second run finds nothing left to fix.
    """
    relpath = effective_relpath(path, pretend_prefix)
    is_header = path.suffix in {".hpp", ".hh", ".h"}
    in_src = in_dirs(relpath, ("src",))
    if not (is_header and in_src):
        return 0
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines(keepends=True)
    fixes = 0

    # Relative-include rewrites first (line indices stay stable).
    rel_dir = Path(relpath).parent
    for idx, raw in enumerate(lines):
        m = RELATIVE_INCLUDE_RE.search(strip_line_comment(raw))
        if not m:
            continue
        target = m.group(1)
        resolved_parts = []
        for part in (rel_dir / target).parts:
            if part == "..":
                if not resolved_parts:
                    resolved_parts = None  # escapes the repo root
                    break
                resolved_parts.pop()
            elif part != ".":
                resolved_parts.append(part)
        if resolved_parts is None:
            continue
        resolved = "/".join(resolved_parts)
        # Only rewrite to a header that actually exists; a fixture linted
        # under --pretend-path has no real neighbours to check against.
        if pretend_prefix is None and not (REPO_ROOT / resolved).is_file():
            continue
        lines[idx] = raw.replace(f'"{target}"', f'"{resolved}"')
        fixes += 1

    # pragma-once insertion.
    bare = [ln.rstrip("\r\n") for ln in lines]
    has_pragma = any(PRAGMA_ONCE_RE.match(strip_line_comment(ln)) for ln in bare)
    if not has_pragma:
        idx = first_code_line_index(bare)
        insert_at = idx if idx is not None else len(lines)
        eol = "\r\n" if lines and lines[0].endswith("\r\n") else "\n"
        lines.insert(insert_at, f"#pragma once{eol}")
        fixes += 1

    if fixes:
        path.write_text("".join(lines), encoding="utf-8")
    return fixes


# ---------------------------------------------------------------------------
# --digest-audit: settings registry vs struct bodies vs serializer vs CLI.
# ---------------------------------------------------------------------------

REGISTRY_FILE = "src/expt/settings_registry.hpp"
SETTINGS_FILE = "src/expt/runner.hpp"
DIGEST_FILE = "src/expt/runner.cpp"
CLI_FILE = "apps/anadex_cli.cpp"
REGISTRY_MACRO = "ANADEX_RUN_SETTINGS_REGISTRY"

REGISTRY_ENTRY_RES = {
    "meta": re.compile(r"\bMETA\(\s*(\w+)\s*,\s*\"([^\"]*)\"\s*\)"),
    "digest": re.compile(
        r"\bDIGEST\(\s*(\w+)\s*,\s*\"([^\"]*)\"\s*,\s*\"([^\"]*)\"\s*\)"),
    "knob": re.compile(r"\bKNOB\(\s*(\w+)\s*,\s*\"([^\"]*)\"\s*\)"),
    "seam": re.compile(r"\bSEAM\(\s*(\w+)\s*\)"),
}


def strip_comments(text: str) -> str:
    text = re.sub(r"/\*.*?\*/", " ", text, flags=re.S)
    return re.sub(r"//[^\n]*", "", text)


def parse_registry(text: str) -> list:
    """Entries of the X-macro body: [(kind, field, digest_tag, cli_flag)]."""
    lines = text.splitlines()
    body = []
    grabbing = False
    for line in lines:
        if re.match(r"\s*#\s*define\s+" + REGISTRY_MACRO + r"\(", line):
            grabbing = True
        if grabbing:
            body.append(line.rstrip().rstrip("\\"))
            if not line.rstrip().endswith("\\"):
                break
    blob = strip_comments(" ".join(body))
    # Drop the parameter list of the #define itself so `(META, DIGEST, ...)`
    # is not misread as an entry.
    blob = re.sub(r"#\s*define\s+" + REGISTRY_MACRO + r"\([^)]*\)", " ", blob)
    entries = []
    for kind, pattern in REGISTRY_ENTRY_RES.items():
        for m in pattern.finditer(blob):
            field = m.group(1)
            tag = m.group(2) if kind == "digest" else ""
            flag = (m.group(3) if kind == "digest"
                    else m.group(2) if kind in ("meta", "knob") else "")
            entries.append((kind, field, tag, flag))
    return entries


def parse_struct(text: str, struct_name: str):
    """Field names of a struct with a brace-plain body (data members only —
    exactly what RunSettings is), or None when the struct is missing."""
    clean = strip_comments(text)
    m = re.search(r"\bstruct\s+" + struct_name + r"\b[^{;]*\{", clean)
    if not m:
        return None
    depth = 1
    start = m.end()
    i = start
    while i < len(clean) and depth > 0:
        if clean[i] == "{":
            depth += 1
        elif clean[i] == "}":
            depth -= 1
        i += 1
    body = clean[start:i - 1]
    fields = []
    for statement in body.split(";"):
        # Cut the initializer (= default or {aggregate}) and take the last
        # identifier: `const CancelToken* stop = nullptr` -> stop,
        # `std::vector<std::size_t> mesacga_schedule{20, ...}` -> schedule.
        decl = re.split(r"[={]", statement, maxsplit=1)[0]
        if re.match(r"\s*(struct|enum|using|typedef|static)\b", decl):
            continue
        name = re.search(r"([A-Za-z_]\w*)\s*$", decl)
        if name:
            fields.append(name.group(1))
    return fields


def find_line(text: str, needle: str) -> int:
    for i, line in enumerate(text.splitlines(), start=1):
        if needle in line:
            return i
    return 1


def function_body(text: str, signature_re: str) -> str:
    clean = strip_comments(text)
    m = re.search(signature_re, clean)
    if not m:
        return ""
    i = clean.find("{", m.end() - 1)
    if i < 0:
        return ""
    depth = 0
    start = i
    while i < len(clean):
        if clean[i] == "{":
            depth += 1
        elif clean[i] == "}":
            depth -= 1
            if depth == 0:
                return clean[start:i]
        i += 1
    return clean[start:]


def digest_audit(report: Report, audit_root: Path):
    """The digest-coverage contract, checked four ways (see RULE_DOCS)."""
    section = {
        "root": str(audit_root),
        "registered": 0,
        "fields": 0,
        "meta": [], "digest": [], "knob": [], "seam": [],
        "violation_count": 0,
    }
    before = len(report.violations)

    def violate(path: Path, line: int, message: str):
        report.add(set(), "digest-coverage", rel(path), line, "", message)

    reg_path = audit_root / REGISTRY_FILE
    settings_path = audit_root / SETTINGS_FILE
    if not reg_path.is_file() or not settings_path.is_file():
        violate(reg_path if not reg_path.is_file() else settings_path, 1,
                "digest audit: registry or settings header missing "
                f"(expected {REGISTRY_FILE} and {SETTINGS_FILE})")
        section["violation_count"] = len(report.violations) - before
        report.digest_audit = section
        return

    reg_text = reg_path.read_text(encoding="utf-8")
    entries = parse_registry(reg_text)
    if not entries:
        violate(reg_path, 1,
                f"digest audit: no {REGISTRY_MACRO} entries found — the "
                "X-macro body is missing or unparseable")

    seen = {}
    for kind, field, tag, flag in entries:
        if field in seen:
            violate(reg_path, find_line(reg_text, field),
                    f"digest audit: field '{field}' registered twice "
                    f"({seen[field]} and {kind})")
        seen[field] = kind
        section[kind].append(field)

    tags = [t for k, _, t, _ in entries if k == "digest" for t in [t]]
    for tag in {t for t in tags if tags.count(t) > 1}:
        violate(reg_path, find_line(reg_text, f'"{tag}"'),
                f"digest audit: digest tag '{tag}' used by more than one "
                "field; tags are wire keys and must be unique")

    settings_text = settings_path.read_text(encoding="utf-8")
    fields = parse_struct(settings_text, "RunSettings")
    if fields is None:
        violate(settings_path, 1,
                "digest audit: struct RunSettings not found")
        fields = []

    # The bijection, both directions.
    for field in fields:
        if field not in seen:
            violate(settings_path, find_line(settings_text, field),
                    f"digest audit: settings field '{field}' is neither in "
                    "the digest list nor in the execution-knob list — add "
                    f"exactly one entry for it to {REGISTRY_FILE}")
    for field, kind in seen.items():
        if field not in fields:
            violate(reg_path, find_line(reg_text, field),
                    f"digest audit: registry entry '{field}' ({kind}) names "
                    "no RunSettings field — remove the row or fix the "
                    "spelling")

    # The serializer must be generated from the registry, not hand-rolled.
    digest_path = audit_root / DIGEST_FILE
    if digest_path.is_file():
        digest_text = digest_path.read_text(encoding="utf-8")
        body = function_body(
            digest_text, r"std::string\s+run_config_digest\s*\([^)]*\)\s*\{")
        if not body:
            violate(digest_path, 1,
                    "digest audit: run_config_digest definition not found in "
                    f"{DIGEST_FILE}")
        elif REGISTRY_MACRO not in body:
            violate(digest_path, find_line(digest_text, "run_config_digest"),
                    f"digest audit: run_config_digest no longer expands "
                    f"{REGISTRY_MACRO}; a hand-rolled serializer can drift "
                    "from the registry")
    else:
        violate(digest_path, 1,
                f"digest audit: {DIGEST_FILE} missing")

    # Declared CLI flags must be wired (a registry row is the contract that
    # `anadex explore --<flag>` exists).
    cli_path = audit_root / CLI_FILE
    cli_text = cli_path.read_text(encoding="utf-8") if cli_path.is_file() else ""
    if not cli_text:
        violate(cli_path, 1, f"digest audit: {CLI_FILE} missing")
    for kind, field, _tag, flag in entries:
        if flag and cli_text and f'"{flag}"' not in cli_text:
            violate(reg_path, find_line(reg_text, f'"{flag}"'),
                    f"digest audit: registry declares CLI flag '--{flag}' "
                    f"for '{field}' but {CLI_FILE} never reads \"{flag}\"")

    section["registered"] = len(seen)
    section["fields"] = len(fields)
    section["violation_count"] = len(report.violations) - before
    report.digest_audit = section


# ---------------------------------------------------------------------------
# --layers: include-layer DAG enforcement over compile_commands.json.
# ---------------------------------------------------------------------------

def load_compile_include_dirs(db_path: Path) -> list:
    try:
        db = json.loads(db_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as err:
        print(f"anadex-lint: cannot read compile db {db_path}: {err}",
              file=sys.stderr)
        sys.exit(2)
    dirs = []
    for entry in db:
        base = Path(entry.get("directory", "."))
        args = entry.get("arguments")
        if args is None:
            args = entry.get("command", "").split()
        it = iter(args)
        for tok in it:
            inc = None
            if tok in ("-I", "-isystem"):
                inc = next(it, None)
            elif tok.startswith("-I"):
                inc = tok[2:]
            if inc:
                p = Path(inc)
                if not p.is_absolute():
                    p = base / p
                p = p.resolve()
                if p not in dirs:
                    dirs.append(p)
    return dirs


class Layers:
    """The declared DAG: named layers, each claiming path prefixes (longest
    prefix wins, individual files override their directory) and allowed
    direct dependencies ("*" = unconstrained, for apps/bench/tests)."""

    def __init__(self, spec: dict, toml_path: Path):
        self.toml_path = toml_path
        self.deps = {}
        self.claims = []  # (path, layer), matched longest-prefix-first
        for layer in spec.get("layer", []):
            name = layer["name"]
            self.deps[name] = list(layer.get("deps", []))
            for p in layer.get("paths", []):
                self.claims.append((p.rstrip("/"), name))
        self.claims.sort(key=lambda c: len(c[0]), reverse=True)

    def layer_of(self, relpath: str) -> str | None:
        for prefix, name in self.claims:
            if relpath == prefix or relpath.startswith(prefix + "/"):
                return name
        return None

    def allowed(self, frm: str, to: str) -> bool:
        deps = self.deps.get(frm, [])
        return frm == to or "*" in deps or to in deps

    def cycle(self) -> list | None:
        """A declared dependency cycle, or None. Wildcard layers cannot
        participate (they declare no concrete deps)."""
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {n: WHITE for n in self.deps}
        stack = []

        def visit(n):
            color[n] = GRAY
            stack.append(n)
            for d in self.deps.get(n, []):
                if d == "*" or d not in color:
                    continue
                if color[d] == GRAY:
                    return stack[stack.index(d):] + [d]
                if color[d] == WHITE:
                    found = visit(d)
                    if found:
                        return found
            color[n] = BLACK
            stack.pop()
            return None

        for n in self.deps:
            if color[n] == WHITE:
                found = visit(n)
                if found:
                    return found
        return None


def load_layers(toml_path: Path) -> Layers:
    try:
        import tomllib
    except ImportError:  # Python < 3.11
        print("anadex-lint: --layers needs Python 3.11+ (tomllib)",
              file=sys.stderr)
        sys.exit(2)
    try:
        spec = tomllib.loads(toml_path.read_text(encoding="utf-8"))
    except (OSError, tomllib.TOMLDecodeError) as err:
        print(f"anadex-lint: cannot read layers file {toml_path}: {err}",
              file=sys.stderr)
        sys.exit(2)
    if spec.get("schema") != LAYERS_SCHEMA:
        print(f"anadex-lint: {toml_path} schema is not '{LAYERS_SCHEMA}'",
              file=sys.stderr)
        sys.exit(2)
    return Layers(spec, toml_path)


def layering_pass(report: Report, layers: Layers, include_dirs: list,
                  layers_root: Path):
    """Resolves every quoted #include of every claimed file and checks the
    edge against the declared DAG."""
    before = len(report.violations)
    section = {
        "schema": LAYERS_SCHEMA,
        "layers": sorted(layers.deps),
        "files_scanned": 0,
        "edges_checked": 0,
        "violation_count": 0,
    }

    cycle = layers.cycle()
    if cycle:
        report.add(set(), "layering", rel(layers.toml_path), 1, "",
                   "declared layer graph is cyclic: " + " -> ".join(cycle))

    files = []
    for prefix, _name in layers.claims:
        p = layers_root / prefix
        if p.is_file():
            files.append(p)
        elif p.is_dir():
            for f in sorted(p.rglob("*")):
                if f.suffix in CXX_SUFFIXES and f.is_file():
                    r = f.relative_to(layers_root).as_posix()
                    if any(part in r for part in SKIPPED_DIR_PARTS):
                        continue
                    files.append(f)
    files = sorted(set(files))

    for f in files:
        relpath = f.relative_to(layers_root).as_posix()
        frm = layers.layer_of(relpath)
        if frm is None:
            continue  # unreachable: files come from claims
        section["files_scanned"] += 1
        try:
            lines = f.read_text(encoding="utf-8").splitlines()
        except OSError:
            continue
        for idx, raw in enumerate(lines):
            m = QUOTED_INCLUDE_RE.search(strip_line_comment(raw))
            if not m:
                continue
            inc = m.group(1)
            resolved = None
            for base in [f.parent] + include_dirs:
                cand = (base / inc)
                if cand.is_file():
                    resolved = cand.resolve()
                    break
            if resolved is None:
                continue  # external or generated header: not ours to judge
            try:
                target_rel = resolved.relative_to(layers_root.resolve()).as_posix()
            except ValueError:
                continue
            to = layers.layer_of(target_rel)
            section["edges_checked"] += 1
            if to is None:
                report.add(set(), "layering", relpath, idx + 1, raw,
                           f'included file "{target_rel}" matches no declared '
                           f"layer; claim it in {rel(layers.toml_path)}")
                continue
            if not layers.allowed(frm, to):
                report.add(set(), "layering", relpath, idx + 1, raw,
                           f"include edge {frm} -> {to} is not in the "
                           f"declared DAG ({rel(layers.toml_path)}: layer "
                           f"'{frm}' deps {layers.deps.get(frm, [])})")

    section["violation_count"] = len(report.violations) - before
    report.layering = section


# ---------------------------------------------------------------------------
# --validate-report: schema assertion for a written report artifact.
# ---------------------------------------------------------------------------

REPORT_TOP_KEYS = ("schema", "files_scanned", "violation_count",
                   "suppressed_count", "fixed_count", "violations",
                   "suppressed", "digest_audit", "layering")
VIOLATION_KEYS = ("rule", "path", "line", "message", "snippet")


def validate_report(path: Path) -> int:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as err:
        print(f"anadex-lint: cannot read report {path}: {err}", file=sys.stderr)
        return 2
    errors = []
    if payload.get("schema") != SCHEMA:
        errors.append(f"schema is {payload.get('schema')!r}, want '{SCHEMA}'")
    for key in REPORT_TOP_KEYS:
        if key not in payload:
            errors.append(f"missing top-level key '{key}'")
    for kind in ("violations", "suppressed"):
        for i, v in enumerate(payload.get(kind, [])):
            for key in VIOLATION_KEYS:
                if key not in v:
                    errors.append(f"{kind}[{i}] missing key '{key}'")
            if v.get("rule") not in RULE_DOCS:
                errors.append(f"{kind}[{i}] has unknown rule "
                              f"{v.get('rule')!r}")
    audit = payload.get("digest_audit")
    if audit is not None:
        for key in ("registered", "fields", "digest", "knob",
                    "violation_count"):
            if key not in audit:
                errors.append(f"digest_audit missing key '{key}'")
    layering = payload.get("layering")
    if layering is not None:
        for key in ("schema", "layers", "files_scanned", "edges_checked",
                    "violation_count"):
            if key not in layering:
                errors.append(f"layering missing key '{key}'")
        if layering and layering.get("schema") != LAYERS_SCHEMA:
            errors.append(f"layering schema is {layering.get('schema')!r}, "
                          f"want '{LAYERS_SCHEMA}'")
    if (isinstance(payload.get("violations"), list)
            and payload.get("violation_count") != len(payload["violations"])):
        errors.append("violation_count does not match len(violations)")
    if errors:
        for e in errors:
            print(f"anadex-lint: report {path}: {e}", file=sys.stderr)
        return 1
    print(f"anadex-lint: report {path} conforms to {SCHEMA}")
    return 0


def collect(paths) -> list:
    files = []
    for arg in paths:
        p = Path(arg)
        if not p.is_absolute():
            p = REPO_ROOT / p
        if p.is_file():
            files.append(p)  # explicit files are always linted (fixtures)
        elif p.is_dir():
            for f in sorted(p.rglob("*")):
                if f.suffix not in CXX_SUFFIXES or not f.is_file():
                    continue
                r = rel(f)
                if any(part in r for part in SKIPPED_DIR_PARTS):
                    continue
                files.append(f)
        else:
            print(f"anadex-lint: no such path: {arg}", file=sys.stderr)
            sys.exit(2)
    return files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="anadex_lint.py",
        description="Determinism & contract linter for the anadex tree.")
    parser.add_argument("paths", nargs="*", default=None,
                        help=f"files or directories (default: {' '.join(DEFAULT_PATHS)})")
    parser.add_argument("--json", action="store_true",
                        help=f"emit an {SCHEMA} JSON report on stdout")
    parser.add_argument("--output", metavar="FILE",
                        help="also write the JSON report to FILE")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule table and exit")
    parser.add_argument("--pretend-path", metavar="PREFIX", default=None,
                        help="lint explicit files as if they lived under "
                             "PREFIX (self-test hook for path-scoped rules)")
    parser.add_argument("--fix", action="store_true",
                        help="apply the mechanical fixes (pragma-once, "
                             "relative includes) in place before linting")
    parser.add_argument("--digest-audit", action="store_true",
                        help="audit the RunSettings registry against the "
                             "struct bodies, serializer and CLI wiring")
    parser.add_argument("--audit-root", metavar="DIR", default=None,
                        help="tree root for --digest-audit (fixture hook; "
                             "default: the repo root)")
    parser.add_argument("--layers", metavar="FILE", default=None,
                        help="enforce the include-layer DAG declared in FILE")
    parser.add_argument("--layers-root", metavar="DIR", default=None,
                        help="tree root the layer paths are relative to "
                             "(fixture hook; default: the repo root)")
    parser.add_argument("--compile-commands", metavar="FILE", default=None,
                        help="compile_commands.json providing include dirs "
                             "for --layers resolution (required with "
                             "--layers)")
    parser.add_argument("--validate-report", metavar="FILE", default=None,
                        help=f"assert FILE is a well-formed {SCHEMA} report "
                             "and exit")
    args = parser.parse_args(argv)

    if args.validate_report:
        return validate_report(Path(args.validate_report))

    if args.list_rules:
        for rule, doc in RULE_DOCS.items():
            print(f"{rule:20} {doc}")
        return 0

    if args.layers and not args.compile_commands:
        print("anadex-lint: --layers requires --compile-commands "
              "(include resolution is compile-db driven)", file=sys.stderr)
        return 2

    report = Report()

    # With only whole-repo passes requested and no explicit paths, skip the
    # per-file walk: `anadex_lint.py --digest-audit` audits and nothing else.
    pass_only = (args.paths in (None, []) and (args.digest_audit or args.layers))
    files = [] if pass_only else collect(args.paths or DEFAULT_PATHS)

    if args.fix:
        for f in files:
            report.fixed += fix_file(f, pretend_prefix=args.pretend_path)

    for f in files:
        lint_file(f, report, pretend_prefix=args.pretend_path)

    if args.digest_audit:
        root = Path(args.audit_root) if args.audit_root else REPO_ROOT
        if not root.is_absolute():
            root = REPO_ROOT / root
        digest_audit(report, root)

    if args.layers:
        layers_path = Path(args.layers)
        if not layers_path.is_absolute():
            layers_path = REPO_ROOT / layers_path
        root = Path(args.layers_root) if args.layers_root else REPO_ROOT
        if not root.is_absolute():
            root = REPO_ROOT / root
        db_path = Path(args.compile_commands)
        if not db_path.is_absolute():
            db_path = REPO_ROOT / db_path
        if not db_path.is_file():
            print(f"anadex-lint: no such compile db: {db_path}",
                  file=sys.stderr)
            return 2
        layers = load_layers(layers_path)
        layering_pass(report, layers, load_compile_include_dirs(db_path), root)

    payload = {
        "schema": SCHEMA,
        "files_scanned": report.files_scanned,
        "violation_count": len(report.violations),
        "suppressed_count": len(report.suppressed),
        "fixed_count": report.fixed,
        "violations": report.violations,
        "suppressed": report.suppressed,
        "digest_audit": report.digest_audit,
        "layering": report.layering,
    }
    if args.output:
        Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for v in report.violations:
            print(f"{v['path']}:{v['line']}: [{v['rule']}] {v['message']}")
            print(f"    {v['snippet']}")
        tail = (f"{report.files_scanned} files, {len(report.violations)} violation(s), "
                f"{len(report.suppressed)} suppressed")
        if args.fix:
            tail += f", {report.fixed} fixed"
        if report.digest_audit is not None:
            tail += (f"; digest audit: {report.digest_audit['fields']} fields / "
                     f"{report.digest_audit['registered']} registered")
        if report.layering is not None:
            tail += (f"; layering: {report.layering['edges_checked']} edges "
                     f"across {len(report.layering['layers'])} layers")
        print(("FAIL: " if report.violations else "OK: ") + tail)
    return 1 if report.violations else 0


if __name__ == "__main__":
    sys.exit(main())

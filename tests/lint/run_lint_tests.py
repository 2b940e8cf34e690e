#!/usr/bin/env python3
"""Self-test for scripts/anadex_lint.py.

Runs the linter over the violation fixtures in tests/lint/fixtures/ and
asserts exact rule IDs, line numbers of first occurrence, suppression
accounting and exit codes from the --json report. Registered with ctest as
Lint.SelfTest.
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
LINTER = REPO_ROOT / "scripts" / "anadex_lint.py"
FIXTURES = REPO_ROOT / "tests" / "lint" / "fixtures"


def run_lint(*args):
    proc = subprocess.run(
        [sys.executable, str(LINTER), "--json", *args],
        capture_output=True, text=True, cwd=REPO_ROOT)
    report = json.loads(proc.stdout) if proc.stdout.strip() else {}
    return proc.returncode, report


def rules_of(report):
    return sorted(v["rule"] for v in report.get("violations", []))


def suppressed_rules_of(report):
    return sorted(v["rule"] for v in report.get("suppressed", []))


class LintFixtureTest(unittest.TestCase):
    def lint_fixture(self, name, pretend=None):
        args = [str(FIXTURES / name)]
        if pretend:
            args += ["--pretend-path", pretend]
        return run_lint(*args)

    def test_raw_random_fixture(self):
        code, report = self.lint_fixture("raw_random.cpp")
        self.assertEqual(code, 1)
        self.assertEqual(rules_of(report),
                         ["random-device", "raw-random", "raw-random"])
        self.assertEqual(suppressed_rules_of(report), ["random-device"])

    def test_wall_clock_fixture(self):
        code, report = self.lint_fixture("wall_clock.cpp")
        self.assertEqual(code, 1)
        self.assertEqual(rules_of(report), ["wall-clock", "wall-clock"])
        self.assertEqual(suppressed_rules_of(report), ["wall-clock"])

    def test_wall_clock_fixture_exempt_under_obs(self):
        # The same file is clean when it lives in the telemetry layer.
        code, report = self.lint_fixture("wall_clock.cpp", pretend="src/obs")
        self.assertEqual(code, 0)
        self.assertEqual(rules_of(report), [])

    def test_det_unordered_fixture(self):
        code, report = self.lint_fixture("det_unordered.cpp",
                                         pretend="src/engine")
        self.assertEqual(code, 1)
        self.assertEqual(rules_of(report),
                         ["det-unordered", "unordered-iter"])
        self.assertEqual(suppressed_rules_of(report), ["det-unordered"])

    def test_det_unordered_only_in_deterministic_dirs(self):
        # src/sysdes (behavioral simulation, not a result path of the
        # optimizer) stays outside DETERMINISTIC_DIRS; src/circuit joined
        # the list with the SIMD batch kernels, see the device tests below.
        code, report = self.lint_fixture("det_unordered.cpp",
                                         pretend="src/sysdes")
        self.assertEqual(code, 0)

    def test_batch_kernel_clock_fixture_in_device(self):
        # src/device and src/circuit joined DETERMINISTIC_DIRS with the SoA
        # batch evaluator: lane kernels are result paths, so wall-clock
        # reads and hash-ordered dispatch are violations there.
        code, report = self.lint_fixture("batch_kernel_clock.cpp",
                                         pretend="src/device")
        self.assertEqual(code, 1)
        self.assertEqual(rules_of(report),
                         ["det-unordered", "unordered-iter",
                          "wall-clock", "wall-clock"])

    def test_batch_kernel_clock_fixture_in_engine_simd(self):
        code, report = self.lint_fixture("batch_kernel_clock.cpp",
                                         pretend="src/engine/simd")
        self.assertEqual(code, 1)
        self.assertIn("wall-clock", rules_of(report))
        self.assertIn("det-unordered", rules_of(report))

    def test_batch_kernel_clean_fixture(self):
        # Vectorization idiom (omp simd pragmas, masked commits) must not
        # trip the deterministic rules.
        code, report = self.lint_fixture("batch_kernel_clean.cpp",
                                         pretend="src/device")
        self.assertEqual(code, 0)
        self.assertEqual(report["violation_count"], 0)

    def test_det_unordered_applies_to_serve(self):
        # src/serve joined DETERMINISTIC_DIRS with the scheduler work:
        # admission order, slicing and result files are reproducibility
        # surfaces (docs/serve.md).
        code, report = self.lint_fixture("det_unordered.cpp",
                                         pretend="src/serve")
        self.assertEqual(code, 1)
        self.assertEqual(rules_of(report),
                         ["det-unordered", "unordered-iter"])

    def test_wall_clock_applies_to_serve(self):
        # The scheduler must slice by generation count, never wall clock.
        code, report = self.lint_fixture("wall_clock.cpp",
                                         pretend="src/serve")
        self.assertEqual(code, 1)
        self.assertEqual(rules_of(report), ["wall-clock", "wall-clock"])

    def test_det_unordered_applies_to_shard(self):
        # src/shard joined DETERMINISTIC_DIRS with the sharded runner: the
        # migrant exchange, merge order and canonical checkpoint are all
        # byte-identity surfaces (docs/sharding.md).
        code, report = self.lint_fixture("det_unordered.cpp",
                                         pretend="src/shard")
        self.assertEqual(code, 1)
        self.assertEqual(rules_of(report),
                         ["det-unordered", "unordered-iter"])

    def test_wall_clock_applies_to_shard(self):
        # Epoch barriers poll by bounded attempt COUNT (steady sleeps are
        # fine); a wall-clock deadline would make shard failure detection
        # load-dependent and the drill flaky.
        code, report = self.lint_fixture("wall_clock.cpp",
                                         pretend="src/shard")
        self.assertEqual(code, 1)
        self.assertEqual(rules_of(report), ["wall-clock", "wall-clock"])

    def test_batch_kernel_clock_fixture_in_yield(self):
        # src/scint, src/yield and src/problems joined DETERMINISTIC_DIRS
        # when the yield Monte Carlo moved onto the lane kernels: every
        # evaluation's result passes through them.
        for prefix in ("src/scint", "src/yield", "src/problems"):
            with self.subTest(prefix=prefix):
                code, report = self.lint_fixture("batch_kernel_clock.cpp",
                                                 pretend=prefix)
                self.assertEqual(code, 1)
                self.assertEqual(rules_of(report),
                                 ["det-unordered", "unordered-iter",
                                  "wall-clock", "wall-clock"])

    def test_float_printf_fixture(self):
        code, report = self.lint_fixture("float_printf.cpp", pretend="src/expt")
        self.assertEqual(code, 1)
        self.assertEqual(rules_of(report), ["float-printf", "float-printf"])
        self.assertEqual(suppressed_rules_of(report), ["float-printf"])

    def test_float_printf_exempt_in_textio(self):
        code, report = self.lint_fixture("float_printf.cpp",
                                         pretend="src/common")
        # src/common/textio* is the exemption, src/common alone is not.
        self.assertEqual(code, 1)
        _, clean = run_lint(str(FIXTURES / "float_printf.cpp"),
                            "--pretend-path", "src/common/textio")
        # Pretend path puts the file at src/common/textio/<name>: exempt.
        self.assertEqual(rules_of(clean), [])

    def test_bad_header_fixture(self):
        code, report = self.lint_fixture("bad_header.hpp", pretend="src/moga")
        self.assertEqual(code, 1)
        self.assertEqual(rules_of(report),
                         ["include-hygiene", "include-hygiene",
                          "include-hygiene", "pragma-once"])
        pragma = [v for v in report["violations"] if v["rule"] == "pragma-once"]
        self.assertEqual(pragma[0]["line"], 4)  # first code line

    def test_raw_assert_fixture(self):
        code, report = self.lint_fixture("raw_assert.cpp")
        self.assertEqual(code, 1)
        self.assertEqual(rules_of(report), ["raw-assert", "raw-assert"])
        self.assertEqual(suppressed_rules_of(report), ["raw-assert"])
        lines = sorted(v["line"] for v in report["violations"])
        self.assertEqual(lines, [2, 5])  # include + call, not static_assert

    def test_process_control_fixture(self):
        code, report = self.lint_fixture("process_control.cpp",
                                         pretend="src/engine")
        self.assertEqual(code, 1)
        self.assertEqual(rules_of(report), ["process-control"] * 3)
        self.assertEqual(suppressed_rules_of(report), ["process-control"])
        lines = sorted(v["line"] for v in report["violations"])
        self.assertEqual(lines, [8, 9, 10])  # signal, abort, exit

    def test_process_control_exempt_in_shutdown_module(self):
        code, report = self.lint_fixture("process_control.cpp",
                                         pretend="src/robust/shutdown")
        self.assertEqual(code, 0)
        self.assertEqual(rules_of(report), [])

    def test_process_control_exempt_in_tests(self):
        # Tests raise signals at themselves and use `signal` as a DSP name.
        code, report = self.lint_fixture("process_control.cpp",
                                         pretend="tests/common")
        self.assertEqual(code, 0)

    def test_clean_fixture(self):
        code, report = self.lint_fixture("clean.cpp", pretend="src/engine")
        self.assertEqual(code, 0)
        self.assertEqual(report["violation_count"], 0)

    def test_report_schema(self):
        code, report = self.lint_fixture("raw_assert.cpp")
        self.assertEqual(report["schema"], "anadex-lint/2")
        for key in ("files_scanned", "violation_count", "suppressed_count",
                    "fixed_count", "violations", "suppressed",
                    "digest_audit", "layering"):
            self.assertIn(key, report)
        # Sections are null unless their pass ran.
        self.assertIsNone(report["digest_audit"])
        self.assertIsNone(report["layering"])
        v = report["violations"][0]
        for key in ("rule", "path", "line", "message", "snippet"):
            self.assertIn(key, v)

    def test_fixtures_are_skipped_by_directory_walk(self):
        # Linting tests/ must not descend into the fixture corpus.
        code, report = run_lint("tests")
        self.assertEqual(code, 0, report.get("violations"))

    def test_full_tree_is_clean(self):
        code, report = run_lint()
        self.assertEqual(code, 0, json.dumps(report.get("violations"),
                                             indent=2))

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, str(LINTER), "no/such/path"],
            capture_output=True, text=True, cwd=REPO_ROOT)
        self.assertEqual(proc.returncode, 2)

    # ----- env-read ------------------------------------------------------

    def test_env_read_fixture(self):
        code, report = self.lint_fixture("env_read.cpp", pretend="src/engine")
        self.assertEqual(code, 1)
        self.assertEqual(rules_of(report), ["env-read", "env-read"])
        self.assertEqual(suppressed_rules_of(report), ["env-read", "env-read"])
        lines = sorted(v["line"] for v in report["violations"])
        self.assertEqual(lines, [5, 6])  # getenv + secure_getenv

    def test_env_read_exempt_in_obs_and_apps(self):
        # Telemetry may annotate records with ambient state; the CLI
        # front-ends own their configuration surface.
        for prefix in ("src/obs", "apps"):
            code, report = self.lint_fixture("env_read.cpp", pretend=prefix)
            self.assertEqual(code, 0, (prefix, rules_of(report)))

    def test_env_read_applies_to_bench(self):
        # Benches produce gate numbers; a hidden env dependency would make
        # them irreproducible (quick-mode carries explicit suppressions).
        code, report = self.lint_fixture("env_read.cpp", pretend="bench")
        self.assertEqual(code, 1)
        self.assertIn("env-read", rules_of(report))

    # ----- suppression edge cases ---------------------------------------

    def test_multi_rule_and_spanning_suppressions(self):
        code, report = self.lint_fixture("suppress_edge_cases.cpp")
        self.assertEqual(code, 1)
        # Only the deliberately unsuppressed rand() remains.
        self.assertEqual(rules_of(report), ["raw-random"])
        self.assertEqual(report["violations"][0]["line"], 23)
        # comment-above multi-rule + spanning statement + same-line multi.
        self.assertEqual(suppressed_rules_of(report),
                         ["raw-random", "raw-random", "raw-random"])

    def test_crlf_line_endings(self):
        # A CRLF file (generated here: fixtures stay LF so git attributes
        # cannot normalize the test away) must lint identically — and the
        # suppression comment must still attach to the line below it.
        src = (FIXTURES / "suppress_edge_cases.cpp").read_text()
        with tempfile.TemporaryDirectory() as tmp:
            crlf = Path(tmp) / "crlf_case.cpp"
            crlf.write_bytes(src.replace("\n", "\r\n").encode())
            code, report = run_lint(str(crlf))
        self.assertEqual(code, 1)
        self.assertEqual(rules_of(report), ["raw-random"])
        self.assertEqual(len(report["suppressed"]), 3)

    def test_unknown_suppression_rule_names(self):
        code, report = self.lint_fixture("unknown_suppression.cpp")
        self.assertEqual(code, 1)
        self.assertEqual(rules_of(report),
                         ["unknown-suppression", "unknown-suppression"])
        messages = " ".join(v["message"] for v in report["violations"])
        self.assertIn("raw-randm", messages)
        self.assertIn("no-such-rule", messages)
        # allow(*) is vocabulary, not a typo: no third violation.
        self.assertNotIn("'*'", messages)

    # ----- --fix ---------------------------------------------------------

    def fix_copy(self, name):
        """Copies a fixture to a temp dir and returns (path, run) where
        run(*args) invokes the linter on the copy."""
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        copy = Path(tmp.name) / name
        copy.write_bytes((FIXTURES / name).read_bytes())
        return copy

    def test_fix_rewrites_header_mechanically(self):
        copy = self.fix_copy("fixable_header.hpp")
        code, report = run_lint(str(copy), "--fix",
                                "--pretend-path", "src/moga")
        self.assertEqual(report["fixed_count"], 3)  # pragma + 2 includes
        text = copy.read_text()
        lines = text.splitlines()
        # #pragma once lands before the first code line, after the banner.
        self.assertEqual(lines[3], "#pragma once")
        self.assertIn('#include "src/common/check.hpp"', text)
        self.assertIn('#include "src/moga/neighbor.hpp"', text)
        self.assertNotIn('"../', text)
        self.assertNotIn('"./', text)
        # The mechanical rules are clean after the fix; nothing else fired.
        self.assertEqual(rules_of(report), [])
        self.assertEqual(code, 0)

    def test_fix_is_idempotent(self):
        copy = self.fix_copy("fixable_header.hpp")
        run_lint(str(copy), "--fix", "--pretend-path", "src/moga")
        after_first = copy.read_bytes()
        code, report = run_lint(str(copy), "--fix",
                                "--pretend-path", "src/moga")
        self.assertEqual(report["fixed_count"], 0)
        self.assertEqual(copy.read_bytes(), after_first)
        self.assertEqual(code, 0)

    def test_fix_does_not_touch_non_headers(self):
        copy = self.fix_copy("raw_random.cpp")
        before = copy.read_bytes()
        code, report = run_lint(str(copy), "--fix",
                                "--pretend-path", "src/engine")
        self.assertEqual(report["fixed_count"], 0)
        self.assertEqual(copy.read_bytes(), before)

    # ----- --digest-audit ------------------------------------------------

    def test_digest_audit_real_tree_is_clean(self):
        code, report = run_lint("--digest-audit")
        self.assertEqual(code, 0, json.dumps(report.get("violations"),
                                             indent=2))
        audit = report["digest_audit"]
        self.assertEqual(audit["violation_count"], 0)
        # Every field classified, every registry row backed by a field.
        self.assertEqual(audit["registered"], audit["fields"])
        self.assertGreaterEqual(audit["registered"], 30)
        self.assertIn("seed", audit["meta"])
        self.assertIn("spec", audit["digest"])
        self.assertIn("threads", audit["knob"])
        self.assertIn("stop", audit["seam"])

    def test_digest_audit_catches_seeded_drift(self):
        code, report = run_lint(
            "--digest-audit",
            "--audit-root", "tests/lint/fixtures/digest_audit_bad")
        self.assertEqual(code, 1)
        self.assertEqual(rules_of(report), ["digest-coverage"] * 4)
        messages = " ".join(v["message"] for v in report["violations"])
        # The four seeded drifts, each caught by name:
        self.assertIn("novel_field", messages)      # unregistered field
        self.assertIn("ghost_flag", messages)       # field-less registry row
        self.assertIn("no longer expands", messages)  # hand-rolled digest
        self.assertIn("--ghost", messages)          # unwired CLI flag

    # ----- --layers ------------------------------------------------------

    LAYER_TREE = FIXTURES / "layering_tree"

    def layering_args(self, toml_name="layers.toml"):
        """Generates a compile db for the fixture tree (absolute paths, so
        it cannot be committed) and returns the --layers arg vector."""
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        root = self.LAYER_TREE.resolve()
        db = Path(tmp.name) / "compile_commands.json"
        db.write_text(json.dumps([{
            "directory": str(root),
            "command": f"c++ -I{root}/src -c src/mid/mid.hpp",
            "file": str(root / "src/mid/mid.hpp"),
        }]))
        return ["--layers", str(self.LAYER_TREE / toml_name),
                "--layers-root", str(self.LAYER_TREE),
                "--compile-commands", str(db)]

    def test_layering_real_tree_is_clean(self):
        db = REPO_ROOT / "build" / "compile_commands.json"
        if not db.is_file():
            self.skipTest("no build/compile_commands.json (configure first)")
        code, report = run_lint("--layers", "scripts/layers.toml",
                                "--compile-commands", str(db))
        self.assertEqual(code, 0, json.dumps(report.get("violations"),
                                             indent=2))
        layering = report["layering"]
        self.assertEqual(layering["violation_count"], 0)
        self.assertGreater(layering["edges_checked"], 400)
        self.assertIn("moga-model", layering["layers"])

    def test_layering_catches_upward_edge_and_orphan(self):
        code, report = run_lint(*self.layering_args())
        self.assertEqual(code, 1)
        self.assertEqual(rules_of(report), ["layering", "layering"])
        messages = " ".join(v["message"] for v in report["violations"])
        self.assertIn("mid -> top", messages)    # the seeded upward edge
        self.assertIn("orphan", messages)        # claimed by no layer
        # The legal edges were checked and accepted.
        self.assertEqual(report["layering"]["edges_checked"], 4)

    def test_layering_rejects_cyclic_declaration(self):
        code, report = run_lint(*self.layering_args("layers_cyclic.toml"))
        self.assertEqual(code, 1)
        messages = " ".join(v["message"] for v in report["violations"])
        self.assertIn("cyclic", messages)

    def test_layers_requires_compile_commands(self):
        proc = subprocess.run(
            [sys.executable, str(LINTER), "--layers", "scripts/layers.toml"],
            capture_output=True, text=True, cwd=REPO_ROOT)
        self.assertEqual(proc.returncode, 2)

    # ----- --validate-report --------------------------------------------

    def test_validate_report_round_trip(self):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "report.json"
            subprocess.run(
                [sys.executable, str(LINTER), "--json", "--output", str(out),
                 str(FIXTURES / "clean.cpp"), "--digest-audit"],
                capture_output=True, text=True, cwd=REPO_ROOT)
            proc = subprocess.run(
                [sys.executable, str(LINTER), "--validate-report", str(out)],
                capture_output=True, text=True, cwd=REPO_ROOT)
            self.assertEqual(proc.returncode, 0, proc.stderr)

            # A mangled report must fail validation.
            payload = json.loads(out.read_text())
            payload["schema"] = "anadex-lint/1"
            del payload["fixed_count"]
            out.write_text(json.dumps(payload))
            proc = subprocess.run(
                [sys.executable, str(LINTER), "--validate-report", str(out)],
                capture_output=True, text=True, cwd=REPO_ROOT)
            self.assertEqual(proc.returncode, 1)
            self.assertIn("fixed_count", proc.stderr)


if __name__ == "__main__":
    unittest.main(verbosity=2)

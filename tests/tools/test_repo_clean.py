"""Meta-test: the shipped source tree passes its own static analysis.

This is the tier-1 enforcement of the checker suite — the CI job runs the
same CLI, but this test is what makes `pytest` alone catch a violation
introduced by any future PR.
"""

from __future__ import annotations

import json
import subprocess
import sys

from repro.tools.check import all_checkers, default_root, main, run_checks


class TestRepoIsClean:
    def test_full_suite_has_no_unsuppressed_findings(self):
        report = run_checks()
        assert report.findings == [], report.to_text()

    def test_all_rule_families_were_enabled(self):
        report = run_checks()
        families = {rule[: len("REPROx")] for rule in report.rules}
        assert families == {"REPRO1", "REPRO3", "REPRO4"}

    def test_cli_exits_zero_on_the_real_tree(self, capsys):
        assert main([]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_module_invocation_works(self):
        # The CI job's exact entry point: `python -m repro.tools.check`.
        import os

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(default_root().parent), env.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep)
        result = subprocess.run(
            [sys.executable, "-m", "repro.tools.check", "--format", "json"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        payload = json.loads(result.stdout)
        assert payload["n_findings"] == 0

    def test_every_suppression_in_tree_carries_a_reason(self):
        # Pragmas must say *why*: `# repro: noqa[RULE] -- reason`.  An
        # unreasoned pragma is exactly the reviewer-vigilance hole this
        # subsystem exists to close.
        import re

        root = default_root()
        pragma = re.compile(r"#\s*repro:\s*noqa(?:-file)?\[[A-Z0-9,\s]+\]")
        unreasoned = []
        for path in sorted(root.rglob("*.py")):
            for lineno, line in enumerate(path.read_text().splitlines(), start=1):
                match = pragma.search(line)
                if match and "--" not in line[match.end() :]:
                    unreasoned.append(f"{path.relative_to(root)}:{lineno}")
        assert unreasoned == []

    def test_rule_ids_are_unique_across_families(self):
        seen: dict[str, str] = {}
        for checker in all_checkers():
            for rule in checker.rules:
                assert rule not in seen, (
                    f"{rule} declared by both {seen[rule]} and {checker.name}"
                )
                seen[rule] = checker.name
        assert len(seen) == 9

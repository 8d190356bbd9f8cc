"""The checker framework itself: pragmas, selection, output, exit codes.

The rule families get their own test modules; this one pins the shared
machinery — suppression-pragma semantics, ``--rules`` selection, the
``--format json`` report schema (stable: CI parses it) and the CLI's
exit-code contract.
"""

from __future__ import annotations

import ast
import json

import pytest

from repro.tools.check import (
    REPORT_FORMAT_VERSION,
    Checker,
    Finding,
    main,
    run_checks,
    select_rules,
    suppressions_for,
)

def findings_of(report):
    """``(rule, path, line)`` triples of a report, for compact assertions."""
    return [(f.rule, f.path, f.line) for f in report.findings]


class _StubChecker(Checker):
    """Fires REPROX01 on every line containing ``BAD`` in scoped files."""

    name = "stub"
    rules = {"REPROX01": "test rule", "REPROX02": "other test rule"}
    scope = ("stub/*.py",)

    def check_file(self, relpath, tree, source):
        for lineno, text in enumerate(source.splitlines(), start=1):
            if "BAD" in text:
                yield Finding("REPROX01", relpath, lineno, "bad line")


class TestFinding:
    def test_location_is_clickable_path_line(self):
        finding = Finding("REPRO101", "runner/spec.py", 42, "message")
        assert finding.location == "runner/spec.py:42"

    def test_json_row_shape(self):
        finding = Finding("REPRO101", "runner/spec.py", 42, "message")
        assert finding.to_json() == {
            "rule": "REPRO101",
            "path": "runner/spec.py",
            "line": 42,
            "message": "message",
        }


class TestSuppressionPragmas:
    def test_inline_pragma_silences_its_line_only(self, make_tree):
        root = make_tree(
            {
                "stub/mod.py": """\
                x = "BAD"  # repro: noqa[REPROX01] -- fixture-sanctioned
                y = "BAD"
                """
            }
        )
        report = run_checks(root=root, checkers=[_StubChecker()])
        assert findings_of(report) == [("REPROX01", "stub/mod.py", 2)]
        assert [(f.rule, f.line) for f in report.suppressed] == [("REPROX01", 1)]

    def test_inline_pragma_for_other_rule_does_not_silence(self, make_tree):
        root = make_tree(
            {"stub/mod.py": 'x = "BAD"  # repro: noqa[REPROX02] -- wrong id\n'}
        )
        report = run_checks(root=root, checkers=[_StubChecker()])
        assert findings_of(report) == [("REPROX01", "stub/mod.py", 1)]

    def test_file_pragma_silences_whole_file(self, make_tree):
        root = make_tree(
            {
                "stub/mod.py": """\
                # repro: noqa-file[REPROX01] -- whole module exempt
                x = "BAD"
                y = "BAD"
                """
            }
        )
        report = run_checks(root=root, checkers=[_StubChecker()])
        assert report.clean
        assert len(report.suppressed) == 2

    def test_pragma_requires_rule_id_no_blanket_form(self):
        file_rules, by_line = suppressions_for(
            "x = 1  # repro: noqa[]\ny = 2  # repro: noqa\n"
        )
        assert file_rules == set()
        assert by_line == {}

    def test_pragma_accepts_comma_separated_ids(self):
        _file_rules, by_line = suppressions_for(
            "x = 1  # repro: noqa[REPROX01, REPROX02] -- both\n"
        )
        assert by_line == {1: {"REPROX01", "REPROX02"}}


class TestRuleSelection:
    def test_family_name_selects_all_family_rules(self):
        selected = select_rules([_StubChecker()], ["stub"])
        assert set(selected) == {"REPROX01", "REPROX02"}

    def test_exact_id_and_prefix(self):
        assert set(select_rules([_StubChecker()], ["REPROX01"])) == {"REPROX01"}
        assert set(select_rules([_StubChecker()], ["REPROX"])) == {
            "REPROX01",
            "REPROX02",
        }

    def test_unknown_selector_raises(self):
        with pytest.raises(ValueError, match="unknown rule selector"):
            select_rules([_StubChecker()], ["REPRO999"])

    def test_unselected_rules_filtered_from_report(self, make_tree):
        root = make_tree({"stub/mod.py": 'x = "BAD"\n'})
        report = run_checks(root=root, rules=["REPROX02"], checkers=[_StubChecker()])
        assert report.clean  # REPROX01 fired but was not selected


class TestReportOutput:
    def test_json_schema_is_stable(self, make_tree):
        root = make_tree({"stub/mod.py": 'x = "BAD"\n'})
        report = run_checks(root=root, checkers=[_StubChecker()])
        payload = report.to_json()
        # The JSON surface is a contract with the CI job: exactly these
        # keys, exactly these finding-row keys.
        assert sorted(payload) == [
            "findings",
            "n_findings",
            "n_suppressed",
            "root",
            "rules",
            "version",
        ]
        assert payload["version"] == REPORT_FORMAT_VERSION
        assert payload["n_findings"] == 1
        assert sorted(payload["findings"][0]) == ["line", "message", "path", "rule"]
        json.dumps(payload)  # round-trippable

    def test_text_report_rows_and_summary(self, make_tree):
        root = make_tree({"stub/mod.py": 'x = "BAD"\n'})
        report = run_checks(root=root, checkers=[_StubChecker()])
        text = report.to_text()
        assert "stub/mod.py:1: REPROX01 bad line" in text
        assert "1 finding(s), 0 suppressed" in text

    def test_findings_sorted_by_path_line_rule(self, make_tree):
        root = make_tree(
            {
                "stub/b.py": 'x = "BAD"\ny = "BAD"\n',
                "stub/a.py": 'x = "BAD"\n',
            }
        )
        report = run_checks(root=root, checkers=[_StubChecker()])
        assert [f.location for f in report.findings] == [
            "stub/a.py:1",
            "stub/b.py:1",
            "stub/b.py:2",
        ]


class TestCli:
    def test_exit_zero_on_clean_tree(self, make_tree, capsys):
        root = make_tree({"runner/spec.py": "CACHE_FORMAT_VERSION = 4\n"})
        code = main(["--root", str(root), "--rules", "determinism"])
        assert code == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_exit_one_on_findings(self, make_tree, capsys):
        root = make_tree({"runner/spec.py": "import time\nnow = time.time()\n"})
        code = main(["--root", str(root), "--rules", "determinism"])
        assert code == 1
        assert "REPRO101" in capsys.readouterr().out

    def test_exit_two_on_unknown_selector(self, make_tree, capsys):
        root = make_tree({"runner/spec.py": "x = 1\n"})
        code = main(["--root", str(root), "--rules", "NOPE999"])
        assert code == 2
        assert "unknown rule selector" in capsys.readouterr().err

    def test_json_format_emits_parseable_report(self, make_tree, capsys):
        root = make_tree({"runner/spec.py": "import time\nnow = time.time()\n"})
        code = main(
            ["--root", str(root), "--rules", "determinism", "--format", "json"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == REPORT_FORMAT_VERSION
        assert payload["findings"][0]["rule"] == "REPRO101"

    def test_list_rules_covers_every_family(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for family in ("determinism", "schema", "locks"):
            assert f"[{family}]" in out
        for rule in ("REPRO101", "REPRO301", "REPRO401"):
            assert rule in out
        assert "REPRO2" not in out
        assert "REPRO5" not in out


class TestCheckerBase:
    def test_scope_files_sorted_and_deduplicated(self, make_tree):
        root = make_tree({"stub/b.py": "", "stub/a.py": ""})

        class TwoPatterns(_StubChecker):
            scope = ("stub/*.py", "stub/a.py")

        files = TwoPatterns().files(root)
        assert [p.name for p in files] == ["a.py", "b.py"]

    def test_default_check_file_yields_nothing(self, make_tree):
        root = make_tree({"stub/mod.py": 'x = "BAD"\n'})

        class Passive(Checker):
            name = "passive"
            rules = {"REPROX09": "never fires"}
            scope = ("stub/*.py",)

        assert run_checks(root=root, checkers=[Passive()]).clean

    def test_check_file_receives_parsed_tree(self, make_tree):
        seen = {}

        class Probe(Checker):
            name = "probe"
            rules = {"REPROX08": "probe"}
            scope = ("stub/*.py",)

            def check_file(self, relpath, tree, source):
                seen[relpath] = type(tree)
                return iter(())

        root = make_tree({"stub/mod.py": "x = 1\n"})
        run_checks(root=root, checkers=[Probe()])
        assert seen == {"stub/mod.py": ast.Module}

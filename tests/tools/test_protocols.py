"""Protocol-conformance checker (REPRO501/REPRO502): fixtures and real seams."""

from __future__ import annotations

from repro.tools.check import default_root, run_checks
from repro.tools.protocols import ProtocolConformanceChecker


BASE = """\
import abc

class Broker(abc.ABC):
    @abc.abstractmethod
    def enqueue(self, spec, force: bool = False):
        ...

    @abc.abstractmethod
    def lease_batch(self, worker_id, limit, *, shards=None):
        ...

    @property
    @abc.abstractmethod
    def location(self):
        ...
"""

SURFACES = (("brokers/base.py", "Broker", ("brokers/*.py",)),)


def check(root):
    checker = ProtocolConformanceChecker(surfaces=SURFACES)
    report = run_checks(root=root, checkers=[checker])
    return [(f.rule, f.path, f.line) for f in report.findings]


class TestMissingMembers:
    def test_missing_abstract_method_fires_at_class_line(self, make_tree):
        root = make_tree(
            {
                "brokers/base.py": BASE,
                "brokers/impl.py": """\
                from brokers.base import Broker

                class PartialBroker(Broker):
                    def enqueue(self, spec, force: bool = False):
                        return True

                    @property
                    def location(self):
                        return "x"
                """,
            }
        )
        assert check(root) == [("REPRO501", "brokers/impl.py", 3)]

    def test_full_implementation_is_clean(self, make_tree):
        root = make_tree(
            {
                "brokers/base.py": BASE,
                "brokers/impl.py": """\
                from brokers.base import Broker

                class FullBroker(Broker):
                    def enqueue(self, spec, force: bool = False):
                        return True

                    def lease_batch(self, worker_id, limit, *, shards=None):
                        return []

                    @property
                    def location(self):
                        return "x"
                """,
            }
        )
        assert check(root) == []

    def test_intermediate_abstract_class_is_skipped(self, make_tree):
        root = make_tree(
            {
                "brokers/base.py": BASE,
                "brokers/impl.py": """\
                import abc
                from brokers.base import Broker

                class StillAbstract(Broker):
                    @abc.abstractmethod
                    def flavor(self):
                        ...
                """,
            }
        )
        assert check(root) == []


class TestSignatureDrift:
    def test_renamed_positional_parameter_fires(self, make_tree):
        root = make_tree(
            {
                "brokers/base.py": BASE,
                "brokers/impl.py": """\
                from brokers.base import Broker

                class DriftBroker(Broker):
                    def enqueue(self, task, force: bool = False):
                        return True

                    def lease_batch(self, worker_id, limit, *, shards=None):
                        return []

                    @property
                    def location(self):
                        return "x"
                """,
            }
        )
        assert check(root) == [("REPRO502", "brokers/impl.py", 4)]

    def test_lost_default_fires(self, make_tree):
        root = make_tree(
            {
                "brokers/base.py": BASE,
                "brokers/impl.py": """\
                from brokers.base import Broker

                class DriftBroker(Broker):
                    def enqueue(self, spec, force):
                        return True

                    def lease_batch(self, worker_id, limit, *, shards=None):
                        return []

                    @property
                    def location(self):
                        return "x"
                """,
            }
        )
        assert check(root) == [("REPRO502", "brokers/impl.py", 4)]

    def test_added_required_parameter_fires(self, make_tree):
        root = make_tree(
            {
                "brokers/base.py": BASE,
                "brokers/impl.py": """\
                from brokers.base import Broker

                class DriftBroker(Broker):
                    def enqueue(self, spec, force: bool = False, priority=None):
                        return True

                    def lease_batch(self, worker_id, limit, *, shards=None, timeout):
                        return []

                    @property
                    def location(self):
                        return "x"
                """,
            }
        )
        assert check(root) == [("REPRO502", "brokers/impl.py", 7)]

    def test_extra_defaulted_parameters_are_legal(self, make_tree):
        root = make_tree(
            {
                "brokers/base.py": BASE,
                "brokers/impl.py": """\
                from brokers.base import Broker

                class ExtendedBroker(Broker):
                    def enqueue(self, spec, force: bool = False, priority=0):
                        return True

                    def lease_batch(self, worker_id, limit, *, shards=None, jitter=0.0):
                        return []

                    @property
                    def location(self):
                        return "x"
                """,
            }
        )
        assert check(root) == []

    def test_missing_keyword_only_parameter_fires(self, make_tree):
        root = make_tree(
            {
                "brokers/base.py": BASE,
                "brokers/impl.py": """\
                from brokers.base import Broker

                class DriftBroker(Broker):
                    def enqueue(self, spec, force: bool = False):
                        return True

                    def lease_batch(self, worker_id, limit):
                        return []

                    @property
                    def location(self):
                        return "x"
                """,
            }
        )
        assert check(root) == [("REPRO502", "brokers/impl.py", 7)]


class TestRealSeams:
    def test_all_registered_backends_conform(self):
        # The spool broker and the pickle/indexed stores all hold their
        # protocol surfaces with no suppressions.
        report = run_checks(
            root=default_root(), checkers=[ProtocolConformanceChecker()]
        )
        assert report.findings == []
        assert report.suppressed == []

    def test_real_seams_actually_resolve_implementations(self):
        # Guard against the checker silently checking nothing (e.g. a
        # moved base file): force a missing method into a scratch copy of
        # the real brokers and require REPRO501 to fire.
        import shutil
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as scratch:
            root = Path(scratch) / "repro"
            src = default_root()
            for rel in ("runner/brokers", "runner/results"):
                shutil.copytree(src / rel, root / rel)
            spool_path = root / "runner/brokers/spool.py"
            text = spool_path.read_text()
            assert "def counts(" in text
            spool_path.write_text(text.replace("def counts(", "def counts_gone("))
            checker = ProtocolConformanceChecker()
            report = run_checks(root=root, checkers=[checker])
            assert any(
                f.rule == "REPRO501" and "counts" in f.message
                for f in report.findings
            )

"""Static-analysis tooling: machine-checked invariants of the reproduction.

The repo's headline guarantee — distributed/served runs are *byte-identical*
to direct engine runs — rests on contracts that no example-based test can
cover exhaustively: content-key hashing must be deterministic, any pickled
payload change must bump ``CACHE_FORMAT_VERSION``, and threaded subsystems
must keep shared state under their locks.

:mod:`repro.tools.check` is the AST-based checker suite that enforces those
contracts statically (``python -m repro.tools.check``); the individual rule
families live in :mod:`~repro.tools.determinism`,
:mod:`~repro.tools.schema_version` and :mod:`~repro.tools.locks`.  The
rule catalogue is documented in ``docs/static_analysis.md``.
"""

__all__ = ["Checker", "CheckReport", "Finding", "run_checks"]


def __getattr__(name: str):
    """Lazily re-export the framework surface from :mod:`repro.tools.check`.

    Importing eagerly would make ``python -m repro.tools.check`` warn about
    ``repro.tools.check`` already sitting in ``sys.modules`` before runpy
    executes it.
    """
    if name in __all__:
        from repro.tools import check

        return getattr(check, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""The always-on labeling service: HTTP serving over the worker fleet.

The batch engine answers "run this grid"; this package answers "label this
dataset with these LFs, now" — as a long-running service:

* :mod:`~repro.serving.schemas` — the JSON wire contract: label requests
  content-keyed into ordinary :class:`~repro.runner.spec.TrialSpec`\\ s and
  trial histories rendered into canonical response payloads;
* :mod:`~repro.serving.admission` — request admission: the in-flight cap
  behind 429 + ``Retry-After`` responses;
* :mod:`~repro.serving.sessions` — interactive sessions holding a live
  :class:`~repro.core.state.TrainingState` so users stream LFs one at a
  time, with LRU eviction of idle sessions to disk (``snapshot()`` /
  ``restore()`` give suspend-resume);
* :mod:`~repro.serving.service` — the HTTP-independent core: warm requests
  short-circuit through the
  :class:`~repro.runner.results.IndexedResultStore`, cold requests are
  enqueued through the :class:`~repro.runner.brokers.SpoolBroker` to the
  worker fleet, and a watcher thread completes jobs as results land;
* :mod:`~repro.serving.server` — the stdlib HTTP layer
  (``python -m repro.serving.server --spool DIR --cache-dir DIR``) with
  ``/healthz`` + ``/stats`` and graceful drain on SIGINT.

See ``docs/serving.md`` for the endpoint table and the session lifecycle.
"""

from repro.serving.admission import AdmissionController
from repro.serving.schemas import (
    RequestError,
    canonical_json,
    label_payload,
    parse_label_request,
)
from repro.serving.service import LabelingService
from repro.serving.sessions import (
    LabelingSession,
    SessionBusyError,
    SessionManager,
    UnknownSessionError,
)

__all__ = [
    "AdmissionController",
    "LabelingService",
    "LabelingSession",
    "RequestError",
    "SessionBusyError",
    "SessionManager",
    "UnknownSessionError",
    "canonical_json",
    "label_payload",
    "parse_label_request",
]

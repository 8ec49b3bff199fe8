"""Exception hierarchy for the BlossomTree reproduction.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch a single type at the API boundary.  More specific
subclasses identify the failing layer (XML parsing, query parsing,
compilation, execution), which keeps error handling explicit without
forcing callers to know internal module structure.

Parse- and compile-time errors carry the offending query text and
position when the raising layer knows them, so API users can render a
caret without re-threading context through every call site.

The hierarchy is also the **wire contract** of the network serving
layer (:mod:`repro.serve.server` / :mod:`repro.serve.client`): every
class maps 1:1 onto a stable string code in :data:`WIRE_CODES`.  The
server turns a raised error into an ``error`` frame via
:func:`wire_code`; the client reconstructs the same class via
:func:`error_for_code`, so ``except repro.QueryTimeoutError`` works
identically against an in-process service and a remote one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.obs.trace import QueryTrace


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class XMLSyntaxError(ReproError):
    """Raised when the XML tokenizer or parser rejects its input.

    Carries the 1-based line and column of the offending position so that
    callers can point users at the exact spot in the document.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class QuerySyntaxError(ReproError):
    """Raised when an XPath or FLWOR expression fails to parse."""

    def __init__(self, message: str, position: int = -1, query: str = ""):
        self.position = position
        self.query = query
        if position >= 0 and query:
            caret = " " * position + "^"
            message = f"{message}\n  {query}\n  {caret}"
        super().__init__(message)


class StaticError(ReproError):
    """Raised for static (compile-time) semantic errors.

    Examples: reference to an unbound variable, an ``order by`` clause with
    no enclosing binding, or a crossing edge between vertices that belong to
    no pattern tree.
    """

    def __init__(self, message: str, query: str = ""):
        self.query = query
        if query:
            message = f"{message}\n  in query: {query}"
        super().__init__(message)


class BindingError(StaticError):
    """Raised when a query's external ``$parameters`` and the bindings
    supplied at execution time do not line up (missing parameter, or a
    binding value outside the XPath value model)."""


class CompileError(ReproError):
    """Raised when a BlossomTree cannot be translated to a physical plan.

    ``query`` and ``position`` are filled in when the compiling layer
    knows them (the pattern builder itself sees only ASTs).
    """

    def __init__(self, message: str, query: str = "", position: int = -1):
        self.query = query
        self.position = position
        if query:
            message = f"{message}\n  in query: {query}"
        super().__init__(message)


class PlanInvariantError(ReproError):
    """Raised when the plan invariant analyzer rejects a compiled artifact.

    Carries the offending :class:`~repro.analysis.report.AnalysisReport`
    (as ``report``) so callers can inspect individual findings — rule
    IDs, locations, remediation hints — instead of parsing the message.
    A plan that trips this is *malformed*: executing it could silently
    violate the paper's ordering/duplicate guarantees, so the engine
    refuses to cache or run it.
    """

    def __init__(self, report: object = None, message: str = ""):
        self.report = report
        if not message:
            if report is not None and hasattr(report, "format"):
                message = "compiled plan failed invariant verification:\n" \
                    + report.format()
            else:
                message = "compiled plan failed invariant verification"
        super().__init__(message)

    @property
    def rule_ids(self) -> list[str]:
        """Distinct rule IDs that fired, when a report is attached."""
        if self.report is not None and hasattr(self.report, "rule_ids"):
            return self.report.rule_ids()
        return []


class UsageError(ReproError, ValueError):
    """Raised for invalid arguments to the public API (unknown strategy
    or join-algorithm names, bad cache capacity, ...).

    Also a :class:`ValueError`, because these are argument errors first
    and foremost — ``except ReproError`` and ``except ValueError`` both
    work at the boundary.
    """


class UpdateError(ReproError):
    """Raised for structurally invalid document-update requests."""


class ExecutionError(ReproError):
    """Raised when a physical operator fails at run time."""

    #: Text of the plan that was executing, and the run's trace when it
    #: was traced, stamped by the engine on budget trips and deadline
    #: expiries (no result carries them then).
    plan: str | None = None
    trace: QueryTrace | None = None


class QueryTimeoutError(ExecutionError):
    """Raised when a query exceeds its ``timeout_ms`` deadline.

    Deadlines are enforced cooperatively: the physical operators check a
    :class:`~repro.xmlkit.storage.CancellationToken` at their scan-loop
    checkpoints, so a timed-out query stops within one checkpoint stride
    of the deadline rather than at an arbitrary preemption point.
    """

    def __init__(self, message: str = "query deadline exceeded",
                 timeout_ms: float | None = None):
        self.timeout_ms = timeout_ms
        if timeout_ms is not None:
            message = f"{message} (timeout_ms={timeout_ms:g})"
        super().__init__(message)


class QueryCancelledError(ExecutionError):
    """Raised when a query is cancelled via its cancellation token.

    Distinct from :class:`QueryTimeoutError` so callers can tell an
    explicit ``cancel()`` (service shutdown, client disconnect) apart
    from a deadline expiry.
    """

    def __init__(self, message: str = "query cancelled"):
        super().__init__(message)


class ServiceOverloadedError(ReproError):
    """Raised by :class:`~repro.serve.QueryService` admission control
    when the bounded request queue is full.

    Carries the queue depth observed at rejection time so callers can
    implement informed backoff.
    """

    def __init__(self, message: str = "service queue is full",
                 queue_depth: int | None = None):
        self.queue_depth = queue_depth
        if queue_depth is not None:
            message = f"{message} (queue_depth={queue_depth})"
        super().__init__(message)


class DNFError(ExecutionError):
    """Raised when an operator exceeds its work budget (the paper's "DNF").

    The experimental harness converts this into a ``DNF`` table entry, the
    same way the paper reports runs that did not finish within 15 minutes.
    """

    def __init__(self, message: str = "work budget exhausted", budget: int | None = None):
        self.budget = budget
        if budget is not None:
            message = f"{message} (budget={budget})"
        super().__init__(message)


class ProtocolError(ReproError):
    """Raised for violations of the network wire protocol.

    Covers both directions: a server rejecting a malformed, oversized
    or wrong-version frame, and a client receiving bytes it cannot
    decode.  Wire-level, not query-level — a well-formed frame whose
    *query* fails raises the query's own error class instead.
    """


#: Stable wire codes for the error hierarchy, most specific first.
#: The order matters: :func:`wire_code` walks this list and returns the
#: first entry the exception is an instance of, so subclasses must
#: precede their bases.  Codes are part of the v1 wire protocol —
#: never renumber or reuse them.
WIRE_CODES: tuple[tuple[str, type[ReproError]], ...] = (
    ("TIMEOUT", QueryTimeoutError),
    ("CANCELLED", QueryCancelledError),
    ("DNF", DNFError),
    ("EXECUTION", ExecutionError),
    ("BINDING", BindingError),
    ("STATIC", StaticError),
    ("XML_SYNTAX", XMLSyntaxError),
    ("QUERY_SYNTAX", QuerySyntaxError),
    ("COMPILE", CompileError),
    ("PLAN_INVARIANT", PlanInvariantError),
    ("OVERLOADED", ServiceOverloadedError),
    ("UPDATE", UpdateError),
    ("PROTOCOL", ProtocolError),
    ("USAGE", UsageError),
    ("INTERNAL", ReproError),
)

_CODE_TO_CLASS: dict[str, type[ReproError]] = {
    code: cls for code, cls in WIRE_CODES}


def wire_code(error: BaseException) -> str:
    """The stable wire code for an exception (``INTERNAL`` fallback).

    Any exception is accepted: non-``ReproError`` failures inside the
    server serialize as ``INTERNAL`` so a crash in one request never
    leaks a raw traceback type onto the wire.
    """
    for code, cls in WIRE_CODES:
        if isinstance(error, cls):
            return code
    return "INTERNAL"


def error_for_code(code: str, message: str) -> ReproError:
    """Reconstruct the error class a wire code stands for.

    Unknown codes (a newer server speaking to an older client) degrade
    to the root :class:`ReproError` rather than failing the decode.
    """
    cls = _CODE_TO_CLASS.get(code, ReproError)
    if cls is PlanInvariantError:
        return PlanInvariantError(message=message)
    return cls(message)

"""Exception hierarchy shared across the package.

Every error raised on purpose derives from JssptError so the CLI and the rule
server can map failure categories to exit codes without string matching.
"""

import sys
from contextlib import contextmanager


class JssptError(Exception):
    """Base class for all deliberate failures."""


class ConfigurationError(JssptError):
    """Invalid generation config, experiment plan, or CLI parameters."""


class DocumentError(JssptError):
    """Schema or invariant violation in a serialized document.

    The message names the offending field.
    """


class ActionError(JssptError):
    """A masked or out-of-range joint action was applied."""


class StateError(JssptError):
    """An operation was requested in the wrong episode phase (e.g. makespan of
    a non-terminal state)."""


class MetricError(JssptError):
    """Domain error in a metric or statistics routine (bad denominator,
    mean durations outside the time bounds, zero variance, singular design, ...)."""


class ProtocolError(JssptError):
    """The policy wire protocol was violated (malformed reply, stale step,
    out-of-mask decision)."""


class TransportError(JssptError):
    """The external policy channel failed (timeout, closed pipe, dead
    process)."""


class OracleLimitError(JssptError):
    """The exhaustive oracle refused an instance above its search limits."""


@contextmanager
def naming_file(path):
    """Append the file a document or plan error was raised for to its
    message: `id: missing required field (in runs/a.json)`."""
    try:
        yield
    except (DocumentError, ConfigurationError) as exc:
        raise type(exc)(f"{exc} (in {path})") from exc


# (error type, exit code, category), first match wins.
_ERROR_CATEGORIES = (
    (ConfigurationError, 2, "configuration"),
    (DocumentError, 3, "document"),
    (OracleLimitError, 7, "refused"),
    (ProtocolError, 5, "protocol"),
    (TransportError, 6, "transport"),
    (ActionError, 4, "compute"),
    (StateError, 4, "compute"),
    (MetricError, 4, "compute"),
    (OSError, 3, "io"),
)


def report_error(exc: JssptError | OSError) -> int:
    """Print the error with its category prefix on stderr; returns its exit
    code (1 for an uncategorized JssptError)."""
    for err_type, code, category in _ERROR_CATEGORIES:
        if isinstance(exc, err_type):
            print(f"jsspt: {category} error: {exc}", file=sys.stderr)
            return code
    print(f"jsspt: error: {exc}", file=sys.stderr)
    return 1

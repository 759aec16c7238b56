"""The refusals: inputs the toolkit declines, each with its exit code.

Exit codes of the ``ntbounds`` command: 0 success; 2 unparseable input
(files, expressions, flags; argparse's usage errors exit 2 too); 3 a domain
or precondition violation; 4 an indeterminate comparison, or an enclosure
that does not certify at the requested precision; 5 a resource-guard
refusal.  ``cli.main`` prints a refusal as ``ntbounds: {label}: {message}``
and returns its ``exit_code``; any other exception is a program fault and
propagates.  This module imports nothing, so a module that only raises
refusals loads no arithmetic with them.
"""

__all__ = ["NtboundsError", "InputParseError", "DomainError", "IndeterminateError",
           "ResourceGuardError"]


class NtboundsError(Exception):
    """A declined input, not a program fault; each subclass sets its
    ``exit_code`` and ``label``."""


class InputParseError(NtboundsError, ValueError):
    exit_code, label = 2, "parse error"


class DomainError(NtboundsError, ValueError):
    """Arguments outside an operation's domain (e.g. log of q <= 0)."""
    exit_code, label = 3, "domain error"


class IndeterminateError(NtboundsError, RuntimeError):
    """A certified decision or enclosure out of reach at the requested
    precision (raising the precision may settle it)."""
    exit_code, label = 4, "indeterminate"


class ResourceGuardError(NtboundsError, RuntimeError):
    """Predicted work exceeds the configured ceiling."""
    exit_code, label = 5, "resource guard"

"""Exception hierarchy for the pipeline.

Errors are grouped by the module that raises them; everything derives from
ManalyzerError so callers can catch pipeline failures in one place.

The hierarchy is the exit-code policy: the CLI exits 2 for any ValueError,
ValidationError (bad input) included, and 3 for any other ManalyzerError.
"""

from __future__ import annotations


class ManalyzerError(Exception):
    """Base class for all pipeline errors."""


class ValidationError(ManalyzerError, ValueError):
    """Bad input rather than a runtime failure; the CLI exits 2."""


# --- provider gateway ---------------------------------------------------


class InvalidRequestError(ManalyzerError):
    """Agent request violates its invariants (e.g. an unknown tag)."""


class TransportError(ManalyzerError):
    """Transient transport failure; retried by the gateway."""


class EmptyResponseError(ManalyzerError):
    """Provider returned an empty reply."""


class ScriptMissError(ManalyzerError):
    """Scripted provider has no entry for the requested key."""


class DuplicateScriptKeyError(ManalyzerError):
    """Attempt to register a script key twice."""


# --- parsing of agent replies -------------------------------------------


class UnparseableReplyError(ManalyzerError):
    """Agent reply could not be parsed after the allowed re-asks."""


class ReviewFailure(ManalyzerError):
    """Paper (or batch) could not be reviewed; excluded downstream."""


# --- collector ----------------------------------------------------------


class SchemaViolationError(ValidationError):
    """Input file does not conform to its schema; message is field-level."""


class DanglingImageError(SchemaViolationError):
    """Parsed document references an image file that does not exist."""


class NotDownloadableError(ManalyzerError):
    """No usable PDF source for a paper; recorded and skipped."""


class ChecksumMismatchError(ManalyzerError):
    """Re-downloaded file digest differs from the recorded one."""


class ApiError(ManalyzerError):
    """Literature search API unreachable or returned a malformed response."""


# --- extraction ---------------------------------------------------------


class ExtractionError(ManalyzerError):
    """Base for stage-2 extraction failures."""


class NoTableFoundError(ExtractionError):
    """Conversion reply contains no parseable Markdown table."""


class ConversionFailure(ExtractionError):
    """Table/figure conversion failed after the allowed re-ask."""


class HeaderMismatchError(ExtractionError):
    """Extracted table header does not match the template."""


class MissingExplanationError(ExtractionError):
    """Extraction reply has numeric cells but no provenance block."""


class UnparseableTableError(ExtractionError):
    """Extraction reply table could not be parsed into the template grid."""


class UnparseableNumericError(ManalyzerError):
    """Cell text does not normalize to a number or missing-marker."""


class CheckerFailure(ManalyzerError):
    """Checker reply unparseable after re-ask; table accepted with warning."""


# --- analysis -----------------------------------------------------------


class NoValidStepsError(ManalyzerError):
    """Analysis plan contains no feasible step."""


# --- evaluation ---------------------------------------------------------


class EmptyGoldError(ValidationError):
    """Gold set for a (document, level) is empty; rate undefined."""


# --- workspace / pipeline -----------------------------------------------


class WorkspaceError(ValidationError):
    """Workspace missing, not initialized, or unusable."""


class CorruptManifestError(WorkspaceError):
    """Manifest unreadable or its status history regressed."""


class ConfigError(ValidationError):
    """Configuration invalid."""


class RefuseResumeError(ValidationError):
    """Active config differs from the workspace snapshot."""


class StageFailure(ManalyzerError):
    """A pipeline stage failed; the run halts at the stage boundary."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage

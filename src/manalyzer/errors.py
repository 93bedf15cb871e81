"""Exception hierarchy for the pipeline.

The hierarchy is the exit-code rule. Bad input (config, schema, workspace
state, a missing or corrupt file) is a plain ValueError: the CLI exits 2,
and ``@stage`` lets it through unwrapped. A runtime failure is a
ManalyzerError: ``@stage`` re-raises it as StageFailure, and the CLI exits
3. No class here is both, and every class but the base and StageFailure
is named by some ``except`` clause that tells it apart. Analysis raises
none of its own: a table it cannot analyze is a caller's bad input.
"""

from __future__ import annotations


class ManalyzerError(Exception):
    """Base class for runtime failures; the CLI exits 3."""


# --- provider gateway ---------------------------------------------------


class TransportError(ManalyzerError):
    """Transient transport failure; retried by the gateway."""


class EmptyResponseError(ManalyzerError):
    """Provider returned an empty reply."""


class DuplicateScriptKeyError(ManalyzerError):
    """Attempt to register a script key twice."""


# --- parsing of agent replies -------------------------------------------


class UnparseableReplyError(ManalyzerError):
    """Agent reply could not be parsed after the allowed re-asks."""


class ReviewFailure(ManalyzerError):
    """Paper (or batch) could not be reviewed; excluded downstream."""


# --- extraction ---------------------------------------------------------


class ExtractionError(ManalyzerError):
    """Extraction failed: no table, wrong header, no provenance, or an
    unusable conversion reply."""


class UnparseableNumericError(ManalyzerError):
    """Cell text does not normalize to a number or missing-marker."""


class CheckerFailure(ManalyzerError):
    """Checker reply unparseable after re-ask; table accepted with warning."""


# --- pipeline -----------------------------------------------------------


class StageFailure(ManalyzerError):
    """A pipeline stage failed; the run halts at the stage boundary."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage

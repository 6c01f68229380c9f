"""Exception and warning types shared across the toolkit."""

import copyreg


class LexciteError(Exception):
    """Base class for all toolkit errors. Each one, of whatever subclass,
    survives a pickle round trip with its type, message and attributes."""

    def __reduce__(self):
        # Rebuilt without calling __init__, whose arguments (a line number
        # and a message, a document and a cause) are not the message args.
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


# The failures a stage reports (a warning too, where the filter raises it):
# main writes errors.json for them; a forked worker sends them back as such.
STAGE_FAILURES = (LexciteError, OSError, MemoryError, Warning)


# --- corpus ingest ---------------------------------------------------------

class MalformedXml(LexciteError):
    """Input could not be parsed as XML."""


class MissingMetadata(LexciteError):
    """Required article metadata (doc id, year) or body content is absent."""


# --- linguistic pipeline ---------------------------------------------------

class TaggerLengthMismatch(LexciteError):
    """A tagger returned a tag sequence of the wrong length."""


class FormatError(LexciteError):
    """A line of a table, TSV or JSONL input breaks its format."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


# --- complexity metrics ----------------------------------------------------

class EmptyDocument(LexciteError):
    """Document has no sentence with at least one word token."""


# --- impact normalization --------------------------------------------------

class MissingBaseline(LexciteError):
    """No baseline exists for a record's (year, domain) cell."""


class ZeroBaselineNonzeroCitations(LexciteError):
    """A zero-mean cell contains a record with positive citations."""


class ScoreOverflow(LexciteError):
    """A record's citations over its cell mean exceed the largest float."""


# --- stats engine ----------------------------------------------------------

class EmptySample(LexciteError):
    """Statistical operation received an empty sample."""


class JoinMismatch(LexciteError):
    """Profiles and scores share no document ids."""


# --- cli -------------------------------------------------------------------

class ConfigError(LexciteError):
    """A mistake in the invocation, found before any stage runs."""


class DataError(LexciteError):
    """A stage's inputs, valid line by line, cannot make its outputs."""


class DegenerateResponseWarning(UserWarning):
    """Constant regression response; R-squared reported as 0."""


class GroupEmptyWarning(UserWarning):
    """An impact group is empty (e.g. fewer than 100 documents)."""

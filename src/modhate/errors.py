"""Exception hierarchy.

UsageError maps to CLI exit code 1, DataError and a failed write's OSError to
2; anything else escaping the CLI is an internal failure (exit 3).
"""


class ModhateError(Exception):
    """Base class for all package errors."""


class UsageError(ModhateError):
    """Bad parameter or flag value supplied by the caller."""


class DataError(ModhateError):
    """Problem with input data or data files."""


# ---- manifest / ingest ----

class MissingColumnError(DataError):
    pass


class DuplicateIdError(DataError):
    pass


class BadLabelError(DataError):
    def __init__(self, line_no: int, value: str):
        super().__init__(f"line {line_no}: cannot parse label {value!r}")
        self.line_no = line_no
        self.value = value


class BadSplitError(DataError):
    def __init__(self, line_no: int, value: str):
        super().__init__(f"line {line_no}: split must be train/test/auto, got {value!r}")
        self.line_no = line_no
        self.value = value


class UnreadableFileError(DataError):
    pass


class NotWavError(DataError):
    pass


class UnsupportedEncodingError(DataError):
    pass


class EmptyAudioError(DataError):
    pass


class NotPgmError(DataError):
    pass


class CorruptHeaderError(DataError):
    pass


class TooFewSamplesError(DataError):
    pass


# ---- features ----

class BadSubframeCountError(UsageError):
    pass


class BadFractionError(UsageError):
    pass


class LengthMismatchError(DataError):
    pass


class NoFramesError(DataError):
    pass


class EmptyCorpusError(DataError):
    pass


# ---- selection / classifiers ----

class EmptyMatrixError(DataError):
    pass


class BadTargetCountError(UsageError):
    pass


class DimensionMismatchError(DataError):
    pass


class SingleClassTrainingSetError(DataError):
    pass


class EvenKError(UsageError):
    pass


class KTooLargeError(UsageError):
    pass


# ---- evaluation / cli ----

class IncompleteResultsError(DataError):
    pass

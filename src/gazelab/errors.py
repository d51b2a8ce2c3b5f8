"""Exception taxonomy shared across the package.

Four base categories mirror the CLI exit-code scheme: parse failures,
domain-invariant violations, precondition failures, and numerical
breakdowns. Every concrete error subclasses exactly one category.
"""

from __future__ import annotations


class GazeLabError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(GazeLabError):
    """Input bytes/text could not be decoded into records."""


class InvariantError(GazeLabError):
    """A decoded record or constructed value violates a domain invariant."""


class PreconditionError(GazeLabError):
    """An operation was called on inputs it is not defined for."""


class NumericError(GazeLabError):
    """A numerical routine diverged or hit a degenerate denominator."""


# --- parsing -----------------------------------------------------------


class MalformedRecord(ParseError):
    def __init__(self, reason: str, line: int | None = None):
        loc = f"line {line}: " if line is not None else ""
        super().__init__(f"{loc}{reason}")
        self.reason = reason
        self.line = line


class BadMagic(ParseError):
    """Binary embedding payload does not start with the format magic."""


# --- invariants --------------------------------------------------------


class InvariantViolation(InvariantError):
    def __init__(self, reason: str, line: int | None = None):
        loc = f"line {line}: " if line is not None else ""
        super().__init__(f"{loc}{reason}")
        self.reason = reason
        self.line = line


class OverlappingClips(InvariantError):
    def __init__(self, film_id: str, clip_a: str, clip_b: str):
        super().__init__(f"clips {clip_a!r} and {clip_b!r} overlap in film {film_id!r}")
        self.film_id = film_id
        self.clip_a = clip_a
        self.clip_b = clip_b


class DimensionMismatch(InvariantError):
    def __init__(self, clip_id: str, expected: int, got: int):
        super().__init__(f"clip {clip_id!r}: expected {expected} components, got {got}")
        self.clip_id = clip_id
        self.expected = expected
        self.got = got


class NonFiniteValue(InvariantError):
    def __init__(self, clip_id: str, index: int):
        super().__init__(f"clip {clip_id!r}: non-finite component at index {index}")
        self.clip_id = clip_id
        self.index = index


class NonFiniteInput(InvariantError):
    """Training data contains NaN or infinite entries."""


# --- preconditions -----------------------------------------------------


class FilmMismatch(PreconditionError):
    """Spans and clips passed to a projection do not share one film."""


class ClipSetMismatch(PreconditionError):
    """Per-annotator label lists do not cover the identical clip set."""


class LengthMismatch(PreconditionError):
    """Aligned sequences have different lengths."""


class FewerThanTwoAnnotators(PreconditionError):
    """Agreement needs at least two annotators."""


class EmptyInput(PreconditionError):
    """Operation requires at least one record."""


class AllDropped(PreconditionError):
    """Level filter removed every clip."""


class SingleClass(PreconditionError):
    """Binary training data contains only one class."""


class BothZero(PreconditionError):
    """Baseline fractions are both zero; F1 is undefined."""


class EmptyClass(PreconditionError):
    def __init__(self, concept: str, side: str):
        super().__init__(f"no {side} samples for concept {concept!r}")
        self.concept = concept
        self.side = side


class MissingEmbedding(PreconditionError):
    def __init__(self, clip_id: str):
        super().__init__(f"no embedding for clip {clip_id!r}")
        self.clip_id = clip_id


class ClassTooSmall(PreconditionError):
    def __init__(self, label: str, count: int, k: int):
        super().__init__(f"class {label!r} has {count} samples, fewer than {k} folds")
        self.label = label
        self.count = count
        self.k = k


class NoTrainData(PreconditionError):
    """Fold plan leaves no training samples for one of the classes."""


class DegenerateTarget(PreconditionError):
    """Success labels are all identical; factor regression is undefined."""


# --- numerics ----------------------------------------------------------


class NonFiniteLoss(NumericError):
    """Training loss became NaN or infinite (typically the step is too large)."""


class UnannotatedFilmWarning(UserWarning):
    """A film in the clip index has no annotations; it fuses as all-EN."""

"""Exception types shared across the toolkit, each with its evidence as .witness."""


class ZnComplexError(Exception):
    """Base class for all toolkit errors; .witness is the evidence, or None."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class CheckFailedError(ZnComplexError):
    """A mathematical check failed; the CLI exits 1."""


class InvalidComplexError(ZnComplexError):
    """A simplicial complex failed validation; the witness is the report."""

    def __init__(self, report):
        super().__init__("; ".join(report.violations) or "invalid complex", report)


class ScxFormatError(ZnComplexError):
    """Malformed .scx input."""


class SpurError(ZnComplexError):
    """A vertex set handed to a collapse is not a spur; the witness is the report."""

    def __init__(self, report):
        super().__init__("; ".join(report.violations) or "not a spur", report)


class UnsupportedSizeError(ZnComplexError):
    """Requested size falls in the excluded cases (no orthogonal pair)."""


class TooLongError(CheckFailedError):
    """A word does not reduce to at most three syllables; the witness is the word."""

    def __init__(self, word):
        super().__init__(f"word does not reduce to <= 3 syllables: {word!r}", word)


class NotFreeAbelianError(CheckFailedError):
    """The abelianization has torsion; the witness is the torsion coefficients."""

    def __init__(self, torsion):
        super().__init__(f"abelianization has torsion {list(torsion)}", tuple(torsion))


class SparsityError(CheckFailedError):
    """A relation set violates a sparsity precondition; may carry a witness."""


class SgHypothesisError(CheckFailedError):
    """The per-plane edge-count hypothesis fails; the witness is a vertex subset."""

    def __init__(self, witness):
        super().__init__(f"plane hypothesis violated on vertex set {sorted(witness)}",
                         frozenset(witness))


class PipelineStageError(CheckFailedError):
    """A pipeline stage's precondition failed."""

    def __init__(self, stage, message, witness=None):
        super().__init__(f"stage {stage}: {message}", witness)
        self.stage = stage

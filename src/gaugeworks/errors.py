"""Shared exception types.

Two failure modes exist package-wide: structurally malformed input
(:class:`SchemaError`, names the offending field) and well-formed input that
breaks a mathematical law (:class:`LawViolation`, quotes the law).  The CLI
maps them to exit codes 1 and 2 respectively.  Checkers that list every
violated law instead of raising the first return a :class:`LawReport`.
"""

from dataclasses import dataclass


class SchemaError(ValueError):
    """Input does not match the expected shape."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class LawViolation(ValueError):
    """A mathematical invariant failed."""

    def __init__(self, law: str, detail: str = ""):
        self.law = law
        super().__init__(law + (f" [{detail}]" if detail else ""))


class PrimeMismatchError(LawViolation):
    """Objects built over different primes were combined."""

    def __init__(self, p_left, p_right):
        super().__init__(
            "all operands must live over one fixed prime p",
            f"got p={p_left} and p={p_right}",
        )


class NonHonestFiltrationError(LawViolation):
    """Raised by operations that require injective transition maps."""

    def __init__(self, detail: str = ""):
        super().__init__(
            "operation requires an honest filtration"
            " (the associated graded is presentation-dependent otherwise)",
            detail,
        )


@dataclass(frozen=True)
class LawReport:
    """The laws a value violates, listed rather than raised."""

    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

"""Exception types shared across the package.

Every refused input raises ``MarketGameError`` with one line that names the
input; the CLI prints that line as its ``error:`` line.  The two subclasses
exist only to carry data a caller reads."""


class MarketGameError(ValueError):
    """An input, parameter or config the package refuses, named in the message."""


class BudgetExceededError(MarketGameError):
    """An exhaustive computation would exceed its configured budget."""

    def __init__(self, message: str, required: int, budget: int):
        super().__init__(message)
        self.required = required
        self.budget = budget


class TrainingDivergedError(MarketGameError):
    """An entry-training loop produced a non-finite loss."""

    def __init__(self, message: str, trace: list):
        super().__init__(message)
        self.trace = trace

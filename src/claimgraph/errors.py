"""Exception types shared across the package."""


class ClaimGraphError(Exception):
    """Base class for all package errors."""


class SchemaError(ClaimGraphError):
    """A corpus line or input table violates the expected schema."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


def check_range(name: str, value: int, bounds: tuple[int, int | None],
                line_no: int | None = None) -> None:
    """Raise SchemaError unless `value` lies within `bounds`, a (low, high)
    pair whose high of None means no upper bound."""
    low, high = bounds
    if value < low or (high is not None and value > high):
        text = f">= {low}" if high is None else f"{low}..{high}"
        raise SchemaError(f"{name} must be {text}, got {value}", line_no=line_no)


class DuplicatePaperError(SchemaError):
    """The same paper_id appears on two corpus lines."""


class PathBudgetExceeded(ClaimGraphError):
    """Simple-path enumeration hit the resource cap."""

    def __init__(self, paper_id: str, cap: int):
        self.paper_id = paper_id
        self.cap = cap
        super().__init__(f"path enumeration exceeded cap {cap} for paper {paper_id!r}")


class SubsetBudgetExceeded(ClaimGraphError):
    """Induced-subgraph census would enumerate too many node subsets."""

    def __init__(self, paper_id: str, n_subsets: int, cap: int):
        self.paper_id = paper_id
        super().__init__(
            f"subgraph census needs {n_subsets} subsets (cap {cap}) for paper {paper_id!r}"
        )


class YearOrderError(ClaimGraphError):
    """Chronological state was fed papers out of year order."""


class ConvergenceError(ClaimGraphError):
    """Iterative solver failed to reach tolerance within the iteration cap."""

    def __init__(self, message: str, residual: float):
        self.residual = residual
        super().__init__(f"{message} (residual {residual:.3e})")


class CollinearityError(ClaimGraphError):
    """Regressor has no variation left after within-group demeaning."""


class DegenerateSeriesError(ClaimGraphError):
    """A node time series is constant, so min-max normalization is undefined."""

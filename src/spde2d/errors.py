"""Exception types shared across the package, and the check of a count."""


class ConfigError(ValueError):
    """Invalid configuration or argument values."""


class GridMismatchError(ValueError):
    """Inputs were built for incompatible space-time grids."""


class ThinningError(ValueError):
    """No admissible sub-grid exists for the requested thinning."""


class MemoryBudgetError(RuntimeError):
    """A requested allocation exceeds the configured memory budget."""


def check_count(name: str, value) -> None:
    """Refuse with ``ConfigError`` a ``value`` of ``name`` that is not an
    integer >= 1.  A boolean is not a count."""
    if isinstance(value, bool) or not (isinstance(value, int) and value >= 1):
        raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")

"""Exception types shared across the package, and the integer-field parsers."""


class CaterpillarError(Exception):
    """Base class for all package errors."""


class ShapeError(CaterpillarError, ValueError):
    """Tensor or weight dimensions do not match; message names the offending axes."""


class ShiftRangeError(CaterpillarError, ValueError):
    """Shift steps meet or exceed the spatial extent along the moved axis."""


class ReflectRangeError(CaterpillarError, ValueError):
    """Reflect padding asked to mirror past the remaining extent."""


class ConfigError(CaterpillarError, ValueError):
    """Invalid or inconsistent configuration value."""


class BuildError(CaterpillarError, ValueError):
    """Model construction failed; message names the stage or layer."""


class FormatError(CaterpillarError, ValueError):
    """Malformed binary file; message carries the offending field or byte offset."""


class NumericError(CaterpillarError, ArithmeticError):
    """Non-finite value encountered where finiteness is required."""


class InsufficientBatchError(CaterpillarError, ValueError):
    """Batch statistics requested over fewer than two elements."""


class StateError(CaterpillarError, RuntimeError):
    """A layer was asked for what its forward did not keep, e.g. a second backward."""


def parse_int(text: str, what: str) -> int:
    """An integer in ASCII digits with an optional leading "-"; else ConfigError naming `what`."""
    digits = text.removeprefix("-")
    try:
        if not (digits.isascii() and digits.isdigit()):  # int() also takes "+", "_", " ", "٢"
            raise ValueError(text)
        return int(text)  # ValueError past its digit limit
    except ValueError:
        raise ConfigError(f"{what}: expected an integer, got {text!r}") from None


def parse_ints(text: str, what: str) -> tuple[int, ...]:
    """Comma-separated integers, each parsed by parse_int."""
    return tuple(parse_int(v, what) for v in text.split(","))

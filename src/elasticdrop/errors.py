"""Exception types shared across the package, the array-size check the
config classes share, and the one reader of input files."""

import math
from pathlib import Path

import numpy as np


class ShapeError(ValueError):
    """Operands have incompatible shapes."""


class ConfigError(ValueError):
    """Invalid or inconsistent configuration."""


class NumericError(ArithmeticError):
    """A non-finite value appeared where a finite one is required."""


class DegenerateBatchError(ValueError):
    """Batch has no anchor with both a positive and a negative sample."""


def check_array_bytes(where: str, arrays: dict) -> None:
    """Raise ConfigError if a float64 array of one of the ``arrays`` shapes
    (description -> shape) would exceed the bytes numpy can index.

    numpy refuses such an array with a bare ``ValueError``; a config that
    asks for one is rejected before anything is allocated.
    """
    limit = np.iinfo(np.intp).max
    for name, shape in arrays.items():
        if math.prod(shape) * 8 > limit:
            raise ConfigError(f"{where}: {name} of shape {shape} would take "
                              f"more than {limit} bytes")


def read_text(path, what: str) -> str:
    """The UTF-8 text of input file ``path``, described as ``what``.

    A leading BOM is dropped; any OS error (missing file, directory, no
    permission) or non-UTF-8 bytes raise a ConfigError naming the path.
    """
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise ConfigError(
            f"cannot read {what} {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} {path} is not UTF-8 text: {exc}") from exc

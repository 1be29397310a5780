"""SQL type system.

Types carry three responsibilities in the federation:

* **coercion** — validate/convert Python values on INSERT/UPDATE so both
  engines store identical representations;
* **columnar mapping** — advertise a numpy dtype so the accelerator can
  store a column as a packed array (``object`` arrays are the fallback for
  strings, decimals, and temporal values);
* **byte accounting** — estimate the on-wire size of a value, which feeds
  the interconnect cost model used by the data-movement experiments.
"""

from __future__ import annotations

import datetime
import decimal
import math
from dataclasses import dataclass

import numpy as np

from repro.errors import TypeError_

__all__ = [
    "SqlType",
    "IntegerType",
    "SmallIntType",
    "BigIntType",
    "DoubleType",
    "DecimalType",
    "VarcharType",
    "CharType",
    "BooleanType",
    "DateType",
    "TimestampType",
    "INTEGER",
    "SMALLINT",
    "BIGINT",
    "DOUBLE",
    "BOOLEAN",
    "DATE",
    "TIMESTAMP",
    "type_from_name",
    "infer_type",
]


@dataclass(frozen=True)
class SqlType:
    """Base class for SQL column types.

    Instances are immutable and safe to share between catalog entries.
    """

    def coerce(self, value):
        """Convert ``value`` to this type's canonical Python representation.

        ``None`` always passes through (NULL). Raises
        :class:`~repro.errors.TypeError_` when the value is incompatible.
        """
        raise NotImplementedError

    @property
    def numpy_dtype(self):
        """Numpy dtype used by the accelerator's column store.

        ``object`` means the column is stored unpacked; numeric types map
        to fixed-width dtypes and use a separate null mask.
        """
        return np.dtype(object)

    @property
    def is_numeric(self) -> bool:
        return False

    def byte_size(self, value) -> int:
        """Estimated serialized size of one value, in bytes."""
        raise NotImplementedError

    def coerce_array(self, values: np.ndarray):
        """:meth:`coerce` over an array of non-NULL values, as one array.

        Only where the array form is exact: returns ``None`` when this
        source dtype has no such form for the type and the values must go
        through :meth:`coerce` one by one. Raises
        :class:`~repro.errors.TypeError_` when some value is invalid —
        not necessarily the value :meth:`coerce` would have met first.
        """
        return None

    def column_byte_size(self, column) -> int:
        """:meth:`byte_size` summed over the non-NULL values of a column
        (``.values`` plus an optional ``.mask``, True = NULL)."""
        nulls = 0 if column.mask is None else int(column.mask.sum())
        return (len(column.values) - nulls) * self.byte_size(None)

    def render(self) -> str:
        """SQL spelling of the type, e.g. ``VARCHAR(32)``."""
        raise NotImplementedError

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


def _reject(value, type_name: str):
    raise TypeError_(f"value {value!r} is not valid for type {type_name}")


@dataclass(frozen=True)
class _IntType(SqlType):
    """Shared implementation for the fixed-width integer types."""

    _BITS = 32

    def coerce(self, value):
        if value is None:
            return None
        if isinstance(value, bool):
            # Bools are ints in Python; accept them as 0/1 explicitly.
            return int(value)
        if isinstance(value, (int, np.integer)):
            result = int(value)
        elif isinstance(value, (float, np.floating)):
            if not float(value).is_integer():
                _reject(value, self.render())
            result = int(value)
        elif isinstance(value, str):
            try:
                result = int(value.strip())
            except ValueError:
                _reject(value, self.render())
        else:
            _reject(value, self.render())
        limit = 2 ** (self._BITS - 1)
        if not -limit <= result < limit:
            raise TypeError_(
                f"value {result} out of range for {self.render()}"
            )
        return result

    def coerce_array(self, values: np.ndarray):
        kind = values.dtype.kind
        if kind == "b":
            return values.astype(np.int64)
        if kind == "f":
            if not (np.isfinite(values) & (values == np.floor(values))).all():
                _reject(values, self.render())
        elif kind != "i":
            return None
        limit = 2 ** (self._BITS - 1)
        if len(values) and not (
            -limit <= values.min() and values.max() < limit
        ):
            raise TypeError_(f"value out of range for {self.render()}")
        return values.astype(np.int64, copy=False)

    @property
    def numpy_dtype(self):
        return np.dtype(np.int64)

    @property
    def is_numeric(self) -> bool:
        return True

    def byte_size(self, value) -> int:
        return self._BITS // 8


@dataclass(frozen=True)
class SmallIntType(_IntType):
    _BITS = 16

    def render(self) -> str:
        return "SMALLINT"


@dataclass(frozen=True)
class IntegerType(_IntType):
    _BITS = 32

    def render(self) -> str:
        return "INTEGER"


@dataclass(frozen=True)
class BigIntType(_IntType):
    _BITS = 64

    def render(self) -> str:
        return "BIGINT"


@dataclass(frozen=True)
class DoubleType(SqlType):
    def coerce(self, value):
        if value is None:
            return None
        if isinstance(value, bool):
            return float(value)
        if isinstance(value, (int, float, np.integer, np.floating)):
            return float(value)
        if isinstance(value, decimal.Decimal):
            return float(value)
        if isinstance(value, str):
            try:
                return float(value.strip())
            except ValueError:
                _reject(value, "DOUBLE")
        _reject(value, "DOUBLE")

    def coerce_array(self, values: np.ndarray):
        if values.dtype.kind in "ifb":
            return values.astype(np.float64, copy=False)
        return None

    @property
    def numpy_dtype(self):
        return np.dtype(np.float64)

    @property
    def is_numeric(self) -> bool:
        return True

    def byte_size(self, value) -> int:
        return 8

    def render(self) -> str:
        return "DOUBLE"


@dataclass(frozen=True)
class DecimalType(SqlType):
    """Fixed-point DECIMAL(precision, scale), stored as `decimal.Decimal`."""

    precision: int = 15
    scale: int = 2

    def coerce(self, value):
        if value is None:
            return None
        if isinstance(value, bool):
            value = int(value)
        try:
            result = decimal.Decimal(str(value))
        except decimal.InvalidOperation:
            _reject(value, self.render())
        quantum = decimal.Decimal(1).scaleb(-self.scale)
        result = result.quantize(quantum, rounding=decimal.ROUND_HALF_UP)
        digits = result.as_tuple()
        if len(digits.digits) - max(0, -digits.exponent) > self.precision - self.scale:
            raise TypeError_(
                f"value {value!r} exceeds precision of {self.render()}"
            )
        return result

    @property
    def is_numeric(self) -> bool:
        return True

    def byte_size(self, value) -> int:
        return (self.precision + 1) // 2 + 1

    def render(self) -> str:
        return f"DECIMAL({self.precision}, {self.scale})"


@dataclass(frozen=True)
class VarcharType(SqlType):
    length: int = 255

    def coerce(self, value):
        if value is None:
            return None
        if isinstance(value, str):
            text = value
        elif isinstance(value, (int, float, decimal.Decimal)):
            text = str(value)
        else:
            _reject(value, self.render())
        if len(text) > self.length:
            raise TypeError_(
                f"string of length {len(text)} exceeds {self.render()}"
            )
        return text

    def byte_size(self, value) -> int:
        return 4 + len(value)

    def column_byte_size(self, column) -> int:
        values = column.values
        if column.mask is not None:
            values = values[~column.mask]
        return 4 * len(values) + len("".join(values.tolist()))

    def render(self) -> str:
        return f"VARCHAR({self.length})"


@dataclass(frozen=True)
class CharType(SqlType):
    """Fixed-length CHAR(n); values are space-padded to the length."""

    length: int = 1

    def coerce(self, value):
        if value is None:
            return None
        if not isinstance(value, str):
            _reject(value, self.render())
        if len(value) > self.length:
            raise TypeError_(
                f"string of length {len(value)} exceeds {self.render()}"
            )
        return value.ljust(self.length)

    def byte_size(self, value) -> int:
        return self.length

    def render(self) -> str:
        return f"CHAR({self.length})"


@dataclass(frozen=True)
class BooleanType(SqlType):
    def coerce(self, value):
        if value is None:
            return None
        if isinstance(value, (bool, np.bool_)):
            return bool(value)
        if isinstance(value, (int, np.integer)) and value in (0, 1):
            return bool(value)
        if isinstance(value, str):
            lowered = value.strip().lower()
            if lowered in ("true", "t", "1", "yes"):
                return True
            if lowered in ("false", "f", "0", "no"):
                return False
        _reject(value, "BOOLEAN")

    def coerce_array(self, values: np.ndarray):
        return values if values.dtype.kind == "b" else None

    @property
    def numpy_dtype(self):
        return np.dtype(np.bool_)

    def byte_size(self, value) -> int:
        return 1

    def render(self) -> str:
        return "BOOLEAN"


_DATE_FORMAT = "%Y-%m-%d"
_TIMESTAMP_FORMATS = ("%Y-%m-%d %H:%M:%S.%f", "%Y-%m-%d %H:%M:%S", "%Y-%m-%d")


@dataclass(frozen=True)
class DateType(SqlType):
    def coerce(self, value):
        if value is None:
            return None
        if isinstance(value, datetime.datetime):
            return value.date()
        if isinstance(value, datetime.date):
            return value
        if isinstance(value, str):
            try:
                return datetime.datetime.strptime(value.strip(), _DATE_FORMAT).date()
            except ValueError:
                _reject(value, "DATE")
        _reject(value, "DATE")

    def byte_size(self, value) -> int:
        return 4

    def render(self) -> str:
        return "DATE"


@dataclass(frozen=True)
class TimestampType(SqlType):
    def coerce(self, value):
        if value is None:
            return None
        if isinstance(value, datetime.datetime):
            return value
        if isinstance(value, datetime.date):
            return datetime.datetime(value.year, value.month, value.day)
        if isinstance(value, str):
            text = value.strip()
            for fmt in _TIMESTAMP_FORMATS:
                try:
                    return datetime.datetime.strptime(text, fmt)
                except ValueError:
                    continue
            _reject(value, "TIMESTAMP")
        _reject(value, "TIMESTAMP")

    def byte_size(self, value) -> int:
        return 10

    def render(self) -> str:
        return "TIMESTAMP"


INTEGER = IntegerType()
SMALLINT = SmallIntType()
BIGINT = BigIntType()
DOUBLE = DoubleType()
BOOLEAN = BooleanType()
DATE = DateType()
TIMESTAMP = TimestampType()

_SIMPLE_TYPES = {
    "INTEGER": INTEGER,
    "INT": INTEGER,
    "SMALLINT": SMALLINT,
    "BIGINT": BIGINT,
    "DOUBLE": DOUBLE,
    "FLOAT": DOUBLE,
    "REAL": DOUBLE,
    "BOOLEAN": BOOLEAN,
    "DATE": DATE,
    "TIMESTAMP": TIMESTAMP,
}

_PARAMETERIZED_TYPES = {
    "VARCHAR": VarcharType,
    "CHAR": CharType,
    "CHARACTER": CharType,
    "DECIMAL": DecimalType,
    "NUMERIC": DecimalType,
}


def type_from_name(name: str, params: tuple[int, ...] = ()) -> SqlType:
    """Resolve a type name (plus optional length/precision) to a type object.

    >>> type_from_name("VARCHAR", (32,)).render()
    'VARCHAR(32)'
    """
    upper = name.upper()
    if upper in _SIMPLE_TYPES:
        if params:
            raise TypeError_(f"type {upper} takes no parameters")
        return _SIMPLE_TYPES[upper]
    if upper in _PARAMETERIZED_TYPES:
        factory = _PARAMETERIZED_TYPES[upper]
        if upper in ("DECIMAL", "NUMERIC"):
            if len(params) > 2:
                raise TypeError_("DECIMAL takes at most (precision, scale)")
            precision = params[0] if params else 15
            scale = params[1] if len(params) > 1 else 0
            return factory(precision, scale)
        if len(params) > 1:
            raise TypeError_(f"type {upper} takes at most one parameter")
        if params:
            return factory(params[0])
        return factory()
    raise TypeError_(f"unknown SQL type: {name}")


def infer_type(value) -> SqlType:
    """Infer a column type from a sample Python value (used by the loader).

    Strings map to a VARCHAR wide enough for the sample (rounded up), so
    schemas inferred from a data sample leave headroom for later rows.
    """
    if isinstance(value, bool):
        return BOOLEAN
    if isinstance(value, (int, np.integer)):
        return BIGINT if abs(int(value)) >= 2**31 else INTEGER
    if isinstance(value, (float, np.floating)):
        return DOUBLE
    if isinstance(value, decimal.Decimal):
        return DecimalType(31, max(0, -value.as_tuple().exponent))
    if isinstance(value, datetime.datetime):
        return TIMESTAMP
    if isinstance(value, datetime.date):
        return DATE
    if isinstance(value, str):
        width = max(16, 2 ** math.ceil(math.log2(max(1, len(value)) + 1)))
        return VarcharType(width)
    raise TypeError_(f"cannot infer SQL type for {value!r}")

"""Numpy-free pieces shared across layers.

``fmt_num`` is the numeric CSV cell of the sweep tables and the protocol
trace; ``ComputationError`` is the base of every failure the CLI reports
with exit code 2; ``ValidatedRecord`` makes a named tuple check its fields,
and store them as its rules return them, on every construction path.

``real``, ``integer``, ``text`` and ``instance`` are the one rule per kind
of field: every record's ``_check`` and the numeric entry points (the
secrecy formulas, the dB, path-loss and speed conversions, ``decide``)
refuse a field through them, with a ``ValueError`` that names the field,
and take what the rule returns: a float (+-inf beyond the float range), an
``int``, the str or the object. So a record stores a field as its rule
returns it, and no consumer converts a field itself. A real number is a
``numbers.Real`` and an integer a ``numbers.Integral``, neither of them a
``bool``; numpy registers its scalars with :mod:`numbers`, so
``np.float64(1.0)`` and ``np.int64(5)`` count and this module needs no
numpy.
"""

from numbers import Integral, Real

__all__ = [
    "ComputationError", "ValidatedRecord", "fmt_num", "instance", "integer", "real", "text",
]

_INF = float("inf")

# Each range a field may be held to, keyed by the phrase its error uses:
# (low, whether low itself is admitted, high); high is never admitted.
_RANGES = {
    "finite": (-_INF, False, _INF),
    "> 0": (0, False, _INF),
    "positive and finite": (0, False, _INF),
    ">= 0": (0, True, _INF),
    ">= 0.5": (0.5, True, _INF),
    ">= 1": (1, True, _INF),
    ">= 1000": (1000, True, _INF),
    "a 64-bit unsigned integer": (0, True, 2**64),
}


class ComputationError(RuntimeError):
    """A computation failed, or its result broke a built-in assertion."""


def fmt_num(x: float) -> str:
    """Numeric cell: up to 6 significant digits, no negative zero."""
    if x == 0:
        x = 0.0
    return f"{x:.6g}"


def _within(name: str, value, must: str | None):
    """``value``, if it lies in the range ``must`` names (None: any)."""
    if must is not None:
        low, closed, high = _RANGES[must]
        if not (low < value < high or closed and value == low):
            raise ValueError(f"{name} must be {must}, got {value!r}")
    return value


def real(name: str, value, must: str | None = "finite") -> float:
    """``value`` as a float, if it is a real number in the range ``must`` names.

    ``must`` is a key of ``_RANGES``, or None for any real number, nan and
    the infinities included. A number beyond the float range counts as
    infinite, and the range error shows the float.
    """
    if type(value) is not float:  # a float needs neither the type test nor the conversion
        if isinstance(value, bool) or not isinstance(value, Real):
            raise ValueError(f"{name} must be a real number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:
            value = _INF if value > 0 else -_INF
    return _within(name, value, must)


def integer(name: str, value, must: str | None = None) -> int:
    """``value`` as an int, if it is an integer in the range ``must`` names (None: any)."""
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    return _within(name, value, must)


def text(name: str, value) -> str:
    """``value``, if it is a non-empty str."""
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a str, got {value!r}")
    if not value:
        raise ValueError(f"{name} must be nonempty")
    return value


def instance(name: str, value, kind: type):
    """``value``, if it is an instance of ``kind``, a record type or ``tuple``."""
    if not isinstance(value, kind):
        raise ValueError(f"{name} must be a {kind.__name__}, got {value!r}")
    return value


class ValidatedRecord:
    """Mixin for an immutable named tuple that stores its fields as its rules return them.

    List it before the ``NamedTuple`` base and give the record a ``_check``
    method that raises ``ValueError`` for the first invalid field and
    otherwise returns the record's fields as its rules return them, in
    field order. The constructor stores that tuple, and ``_make`` and
    ``_replace``, which calls ``_make``, go through the constructor, so no
    construction path yields an unchecked or unconverted record. The
    record types define neither ``__new__`` nor ``_make`` of their own.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        return tuple.__new__(cls, super().__new__(cls, *args, **kwargs)._check())

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

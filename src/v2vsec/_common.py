"""Numpy-free pieces shared across layers.

``fmt_num`` is the numeric CSV cell of the sweep tables and the protocol
trace; ``ComputationError`` is the base of every failure the CLI reports
with exit code 2; ``ValidatedRecord`` makes a named tuple check its fields
on every construction path.
"""

__all__ = ["ComputationError", "ValidatedRecord", "fmt_num"]


class ComputationError(RuntimeError):
    """A computation failed, or its result broke a built-in assertion."""


def fmt_num(x: float) -> str:
    """Numeric cell: up to 6 significant digits, no negative zero."""
    if x == 0:
        x = 0.0
    return f"{x:.6g}"


class ValidatedRecord:
    """Mixin for an immutable named tuple that validates in ``__new__``.

    List it before the ``NamedTuple`` base and give the record a ``_check``
    method that raises ``ValueError`` for the first invalid field. ``_make``
    and ``_replace``, which calls ``_make``, go through ``__new__``, so no
    construction path yields an unchecked record.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        record = super().__new__(cls, *args, **kwargs)
        record._check()
        return record

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

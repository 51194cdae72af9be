"""Numpy-free pieces shared across layers.

``fmt_num`` is the numeric CSV cell of the sweep tables and the protocol
trace; ``ComputationError`` is the base of every failure the CLI reports
with exit code 2.
"""

__all__ = ["ComputationError", "fmt_num"]


class ComputationError(RuntimeError):
    """A computation failed, or its result broke a built-in assertion."""


def fmt_num(x: float) -> str:
    """Numeric cell: up to 6 significant digits, no negative zero."""
    if x == 0:
        x = 0.0
    return f"{x:.6g}"

"""Vectorized numpy power-allocation kernels: the per-state closed forms.

``ergodic`` calls them as ``_kernels.gamma_allocation`` and
``_kernels.secrecy_rate`` attribute lookups, once per multiplier trial.

A kernel takes keyword-only ``out`` (receives the result) and ``work``
(scratch), float64 rows shaped like the states, one for ``secrecy_rate``
and two for ``gamma_allocation``; it writes through ufunc ``out=`` and
allocates nothing. ``gamma_allocation`` needs every state favourable
(a > b), where the closed form is defined everywhere, so it runs without
masks and clamps at zero. Either kernel takes ``b=None`` for an absent
eavesdropper (zero gain in every state).

With an eavesdropper ``gamma_allocation`` takes the states in invariant
form: the rows d = a - b, s = a + b and 4ab do not depend on the
multiplier, so :func:`invariant_form` computes them once per estimate and
every multiplier trial reads them. The kernel then leaves the closed form's
root R = sqrt(mu*d*(mu*d + 4ab)) in its first work row, from which the
estimator takes its Newton slope.
"""

import numpy as np

_LN2 = 0.6931471805599453


def invariant_form(
    a: np.ndarray, b: np.ndarray, *, out: np.ndarray
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """The multiplier-free rows (d, (s, 4ab)) of the closed form, written into ``out``.

    ``out`` holds three rows shaped like ``a``; 4ab is computed as (a*4)*b.
    """
    d, s, q = out
    np.subtract(a, b, out=d)
    np.add(a, b, out=s)
    np.multiply(a, 4.0, out=q)
    np.multiply(q, b, out=q)
    return d, (s, q)


def gamma_allocation(
    a: np.ndarray,
    b: np.ndarray | tuple[np.ndarray, np.ndarray] | None,
    mu: float,
    *,
    out: np.ndarray,
    work: np.ndarray,
) -> np.ndarray:
    """Per-state optimal transmit power for the multiplier mu (nat scale).

    For a state with gain ratios a > b the stationarity condition of
    log2(1+g*a) - log2(1+g*b) - (mu/ln2)*g is a quadratic in g whose
    positive root is

        g = 2*(d - mu) / (R + mu*s),  R = sqrt(mu*d*(mu*d + 4ab)),

    with d = a - b and s = a + b, clamped at zero; the allocation is
    positive exactly when d > mu. Every state must be favourable, and
    ``work`` holds two rows.

    With ``b=None`` the root is the water-filling form g = (a - mu)/(mu*a).
    It equals the general form bit for bit wherever (mu*a)^2 neither
    overflows nor underflows, and stays correct where the general form's
    square overflows (a = 1e300 there gets zero power).
    Otherwise ``a`` and ``b`` are the invariant form ``(d, (s, 4ab))``
    from :func:`invariant_form`, and R is left in ``work[0]``.
    """
    root, den = work
    if b is None:
        np.subtract(a, mu, out=out)
        np.multiply(a, mu, out=den)
    else:
        d, (s, q) = a, b
        np.multiply(d, mu, out=den)
        np.add(den, q, out=root)
        np.multiply(root, den, out=root)
        np.sqrt(root, out=root)
        np.multiply(s, mu, out=den)
        np.add(root, den, out=den)
        np.subtract(d, mu, out=out)
        np.multiply(out, 2.0, out=out)
    # An inactive state (d <= mu) whose denominator underflows gives
    # -inf or 0/0 here, which fmax clamps to zero like any other negative
    # quotient. An active state whose quotient overflows gets inf power,
    # which the estimator's budget check never accepts.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        np.divide(out, den, out=out)
    return np.fmax(out, 0.0, out=out)


def secrecy_rate(
    a: np.ndarray,
    b: np.ndarray | None,
    gamma: np.ndarray,
    *,
    out: np.ndarray,
    work: np.ndarray,
) -> np.ndarray:
    """Per-state secrecy rate log2(1 + gamma*a) - log2(1 + gamma*b)."""
    np.multiply(gamma, a, out=out)
    np.log1p(out, out=out)
    if b is not None:
        np.multiply(gamma, b, out=work)
        np.log1p(work, out=work)
        np.subtract(out, work, out=out)
    return np.divide(out, _LN2, out=out)

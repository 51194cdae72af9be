"""Vectorized numpy power-allocation kernels: the per-state closed forms.

``ergodic`` calls them as ``_kernels.gamma_allocation`` and
``_kernels.secrecy_rate`` attribute lookups, once per multiplier trial.

Called with arrays alone, a kernel accepts any states and allocates its
result; ``gamma_allocation`` then skips the unfavourable states (a <= b)
with ufunc ``where=`` masks. The estimator instead passes keyword-only
``out`` (receives the result) and ``work`` (scratch), both float64 and
shaped like ``a``: the kernel then writes through ufunc ``out=`` and
allocates nothing. ``gamma_allocation`` on that path requires every state
to be favourable (a > b), where the closed form is defined everywhere, so
it runs without masks and clamps at zero. Either kernel takes ``b=None``
for an absent eavesdropper (zero gain in every state) on that path.
"""

import numpy as np

_LN2 = 0.6931471805599453


def gamma_allocation(
    a: np.ndarray,
    b: np.ndarray | None,
    mu: float,
    *,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Per-state optimal transmit power for the multiplier mu (nat scale).

    For a state with gain ratios a > b the stationarity condition of
    log2(1+g*a) - log2(1+g*b) - (mu/ln2)*g is a quadratic in g whose
    positive root is

        g = 2*(a - b - mu) / (sqrt(mu*(a-b)*(mu*(a-b) + 4ab)) + mu*(a+b))

    clamped at zero; the allocation is positive exactly when a - b > mu.
    States outside the favorable set (a <= b) get zero power.

    With ``out`` and ``work`` every state must be favourable. There, with
    ``b=None``, the root is the water-filling form g = (a - mu)/(mu*a). It
    equals the general form bit for bit wherever (mu*a)^2 neither
    overflows nor underflows, and stays correct where the general form's
    square overflows (a = 1e300 there gets zero power).
    """
    if out is None:
        return _gamma_masked(a, b, mu)
    if b is None:
        np.subtract(a, mu, out=out)
        np.multiply(a, mu, out=work)
    else:
        # the general form in the masked path's operation order, so each
        # state rounds the same; out holds mu*(a-b), then mu*(a+b), then
        # the numerator 2*(a-b-mu)
        np.subtract(a, b, out=out)
        np.multiply(out, mu, out=out)
        np.multiply(a, 4.0, out=work)
        np.multiply(work, b, out=work)
        np.add(work, out, out=work)
        np.multiply(work, out, out=work)
        np.sqrt(work, out=work)
        np.add(a, b, out=out)
        np.multiply(out, mu, out=out)
        np.add(work, out, out=work)
        np.subtract(a, b, out=out)
        np.subtract(out, mu, out=out)
        np.multiply(out, 2.0, out=out)
    # An inactive state (a - b <= mu) whose denominator underflows gives
    # -inf or 0/0 here, which fmax clamps to zero like any other negative
    # quotient. An active state whose quotient overflows gets inf power,
    # which the estimator's budget check never accepts.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        np.divide(out, work, out=out)
    return np.fmax(out, 0.0, out=out)


def _gamma_masked(a: np.ndarray, b: np.ndarray, mu: float) -> np.ndarray:
    """The closed form over any states, with unfavourable ones masked to zero."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    diff = a - b
    s = diff - mu
    active = s > 0.0
    # ``where=`` skips the inactive states in sqrt and divide, so they
    # neither raise nor need gathering.
    mu_diff = mu * diff
    disc = mu_diff * (mu_diff + 4.0 * a * b)
    root = np.sqrt(disc, out=disc, where=active)
    denom = np.add(root, mu * (a + b), out=root)
    return np.divide(2.0 * s, denom, out=np.zeros(a.shape), where=active)


def secrecy_rate(
    a: np.ndarray,
    b: np.ndarray | None,
    gamma: np.ndarray,
    *,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Per-state secrecy rate log2(1 + gamma*a) - log2(1 + gamma*b)."""
    if out is None:
        gamma = np.asarray(gamma, dtype=np.float64)
        out, work = np.empty_like(gamma), np.empty_like(gamma)
    np.multiply(gamma, a, out=out)
    np.log1p(out, out=out)
    if b is not None:
        np.multiply(gamma, b, out=work)
        np.log1p(work, out=work)
        np.subtract(out, work, out=out)
    return np.divide(out, _LN2, out=out)

"""Increasing bijections of [0, 1] used as draw transforms.

A transform fixes a strictly increasing bijection f of the unit interval
with f(0) = 0 and f(1) = 1.  Uniform draws X enter the running sum as
f(X), and every other module (closed forms, the renewal-equation solver,
the simulator) is parameterized by one of these transform objects.

The module also carries the adaptive quadrature used throughout the
package and the computation of the asymptotic line

    E[draws to exceed t] ~ (t + c) / mu,

where mu is the mean increment E[f(X)] and c is the long-run mean
overshoot.  The line is exact in the limit when f(X) has a bounded
density on (0, 1]; transforms that are flat at 0 (for example power
exponents above 1) concentrate increment mass near zero and approach the
line more slowly, so treat the constants as asymptotic only.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, ClassVar

import numpy as np

__all__ = [
    "DomainError",
    "ConvergenceError",
    "BijectionSpec",
    "Identity",
    "LogProduct",
    "Power",
    "PiecewiseLinear",
    "BUILTIN_TRANSFORMS",
    "parse_transform",
    "from_knot_file",
    "integrate",
    "AsymptoticParams",
    "asymptotic_params",
]

_E = math.e
_EM1 = math.e - 1.0


class DomainError(ValueError):
    """An argument fell outside the contract of the operation."""


class ConvergenceError(RuntimeError):
    """A numerical routine could not reach its requested tolerance."""


def _as_unit(values, name: str) -> np.ndarray:
    """Coerce to a float array and require every entry in [0, 1]."""
    arr = np.asarray(values, dtype=float)
    if arr.size:
        lo, hi = arr.min(), arr.max()
        if not (lo >= 0.0 and hi <= 1.0):
            raise DomainError(f"{name} must lie in [0, 1], got range [{lo}, {hi}]")
    return arr


class BijectionSpec(abc.ABC):
    """A strictly increasing bijection of [0, 1] with pinned endpoints.

    Instances are immutable value objects: hashable, comparable, safe to
    share across threads.  ``forward`` and ``inverse`` accept scalars or
    arrays and validate their domain; the endpoint images are exact
    floating-point 0.0 and 1.0 in both directions.
    """

    label: ClassVar[str]
    # increments at which the density of f(X) jumps; N_f has a derivative
    # jump at each, and the solver keeps its stencils off them
    _breaks: ClassVar[tuple] = (1.0,)

    @abc.abstractmethod
    def _f(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Apply f without domain checks (x already validated).

        The result may be written to ``out``, which may alias ``x``; some
        transforms allocate instead, so callers use the return value.
        """

    @abc.abstractmethod
    def _finv(self, u: np.ndarray) -> np.ndarray:
        """Apply the inverse without domain checks."""

    def forward(self, x):
        """f(x) for x in [0, 1].  Scalar in, scalar out; array in, array out."""
        arr = self._f(_as_unit(x, "x"))
        return arr[()] if arr.ndim == 0 else arr

    def inverse(self, u):
        """f^{-1}(u) for u in [0, 1]."""
        arr = self._finv(_as_unit(u, "u"))
        return arr[()] if arr.ndim == 0 else arr

    def __str__(self) -> str:
        return self.label

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


@dataclass(frozen=True, repr=False)
class Identity(BijectionSpec):
    """f(x) = x: plain uniform increments."""

    label: ClassVar[str] = "identity"

    def _f(self, x, out=None):
        return np.positive(x, out=out)

    def _finv(self, u):
        return +u


@dataclass(frozen=True, repr=False)
class LogProduct(BijectionSpec):
    """f(x) = ln(1 + (e-1)x): increments whose running sum tracks a product.

    Accumulating these increments past t is the same event as a product of
    independent 1 + (e-1)X factors exceeding e^t.  f(1) must be exactly 1.0
    in floats, so the endpoint is pinned rather than trusted to log1p.
    """

    label: ClassVar[str] = "logproduct"

    def _f(self, x, out=None):
        # the pin's mask is taken before out (which may alias x) is written,
        # and only when x reaches 1, which uniform draws never do
        one = x == 1.0 if np.max(x, initial=0.0) == 1.0 else None
        y = np.log1p(np.multiply(x, _EM1, out=out), out=out)
        return y if one is None else np.where(one, 1.0, y)

    def _finv(self, u):
        out = np.expm1(u) / _EM1
        return np.where(u == 1.0, 1.0, out)


@dataclass(frozen=True)
class Power(BijectionSpec):
    """f(x) = x**p for an exponent p in [0.1, 10].

    For p > 1 the increment f(X) has unbounded density at 0, which slows
    convergence to the asymptotic line (the line itself is unaffected).
    """

    p: float
    label_prefix: ClassVar[str] = "power"

    def __post_init__(self):
        p = self.p
        if not (isinstance(p, (int, float)) and math.isfinite(p)):
            raise DomainError("power exponent must be a finite number")
        if not (0.1 <= p <= 10.0):
            raise DomainError(f"power exponent must lie in [0.1, 10], got {p}")
        object.__setattr__(self, "p", float(p))

    @property
    def label(self) -> str:  # type: ignore[override]
        return f"power:{self.p:g}"

    def _f(self, x, out=None):
        return np.power(x, self.p, out=out)

    def _finv(self, u):
        return np.power(u, 1.0 / self.p)


class _KnotError(DomainError):
    """Knot ``index`` broke the ``PiecewiseLinear`` contract (None: the knot count)."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class PiecewiseLinear(BijectionSpec):
    """Piecewise-linear bijection through user-supplied knots.

    ``knots`` is a tuple of (x, y) pairs, strictly increasing in both
    coordinates, starting at (0, 0) and ending at (1, 1).  Evaluation is
    linear interpolation; the inverse interpolates the swapped knots.
    """

    knots: tuple

    def __post_init__(self):
        knots = tuple((float(x), float(y)) for x, y in self.knots)
        if len(knots) < 2:
            raise _KnotError(f"piecewise transform needs at least 2 knots, found {len(knots)}")
        if knots[0] != (0.0, 0.0):
            raise _KnotError(f"first knot must be (0, 0), got {knots[0]}", 0)
        if knots[-1] != (1.0, 1.0):
            raise _KnotError(f"last knot must be (1, 1), got {knots[-1]}", len(knots) - 1)
        for i in range(1, len(knots)):
            if not (knots[i][0] > knots[i - 1][0] and knots[i][1] > knots[i - 1][1]):
                raise _KnotError(
                    f"knots must be strictly increasing in x and y; "
                    f"knot {i} {knots[i]} does not increase past {knots[i-1]}",
                    i,
                )
        object.__setattr__(self, "knots", knots)

    @property
    def label(self) -> str:  # type: ignore[override]
        return f"piecewise[{len(self.knots)}]"

    @property
    def _breaks(self) -> tuple:  # type: ignore[override]
        return tuple(y for _, y in self.knots[1:])

    @cached_property
    def _xy(self):
        xs = np.array([k[0] for k in self.knots])
        ys = np.array([k[1] for k in self.knots])
        return xs, ys

    def _f(self, x, out=None):
        # np.interp has no out
        xs, ys = self._xy
        return np.interp(x, xs, ys)

    def _finv(self, u):
        xs, ys = self._xy
        return np.interp(u, ys, xs)


BUILTIN_TRANSFORMS = {
    "identity": Identity(),
    "logproduct": LogProduct(),
}


def from_knot_file(path) -> PiecewiseLinear:
    """Load a piecewise-linear transform from a text file.

    One ``x y`` pair per line (whitespace separated).  Blank lines are
    ignored.  The first knot must be ``0 0`` and the last ``1 1``; any
    malformed line is reported with its line number.
    """
    knots = []
    lines = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text:
                continue
            parts = text.split()
            if len(parts) != 2:
                raise DomainError(
                    f"{path}: line {lineno}: expected two numbers 'x y', got {raw.rstrip()!r}"
                )
            try:
                x, y = float(parts[0]), float(parts[1])
            except ValueError:
                raise DomainError(
                    f"{path}: line {lineno}: could not parse {raw.rstrip()!r} as numbers"
                ) from None
            knots.append((x, y))
            lines.append(lineno)
    try:
        return PiecewiseLinear(tuple(knots))
    except _KnotError as err:
        where = "" if err.index is None else f"line {lines[err.index]}: "
        raise DomainError(f"{path}: {where}{err}") from None


def parse_transform(text: str) -> BijectionSpec:
    """Resolve a transform name: built-in, ``power:<p>``, or a knot-file path.

    Built-in names are checked before the filesystem, so a file literally
    named ``identity`` cannot shadow the built-in.
    """
    name = text.strip()
    if name in BUILTIN_TRANSFORMS:
        return BUILTIN_TRANSFORMS[name]
    if name.startswith("power:"):
        raw = name[len("power:"):]
        try:
            p = float(raw)
        except ValueError:
            raise DomainError(f"could not parse power exponent {raw!r}") from None
        return Power(p)
    import os

    if os.path.exists(name):
        return from_knot_file(name)
    raise DomainError(
        f"unknown transform {text!r}: expected 'identity', 'logproduct', "
        f"'power:<p>', or a path to a knot file"
    )


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def _gauss_lobatto(n: int):
    """n-point Gauss-Lobatto nodes and weights on [-1, 1], ends included."""
    p = np.polynomial.legendre.Legendre.basis(n - 1)
    x = np.concatenate(([-1.0], p.deriv().roots(), [1.0]))
    x = 0.5 * (x - x[::-1])
    return x, 2.0 / (n * (n - 1) * p(x) ** 2)


# fixed rules of a panel, all exact to degree 19.  The 21-point Gauss value is
# kept; its error is estimated twice and the larger estimate counts:
# - against the 11-point Gauss-Lobatto rule, the only one whose nodes include
#   the panel's ends.  Rules with interior nodes only agree on a panel whose
#   kink lies between an end and the outermost node, so they would accept an
#   error of about slope * d**2 / 2 for a kink at distance d from the end;
# - by a null rule on the Gauss nodes (weights w * P_20(x): zero on every
#   polynomial of degree 19 or less), scaled to read the same as the first
#   estimate on P_20.  Two rules' errors on a kink are equal wherever their
#   Peano kernels cross, so either estimate alone reads zero at some kink
#   positions.  The pair does not: over 2e6 positions of one kink in a panel
#   the larger estimate was never below 1/17 of the true error.  Null rules:
#   Berntsen & Espelid, ACM Trans. Math. Softw. 17 (1991).
_GL_COARSE = _gauss_lobatto(11)
_GL_FINE = np.polynomial.legendre.leggauss(21)
_P20 = np.polynomial.legendre.Legendre.basis(20)
# the Gauss rule gives int P_20**2 = 2/41 exactly, so this reads on P_20 what
# the Lobatto rule reads there
_GL_NULL = _GL_FINE[1] * _P20(_GL_FINE[0]) * (
    np.dot(_GL_COARSE[1], _P20(_GL_COARSE[0])) / (2.0 / 41.0)
)
# both rules' nodes, so that one operation maps them onto a panel
_NODES = np.concatenate((_GL_COARSE[0], _GL_FINE[0]))
_N_COARSE = _GL_COARSE[0].size


def _panel(g, a: float, b: float):
    """The 21-point Gauss integral of g over [a, b] and its error estimate."""
    half = 0.5 * (b - a)
    x = 0.5 * (a + b) + half * _NODES
    coarse = half * float(np.dot(_GL_COARSE[1], g(x[:_N_COARSE])))
    gf = g(x[_N_COARSE:])
    fine = half * float(np.dot(_GL_FINE[1], gf))
    null = half * float(np.dot(_GL_NULL, gf))
    return fine, max(abs(fine - coarse), abs(null))


def integrate(
    g: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    abs_tol: float = 1e-10,
    max_panels: int = 10_000,
) -> float:
    """Integrate g over [a, b] to absolute tolerance ``abs_tol``.

    Adaptive bisection with fixed rules per panel: the 21-point Gauss value
    is kept, and its error estimate is the larger of its distance from the
    11-point Gauss-Lobatto value and a null rule on the Gauss nodes.  ``g``
    must accept a numpy array of nodes and return the integrand values.  The
    Lobatto rule samples the panel's ends, so ``g`` is evaluated at ``a`` and
    ``b`` and must be finite there; sampling the ends is what lets the
    estimate see a kink that lies closer to an end than the outermost Gauss
    node.  The per-panel error budget is proportional to panel length, so
    accepted panels sum to at most ``abs_tol`` of estimated error.

    Every integrand in the package is finite at its interval's ends: the
    transforms map [0, 1] onto [0, 1] with f(0) = 0 and f(1) = 1 exactly, so
    the basis polynomials of ``solver._panel_weights``, the moments of f in
    ``asymptotic_params``, the density 1 - f^{-1}(u) of
    ``montecarlo.limit_overshoot_bin_probs``, the clipped history of
    ``solver.self_consistency_residual`` and the integrands of
    ``verification`` are all bounded on [0, 1].

    Raises
    ------
    ConvergenceError
        If the subdivision limit ``max_panels`` is exhausted before every
        panel meets its budget (integrable but rough integrands can do this
        when ``abs_tol`` is very small).  A panel no wider than 16 ulps of
        its ends is accepted whatever its estimate, so a bounded jump is
        bisected down to that width and does not raise.
    DomainError
        If the interval is invalid, the tolerance is not positive, or ``g`` is
        not finite at a node (an end of the interval included).
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("integration bounds must be finite")
    if b < a:
        raise DomainError(f"integration bounds out of order: [{a}, {b}]")
    if not (abs_tol > 0.0):
        raise DomainError("abs_tol must be positive")
    if a == b:
        return 0.0

    length = b - a
    total = 0.0
    processed = 0
    stack = [(a, b)]
    worst = 0.0
    while stack:
        lo, hi = stack.pop()
        fine, err = _panel(g, lo, hi)
        processed += 1
        if not math.isfinite(err):
            raise DomainError(
                f"integrand is not finite on [{lo:.6g}, {hi:.6g}]; integrate "
                f"evaluates it at both ends of every panel"
            )
        budget = abs_tol * (hi - lo) / length
        if err <= budget or (hi - lo) <= 16 * math.ulp(max(abs(lo), abs(hi))):
            total += fine
            continue
        if processed >= max_panels:
            worst = err
            raise ConvergenceError(
                f"quadrature did not converge to abs_tol={abs_tol:g} within "
                f"{max_panels} panels; worst panel error {worst:.3e} on "
                f"[{lo:.6g}, {hi:.6g}]"
            )
        mid = 0.5 * (lo + hi)
        stack.append((mid, hi))
        stack.append((lo, mid))
    return total


# ---------------------------------------------------------------------------
# asymptotic line parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AsymptoticParams:
    """Constants of the asymptotic line for the expected draw count.

    mu is the mean increment E[f(X)], sigma2 its variance, and c the
    long-run mean overshoot.  The line itself is
    ``slope * t + intercept`` with slope 1/mu and intercept c/mu, both
    derived properties so the defining identities hold exactly.
    """

    mu: float
    sigma2: float
    c: float

    def __post_init__(self):
        if not (0.0 < self.mu <= 1.0):
            raise DomainError(f"mean increment must be in (0, 1], got {self.mu}")
        if self.sigma2 < 0.0:
            raise DomainError(f"increment variance must be >= 0, got {self.sigma2}")
        if not (0.0 <= self.c <= 1.0):
            raise DomainError(f"mean overshoot constant must be in [0, 1], got {self.c}")

    @property
    def slope(self) -> float:
        return 1.0 / self.mu

    @property
    def intercept(self) -> float:
        return self.c / self.mu


def asymptotic_params(spec: BijectionSpec, abs_tol: float = 1e-10) -> AsymptoticParams:
    """Compute (mu, sigma2, c) for a transform by adaptive quadrature.

    The mean limiting overshoot c is defined by the region integral of
    f(x) - u over {(u, x) : f(x) >= u} in the unit square, divided by mu.
    Integrating over u first collapses it to the equivalent single
    integral of f(x)^2 / 2, which is what gets evaluated here; the
    verification suite checks the two routes against each other.
    """
    mu = integrate(spec._f, 0.0, 1.0, abs_tol)
    sigma2 = integrate(lambda x: (spec._f(x) - mu) ** 2, 0.0, 1.0, abs_tol)
    c = integrate(lambda x: spec._f(x) ** 2, 0.0, 1.0, abs_tol) / (2.0 * mu)
    # guard against tiny negative drift from quadrature roundoff
    if -1e-13 < sigma2 < 0.0:
        sigma2 = 0.0
    return AsymptoticParams(mu=mu, sigma2=sigma2, c=c)

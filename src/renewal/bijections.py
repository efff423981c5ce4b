"""Increasing bijections of [0, 1] used as draw transforms.

A transform fixes a strictly increasing bijection f of the unit interval
with f(0) = 0 and f(1) = 1.  Uniform draws X enter the running sum as
f(X), and every other module (closed forms, the renewal-equation solver,
the simulator) is parameterized by one of these transform objects.

The module also carries the batched adaptive quadrature used throughout
the package and the computation of the asymptotic line

    E[draws to exceed t] ~ (t + c) / mu,

where mu is the mean increment E[f(X)] and c is the long-run mean
overshoot.  The line holds for every transform here: f(X) is non-lattice
with finite variance.  Power exponents above 1 give f(X) an unbounded
density at 0; that lowers the solver's order to 1 + 1/p in the step (see
``Power``), which is not a slow approach of N to the line.
"""

from __future__ import annotations

import abc
import math
import numbers
import operator
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

_EM1 = math.e - 1.0


class DomainError(ValueError):
    """An argument fell outside the contract of the operation."""


class ConvergenceError(RuntimeError):
    """A numerical routine could not reach its requested tolerance."""


def _as_real(name: str, value, lo: float = -math.inf, hi: float = math.inf,
             open_lo: bool = False) -> float:
    """``value`` as a finite float in [lo, hi] ((lo, hi] with ``open_lo``).

    Any ``numbers.Real`` passes (numpy scalars included); bools, strings and
    everything else are refused with a ``DomainError`` naming ``name``.
    """
    x = math.nan
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an int past the float range
            pass
    if not (math.isfinite(x) and (x > lo if open_lo else x >= lo) and x <= hi):
        if lo == -math.inf:
            bound = "real" if hi == math.inf else f"<= {hi:g}"
        elif hi == math.inf:
            bound = f"{'>' if open_lo else '>='} {lo:g}"
        else:
            bound = f"in {'(' if open_lo else '['}{lo:g}, {hi:g}]"
        raise DomainError(f"{name} must be finite and {bound}, got {value!r}")
    return x


def _line_at(name: str, t: float, line: float) -> float:
    """``line``, an asymptotic line's value at ``t``, refused naming ``name`` if not finite."""
    if not math.isfinite(line):
        raise DomainError(f"{name} must keep the asymptotic line within the float range, got {t!r}")
    return line


def _as_reals(name: str, values, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
    """``values`` (scalar or array) as a float array with every entry in [lo, hi].

    Integer and float dtypes pass; bool, string and object dtypes are refused,
    and so is a list or tuple that holds a bool among numbers (numpy would
    promote it to 0 or 1).
    """
    arr = np.asarray(values)
    if arr.dtype.kind not in "iuf":
        raise DomainError(f"{name} must hold real numbers, got dtype {arr.dtype}")
    if isinstance(values, (list, tuple)) and _holds_bool(values):
        raise DomainError(f"{name} must hold real numbers, got a bool among its entries")
    arr = arr.astype(float, copy=False)
    if arr.size:
        a, b = arr.min(), arr.max()
        if not (a >= lo and b <= hi):
            raise DomainError(f"{name} must lie in [{lo:g}, {hi:g}], got range [{a:g}, {b:g}]")
    return arr


def _holds_bool(values) -> bool:
    """Whether a list or tuple, or one nested in it, holds a bool or a bool array."""
    return any(
        _holds_bool(v) if isinstance(v, (list, tuple))
        else isinstance(v, bool) or getattr(v, "dtype", None) == bool
        for v in values
    )


def _as_int(name: str, value, lo: int, hi: int | None = None) -> int:
    """``value`` as an int in [lo, hi]: numpy integers pass, bools and floats do not."""
    try:
        n = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        n = None
    if n is None or n < lo or (hi is not None and n > hi):
        bound = f"in [{lo}, {hi}]" if hi is not None else f">= {lo}"
        raise DomainError(f"{name} must be an integer {bound}, got {value!r}")
    return n


def _as_spec(name: str, value) -> None:
    """Refuse a ``value`` that is not a ``BijectionSpec``, a transform's name included."""
    if not isinstance(value, BijectionSpec):
        raise DomainError(f"{name} must be a BijectionSpec (parse_transform builds one "
                          f"from a name such as 'logproduct'), got {value!r}")


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
    # points of (0, 1) where f has a derivative jump; quadrature over x
    # splits there first
    _kinks: ClassVar[tuple] = ()

    @abc.abstractmethod
    def _f(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Apply f without domain checks (x already validated).

        Without ``out`` the result is a fresh array.  With it the result may
        be written to ``out``, which may alias ``x``, or be a fresh array, or
        ``x`` itself (the identity's), so callers use the return value.
        """

    @abc.abstractmethod
    def _finv(self, u: np.ndarray) -> np.ndarray:
        """Apply the inverse without domain checks."""

    def forward(self, x):
        """f(x) for x in [0, 1].  Scalar in, scalar out; array in, array out."""
        arr = self._f(_as_reals("x", x))
        return arr[()] if arr.ndim == 0 else arr

    def inverse(self, u):
        """f^{-1}(u) for u in [0, 1]."""
        arr = self._finv(_as_reals("u", u))
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
        # with ``out``, x itself, never a copy into it: the result may be x
        # (``BijectionSpec._f``), which spares the caller a pass
        return np.positive(x) if out is None else x

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

    For p > 1 the increment f(X) has unbounded density at 0, so N - 1 grows
    like t^(1/p) near t = 0.  The solver's cubic history interpolant misses
    that start, and its error is of order 1 + 1/p in the step, not 3: per
    halving of the step the max error against (t + c)/mu on [20, 30] falls
    2.83x for p = 2 and 2.29x for p = 5, with no drift toward 1.  So it is
    discretization error, not a slow approach of N to the asymptotic line.

    For small p the solver refuses the curve: near 0, N - 1 grows like
    t^(1/p), and where step^(1/p) is below half an ulp of 1 (about
    p < ln(1/step) / (53 ln 2)) the first node rounds to exactly N(0) = 1,
    so the marched values are not strictly increasing.  At t_max = 5,
    p = 0.1 and 0.12 fail at steps 1e-2 and 1e-3, p = 0.15 passes at 1e-2
    only, and p = 0.2 and above pass at both (p = 0.2 fails at 5e-4, 0.25
    at 1e-4).  The whole range [0.1, 10] stays admitted: ``asymptotic_params``
    and the Monte Carlo routes handle p = 0.1.
    """

    p: float

    def __post_init__(self):
        object.__setattr__(self, "p", _as_real("power exponent p", self.p, 0.1, 10.0))

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

    ``knots`` is a tuple of (x, y) pairs of reals, strictly increasing in
    both coordinates, starting at (0, 0) and ending at (1, 1).  Evaluation is
    linear interpolation; the inverse interpolates the swapped knots.
    """

    knots: tuple

    def __post_init__(self):
        knots = []
        for i, (x, y) in enumerate(self.knots):
            try:
                knots.append((_as_real("x", x), _as_real("y", y)))
            except DomainError as err:
                raise _KnotError(f"knot {i}: {err}", i) from None
        knots = tuple(knots)
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

    @property
    def _kinks(self) -> tuple:  # type: ignore[override]
        return tuple(x for x, _ in self.knots[1:-1])

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
    malformed line is reported with its line number, and a path that cannot
    be read as UTF-8 text raises ``DomainError`` naming it.  A leading
    byte-order mark, which some Windows editors write, is skipped.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            content = fh.read()
    except OSError as err:
        raise DomainError(f"{path}: cannot read knot file: {err.strerror or err}") from None
    except UnicodeDecodeError as err:
        raise DomainError(
            f"{path}: knot file is not UTF-8 text ({err.reason} at byte {err.start})"
        ) from None
    knots = []
    lines = []
    # text mode has already turned every line ending into "\n"
    for lineno, raw in enumerate(content.split("\n"), start=1):
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
# The tables are numpy.polynomial's values written out (numpy 2.4.6), so that
# importing the package does not import numpy.polynomial; tests/test_bijections.py
# rebuilds them from it and compares.  Lobatto: the interior nodes are the
# roots of P_10', symmetrized, and the weights 2 / (110 P_10(x)**2).
_GL_COARSE = (
    np.array([
        -1.0, -0.9340014304080597, -0.7844834736631439, -0.5652353269962052,
        -0.29575813558693953, 0.0, 0.29575813558693953, 0.5652353269962052,
        0.7844834736631439, 0.9340014304080597, 1.0,
    ]),
    np.array([
        0.01818181818181815, 0.10961227326699481, 0.1871698817803053, 0.2480481042640283,
        0.2868791247790081, 0.3002175954556907, 0.2868791247790081, 0.2480481042640283,
        0.1871698817803053, 0.10961227326699481, 0.01818181818181815,
    ]),
)
# numpy.polynomial.legendre.leggauss(21)
_GL_FINE = (
    np.array([
        -0.9937521706203895, -0.9672268385663063, -0.9200993341504008, -0.8533633645833173,
        -0.7684399634756779, -0.6671388041974123, -0.5516188358872198, -0.4243421202074388,
        -0.2880213168024011, -0.1455618541608951, 0.0, 0.1455618541608951,
        0.2880213168024011, 0.4243421202074388, 0.5516188358872198, 0.6671388041974123,
        0.7684399634756779, 0.8533633645833173, 0.9200993341504008, 0.9672268385663063,
        0.9937521706203895,
    ]),
    np.array([
        0.01601722825777436, 0.03695378977085188, 0.05713442542685717, 0.07610011362837911,
        0.09344442345603395, 0.1087972991671484, 0.12183141605372864, 0.13226893863333763,
        0.1398873947910734, 0.14452440398997027, 0.1460811336496907, 0.14452440398997027,
        0.1398873947910734, 0.13226893863333763, 0.12183141605372864, 0.1087972991671484,
        0.09344442345603395, 0.07610011362837911, 0.05713442542685717, 0.03695378977085188,
        0.01601722825777436,
    ]),
)
# w * P_20(x) on the Gauss nodes, times (Lobatto rule on P_20) / (2/41): the
# Gauss rule gives int P_20**2 = 2/41 exactly, so this reads on P_20 what the
# Lobatto rule reads there
_GL_NULL = np.array([
    0.008249840114741072, -0.028508053378358267, 0.05468115285002883, -0.0839935361643995,
    0.11424977193290238, -0.1435086913755904, 0.17003860371214982, -0.19234017297103037,
    0.20918762743401306, -0.21967056256358478, 0.2232280408182556, -0.21967056256358478,
    0.20918762743401306, -0.19234017297103037, 0.17003860371214982, -0.1435086913755904,
    0.11424977193290238, -0.0839935361643995, 0.05468115285002883, -0.028508053378358267,
    0.008249840114741072,
])
# both rules' nodes, so that one operation maps them onto a panel
_NODES = np.concatenate((_GL_COARSE[0], _GL_FINE[0]))
_N_COARSE = _GL_COARSE[0].size
# panels evaluated per numpy pass: bounds the temporaries (a few MB for five
# integrands) however many intervals a call holds
_CHUNK = 512
# panels one interval may use before the quadrature gives up on it
_MAX_PANELS = 10_000
# a flagged panel at its interval's left end and at most this share of the
# interval wide has been bisected toward that end three times: the integrand
# is likely singular there (sqrt(x) for Power(p < 1)), so it is cut
# geometrically at a + w * 2^-k, k = _GRADE_LEVELS..1, in one round
_GRADE_SHARE = 0.125
_GRADE_LEVELS = 24
_GRADE_CUTS = 2.0 ** -np.arange(_GRADE_LEVELS, 0, -1)


def _split(lo, hi, kinks):
    """Split each interval [lo, hi] at the kinks strictly inside it.

    Returns the pieces' ends and, per piece, the index of its interval.
    """
    owner = np.arange(lo.shape[0])
    for k in kinks:
        cut = (lo < k) & (k < hi)
        if cut.any():
            lo = np.concatenate((lo, np.full(np.count_nonzero(cut), k)))
            hi = np.concatenate((np.where(cut, k, hi), hi[cut]))
            owner = np.concatenate((owner, owner[cut]))
    return lo, hi, owner


def _quad(g, lo, hi, tol: float, kinks=()) -> np.ndarray:
    """Integrals of the k components of g over each interval [lo[j], hi[j]].

    ``g(x, j)`` takes nodes ``x`` of shape (rows, nodes) and the index ``j``
    of each row's interval, and returns shape (k, rows, nodes); the result
    has shape (k, intervals).  Each interval is first split at the ``kinks``
    inside it (known breakpoints of g, as in QUADPACK's qagp), and then
    bisected adaptively with the rules above.  A panel is accepted when
    every component's error estimate is within the interval's budget
    ``tol * width / length`` or when it is no wider than 16 ulps of its
    ends, so each interval's accepted panels sum to at most ``tol`` of
    estimated error.

    A flagged panel is bisected, except one that starts at its interval's
    left end and is at most ``_GRADE_SHARE`` of the interval wide: bisection
    has already pointed three times at that end, where an integrand such as
    sqrt(x) is singular, so the panel is cut at a + w * 2^-k for k =
    ``_GRADE_LEVELS``..1 into 25 pieces in one round (geometric grading;
    Davis & Rabinowitz, Methods of Numerical Integration, 2nd ed., 1984,
    sections 2.12 and 6.2).  For Power(0.5) this takes ``asymptotic_params``
    from 45 rounds to 6.  Only the left end is graded: no integrand in the
    package is singular at its right end.

    Panels wait in one first-in, first-out queue and are evaluated
    ``_CHUNK`` at a time; flagged panels put their pieces at the queue's
    end.  Whether and how a panel is cut depends on the panel and its
    interval alone, so each interval's panels are evaluated and summed in
    the same order whatever the chunk size and whichever intervals share the
    call, and the reductions are row-wise numpy sums (no BLAS), so the
    result does not depend on either, nor on the BLAS thread count.

    Raises ``DomainError`` when g is not finite at a node and
    ``ConvergenceError`` when an interval would need more than
    ``_MAX_PANELS`` panels, every piece of a cut counted; both name the
    interval and the panel.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    span = hi - lo
    density = tol / np.where(span > 0.0, span, np.inf)
    qlo, qhi, qown = _split(lo, hi, kinks)
    granted = np.bincount(qown, minlength=lo.shape[0])
    total = None
    start = 0
    while start < qlo.shape[0]:
        a, b, own = (q[start : start + _CHUNK] for q in (qlo, qhi, qown))
        start += _CHUNK
        width = b - a
        half = 0.5 * width
        vals = g((0.5 * (a + b))[:, None] + half[:, None] * _NODES, own)
        gf = vals[..., _N_COARSE:]
        coarse = half * (vals[..., :_N_COARSE] * _GL_COARSE[1]).sum(-1)
        fine = half * (gf * _GL_FINE[1]).sum(-1)
        null = half * (gf * _GL_NULL).sum(-1)
        err = np.maximum(np.abs(fine - coarse), np.abs(null)).max(axis=0)
        if total is None:
            total = np.zeros((lo.shape[0], fine.shape[0]))
        ok = err <= density[own] * width
        if not ok.all():
            nonfinite = ~np.isfinite(err)
            if nonfinite.any():
                j = np.argmax(nonfinite)
                raise DomainError(
                    f"integrand is not finite on [{a[j]:.6g}, {b[j]:.6g}] (interval "
                    f"[{lo[own[j]]:.6g}, {hi[own[j]]:.6g}]); the quadrature evaluates "
                    f"it at both ends of every panel"
                )
            ok |= width <= 16.0 * np.spacing(np.maximum(np.abs(a), np.abs(b)))
        np.add.at(total, own[ok], fine[:, ok].T)
        if ok.all():
            continue
        bad = np.flatnonzero(~ok)
        a, b, own, width = a[bad], b[bad], own[bad], width[bad]
        graded = (a == lo[own]) & (width <= _GRADE_SHARE * span[own])
        pieces = np.where(graded, _GRADE_LEVELS + 1, 2)
        np.add.at(granted, own, pieces)
        over = granted[own] > _MAX_PANELS
        if over.any():
            j = np.argmax(over)
            raise ConvergenceError(
                f"quadrature did not converge to abs_tol={tol:g} within "
                f"{_MAX_PANELS} panels on [{lo[own[j]]:.6g}, {hi[own[j]]:.6g}]; "
                f"worst panel error {err[bad[j]]:.3e} on [{a[j]:.6g}, {b[j]:.6g}]"
            )
        # row i: panel i's ends with its cuts between them; a bisected panel
        # uses only the first cut column, which holds its midpoint
        ends = np.column_stack((a, a[:, None] + width[:, None] * _GRADE_CUTS, b))
        ends[~graded, 1] = 0.5 * (a + b)[~graded]
        used = np.ones(ends.shape, dtype=bool)
        used[~graded, 2:-1] = False
        qlo = np.concatenate((qlo[start:], ends[:, :-1][used[:, :-1]]))
        qhi = np.concatenate((qhi[start:], ends[:, 1:][used[:, 1:]]))
        qown = np.concatenate((qown[start:], np.repeat(own, pieces)))
        start = 0
    return total.T


def integrate(
    g: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    abs_tol: float = 1e-10,
) -> float:
    """Integrate g over [a, b] to absolute tolerance ``abs_tol``.

    A one-interval call of the batched core ``_quad``: adaptive bisection,
    graded toward a singular left end, with fixed rules per panel, where
    the 21-point Gauss value is kept and its error estimate is the larger of
    its distance from the 11-point Gauss-Lobatto value and a null rule on
    the Gauss nodes.  Pending panels
    are evaluated up to ``_CHUNK`` at a time in one call of ``g``, which
    must accept a flat numpy array of nodes and return the integrand values.  The Lobatto
    rule samples the panel's ends, so ``g`` is evaluated at ``a`` and ``b``
    and must be finite there; sampling the ends is what lets the estimate
    see a kink that lies closer to an end than the outermost Gauss node.
    The per-panel error budget is proportional to panel length, so accepted
    panels sum to at most ``abs_tol`` of estimated error.

    Every integrand in the package is finite at its interval's ends: the
    transforms map [0, 1] onto [0, 1] with f(0) = 0 and f(1) = 1 exactly.
    ``integrate`` serves the density 1 - f^{-1}(u) of
    ``montecarlo.limit_overshoot_bin_probs``, the clipped history of
    ``solver.self_consistency_residual`` and the integrands of
    ``verification``, all bounded on [0, 1]; ``solver._panel_weights`` and
    ``asymptotic_params`` call ``_quad`` directly, with the transform's
    kinks as first splits.

    Raises
    ------
    ConvergenceError
        If meeting every panel's budget would take more than ``_MAX_PANELS``
        panels (integrable but rough integrands can do this when
        ``abs_tol`` is very small).  A panel no wider than 16 ulps of
        its ends is accepted whatever its estimate, so a bounded jump is
        bisected down to that width and does not raise.
    DomainError
        If ``a`` and ``b >= a`` are not finite reals, ``abs_tol`` is not
        > 0, or ``g`` is not finite at a node (an end of the interval
        included).
    """
    a = _as_real("a", a)
    b = _as_real("b", b, a)
    abs_tol = _as_real("abs_tol", abs_tol, 0.0, open_lo=True)
    if a == b:
        return 0.0

    def g1(x, _):
        # g takes a flat array of nodes
        return np.reshape(g(x.ravel()), (1,) + x.shape)

    return float(_quad(g1, [a], [b], abs_tol)[0, 0])


# ---------------------------------------------------------------------------
# asymptotic line parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AsymptoticParams:
    """Constants of the asymptotic line for the expected draw count.

    mu is the mean increment E[f(X)], in (0, 1], sigma2 >= 0 its variance,
    and c in [0, 1] the long-run mean overshoot.  The line itself is
    ``slope * t + intercept`` with slope 1/mu and intercept c/mu, both
    derived properties so the defining identities hold exactly.
    """

    mu: float
    sigma2: float
    c: float

    def __post_init__(self):
        object.__setattr__(self, "mu", _as_real("mu", self.mu, 0.0, 1.0, open_lo=True))
        object.__setattr__(self, "sigma2", _as_real("sigma2", self.sigma2, 0.0))
        object.__setattr__(self, "c", _as_real("c", self.c, 0.0, 1.0))

    @property
    def slope(self) -> float:
        return 1.0 / self.mu

    @property
    def intercept(self) -> float:
        return self.c / self.mu


def asymptotic_params(spec: BijectionSpec) -> AsymptoticParams:
    """Compute (mu, sigma2, c) for a transform by adaptive quadrature.

    The mean limiting overshoot c is defined by the region integral of
    f(x) - u over {(u, x) : f(x) >= u} in the unit square, divided by mu.
    Integrating over u first collapses it to the equivalent single
    integral of f(x)^2 / 2, which is what gets evaluated here; the
    verification suite checks the two routes against each other.  E[f] and
    E[f^2] come from one quadrature call, split first at the kinks of f, so
    a piecewise-linear f integrates exactly with no bisection.
    """
    _as_spec("spec", spec)

    def moments(x, _):
        f = spec._f(x)
        return np.stack((f, f * f))

    (mu,), (ef2,) = _quad(moments, [0.0], [1.0], 1e-10, spec._kinks).tolist()
    sigma2 = ef2 - mu * mu
    c = ef2 / (2.0 * mu)
    # guard against tiny negative drift from quadrature roundoff
    if -1e-13 < sigma2 < 0.0:
        sigma2 = 0.0
    return AsymptoticParams(mu=mu, sigma2=sigma2, c=c)

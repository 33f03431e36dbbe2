"""Terminal-value functionals C(B_T) and adapted/future product integrands.

The supported families are closed under translation x -> x - s, which is the
only Wick-product rule the linear model needs: the Wick product with the
stochastic exponential of sigma over [0, t] acts on C as ``translate(sigma * t)``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Union

import numpy as np

ArrayLike = Union[float, np.ndarray]


class NonDifferentiableError(ValueError):
    """Requested an analytic derivative of a family that has none."""


class MonotonicityError(ValueError):
    """A claimed-monotone evaluator failed the probe grid check."""


def _require_finite(x: ArrayLike) -> None:
    if not np.all(np.isfinite(x)):
        raise ValueError("functional argument must be finite")


class TerminalFunctional:
    """Scalar map applied to the terminal Brownian value B_T."""

    def evaluate(self, x: ArrayLike, out: np.ndarray | None = None) -> ArrayLike:
        """C(x), written into ``out`` when given (of the broadcast shape of x
        and the coefficients, possibly x itself) and returned; without ``out``
        a new array, or a float for scalar input. A non-finite argument
        raises ValueError.

        The built-in families check x here and compute C in
        ``evaluate_finite``; a family may instead override this method alone.
        """
        _require_finite(x)
        return self.evaluate_finite(x, out)

    def evaluate_finite(self, x: ArrayLike, out: np.ndarray | None = None) -> ArrayLike:
        """``evaluate`` of an argument the caller has already checked to be finite.

        A kernel that reads one argument for several functionals checks it
        once and calls this for each; the built-in families then skip the
        check, and a family that overrides only ``evaluate`` runs it. A
        family overrides at least one of the two; one that overrides neither
        raises NotImplementedError.
        """
        if type(self).evaluate is TerminalFunctional.evaluate:
            raise NotImplementedError(
                f"{type(self).__name__} defines neither evaluate nor evaluate_finite"
            )
        return self.evaluate(x, out)

    def translate(self, s: float) -> "TerminalFunctional":
        """The functional x -> C(x - s)."""
        raise NotImplementedError

    def derivative(self) -> "TerminalFunctional":
        raise NonDifferentiableError(f"{type(self).__name__} has no analytic derivative")

    @property
    def is_deterministic(self) -> bool:
        return False

    @property
    def is_zero(self) -> bool:
        return False


@dataclass(frozen=True)
class Affine(TerminalFunctional):
    """x -> a + b * x."""

    a: float
    b: float = 0.0

    def evaluate_finite(self, x: ArrayLike, out: np.ndarray | None = None) -> ArrayLike:
        if out is None:
            out = np.empty(np.broadcast(x, self.a, self.b).shape)
        # b * x + a is a + b * x, bit for bit
        np.multiply(x, self.b, out=out)
        out += self.a
        return out if out.ndim else float(out)

    def translate(self, s: float) -> "Affine":
        if not math.isfinite(s):
            raise ValueError(f"translation must be finite, got {s}")
        return Affine(self.a - self.b * s, self.b)

    def derivative(self) -> "Affine":
        return Affine(self.b, 0.0)

    @property
    def is_deterministic(self) -> bool:
        return self.b == 0.0

    @property
    def is_zero(self) -> bool:
        return self.a == 0.0 and self.b == 0.0


@dataclass(frozen=True)
class Indicator(TerminalFunctional):
    """x -> scale * 1{x > threshold}; exactly 0 at the threshold itself."""

    scale: float
    threshold: float

    def evaluate_finite(self, x: ArrayLike, out: np.ndarray | None = None) -> ArrayLike:
        """scale * (x > threshold) in one pass: the on/off mask as 1.0 or 0.0
        times scale, so an off value is 0.0 for every finite scale >= 0 (a
        negative scale would give -0.0)."""
        if out is None:
            out = np.empty(np.broadcast(x, self.scale, self.threshold).shape)
        np.multiply(np.greater(x, self.threshold), self.scale, out=out)
        return out if out.ndim else float(out)

    def translate(self, s: float) -> "Indicator":
        if not math.isfinite(s):
            raise ValueError(f"translation must be finite, got {s}")
        return Indicator(self.scale, self.threshold + s)

    def derivative(self) -> TerminalFunctional:
        raise NonDifferentiableError("indicator functionals have no pointwise derivative")


@dataclass(frozen=True)
class Smooth(TerminalFunctional):
    """x -> scale * fn(x - shift) for a smooth scalar map fn.

    ``dfn`` is the analytic derivative of ``fn`` when available. Both take a
    float array of x - shift that is scratch space: they may write their
    values into it and return it, or return a new array.
    """

    scale: float
    fn: Callable[[np.ndarray], ArrayLike]
    dfn: Callable[[np.ndarray], ArrayLike] | None = None
    shift: float = 0.0

    def evaluate_finite(self, x: ArrayLike, out: np.ndarray | None = None) -> ArrayLike:
        if out is None:
            out = np.empty(np.broadcast(x, self.scale, self.shift).shape)
        # x - shift goes through out, which fn may then work in
        np.subtract(x, self.shift, out=out)
        np.multiply(self.scale, self.fn(out), out=out)
        return out if out.ndim else float(out)

    def translate(self, s: float) -> "Smooth":
        if not math.isfinite(s):
            raise ValueError(f"translation must be finite, got {s}")
        return replace(self, shift=self.shift + s)

    def derivative(self) -> "Smooth":
        if self.dfn is None:
            raise NonDifferentiableError("no analytic derivative was supplied")
        return Smooth(scale=self.scale, fn=self.dfn, dfn=None, shift=self.shift)


@dataclass(frozen=True)
class MonotoneSmooth(Smooth):
    """A Smooth map claimed nondecreasing; validated empirically on a probe grid."""

    def validate_monotone(self, horizon: float, points: int = 1000) -> np.ndarray:
        """Probe at ``points`` evenly spaced points over +-8*sqrt(horizon) and
        return the probe values; raises MonotonicityError on failure."""
        if points < 2:
            raise ValueError(f"a probe grid needs at least 2 points, got {points}")
        span = 8.0 * math.sqrt(horizon)
        ys = self.evaluate(np.linspace(-span, span, points))
        # y[i+1] < y[i] is y[i+1] - y[i] < 0 for floats, without a difference array
        if np.any(ys[..., 1:] < ys[..., :-1]):
            raise MonotonicityError("evaluator decreases somewhere on the probe grid")
        if not np.all(ys[..., -1] > ys[..., 0]):
            raise MonotonicityError("evaluator is constant on the probe grid")
        return ys


def _expit(z: np.ndarray) -> np.ndarray:
    """The logistic sigmoid 1 / (1 + exp(-z)), written into z; exp overflows to
    inf, which gives 0."""
    np.negative(z, out=z)
    with np.errstate(over="ignore"):
        np.exp(z, out=z)
    z += 1.0
    return np.divide(1.0, z, out=z)


def _logistic_deriv(z: np.ndarray) -> np.ndarray:
    p = _expit(z)
    return p * (1.0 - p)


def logistic(scale: float = 1.0) -> MonotoneSmooth:
    """Bounded increasing map x -> scale / (1 + exp(-x))."""
    return MonotoneSmooth(scale=scale, fn=_expit, dfn=_logistic_deriv)


def _atan01(z: np.ndarray) -> np.ndarray:
    """1/2 + arctan(z)/pi, written into z."""
    np.arctan(z, out=z)
    z /= np.pi
    z += 0.5
    return z


def _atan01_deriv(z: np.ndarray) -> np.ndarray:
    return 1.0 / (np.pi * (1.0 + np.square(z)))


def arctangent(scale: float = 1.0) -> MonotoneSmooth:
    """Bounded increasing map x -> scale * (1/2 + arctan(x)/pi)."""
    return MonotoneSmooth(scale=scale, fn=_atan01, dfn=_atan01_deriv)


@dataclass(frozen=True)
class IntegrandTerm:
    """One product term f(s, x) * phi(y).

    ``adapted`` sees the time s and the running value x = B_s; ``future`` sees
    only the increment y = B_T - B_s, so it is independent of the past at
    every s. ``future_derivative`` is phi' when phi is differentiable.
    """

    adapted: Callable[[ArrayLike, ArrayLike], ArrayLike]
    future: Callable[[ArrayLike], ArrayLike]
    future_derivative: Callable[[ArrayLike], ArrayLike] | None = None


@dataclass(frozen=True)
class ProductIntegrand:
    """Finite sum of adapted-times-future product terms."""

    terms: tuple[IntegrandTerm, ...]

    def __call__(self, s: ArrayLike, x: ArrayLike, y: ArrayLike) -> ArrayLike:
        total = 0.0
        for term in self.terms:
            total = total + term.adapted(s, x) * term.future(y)
        return total


def malliavin_trace_partial(
    u: ProductIntegrand, s: ArrayLike, x: ArrayLike, y: ArrayLike
) -> ArrayLike:
    """Right-limit Malliavin trace sum_k f_k(s, x) * phi_k'(y).

    Uses that a future bump leaves B_s unchanged and moves B_T - B_s by one
    unit. Terms flagged non-differentiable (indicators) are rejected.
    """
    total = 0.0
    for term in u.terms:
        if term.future_derivative is None:
            raise NonDifferentiableError(
                "integrand contains a non-differentiable future factor"
            )
        total = total + term.adapted(s, x) * term.future_derivative(y)
    return total

"""Closed-form space-time fields for problem data.

Fields are separable: amplitude * s(x) * tau(t).  They can be sampled at
mesh nodes and grid times, and their discounted L2 tail over (T, infinity)
is evaluated in closed form: exponential time profiles integrate to
exponentials, Gaussian ones to scaled complementary error functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spaces import quad_energies


class DivergenceError(ValueError):
    """Discounted tail integral does not converge."""


@dataclass(frozen=True)
class SpaceProfile:
    """Spatial factor: constant, axis-separable gaussian/cosine, or nodal values."""

    kind: str
    value: float = 1.0
    center: tuple = (0.0,)
    width: float = 1.0
    mode: int = 1
    nodal: tuple = ()

    def values(self, mesh) -> np.ndarray:
        x = mesh.coords
        if self.kind == "constant":
            return np.full(mesh.n_nodes, float(self.value))
        if self.kind == "gaussian":
            c = np.broadcast_to(np.asarray(self.center, dtype=float), (mesh.dimension,))
            r2 = np.sum(((x - c) / self.width) ** 2, axis=1)
            return np.exp(-r2)
        if self.kind == "cosine":
            lengths = x.max(axis=0)
            out = np.ones(mesh.n_nodes)
            for d in range(mesh.dimension):
                out = out * np.cos(self.mode * np.pi * x[:, d] / lengths[d])
            return out
        if self.kind == "nodal":
            vals = np.asarray(self.nodal, dtype=float)
            if vals.shape != (mesh.n_nodes,):
                raise ValueError("nodal profile length does not match the mesh")
            return vals
        raise ValueError(f"unknown space profile {self.kind!r}")


@dataclass(frozen=True)
class TimeProfile:
    """tau(t) = exp(-decay*t - gauss_decay*t^2), optionally cut off at support_end."""

    decay: float = 0.0
    gauss_decay: float = 0.0
    support_end: float | None = None

    def values(self, times: np.ndarray) -> np.ndarray:
        t = np.asarray(times, dtype=float)
        out = np.exp(-self.decay * t - self.gauss_decay * t * t)
        if self.support_end is not None:
            out = np.where(t <= self.support_end + 1e-12, out, 0.0)
        return out

    def squared_tail(self, rate: float, t_start: float) -> float:
        """Integral of e^{-rate*t} * tau(t)^2 over (t_start, infinity)."""
        end = self.support_end
        if end is not None and t_start >= end:
            return 0.0
        mu = rate + 2.0 * self.decay
        if self.gauss_decay > 0:
            a = 2.0 * self.gauss_decay
            val = _gaussian_tail(mu, a, t_start)
            if end is not None:
                val -= _gaussian_tail(mu, a, end)
            return float(val)
        if end is not None:
            if abs(mu) < 1e-14:
                return float(end - t_start)
            return float((np.exp(-mu * t_start) - np.exp(-mu * end)) / mu)
        if mu <= 0:
            raise DivergenceError(
                f"time profile does not decay fast enough for rate {rate:g}")
        return float(np.exp(-mu * t_start) / mu)


def _gaussian_tail(mu: float, a: float, s: float) -> float:
    """Integral of exp(-mu*t - a*t^2) over (s, infinity) for a > 0.

    With x = sqrt(a)*s + mu/(2 sqrt(a)) it equals
    sqrt(pi/4a) * exp(-mu*s - a*s^2) * erfcx(x).  For x < 0, where erfcx
    grows like 2 exp(x^2), the equal form sqrt(pi/4a) * exp(mu^2/4a) * erfc(x)
    is used; both exponents are at most mu^2/4a, so neither overflows before
    the integral does.
    """
    # imported on first use: only the tail of a Gaussian time profile needs it
    from scipy import special

    root = np.sqrt(a)
    x = root * s + mu / (2.0 * root)
    scale = np.sqrt(np.pi / (4.0 * a))
    if x >= 0:
        return scale * np.exp(-mu * s - a * s * s) * special.erfcx(x)
    return scale * np.exp(mu * mu / (4.0 * a)) * special.erfc(x)


@dataclass(frozen=True)
class Field:
    """Separable space-time field amplitude * s(x) * tau(t)."""

    space: SpaceProfile
    time: TimeProfile
    amplitude: float = 1.0

    def sample(self, mesh, times) -> np.ndarray:
        s = self.space.values(mesh)
        tau = self.time.values(np.asarray(times, dtype=float))
        return self.amplitude * np.outer(tau, s)

    def tail_l2(self, mesh, mass, rate: float, t_start: float) -> float:
        """Discounted L2 norm over space x (t_start, infinity)."""
        if self.amplitude == 0.0:
            return 0.0
        s = self.space.values(mesh)
        energy = float(quad_energies(s[None, :], mass)[0])
        return abs(self.amplitude) * np.sqrt(max(energy, 0.0) * self.time.squared_tail(rate, t_start))


def zero_field() -> Field:
    return Field(SpaceProfile("constant", value=0.0), TimeProfile(), amplitude=0.0)


def tail_norm(spec, which: str, rate: float, t_start: float) -> float:
    """Discounted tail norm of the problem's source or target beyond t_start.

    Requires the field to be stored as a closed-form descriptor; sampled
    arrays carry no information beyond the grid horizon.
    """
    obj = spec.source if which == "source" else spec.target
    if not hasattr(obj, "tail_l2"):
        raise ValueError(f"{which} is not a closed-form descriptor; tail norm unavailable")
    return obj.tail_l2(spec.mesh, spec.operators.mass, rate, t_start)

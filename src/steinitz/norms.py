"""Polyhedral norms: l1, linf, and blockwise-max combinations of them."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import Vec, ZERO


@dataclass(frozen=True)
class L1:
    pass


@dataclass(frozen=True)
class Linf:
    pass


@dataclass(frozen=True)
class BlockMax:
    """Max of ``inner`` over consecutive blocks of ``block_dim`` coordinates."""

    inner: object
    block_dim: int


NormSpec = object  # one of L1, Linf, BlockMax

L1_NORM = L1()
LINF_NORM = Linf()


def norm_eval(spec, v: Vec) -> Fraction:
    """Exact norm value of v under spec; raises on dimension mismatch.
    Integer input gives an int, rational input a Fraction, and the empty
    vector ZERO."""
    if isinstance(spec, L1):
        return sum(map(abs, v)) if v else ZERO
    if isinstance(spec, Linf):
        return max(map(abs, v), default=ZERO)
    if isinstance(spec, BlockMax):
        b = spec.block_dim
        if b <= 0:
            raise ValueError("block dimension must be positive")
        if len(v) % b != 0:
            raise ValueError("vector dimension not divisible by block dimension")
        return max((norm_eval(spec.inner, v[start:start + b]) for start in range(0, len(v), b)),
                   default=ZERO)
    raise TypeError(f"unknown norm spec: {spec!r}")


def norm_name(spec) -> str:
    if isinstance(spec, L1):
        return "l1"
    if isinstance(spec, Linf):
        return "linf"
    if isinstance(spec, BlockMax):
        return f"blockmax({norm_name(spec.inner)},{spec.block_dim})"
    raise TypeError(f"unknown norm spec: {spec!r}")


def norm_from_name(name: str):
    if name == "l1":
        return L1_NORM
    if name == "linf":
        return LINF_NORM
    raise ValueError(f"unknown norm name: {name!r} (expected 'l1' or 'linf')")

"""Deterministic keyed random streams for every Monte Carlo routine.

All sampling in this package goes through counter-based Philox generators
whose 128-bit keys are derived by hashing a structured label:

    (experiment id, lambda, pair index, replicate, ...)

Two consequences the test suite relies on:

* the stream drawn for one work item never depends on how many other items
  ran before it, so estimates are independent of execution order and of any
  process/thread slicing;
* re-running with the same user seed reproduces every byte of every report.

The hash is SHA-256 over a canonical text form of the label, never Python's
``hash()`` (which is salted per process).

A hit-or-miss count over the draws becomes an estimate in one place,
``binomial_estimate``: the tube volumes and overlaps and the band
fractions all return through it.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .geometry import norm

_SEP = "\x1f"  # unit separator, keeps ("a", "bc") distinct from ("ab", "c")


def _canon(part: object) -> str:
    if isinstance(part, float):
        return repr(part)  # shortest round-trip form, stable across platforms
    if isinstance(part, (int, np.integer, str)):
        return str(part)
    raise TypeError(f"rng key parts must be str/int/float, got {type(part)!r}")


def philox_key(seed: int, *parts: object) -> int:
    """128-bit Philox key derived from a user seed and a structured label."""
    label = _SEP.join([_canon(seed)] + [_canon(p) for p in parts])
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "little")


def keyed_rng(seed: int, *parts: object) -> np.random.Generator:
    """Independent generator for the work item labelled by ``parts``."""
    return np.random.Generator(np.random.Philox(key=philox_key(seed, *parts)))


def keyed_rngs(seed: int, parts: tuple,
               items: Iterable[object]) -> Iterator[np.random.Generator]:
    """``keyed_rng(seed, *parts, item)`` for each item in turn, same draws.

    One Philox is re-keyed in place through its ``state`` setter (about
    2 us, against about 17 us for a new Philox), so each generator yielded
    is valid only until the next one is.
    """
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    fresh = bitgen.state            # counter and buffer of a new stream
    for item in items:
        key = philox_key(seed, *parts, item)
        fresh["state"]["key"] = np.array([key & 0xFFFF_FFFF_FFFF_FFFF,
                                          key >> 64], dtype=np.uint64)
        bitgen.state = fresh
        yield gen


def unit_vectors(gen: np.random.Generator, n: int, dim: int = 3) -> np.ndarray:
    """n uniform directions in R^dim: one (n, dim) normal draw, normalized
    in place."""
    v = gen.normal(size=(n, dim))
    v /= norm(v)[:, np.newaxis]
    return v


def jittered_stack(gen: np.random.Generator, n: int, k: int,
                   spread: float) -> np.ndarray:
    """(n, k, 3) stack of n uniform directions, each copied k times and
    displaced by spread * N(0, I); the rows are left unnormalized.

    Draws the n base directions, then the k displacements copy by copy,
    and scales and shifts the displacements in place, so the stack holds
    its draws and nothing more.  It is returned as a (n, k, 3) view of the
    (k, n, 3) draw.
    """
    base = unit_vectors(gen, n)
    jitter = gen.normal(size=(k, n, 3))
    jitter *= spread
    jitter += base
    return jitter.transpose(1, 0, 2)


@dataclass(frozen=True)
class MCEstimate:
    value: float
    stderr: float
    samples: int


def binomial_estimate(hits: int, n: int, volume: float) -> MCEstimate:
    """``volume`` times the hit fraction of n draws, with its binomial
    standard error."""
    p = hits / n
    return MCEstimate(value=p * volume,
                      stderr=math.sqrt(p * (1.0 - p) / n) * volume,
                      samples=n)

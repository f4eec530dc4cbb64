"""Whole-array oracles for caps.spiral_pairs_within,
caps.spiral_nearest_chord and caps.spiral_covering_chord, on the stored
spiral.

``pairs_within`` measures every pair, one offset at a time, and keeps those
within the chord: no polar or radial cut.

``nearest_chord`` is an independent two-pass search.  Its first pass
measures every pair at the three offsets under 3 sqrt(n) with the smallest
|sin(k G / 2)|, a bound from all over the spiral.  Its second pass measures
the two polar index ranges of every other offset that the bound leaves, by
``np.searchsorted`` on the stored heights.  The package takes one pass of
``caps.spiral_pairs_within`` under a bound from the first rows, so the two
reach the minimum by different pairs, offsets and bounds, and tests compare
them bit for bit.  ``covering_chord`` is the package's covering scan with
every probe's candidate bound formed at once.  Both form arrays as long as
the spiral, or as the probe set.  Nothing outside tests uses them.
"""
from __future__ import annotations

import math

import numpy as np

from decolab import caps


def pairs_within(spiral: np.ndarray, c: float):
    """Every pair (i < j) of rows within chord c, (m, 2) lexicographic,
    and their squared chords, by ``caps._sq_chords``."""
    n = spiral.shape[0]
    found = []
    for k in range(1, n):
        sq = caps._sq_chords(spiral, slice(0, n - k), spiral, slice(k, n))
        i = np.flatnonzero(sq <= c * c)
        found.append((i, i + k, sq[i]))
    i, j, sq = (np.concatenate(a) for a in zip(
        (np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0)), *found))
    order = np.lexsort((j, i))
    return np.stack([i, j], axis=1)[order], sq[order]


def nearest_chord(spiral: np.ndarray) -> float:
    """``caps.spiral_nearest_chord`` with each scan gathered whole."""
    n = spiral.shape[0]
    if n < 2:
        return math.inf
    golden = caps._GOLDEN_ANGLE
    slack = 2.0 ** -46 * (n * golden + math.sqrt(n))
    short = np.arange(1, min(n, int(3.0 * math.sqrt(n)) + 1))
    seeds = short[np.argsort(np.abs(np.sin(0.5 * golden * short)),
                             kind="stable")[:3]]
    best = min(float(np.min(caps._sq_chords(spiral, slice(0, n - k),
                                            spiral, slice(k, n))))
               for k in seeds.tolist())
    bound = math.sqrt(best) + slack
    ks = np.arange(1, min(n - 1, int(0.5 * bound * n)) + 1)
    ks = ks[~np.isin(ks, seeds)]
    sin_half = np.sin(0.5 * golden * ks)
    rho2 = (bound * bound - (2.0 * ks / n) ** 2) / (4.0 * sin_half * sin_half)
    h = np.sqrt(np.clip(1.0 - rho2, 0.0, None))
    y = spiral[:, 1]
    south = np.minimum(np.searchsorted(y, slack - h, side="right"), n - ks)
    north = np.clip(np.searchsorted(y, h - slack, side="left") - ks,
                    south, n - ks)
    starts = np.concatenate([np.zeros_like(ks), north])
    lens = np.concatenate([south, n - ks - north])
    ends = np.cumsum(lens)
    if ends.size and ends[-1]:
        i = np.arange(ends[-1]) + np.repeat(starts - (ends - lens), lens)
        j = i + np.repeat(np.concatenate([ks, ks]), lens)
        best = min(best, float(np.min(caps._sq_chords(spiral, i, spiral, j))))
    return math.sqrt(best)


def covering_chord(spiral: np.ndarray, probes: np.ndarray) -> float:
    """``caps.spiral_covering_chord`` with every probe's bound at once."""
    bound = np.min(caps._sq_chords(
        spiral, caps._spiral_candidates(probes, len(spiral)),
        probes, np.arange(len(probes))[:, None]), axis=1)
    best = 0.0
    for p in np.argsort(bound)[::-1].tolist():
        if bound[p] <= best:
            break
        w = math.sqrt(bound[p])
        yp = float(probes[p, 1])
        w += 2.0 ** -48 * (w + abs(yp) + 1.0)
        lo, hi = np.searchsorted(spiral[:, 1], [yp - w, yp + w])
        best = max(best, float(np.min(
            caps._sq_chords(spiral, slice(lo, hi), probes, p))))
    return math.sqrt(best)

"""Scalar oracles for the batched sextuple kernels of phase.py and caps.py.

These are the one-sextuple-at-a-time definitions the batch kernels replace:
plain Python loops over pairs and pairings, ``math.fsum`` block sums,
``math.atan2`` transverse angles and a union-find single linkage.  Tests
compare every batch kernel against them; nothing outside tests uses them.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from decolab.caps import CapFamily, clustered_dirs, conflict_degrees
from decolab.geometry import angle_between
from decolab.rng import keyed_rng
from decolab.scale import ScaleParams

_PERMS = tuple(itertools.permutations((3, 4, 5)))


def _sq(row: np.ndarray) -> float:
    x, y, z = float(row[0]), float(row[1]), float(row[2])
    return x * x + y * y + z * z


@dataclass(frozen=True)
class Sextuple:
    scale: ScaleParams
    xi: np.ndarray    # (6, 3)

    def __post_init__(self) -> None:
        arr = np.asarray(self.xi, dtype=float)
        if arr.shape != (6, 3):
            raise ValueError(f"sextuple needs shape (6, 3), got {arr.shape}")
        object.__setattr__(self, "xi", arr)
        lam = self.scale.lam
        for m in range(6):
            s = math.sqrt(_sq(arr[m]))
            if not (0.5 * lam <= s <= 2.0 * lam):
                raise ValueError(
                    f"|xi_{m}| = {s} outside the shell [{lam / 2}, {2 * lam}]"
                )

    def moduli(self) -> list[float]:
        return [math.sqrt(_sq(self.xi[m])) for m in range(6)]

    def directions(self) -> np.ndarray:
        return self.xi / np.linalg.norm(self.xi, axis=1, keepdims=True)


def mu6(s: Sextuple) -> float:
    """Time-resonance defect; exact cancellation on paired blocks."""
    q = [_sq(s.xi[m]) for m in range(6)]
    return abs(math.fsum(q[:3] + [-v for v in q[3:]]))


def classify_basket(s: Sextuple, c: float = 1.0) -> str:
    """'B_ge' when mu6 >= c * sqrt(lam) (boundary included), else 'B_lt'."""
    return "B_ge" if mu6(s) >= c * math.sqrt(s.scale.lam) else "B_lt"


def grad_xprime(s: Sextuple) -> np.ndarray:
    """Signed block sum of the transverse frequency components (2-vector)."""
    comps = []
    for axis in (1, 2):
        terms = [float(s.xi[m][axis]) for m in range(3)]
        terms += [-float(s.xi[m][axis]) for m in range(3, 6)]
        comps.append(math.fsum(terms))
    return np.asarray(comps)


def transverse_dirs(s: Sextuple) -> np.ndarray:
    """u_m = xi'_m / |xi_m|: transverse parts scaled by the full modulus."""
    mods = np.asarray(s.moduli())
    return s.xi[:, 1:3] / mods[:, np.newaxis]


def _angle2(u: np.ndarray, v: np.ndarray) -> float:
    """Angle between 2-vectors; zero vectors pair only with zero vectors."""
    nu = math.hypot(float(u[0]), float(u[1]))
    nv = math.hypot(float(v[0]), float(v[1]))
    if nu == 0.0 or nv == 0.0:
        return 0.0 if nu == nv else math.pi
    dot = float(u[0] * v[0] + u[1] * v[1])
    cross = float(u[0] * v[1] - u[1] * v[0])
    return math.atan2(abs(cross), dot)


@dataclass(frozen=True)
class TPResult:
    label: str                                    # paired|transversal|neither
    witness: tuple[int, int, int] | None          # block-2 image of (0, 1, 2)
    grad_norm: float
    angular_threshold: float                      # C * alpha
    radial_threshold: float                       # C * mu6 / lam
    grad_threshold: float                         # c1 * lam * alpha


def pairing_holds(s: Sextuple, perm: tuple[int, int, int],
                  C: float = 4.0) -> bool:
    """Does the block pairing m -> perm[m] pass both proximity tests?"""
    u = transverse_dirs(s)
    mods = s.moduli()
    ang_thr = C * s.scale.alpha
    rad_thr = C * mu6(s) / s.scale.lam
    for m in range(3):
        if _angle2(u[m], u[perm[m]]) > ang_thr:
            return False
        if abs(mods[m] - mods[perm[m]]) > rad_thr:
            return False
    return True


def tp_dichotomy(s: Sextuple, C: float = 4.0,
                 c1: float | None = None) -> TPResult:
    """Paired / transversal / neither trichotomy for one sextuple.

    All six pairings of the blocks are tried in lexicographic order; the
    first that matches wins and is returned as a witness.  Failing that, a
    transverse gradient of at least c1 * lam * alpha (c1 defaults to c0/2)
    makes the sextuple transversal.
    """
    if c1 is None:
        c1 = 0.5 * s.scale.c0
    g = grad_xprime(s)
    gnorm = math.hypot(float(g[0]), float(g[1]))
    common = dict(
        grad_norm=gnorm,
        angular_threshold=C * s.scale.alpha,
        radial_threshold=C * mu6(s) / s.scale.lam,
        grad_threshold=c1 * s.scale.lam * s.scale.alpha,
    )
    for perm in _PERMS:
        if pairing_holds(s, perm, C):
            return TPResult(label="paired", witness=perm, **common)
    if gnorm >= common["grad_threshold"]:
        return TPResult(label="transversal", witness=None, **common)
    return TPResult(label="neither", witness=None, **common)


# ---------------------------------------------------------------------------
# robust / narrow dichotomy
# ---------------------------------------------------------------------------

def single_linkage_sizes(dirs: np.ndarray, alpha: float) -> tuple[int, ...]:
    """Cluster sizes (descending) of single-linkage at threshold alpha.

    Directions are linked when their angle is <= alpha; clusters are the
    connected components of that graph.
    """
    d = np.asarray(dirs, dtype=float)
    n = d.shape[0]
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in itertools.combinations(range(n), 2):
        ci = d[i] / np.linalg.norm(d[i])
        cj = d[j] / np.linalg.norm(d[j])
        ang = 2.0 * math.atan2(float(np.linalg.norm(ci - cj)),
                               float(np.linalg.norm(ci + cj)))
        if ang <= alpha:
            parent[find(i)] = find(j)
    sizes: dict[int, int] = {}
    for i in range(n):
        root = find(i)
        sizes[root] = sizes.get(root, 0) + 1
    return tuple(sorted(sizes.values(), reverse=True))


@dataclass(frozen=True)
class RNResult:
    label: str                   # robust|narrow|neither
    max_alpha_count: int         # densest alpha-cap occupancy in the family
    density_threshold: float     # c_star * D
    cluster_sizes: tuple[int, ...]


def rn_classify(s: Sextuple, family: CapFamily | None,
                c_star: float = 0.5) -> RNResult:
    """Robust when some alpha-cap of the active family is overfull, narrow
    when five of the six directions fall in one alpha-linkage cluster."""
    if family is not None and len(family) > 0:
        max_count = int(np.max(conflict_degrees(family)))
    else:
        max_count = 0
    threshold = c_star * s.scale.D
    clusters = single_linkage_sizes(s.directions(), s.scale.alpha)
    if max_count > threshold:
        label = "robust"
    elif clusters[0] >= 5:
        label = "narrow"
    else:
        label = "neither"
    return RNResult(label=label, max_alpha_count=max_count,
                    density_threshold=threshold, cluster_sizes=clusters)


def _shell_points(scale: ScaleParams, rng: np.random.Generator, n: int,
                  lo: float = 0.5, hi: float = 2.0) -> np.ndarray:
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    radii = rng.uniform(lo * scale.lam, hi * scale.lam, size=n)
    return v * radii[:, np.newaxis]


def sample_sextuple(scale: ScaleParams, seed: int, replicate: int,
                    kind: str = "generic") -> Sextuple:
    """Seeded sextuple draws for the coverage tables.

    generic: six independent shell points.
    paired: three points, second block an exact permuted copy.
    perturbed: paired, then the second block jittered at alpha scale.
    clustered5: five directions inside one alpha cluster, one far away.
    """
    rng = keyed_rng(seed, "sextuple", kind, repr(scale.lam), replicate)
    if kind == "generic":
        pts = _shell_points(scale, rng, 6)
    elif kind == "paired":
        half = _shell_points(scale, rng, 3)
        perm = rng.permutation(3)
        pts = np.vstack([half, half[perm]])
    elif kind == "perturbed":
        # base drawn interior so the jitter cannot leave the shell
        half = _shell_points(scale, rng, 3, lo=0.6, hi=1.9)
        jitter = scale.alpha * scale.lam * rng.normal(size=(3, 3))
        pts = np.vstack([half, half + 0.3 * jitter])
    elif kind == "clustered5":
        base = _shell_points(scale, rng, 1)[0]
        radius = np.linalg.norm(base)
        near = clustered_dirs(rng, base / radius, 5, 0.2 * scale.alpha)[1:]
        pts = np.vstack([base, radius * near, _shell_points(scale, rng, 1)])
    else:
        raise ValueError(f"unknown sextuple kind {kind!r}")
    return Sextuple(scale=scale, xi=pts)


@dataclass(frozen=True)
class SeparationResult:
    subset: tuple[int, int, int, int] | None
    dense_pairs: int


def select_separated(dirs: np.ndarray, alpha: float) -> SeparationResult:
    """First 4-subset of six directions that is pairwise >= alpha separated."""
    d = np.asarray(dirs, dtype=float)
    if d.shape != (6, 3):
        raise ValueError("expected six 3-vectors")
    ang = {}
    for i, j in itertools.combinations(range(6), 2):
        ang[(i, j)] = float(angle_between(d[i], d[j]))
    dense = sum(1 for v in ang.values() if v < alpha)
    for sub in itertools.combinations(range(6), 4):
        if all(ang[(i, j)] >= alpha
               for i, j in itertools.combinations(sub, 2)):
            return SeparationResult(subset=sub, dense_pairs=dense)
    return SeparationResult(subset=None, dense_pairs=dense)

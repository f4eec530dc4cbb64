"""No BLAS or LAPACK call feeds a pinned number.

numpy hands ``np.linalg``, ``np.polyfit``, ``np.dot`` and a float ``@`` to
BLAS or LAPACK, whose rounding depends on the kernel OpenBLAS picks for the
host.  The goldens hold on every kernel only if none of them runs outside
the probe, whose complex GEMM is the one BLAS call left.
"""
import ast
from pathlib import Path

import decolab

SRC = Path(decolab.__file__).parent

#: the probe's GEMM, and the guard that holds it to one OpenBLAS thread
PROBE = {"decoupling_probe", "_one_blas_thread", "_OPENBLAS_NAMES"}
#: ``reach @ reach`` multiplies int32 matrices, which numpy does in its own
#: loop: BLAS takes only float and complex operands
INT_MATMUL = {"single_linkage_sizes"}
BANNED = {"linalg", "polyfit", "dot"}


def _top_names(node):
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    targets = getattr(node, "targets", [getattr(node, "target", None)])
    return {t.id for t in targets if isinstance(t, ast.Name)}


def _offenders(source, filename):
    for top in ast.parse(source).body:
        names = _top_names(top)
        if names & PROBE:
            continue
        for node in ast.walk(top):
            where = f"{filename}:{getattr(node, 'lineno', top.lineno)}"
            if (isinstance(node, ast.Attribute) and node.attr in BANNED
                    and isinstance(node.value, ast.Name)
                    and node.value.id in ("np", "numpy")):
                yield f"{where} np.{node.attr}"
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                mods = [a.name for a in node.names]
                if isinstance(node, ast.ImportFrom):
                    mods = [f"{node.module}.{m}" for m in mods]
                yield from (f"{where} import {m}" for m in mods
                            if m.startswith("numpy.")
                            and m.split(".")[1] in BANNED)
            elif (isinstance(node, (ast.BinOp, ast.AugAssign))
                  and isinstance(node.op, ast.MatMult)
                  and not names & INT_MATMUL):
                yield f"{where} @"


def test_no_blas_or_lapack_call_outside_the_probe():
    found = [hit for path in sorted(SRC.glob("*.py"))
             for hit in _offenders(path.read_text(), path.name)]
    assert found == []


def test_the_scan_sees_each_banned_form():
    source = "\n".join([
        "import numpy as np",
        "from numpy.linalg import det",
        "from numpy import polyfit",
        "A = np.linalg.norm(x)",
        "def f(a, b):",
        "    a @= b",
        "    return np.dot(a, b) + np.polyfit(a, b, 1)[0] + (a @ b)",
        "def single_linkage_sizes(r):",
        "    return r @ r",
        "def decoupling_probe(a, b):",
        "    return np.linalg.det(a @ b)",
    ])
    assert sorted(_offenders(source, "m.py")) == [
        "m.py:2 import numpy.linalg.det", "m.py:3 import numpy.polyfit",
        "m.py:4 np.linalg", "m.py:6 @", "m.py:7 @", "m.py:7 np.dot",
        "m.py:7 np.polyfit",
    ]

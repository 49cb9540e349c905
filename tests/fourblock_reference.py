"""The Matrix-based A0 = 0 lift and column flip, kept as the oracle of the
integer-row versions in ``steinitz.blockip``.

``lift_three_block`` and ``flip_for_kernel_work`` below are the library's
code from before a 4-block instance stored its blocks as int rows,
verbatim but for the imports.  They read the instance's Matrix views,
build every block as a Fraction ``Matrix`` and hand it to
``FourBlockInstance.make``.

``graver_enumerate`` is the library's Graver filter from before it tested
each kernel point against the kept minimal ones in l1 order: every point
against every other, verbatim but for the imports.
"""

from __future__ import annotations

from fractions import Fraction

from steinitz.blockip import FourBlockInstance, conformal_leq
from steinitz.linalg import ZERO, Matrix
from steinitz.lp import enum_integer_points


def lift_three_block(inst: FourBlockInstance) -> FourBlockInstance:
    """Equivalent instance with A0 = 0; kernel points (x, y) of the input
    biject with kernel points (x, (x, y^1), (0, y^2), ...) of the output."""
    if inst.A0.is_zero():
        return inst
    s0, s, t0, t, n = inst.s0, inst.s, inst.t0, inst.t, inst.n
    Id = Matrix.identity(t0)
    Zst = Matrix.zeros(t0, t)
    A2, B2, C2, b2, cy2, uy2 = [], [], [], list(inst.b[:s0]), [], []
    for i in range(n):
        corner = Matrix.from_rows(
            [[-x for x in Id.row(r)] for r in range(t0)]) if i == 0 else Id
        A2.append(Matrix.from_rows(
            [list(corner.row(r)) + list(Zst.row(r)) for r in range(t0)] +
            [[ZERO] * t0 + list(inst.A[i].row(r)) for r in range(s)]))
        B2.append(Matrix.from_rows(
            [list(Id.row(r)) if i == 0 else [ZERO] * t0 for r in range(t0)] +
            [list(inst.B[i].row(r)) for r in range(s)]))
        C2.append(Matrix.from_rows(
            [(list(inst.A0.row(r)) if i == 0 else [ZERO] * t0) + list(inst.C[i].row(r))
             for r in range(s0)]))
        b2.extend([ZERO] * t0)
        b2.extend(inst.b[s0 + i * s:s0 + (i + 1) * s])
        cy2.extend([ZERO] * t0)
        cy2.extend(inst.cy[i * t:(i + 1) * t])
        uy2.extend(inst.ux if i == 0 else [Fraction(0)] * t0)
        uy2.extend(inst.uy[i * t:(i + 1) * t])
    return FourBlockInstance.make(
        Matrix.zeros(s0, t0), B2, A2, C2, tuple(b2), inst.cx, tuple(cy2),
        inst.ux, tuple(uy2))


def flip_for_kernel_work(inst: FourBlockInstance, flips):
    """Instance with the flipped columns negated; bounds and objective are
    cleared since only kernel structure is used downstream."""
    t0, t, n = inst.t0, inst.t, inst.n

    def flip_cols(M, offs):
        rows = []
        for r in range(M.rows):
            rows.append([-x if flips[offs + c] else x for c, x in enumerate(M.row(r))])
        return Matrix.from_rows(rows)

    A0 = flip_cols(inst.A0, 0)
    B = [flip_cols(inst.B[i], 0) for i in range(n)]
    A = [flip_cols(inst.A[i], t0 + i * t) for i in range(n)]
    C = [flip_cols(inst.C[i], t0 + i * t) for i in range(n)]
    return FourBlockInstance.make(
        A0, B, A, C, (0,) * (inst.s0 + n * inst.s), (0,) * t0, (0,) * (n * t),
        (None,) * t0, (None,) * (n * t))


def graver_enumerate(inst: FourBlockInstance, box: int):
    """All conformally-minimal nonzero integer kernel vectors of H inside
    [-box, box]^{t0+nt}; the true Graver basis restricted to the box."""
    if box < 1:
        raise ValueError("box must be at least 1")
    rows, _ = inst.integer_system()
    dim = inst.x_dim + inst.y_dim
    kernel = list(enum_integer_points((-box,) * dim, (box,) * dim, predicate=any,
                                      system=(rows, (0,) * len(rows))))
    out = []
    for g in kernel:
        if not any(h != g and conformal_leq(h, g) for h in kernel):
            out.append(g)
    return out

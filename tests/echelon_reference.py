"""The Fraction Gauss-Jordan elimination that the fraction-free one
replaced, kept as the oracle of the differential tests.

``_pivot`` and ``_echelon`` are the library's pre-change code, verbatim;
``solve_linear``, ``null_space``, ``rank``, ``rank_of_vectors`` and ``det``
are the bodies that ran on them, verbatim but for the imports.
``tests/simplex_reference.py`` pivots its tableau with ``_pivot``, and the
block-basis reference in ``tests/test_integer_form.py`` runs ``_echelon``.
"""

from __future__ import annotations

from steinitz.linalg import ONE, ZERO, Matrix, Vec, rat


def _pivot(rows, r, c):
    """Scale row r to 1 on column c, then clear column c from every other row."""
    pr = rows[r]
    inv = ONE / pr[c]
    rows[r] = pr = [x * inv for x in pr]
    for i, row in enumerate(rows):
        f = row[c]
        if i != r and f != 0:
            rows[i] = [a - f * b for a, b in zip(row, pr)]


def _echelon(rows):
    """In-place Gauss-Jordan elimination to reduced row echelon form.

    Returns (pivot columns, product of the pivots with the sign flipped once
    per row swap); the product is det when the matrix is square of full rank.
    """
    pivots = []
    d = ONE
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            d = -d
        d *= rows[r][c]
        _pivot(rows, r, c)
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots, d


def solve_linear(M: Matrix, b: Vec):
    """Return some x with Mx = b, or None when the system is inconsistent."""
    if M.rows != len(b):
        raise ValueError("dimension mismatch: M.rows != len(b)")
    rows = [list(M.row(i)) + [rat(b[i])] for i in range(M.rows)]
    pivots, _ = _echelon(rows)
    # a pivot in the augmented column means 0 = 1
    if any(c == M.cols for c in pivots):
        return None
    x = [ZERO] * M.cols
    for r, c in enumerate(pivots):
        x[c] = rows[r][M.cols]
    return tuple(x)


def null_space(M: Matrix):
    """Basis of ker M as a list of vectors; empty iff full column rank."""
    rows = [list(M.row(i)) for i in range(M.rows)]
    pivots, _ = _echelon(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(M.cols):
        if free in pivot_set:
            continue
        v = [ZERO] * M.cols
        v[free] = ONE
        for r, c in enumerate(pivots):
            v[c] = -rows[r][free]
        basis.append(tuple(v))
    return basis


def rank(M: Matrix) -> int:
    rows = [list(M.row(i)) for i in range(M.rows)]
    return len(_echelon(rows)[0])


def rank_of_vectors(vectors) -> int:
    vectors = [v for v in vectors]
    if not vectors:
        return 0
    return rank(Matrix.from_rows(vectors))


def det(M: Matrix):
    """Determinant: the signed product of the pivots of one elimination."""
    if M.rows != M.cols:
        raise ValueError("determinant of a non-square matrix")
    pivots, d = _echelon([list(M.row(i)) for i in range(M.rows)])
    return d if len(pivots) == M.rows else ZERO

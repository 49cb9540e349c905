import random
import re
from fractions import Fraction as F
from pathlib import Path

import pytest

import echelon_reference as ref
from steinitz import linalg
from steinitz.linalg import (ONE, ZERO, Matrix, ceil_sqrt, det, lcm_abs_dets, null_space,
                             primitive_integer_vector, rank, rank_of_vectors, solve_linear,
                             span_coordinates)
from steinitz.norms import BlockMax, L1_NORM, LINF_NORM, norm_eval


def test_norm_examples():
    assert norm_eval(LINF_NORM, (F(3), F(-4))) == 4
    assert norm_eval(L1_NORM, (F(1, 2), F(-1, 2))) == 1
    assert norm_eval(BlockMax(LINF_NORM, 2), (F(1), F(0), F(0), F(-5))) == 5


def test_norm_dimension_mismatch():
    with pytest.raises(ValueError):
        norm_eval(BlockMax(LINF_NORM, 2), (F(1), F(0), F(0)))


def test_norm_axioms_random():
    rng = random.Random(7)
    for spec in (L1_NORM, LINF_NORM, BlockMax(L1_NORM, 2)):
        for _ in range(50):
            d = 4
            v = tuple(F(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(d))
            w = tuple(F(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(d))
            a = F(rng.randint(-6, 6), rng.randint(1, 5))
            assert norm_eval(spec, tuple(a * x for x in v)) == abs(a) * norm_eval(spec, v)
            lhs = norm_eval(spec, tuple(x + y for x, y in zip(v, w)))
            assert lhs <= norm_eval(spec, v) + norm_eval(spec, w)
            assert norm_eval(spec, v) >= 0
            assert (norm_eval(spec, v) == 0) == all(x == 0 for x in v)


def test_solve_linear_examples():
    assert solve_linear(Matrix.identity(2), (F(3), F(7))) == (3, 7)
    assert solve_linear(Matrix.from_rows([[1, 1], [1, -1]]), (F(2), F(0))) == (1, 1)
    assert solve_linear(Matrix.from_rows([[1], [1]]), (F(0), F(1))) is None


def test_solve_linear_roundtrip_random():
    rng = random.Random(3)
    for _ in range(40):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        M = Matrix.from_rows([[rng.randint(-4, 4) for _ in range(c)] for _ in range(r)])
        b = tuple(F(rng.randint(-5, 5)) for _ in range(r))
        x = solve_linear(M, b)
        if x is not None:
            assert M.mul_vec(x) == b


def test_null_space_examples():
    assert null_space(Matrix.identity(3)) == []
    basis = null_space(Matrix.from_rows([[1, -1]]))
    assert len(basis) == 1
    v = basis[0]
    assert v[0] == v[1] != 0
    assert len(null_space(Matrix.zeros(1, 2))) == 2


def test_null_space_properties_random():
    rng = random.Random(11)
    for _ in range(40):
        r, c = rng.randint(1, 3), rng.randint(1, 5)
        M = Matrix.from_rows([[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)])
        basis = null_space(M)
        for v in basis:
            assert all(x == 0 for x in M.mul_vec(v))
        assert len(basis) == c - rank(M)
        if basis:
            assert rank(Matrix.from_rows(basis)) == len(basis)


def test_lcm_abs_dets_examples():
    assert lcm_abs_dets([Matrix.from_rows([[2]])], 1) == 2
    assert lcm_abs_dets([Matrix.from_rows([[2, 3]])], 1) == 6
    assert lcm_abs_dets([Matrix.identity(2)], 2) == 1


def test_lcm_abs_dets_divisibility_and_hadamard():
    rng = random.Random(5)
    for _ in range(20):
        s = rng.randint(1, 2)
        cols = rng.randint(s, 4)
        delta = rng.randint(1, 3)
        mats = [Matrix.from_rows([[rng.randint(-delta, delta) for _ in range(cols)]
                                  for _ in range(s)]) for _ in range(2)]
        g = lcm_abs_dets(mats, s, entry_bound=delta)
        from itertools import combinations
        for M in mats:
            for sub in combinations(range(cols), s):
                d = det(M.column_submatrix(sub))
                if d != 0:
                    assert g % abs(int(d)) == 0


def test_ceil_sqrt():
    assert ceil_sqrt(0) == 0
    assert ceil_sqrt(1) == 1
    assert ceil_sqrt(2) == 2
    assert ceil_sqrt(4) == 2
    assert ceil_sqrt(8) == 3


def test_primitive_integer_vector():
    assert primitive_integer_vector((F(2, 3), F(4, 3))) == (1, 2)
    assert primitive_integer_vector((F(-6), F(9))) == (-2, 3)


# reference copies of the code that span_coordinates and det replaced


def _reference_span_coordinates(vectors):
    """Greedy basis by rank probes, then one solve per vector."""
    basis = []
    for v in vectors:
        if rank_of_vectors(basis + [v]) > len(basis):
            basis.append(v)
    if not basis:
        return 0, [()] * len(vectors)
    bmat = Matrix.from_rows(basis).transpose()
    return len(basis), [solve_linear(bmat, v) for v in vectors]


def _reference_det(M):
    """Forward elimination, one sign flip per row swap."""
    n = M.rows
    rows = [list(M.row(i)) for i in range(n)]
    d = ONE
    for c in range(n):
        pivot = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pivot is None:
            return ZERO
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            d = -d
        d *= rows[c][c]
        inv = ONE / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return d


def _rational(rng):
    return F(rng.randint(-6, 6), rng.randint(1, 4))


def _seeded_vector_sets():
    rng = random.Random(23)
    yield []
    yield [(F(0), F(0))]
    yield [(F(0), F(0), F(0)), (F(1), F(2), F(0)), (F(0), F(0), F(0)), (F(2), F(4), F(0))]
    yield [(F(1), F(-1)), (F(1), F(-1)), (F(0), F(3))]
    yield [(F(1),), (F(-1),)]
    for _ in range(120):
        dim, k = rng.randint(1, 4), rng.randint(1, 7)
        rank_cap = rng.randint(1, dim)
        # rank-deficient sets as combinations of rank_cap generators
        gens = [tuple(_rational(rng) for _ in range(dim)) for _ in range(rank_cap)]
        vectors = []
        for _ in range(k):
            pick = rng.random()
            if pick < 0.15:
                vectors.append((F(0),) * dim)
            elif pick < 0.3 and vectors:
                vectors.append(rng.choice(vectors))
            else:
                coef = [_rational(rng) for _ in gens]
                vectors.append(tuple(sum((c * g[i] for c, g in zip(coef, gens)), F(0))
                                     for i in range(dim)))
        yield vectors


def test_span_coordinates_matches_reference():
    for vectors in _seeded_vector_sets():
        r, coords = span_coordinates(vectors)
        assert (r, coords) == _reference_span_coordinates(vectors)
        assert r == rank_of_vectors(vectors)
        basis = []
        for v in vectors:
            if rank_of_vectors(basis + [v]) > len(basis):
                basis.append(v)
        for v, phi in zip(vectors, coords):
            assert all(sum((c * b[i] for c, b in zip(phi, basis)), F(0)) == x
                       for i, x in enumerate(v))


def _seeded_square_matrices():
    rng = random.Random(29)
    yield Matrix.zeros(0, 0)
    yield Matrix.from_rows([[0, 1], [1, 0]])
    yield Matrix.from_rows([[0, 2, 1], [0, 1, 3], [5, 1, 1]])
    yield Matrix.from_rows([[1, 2], [2, 4]])
    yield Matrix.from_rows([[0, 0], [0, 0]])
    for _ in range(200):
        n = rng.randint(1, 4)
        rows = [[_rational(rng) if rng.random() < 0.7 else F(0) for _ in range(n)]
                for _ in range(n)]
        if n > 1 and rng.random() < 0.3:
            rows[-1] = [a + b for a, b in zip(rows[0], rows[1 % n])]  # singular
        if rng.random() < 0.3:
            for row in rows:
                row[0] = F(0)  # singular: a zero column
        if rng.random() < 0.3:
            rows[0][0] = F(0)  # first pivot needs a row swap
        yield Matrix.from_rows(rows)


def test_det_matches_reference():
    seen_swap = seen_singular = False
    for M in _seeded_square_matrices():
        d = det(M)
        assert d == _reference_det(M)
        seen_singular |= M.rows > 0 and d == 0
        seen_swap |= M.rows > 1 and M.at(0, 0) == 0 and d != 0
    assert det(Matrix.zeros(0, 0)) == 1
    assert seen_swap and seen_singular


def _assert_matches_reference(M, rng):
    """rank, null_space, solve_linear (on a consistent and on a random
    right-hand side) and, for square M, det agree with the Fraction
    reference, value and type.  Returns whether the random side was
    inconsistent."""
    assert rank(M) == ref.rank(M)
    basis = null_space(M)
    assert basis == ref.null_space(M)
    assert all(type(x) is F for v in basis for x in v)
    x = tuple(_rational(rng) for _ in range(M.cols))
    inconsistent = False
    for b in (M.mul_vec(x), tuple(_rational(rng) for _ in range(M.rows))):
        got = solve_linear(M, b)
        assert got == ref.solve_linear(M, b)
        if got is None:
            inconsistent = True
        else:
            assert all(type(v) is F for v in got)
    if M.rows == M.cols:
        d = det(M)
        assert d == ref.det(M) and type(d) is F
    return inconsistent


def test_wrappers_match_fraction_reference():
    rng = random.Random(37)
    for M in _seeded_square_matrices():
        _assert_matches_reference(M, rng)
    for vectors in _seeded_vector_sets():
        assert rank_of_vectors(vectors) == ref.rank_of_vectors(vectors)
        if vectors:
            _assert_matches_reference(Matrix.from_rows(vectors), rng)
            _assert_matches_reference(Matrix.from_rows(vectors).transpose(), rng)
    fixed = [
        Matrix.zeros(0, 3), Matrix.zeros(3, 0), Matrix.zeros(0, 0), Matrix.zeros(2, 3),
        Matrix.from_rows([[1, 2, 3], [0, 0, 0], [2, 4, 7]]),          # a zero row
        Matrix.from_rows([[1, -1, 2], [1, -1, 2]]),                   # repeated rows
        Matrix.from_rows([[0, 0, 3], [0, 2, 1], [4, 1, 1], [0, 2, 1]]),  # first-pivot swap
    ]
    for M in fixed:
        _assert_matches_reference(M, rng)
    assert ref.solve_linear(fixed[5], (F(1), F(2))) is None
    assert solve_linear(fixed[5], (F(1), F(2))) is None
    # rectangular draws, with zero entries, repeated rows and a zero first column
    inconsistent = swaps = 0
    for _ in range(300):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[_rational(rng) if rng.random() < 0.6 else F(0) for _ in range(c)]
                for _ in range(r)]
        if r > 1 and rng.random() < 0.3:
            rows[-1] = list(rows[0])
        if rng.random() < 0.3:
            rows[0][0] = F(0)
        M = Matrix.from_rows(rows)
        inconsistent += _assert_matches_reference(M, rng)
        swaps += M.at(0, 0) == 0 and any(M.at(i, 0) != 0 for i in range(r))
    assert inconsistent >= 30 and swaps >= 30, (inconsistent, swaps)


@pytest.mark.parametrize("vectors", [[(F(1), F(0)), (F(0), F(1), F(5))],
                                     [(F(1), F(0), F(0)), (F(0), F(1))]])
def test_ragged_vectors_are_rejected_in_every_rank_and_span_path(vectors):
    for path in (rank_of_vectors, span_coordinates, linalg._integer_echelon):
        with pytest.raises(ValueError, match="ragged rows"):
            path(vectors)


def test_src_has_one_gauss_jordan_elimination():
    """The Fraction Gauss-Jordan ``_echelon`` and its row step ``_pivot``
    live only in tests/echelon_reference.py; ``_bareiss_echelon`` and the
    simplex's own ``_pivot`` method are not matches."""
    assert not hasattr(linalg, "_echelon") and not hasattr(linalg, "_pivot")
    files = sorted(Path(linalg.__file__).parent.rglob("*.py"))
    assert len(files) >= 10
    hits = [f"{path.name}:{n}" for path in files
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(r"\b_echelon\b", line)]
    assert hits == []

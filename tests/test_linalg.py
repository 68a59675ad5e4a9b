from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from weylalg.linalg import dense_kernel


def gauss_jordan_kernel(matrix):
    """Reference: nullspace by Gauss-Jordan elimination on Fractions."""
    if not matrix:
        return []
    nrows, ncols = len(matrix), len(matrix[0])
    m = [list(row) for row in matrix]
    pivot_row_of = {}
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        m[r] = [v / m[r][c] for v in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivot_row_of[c] = r
        r += 1
    kernel = []
    for free in range(ncols):
        if free in pivot_row_of:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for c, pr in pivot_row_of.items():
            vec[c] = -m[pr][free]
        kernel.append(vec)
    return kernel


_entries = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def matrices(draw):
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    # few distinct entries, so rank deficiency is common
    row = st.lists(st.one_of(st.just(Fraction(0)), _entries), min_size=ncols, max_size=ncols)
    return draw(st.lists(row, min_size=nrows, max_size=nrows))


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_dense_kernel_matches_gauss_jordan(matrix):
    assert dense_kernel(matrix) == gauss_jordan_kernel(matrix)


def test_dense_kernel_of_a_rank_one_matrix():
    half = Fraction(1, 2)
    assert dense_kernel([[half, 1], [1, 2]]) == [[-2, 1]]

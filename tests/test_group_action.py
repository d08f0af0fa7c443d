"""The kernels against the symmetry the paper argues with: a linear change
of variables.

For A in GL_3(Z) and (f o A)(x) = f(A x), the matrix of second partials of
f o A is A^T (D2 f o A) A, so

    Hess(f o A) = det(A)**2 * (Hess f) o A,

and the same holds for the polarization h3 and, through Jacobi's formula,
for trace(adj(D2 f) D2 g).  For g in the orthogonal group of
q = x0*x1 + x2**2, the Laplacian of q commutes with g, so the harmonic
decomposition of f o g is the list of the s o g.  Each relation is a
theorem that costs one substitution; the substitution is written here over
``forms.powers`` and ``dot``, and shares nothing with the kernels but form
arithmetic.  None of them compares a kernel with a second route.
"""

import random

import pytest

from hesskit.forms import Form, dot, powers, random_form
from hesskit.harmonic import QuadraticForm, harmonic_decompose
from hesskit.hessians import adjugate_second_partials, adjugate_trace, h3, hess

Q = QuadraticForm.canonical_hyperbolic(2)


def linear(row):
    """The linear form sum_j row[j] x_j in three variables."""
    return Form.from_coeffs(3, 1, {tuple(int(k == j) for k in range(3)): c
                                   for j, c in enumerate(row) if c})


def substitute(f: Form, a) -> Form:
    """f o A: each x_i replaced by the linear form sum_j A[i][j] x_j."""
    pw = [powers(linear(row), f.degree) for row in a]
    return dot(3, f.degree, [(c, pw[0][e[0]] * pw[1][e[1]], pw[2][e[2]])
                             for e, c in f.terms.items()])


def det3(a) -> int:
    return (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]))


def random_matrix(rng):
    """A random integer 3 x 3 matrix with entries in [-2, 2], det != 0."""
    while True:
        a = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
        if det3(a):
            return a


def cases(seed):
    """A random A and three random forms of one degree, 3 or 4."""
    rng = random.Random(f"group-action:{seed}")
    a = random_matrix(rng)
    d = rng.choice((3, 4))
    fs = [random_form(3, d, rng, coeff_bound=3) for _ in range(3)]
    return a, fs


@pytest.mark.parametrize("seed", range(4))
def test_hessian_is_equivariant(seed):
    a, (f, _, _) = cases(seed)
    assert hess(substitute(f, a)) == det3(a) ** 2 * substitute(hess(f), a)


@pytest.mark.parametrize("shared", [False, True], ids=["distinct", "g-is-h"])
@pytest.mark.parametrize("seed", range(3))
def test_h3_is_equivariant(seed, shared):
    a, (f, g, h) = cases(seed)
    if shared:
        h = g
    fa, ga = substitute(f, a), substitute(g, a)
    ha = ga if shared else substitute(h, a)
    assert h3(fa, ga, ha) == det3(a) ** 2 * substitute(h3(f, g, h), a)


@pytest.mark.parametrize("seed", range(3))
def test_jet_is_equivariant(seed):
    a, (f, g, _) = cases(seed)
    moved = adjugate_trace(adjugate_second_partials(substitute(f, a)),
                           substitute(g, a))
    assert moved == det3(a) ** 2 * substitute(
        adjugate_trace(adjugate_second_partials(f), g), a)


# Integer elements of O(x0*x1 + x2**2), as the matrices A of x -> A x: the
# swap x0 <-> x1, x2 -> -x2, and the unipotent x0 -> x0, x2 -> x2 + s x0,
# x1 -> x1 - 2s x2 - s**2 x0, which fixes l = x0.
ORTHOGONAL = {
    "swap": [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
    "reflection": [[1, 0, 0], [0, 1, 0], [0, 0, -1]],
    "unipotent-1": [[1, 0, 0], [-1, 1, -2], [1, 0, 1]],
    "unipotent-minus-2": [[1, 0, 0], [-4, 1, 4], [-2, 0, 1]],
}


def test_the_elements_fix_q():
    for g in ORTHOGONAL.values():
        assert substitute(Q.polynomial(), g) == Q.polynomial()


@pytest.mark.parametrize("name", sorted(ORTHOGONAL))
def test_laplacian_commutes_with_the_orthogonal_group(name):
    g = ORTHOGONAL[name]
    rng = random.Random(f"laplacian:{name}")
    for d in (2, 3, 4):
        f = random_form(3, d, rng, coeff_bound=3)
        assert Q.laplacian(substitute(f, g)) == substitute(Q.laplacian(f), g)


@pytest.mark.parametrize("name", sorted(ORTHOGONAL))
def test_harmonic_decomposition_commutes_with_the_orthogonal_group(name):
    g = ORTHOGONAL[name]
    rng = random.Random(f"harmonic:{name}")
    for d in (4, 5):
        f = random_form(3, d, rng, coeff_bound=3, density=0.5)
        assert harmonic_decompose(substitute(f, g), Q) == [
            substitute(s, g) for s in harmonic_decompose(f, Q)]

"""Lie-algebra cochain calculus with trivial coefficients, and the
rotation-algebra structure example: an exact-level check that the
invariant two-component 2-form built from a 2-frame is polysymplectic
with a non-involutive distinguished distribution.  The distribution is
left-invariant, so it is involutive iff its generators span a subalgebra,
which one rank test on the Lie bracket decides.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError
from .exterior import AlternatingForm, VectorValuedForm, evaluate, form, project
from .lagrangian import (check_polylagrangian, classify_vector_form, is_isotropic,
                         kernel_of_form)
from .linalg import Matrix, Subspace, ZERO, ONE, frac, rank


@dataclass(frozen=True, eq=False)
class LieAlgebra:
    """Structure constants c[a][b] = coefficients of [e_{a+1}, e_{b+1}]."""

    dim: int
    c: tuple  # c[a][b][k], all Fractions

    def __post_init__(self):
        n = self.dim
        for a in range(n):
            for b in range(n):
                for k in range(n):
                    if self.c[a][b][k] != -self.c[b][a][k]:
                        raise PreconditionError("structure constants are not antisymmetric")
        for a, b, d in itertools.product(range(n), repeat=3):
            acc = [ZERO] * n
            for pair in ((a, b, d), (b, d, a), (d, a, b)):
                inner = self.c[pair[0]][pair[1]]
                for m in range(n):
                    if inner[m]:
                        for k in range(n):
                            acc[k] += inner[m] * self.c[m][pair[2]][k]
            if any(acc):
                raise PreconditionError("structure constants violate the Jacobi identity")

    def bracket(self, x, y) -> list[Fraction]:
        out = [ZERO] * self.dim
        for a in range(self.dim):
            if not x[a]:
                continue
            for b in range(self.dim):
                if not y[b]:
                    continue
                coeff = frac(x[a]) * frac(y[b])
                for k in range(self.dim):
                    if self.c[a][b][k]:
                        out[k] += coeff * self.c[a][b][k]
        return out


def lie_algebra(dim: int, constants) -> LieAlgebra:
    c = tuple(tuple(tuple(frac(x) for x in row) for row in plane) for plane in constants)
    return LieAlgebra(dim, c)


def su2() -> LieAlgebra:
    """The rotation algebra: totally antisymmetric structure constants."""
    eps = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
           (1, 0, 2): -1, (2, 1, 0): -1, (0, 2, 1): -1}
    c = [[[frac(eps.get((a, b, k), 0)) for k in range(3)] for b in range(3)]
         for a in range(3)]
    return lie_algebra(3, c)


def chevalley_eilenberg_d(g: LieAlgebra, cochain: AlternatingForm) -> AlternatingForm:
    """Differential on cochains with trivial coefficients.

    Only the bracket term survives: (d a)(x_0,...,x_p) is the alternating
    sum of a([x_s, x_t], ...); nilpotency is exactly the Jacobi identity.
    """
    if cochain.dim != g.dim:
        raise PreconditionError("cochain does not live on the algebra")
    p = cochain.degree
    if p >= g.dim:
        return form(g.dim, p + 1, {})
    out = {}
    basis = [[ONE if i == j else ZERO for j in range(g.dim)] for i in range(g.dim)]
    for idx in itertools.combinations(range(1, g.dim + 1), p + 1):
        val = ZERO
        for s, t in itertools.combinations(range(p + 1), 2):
            br = g.bracket(basis[idx[s] - 1], basis[idx[t] - 1])
            rest = [basis[idx[u] - 1] for u in range(p + 1) if u not in (s, t)]
            term = evaluate(cochain, [br] + rest)
            if (s + t) % 2:
                val -= term
            else:
                val += term
        if val:
            out[idx] = val
    return form(g.dim, p + 1, out)


def invariant_two_forms(g: LieAlgebra) -> list[AlternatingForm]:
    """beta_a = half the structure-constant pairing on a pair of covectors."""
    out = []
    for a in range(g.dim):
        coeffs = {}
        for b, cidx in itertools.combinations(range(g.dim), 2):
            val = g.c[b][cidx][a]
            if val:
                coeffs[(b + 1, cidx + 1)] = val
        out.append(form(g.dim, 2, coeffs))
    return out


def frame_form(g: LieAlgebra, frame: Matrix) -> VectorValuedForm:
    """Value-space projection of the invariant 2-forms through a frame.

    ``frame`` maps the value plane into the algebra; its rows act as
    covectors on the plane, so component b collects frame[c][b] * beta_c.
    """
    if frame.rows != g.dim:
        raise PreconditionError("frame must map into the algebra")
    betas = VectorValuedForm(tuple(invariant_two_forms(g)))
    return VectorValuedForm(tuple(project(betas, frame.col(b)) for b in range(frame.cols)))


@dataclass
class Su2Report:
    omega: VectorValuedForm
    distribution: Subspace
    betas_closed: bool
    isotropic: bool
    polylagrangian: bool
    involutive: bool
    classification: str
    diagnostics: list[str]


def su2_example(frame: Matrix | None = None) -> Su2Report:
    """Build the rotation-algebra example and run all of its checks.

    Default frame: the plane spanned by the first two generators.  Any
    injective frame gives the same classification; a rank-deficient frame
    is rejected.
    """
    g = su2()
    if frame is None:
        frame = Matrix.from_rows([[1, 0], [0, 1], [0, 0]])
    if frame.rows != 3 or frame.cols != 2:
        raise PreconditionError("frame must map a plane into the algebra")
    if rank(frame) != 2:
        raise PreconditionError("frame is not injective")
    omega = frame_form(g, frame)
    cols = [frame.col(j) for j in range(2)]
    dist = Subspace.from_vectors(3, cols)
    betas = invariant_two_forms(g)
    betas_closed = all(chevalley_eilenberg_d(g, b).is_zero() for b in betas)
    isotropic = is_isotropic(dist, omega, 1)
    poly = check_polylagrangian(dist, omega)
    # left-invariant fields bracket as their generators do: involutive iff [d, d] lies in d
    invol = rank(Matrix.from_cols(cols + [g.bracket(*cols)])) == 2
    classification = classify_vector_form(omega).classification
    diagnostics = [
        f"kernel dimension {kernel_of_form(omega).dim}",
        f"distribution dimension {dist.dim}",
        "invariant 2-forms closed" if betas_closed else "invariant 2-forms NOT closed",
        "distribution involutive" if invol else "distribution not involutive",
    ]
    return Su2Report(omega, dist, betas_closed, isotropic, poly, invol,
                     classification, diagnostics)

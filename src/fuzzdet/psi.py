"""Everything about a psi relation: its matrix document, composition, the
left invariance check and the psi-glued construction, which checks psi and
composes psi ∘ delta_x once, on the construction's own _Run and codes.
detcli loads this module only when --psi names a file, and psi_d_automaton
only when it is given a psi matrix.
"""

from .algebra import DEFAULT_CAP, Carrier, FuzzyMatrix, _pairs, _same_lattice, _sup_product
from .automata import FuzzyAutomaton
from .determinize import DetOutcome, _Run
from .errors import (DimensionMismatch, FormatError, LatticeMismatch, PsiNotLeftInvariant,
                     PsiNotReflexive)
from .formats import _matrix, _tokenize
from .lattice import Lattice, Record


def parse_matrix(text: str, lattice: Lattice, n: int) -> FuzzyMatrix:
    """Parse a bare n x n matrix document (used for psi relations)."""
    lines = _tokenize(text)
    if len(lines) != n:
        raise FormatError(f"expected {n} rows, got {len(lines)}")
    return _matrix(lattice, lines, "row", {})


def _compose(c: Carrier, a_rows, b_rows) -> tuple:
    """Rows of the sup-product a ∘ b: each row of a against the columns of b."""
    cols = _pairs(c, zip(*b_rows))
    return tuple(_sup_product(c, cols, row) for row in a_rows)


def mat_compose(a: FuzzyMatrix, b: FuzzyMatrix) -> FuzzyMatrix:
    """Sup-multiplication product: (a∘b)[i][j] = join_k tmul(a[i][k], b[k][j])."""
    _same_lattice(a, b)
    if a.n_cols != b.n_rows:
        raise DimensionMismatch(f"cannot compose {a.n_cols} columns with {b.n_rows} rows")
    c = Carrier.identity(a.lattice)
    return FuzzyMatrix(a.lattice, _compose(c, a.entries, b.entries))


class InvarianceViolation(Record):
    """First failed left invariance inequality, for diagnostics.

    constraint is "sigma" or the offending symbol; position is (j,) for the
    initial inequality and (i, j) for a matrix one, which tells them apart,
    as a symbol may be named sigma.
    """

    __slots__ = ("constraint", "position", "lhs", "rhs")

    def __str__(self) -> str:
        spot = ",".join(str(p + 1) for p in self.position)
        if len(self.position) == 1:
            return (f"(sigma ∘ psi)[{spot}] = {self.lhs} exceeds sigma[{spot}] = {self.rhs}")
        return (f"(delta_{self.constraint} ∘ psi)[{spot}] = {self.lhs} exceeds "
                f"(psi ∘ delta_{self.constraint})[{spot}] = {self.rhs}")


def _psi_run(a: FuzzyAutomaton, psi: FuzzyMatrix, cap: int) -> tuple:
    """Check psi's shape, encode it on a's run and compose it with a, once:
    return the run, psi's rows, each psi ∘ delta_x's rows and the first failed
    left invariance inequality (sigma's, one row, then each delta_x's), or None."""
    if psi.lattice != a.lattice:
        raise LatticeMismatch("psi is in another lattice")
    if psi.n_rows != a.n or psi.n_cols != a.n:
        raise DimensionMismatch(f"psi is {psi.n_rows}x{psi.n_cols}, expected {a.n}x{a.n}")
    run = _Run(a, cap, (v for row in psi.entries for v in row))
    c = run.carrier
    p = tuple(map(c.codes, psi.entries))
    glued = [_compose(c, p, rows) for rows in run.delta]
    sides = [("sigma", _compose(c, [run.sigma], p), [run.sigma])]
    sides += zip(a.alphabet, (_compose(c, rows, p) for rows in run.delta), glued)
    for k, (constraint, left, right) in enumerate(sides):
        for i, (left_row, right_row) in enumerate(zip(left, right)):
            for j, (lhs, rhs) in enumerate(zip(left_row, right_row)):
                if lhs > rhs:
                    return run, p, glued, InvarianceViolation(
                        constraint, (i, j) if k else (j,), c.decode(lhs), c.decode(rhs))
    return run, p, glued, None


def check_left_invariant(a: FuzzyAutomaton, psi: FuzzyMatrix) -> InvarianceViolation | None:
    """Check sigma ∘ psi <= sigma and delta_x ∘ psi <= psi ∘ delta_x for all x.

    Returns the first violated coordinate, or None when psi is left
    invariant. Reflexivity is not required here. Runs on a's encoded values.
    """
    return _psi_run(a, psi, DEFAULT_CAP)[3]


def _psi_d_automaton(a: FuzzyAutomaton, psi: FuzzyMatrix, cap: int) -> DetOutcome:
    """determinize.psi_d_automaton for a psi matrix: check psi, then grow the
    glued reverse tree and run d_automaton's gather over it."""
    run, p, glued, violation = _psi_run(a, psi, cap)
    c = run.carrier
    for i, row in enumerate(p):
        if row[i] != c.top:
            raise PsiNotReflexive(f"psi[{i + 1},{i + 1}] = {psi.entries[i][i]}, expected top")
    if violation is not None:
        raise PsiNotLeftInvariant(str(violation))
    rn = run.sup_tree(_sup_product(c, _pairs(c, p), run.tau), glued, run.sigma, True)
    return run.forward(rn, True)

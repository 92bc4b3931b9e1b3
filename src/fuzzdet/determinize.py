"""Crisp determinization of fuzzy automata.

Every construction here grows the same kind of transition tree: start from a
root vector, expand each non-closed vertex by every alphabet symbol in
order, and close a child the moment its vector has been seen before,
pointing it at the earlier state. The glued tree is the cdfa. What varies is
the root, the child map, the terminal map, and whether the tracked word
grows on the right (forward constructions) or on the left (reverse ones).

Constructions:
  nerode           states sigma_u, children sigma_u ∘ delta_x
  reverse_nerode   states tau_u, children delta_x ∘ tau_u
  d_automaton      reverse Nerode first, then the inclusion-degree vectors
                   d_u; this one is minimal among equivalent cdfa
  brzozowski       reverse Nerode applied twice; the second reversal runs
                   over the first one's crisp table
  psi_d_automaton  d_automaton generalized by a reflexive, left invariant
                   fuzzy relation psi gluing the reverse tree

The d vectors are meets of implications: d_eps(a) = meet_mu mu(a) -> (sigma ∘ mu)
over the reverse Nerode states mu, and d_{ux}(a) = meet_mu mu(a) -> (d_u ∘ mu_x)
where mu_x is the glued x-child of mu in the reverse tree (d_epsilon, d_step).

The last three share one forward phase, an index gather over the reverse
table: with v_s a word of reverse state s, w_u[s] = d_u ∘ mu_s = L(u v_s), so
w_eps is the reverse terminal column, w_{ux}[s] = w_u[edge(s, x)] and
L(u) = w_u[0]. Words glue exactly when their d vectors do, and d_u is the
implication meet of the mu_s against w_u, recovered once per state.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence, Union

from .algebra import (
    FuzzyMatrix,
    FuzzyVector,
    SemiringClosure,
    ValueSet,
    dot,
    mat_compose,
    mat_vec,
    require_cap,
    semiring_closure,
    vec_mat,
)
from .automata import Cdfa, FuzzyAutomaton, StateLabel, Word
from .errors import (
    DimensionMismatch,
    LatticeMismatch,
    PsiNotLeftInvariant,
    PsiNotReflexive,
    UnknownSymbol,
)
from .lattice import Lattice, Value

DEFAULT_CAP = 10_000


@dataclass
class BuildStats:
    """Counters for one construction run; elapsed is wall seconds."""

    vertices: int = 0
    closure_checks: int = 0
    elapsed: float = 0.0


@dataclass(frozen=True)
class CapExceeded:
    """A construction needed more than cap distinct states and stopped."""

    states_built: int
    cap: int


@dataclass(frozen=True)
class DetOutcome:
    """Result of a determinization: a cdfa or a cap report, plus counters."""

    result: Union[Cdfa, CapExceeded]
    stats: BuildStats

    @property
    def ok(self) -> bool:
        return isinstance(self.result, Cdfa)

    @property
    def cdfa(self) -> Cdfa:
        if not isinstance(self.result, Cdfa):
            raise ValueError(
                f"construction stopped at its cap of {self.result.cap} states")
        return self.result


@dataclass
class TreeVertex:
    """One vertex of a transition tree.

    pointer is the 1-based state number the vertex is glued to; closed
    vertices repeat an earlier vector and get no children.
    """

    word: Word
    vector: FuzzyVector
    pointer: int
    closed: bool
    parent: int | None
    symbol: str | None


@dataclass
class TransitionTree:
    """Expanded transition tree together with its glued state table.

    state_* lists are indexed by pointer - 1; state_edges[s][i] is the glued
    target of state s under alphabet symbol i.
    """

    lattice: Lattice
    alphabet: tuple[str, ...]
    vertices: list[TreeVertex]
    state_vectors: list[FuzzyVector]
    state_terminals: list[Value]
    state_edges: list[list[int]]

    @property
    def n_states(self) -> int:
        return len(self.state_vectors)

    def vertex_by_word(self, word: Word) -> TreeVertex:
        for v in self.vertices:
            if v.word == word:
                return v
        raise KeyError(f"no tree vertex for word {word!r}")

    def canonical_words(self) -> list[Word]:
        """Shortlex-least word per state over all vertices glued to it.

        Reverse constructions create vertices in an order that is not
        shortlex (words grow on the left), so the minimum must be taken
        over every vertex sharing the pointer. Lexicographic ties break by
        declared alphabet order.
        """
        rank = {x: i for i, x in enumerate(self.alphabet)}
        best: list[tuple | None] = [None] * self.n_states
        words: list[Word] = [()] * self.n_states
        for v in self.vertices:
            key = (len(v.word), tuple(rank[x] for x in v.word))
            s = v.pointer - 1
            if best[s] is None or key < best[s]:
                best[s] = key
                words[s] = v.word
        return words

    def to_cdfa(self) -> Cdfa:
        words = self.canonical_words()
        labels = tuple(
            StateLabel(w, v) for w, v in zip(words, self.state_vectors))
        return Cdfa(
            lattice=self.lattice,
            alphabet=self.alphabet,
            transitions=tuple(tuple(row) for row in self.state_edges),
            initial=0,
            terminal=tuple(self.state_terminals),
            labels=labels,
        )


def _grow(lattice: Lattice,
          alphabet: tuple[str, ...],
          root: FuzzyVector,
          child: Callable[[FuzzyVector, str], FuzzyVector],
          terminal: Callable[[FuzzyVector], Value],
          cap: int,
          prepend: bool,
          stats: BuildStats) -> Union[TransitionTree, CapExceeded]:
    """Expand a transition tree breadth-first until every leaf is closed.

    Children are produced in alphabet order; a child whose vector already
    has a state is closed immediately and glued to it. Exceeds the cap the
    moment a (cap+1)-th distinct state would be created.
    """
    m = len(alphabet)
    vertices = [TreeVertex((), root, 1, False, None, None)]
    stats.vertices += 1
    index_of: dict[FuzzyVector, int] = {root: 0}
    state_vectors = [root]
    state_terminals = [terminal(root)]
    state_edges: list[list[int]] = [[-1] * m]
    frontier = deque([0])
    while frontier:
        vi = frontier.popleft()
        vertex = vertices[vi]
        s = vertex.pointer - 1
        for i, x in enumerate(alphabet):
            vec = child(vertex.vector, x)
            word = (x,) + vertex.word if prepend else vertex.word + (x,)
            stats.closure_checks += 1
            hit = index_of.get(vec)
            if hit is not None:
                vertices.append(TreeVertex(word, vec, hit + 1, True, vi, x))
                stats.vertices += 1
                state_edges[s][i] = hit
                continue
            if len(state_vectors) >= cap:
                return CapExceeded(states_built=len(state_vectors), cap=cap)
            t = len(state_vectors)
            index_of[vec] = t
            state_vectors.append(vec)
            state_terminals.append(terminal(vec))
            state_edges.append([-1] * m)
            vertices.append(TreeVertex(word, vec, t + 1, False, vi, x))
            stats.vertices += 1
            state_edges[s][i] = t
            frontier.append(len(vertices) - 1)
    return TransitionTree(lattice, alphabet, vertices,
                          state_vectors, state_terminals, state_edges)


# -- forward and reverse Nerode ------------------------------------------


def nerode(a: FuzzyAutomaton, cap: int = DEFAULT_CAP) -> DetOutcome:
    """Determinize through left derivative vectors sigma_u = sigma ∘ delta_u.

    Need not terminate for every automaton; the cap turns divergence into a
    CapExceeded outcome.
    """
    require_cap(cap, "state cap")
    stats = BuildStats()
    t0 = time.perf_counter()
    tree = _grow(a.lattice, a.alphabet, a.sigma,
                 lambda v, x: vec_mat(v, a.delta[x]),
                 lambda v: dot(v, a.tau),
                 cap, False, stats)
    stats.elapsed = time.perf_counter() - t0
    if isinstance(tree, CapExceeded):
        return DetOutcome(tree, stats)
    return DetOutcome(tree.to_cdfa(), stats)


def _reverse_nerode_tree(a: FuzzyAutomaton, cap: int, stats: BuildStats
                         ) -> Union[TransitionTree, CapExceeded]:
    return _grow(a.lattice, a.alphabet, a.tau,
                 lambda v, x: mat_vec(a.delta[x], v),
                 lambda v: dot(a.sigma, v),
                 cap, True, stats)


def reverse_nerode_tree(a: FuzzyAutomaton, cap: int = DEFAULT_CAP
                        ) -> Union[TransitionTree, CapExceeded]:
    """The reverse Nerode transition tree: states are the vectors tau_u.

    tau_eps is tau itself and tau_{xu} = delta_x ∘ tau_u, so words grow on
    the left while the tree grows downward.
    """
    require_cap(cap, "state cap")
    return _reverse_nerode_tree(a, cap, BuildStats())


def reverse_nerode(a: FuzzyAutomaton, cap: int = DEFAULT_CAP) -> DetOutcome:
    """Determinize through right derivative vectors, terminal sigma ∘ tau_u."""
    require_cap(cap, "state cap")
    stats = BuildStats()
    t0 = time.perf_counter()
    tree = _reverse_nerode_tree(a, cap, stats)
    stats.elapsed = time.perf_counter() - t0
    if isinstance(tree, CapExceeded):
        return DetOutcome(tree, stats)
    return DetOutcome(tree.to_cdfa(), stats)


# -- inclusion-degree construction ---------------------------------------


def _implication_meet(lattice: Lattice, n: int,
                      vectors: Sequence[FuzzyVector],
                      scalars: Sequence[Value]) -> FuzzyVector:
    """Componentwise meet_j (vectors[j][i] -> scalars[j])."""
    meet, resid = lattice.meet, lattice.resid
    bottom, top = lattice.bottom, lattice.top
    out = []
    for i in range(n):
        acc = top
        for mu, s in zip(vectors, scalars):
            acc = meet(acc, resid(mu.entries[i], s))
            if acc == bottom:
                break
        out.append(acc)
    return FuzzyVector(lattice, tuple(out))


def _check_rn_states(a: FuzzyAutomaton, rn_states: Sequence[FuzzyVector]) -> None:
    if not rn_states:
        raise DimensionMismatch("need at least one reverse Nerode state")
    for mu in rn_states:
        if mu.lattice != a.lattice:
            raise LatticeMismatch("reverse Nerode state in another lattice")
        if len(mu) != a.n:
            raise DimensionMismatch(
                f"reverse Nerode state of length {len(mu)}, expected {a.n}")


def d_epsilon(a: FuzzyAutomaton, rn_states: Sequence[FuzzyVector]) -> FuzzyVector:
    """Root vector of the inclusion-degree construction.

    d_eps(i) = meet over reverse Nerode states mu of mu(i) -> (sigma ∘ mu):
    the degree to which everything accepted from state i is in the language.
    """
    _check_rn_states(a, rn_states)
    scalars = [dot(a.sigma, mu) for mu in rn_states]
    return _implication_meet(a.lattice, a.n, rn_states, scalars)


def d_step(a: FuzzyAutomaton, d_u: FuzzyVector, x: str,
           rn_tree: TransitionTree) -> FuzzyVector:
    """Successor d_{ux} of d_u under symbol x.

    d_{ux}(i) = meet over reverse Nerode states mu of mu(i) -> (d_u ∘ mu_x),
    with mu_x the glued x-child of mu in rn_tree. The scalar d_u ∘ mu_x is
    cached per distinct child state.
    """
    if rn_tree.alphabet != a.alphabet:
        raise UnknownSymbol("reverse tree alphabet differs from the automaton's")
    try:
        xi = a.alphabet.index(x)
    except ValueError:
        raise UnknownSymbol(f"symbol {x!r} is not in the alphabet") from None
    if d_u.lattice != a.lattice:
        raise LatticeMismatch("d vector in another lattice")
    if len(d_u) != a.n:
        raise DimensionMismatch(f"d vector of length {len(d_u)}, expected {a.n}")
    _check_rn_states(a, rn_tree.state_vectors)
    cache: dict[int, Value] = {}
    scalars = []
    for s in range(rn_tree.n_states):
        t = rn_tree.state_edges[s][xi]
        if t not in cache:
            cache[t] = dot(d_u, rn_tree.state_vectors[t])
        scalars.append(cache[t])
    return _implication_meet(a.lattice, a.n, rn_tree.state_vectors, scalars)


def _forward(a: FuzzyAutomaton, rn: Union[TransitionTree, CapExceeded],
             cap: int, stats: BuildStats, t0: float, d_labels: bool) -> DetOutcome:
    """The index gather over a finished reverse tree rn, as a cdfa.

    w_eps is rn's terminal column, w_{ux}[s] = w_u[edge(s, x)] and the
    terminal degree is w_u[0]; words grow on the right. States are labelled
    by w, or with d_labels by the d vector recovered from w.
    """
    tree = rn
    if not isinstance(rn, CapExceeded):
        lat = rn.lattice
        column = {x: [row[i] for row in rn.state_edges]
                  for i, x in enumerate(rn.alphabet)}
        tree = _grow(lat, rn.alphabet, FuzzyVector(lat, tuple(rn.state_terminals)),
                     lambda w, x: FuzzyVector(lat, tuple([w.entries[t] for t in column[x]])),
                     lambda w: w.entries[0],
                     cap, False, stats)
    if isinstance(tree, CapExceeded):
        stats.elapsed = time.perf_counter() - t0
        return DetOutcome(tree, stats)
    if d_labels:  # the tree is ours alone: relabel its states before to_cdfa
        tree.state_vectors = [
            _implication_meet(a.lattice, a.n, rn.state_vectors, w.entries)
            for w in tree.state_vectors]
    stats.elapsed = time.perf_counter() - t0
    return DetOutcome(tree.to_cdfa(), stats)


def d_automaton(a: FuzzyAutomaton, cap: int = DEFAULT_CAP) -> DetOutcome:
    """Minimal cdfa for the language via inclusion-degree vectors.

    Phase one grows the reverse Nerode tree; phase two gathers over its
    table, and each state is labelled by its d vector: d_eps at the root,
    d_step(d_u, x) on the x-successor of d_u. Each phase respects the cap
    on its own state count. Terminates whenever the reverse phase does.
    """
    require_cap(cap, "state cap")
    stats = BuildStats()
    t0 = time.perf_counter()
    return _forward(a, _reverse_nerode_tree(a, cap, stats), cap, stats, t0, True)


# -- double reversal ------------------------------------------------------


def brzozowski(a: FuzzyAutomaton, cap: int = DEFAULT_CAP) -> DetOutcome:
    """Reverse-determinize twice; the second pass canonizes the first.

    Over the first pass's crisp table the second reverse Nerode pass is the
    gather d_automaton uses, so both share states and transitions; states
    are labelled by access words and the vectors w_u. Minimal, and
    terminates whenever reverse Nerode does.
    """
    require_cap(cap, "state cap")
    stats = BuildStats()
    t0 = time.perf_counter()
    return _forward(a, _reverse_nerode_tree(a, cap, stats), cap, stats, t0, False)


# -- psi-glued construction ----------------------------------------------


@dataclass(frozen=True)
class InvarianceViolation:
    """First failed left invariance inequality, for diagnostics.

    constraint is "sigma" or the offending symbol; position is (j,) for the
    initial inequality and (i, j) for a matrix one.
    """

    constraint: str
    position: tuple[int, ...]
    lhs: Value
    rhs: Value

    def __str__(self) -> str:
        spot = ",".join(str(p + 1) for p in self.position)
        if self.constraint == "sigma":
            return (f"(sigma ∘ psi)[{spot}] = {self.lhs} exceeds sigma[{spot}] = {self.rhs}")
        return (f"(delta_{self.constraint} ∘ psi)[{spot}] = {self.lhs} exceeds "
                f"(psi ∘ delta_{self.constraint})[{spot}] = {self.rhs}")


def check_left_invariant(a: FuzzyAutomaton, psi: FuzzyMatrix
                         ) -> InvarianceViolation | None:
    """Check sigma ∘ psi <= sigma and delta_x ∘ psi <= psi ∘ delta_x for all x.

    Returns the first violated coordinate, or None when psi is left
    invariant. Reflexivity is not required here.
    """
    _check_psi_shape(a, psi)
    sp = vec_mat(a.sigma, psi)
    for j in range(a.n):
        if not sp[j] <= a.sigma[j]:
            return InvarianceViolation("sigma", (j,), sp[j], a.sigma[j])
    for x in a.alphabet:
        left = mat_compose(a.delta[x], psi)
        right = mat_compose(psi, a.delta[x])
        for i in range(a.n):
            for j in range(a.n):
                if not left.entries[i][j] <= right.entries[i][j]:
                    return InvarianceViolation(
                        x, (i, j), left.entries[i][j], right.entries[i][j])
    return None


def _check_psi_shape(a: FuzzyAutomaton, psi: FuzzyMatrix) -> None:
    if psi.lattice != a.lattice:
        raise LatticeMismatch("psi is in another lattice")
    if psi.n_rows != a.n or psi.n_cols != a.n:
        raise DimensionMismatch(
            f"psi is {psi.n_rows}x{psi.n_cols}, expected {a.n}x{a.n}")


def psi_d_automaton(a: FuzzyAutomaton, psi: FuzzyMatrix | None = None,
                    cap: int = DEFAULT_CAP) -> DetOutcome:
    """Inclusion-degree construction over a psi-glued reverse tree.

    psi must be reflexive and left invariant; None means the identity
    relation, which is d_automaton exactly. The reverse phase grows
    vectors psi^eps = psi ∘ tau and psi^{xu} = psi ∘ delta_x ∘ psi^u; the
    forward phase is d_automaton's gather over that tree, with d labels. A
    coarser psi can only glue more, never change the language.
    """
    if psi is None:
        return d_automaton(a, cap)
    require_cap(cap, "state cap")
    _check_psi_shape(a, psi)
    top = a.lattice.top
    for i in range(a.n):
        if psi.entries[i][i] != top:
            raise PsiNotReflexive(f"psi[{i + 1},{i + 1}] = {psi.entries[i][i]}, expected top")
    violation = check_left_invariant(a, psi)
    if violation is not None:
        raise PsiNotLeftInvariant(str(violation))

    stats = BuildStats()
    t0 = time.perf_counter()
    glued = {x: mat_compose(psi, a.delta[x]) for x in a.alphabet}
    reverse_tree = _grow(a.lattice, a.alphabet, mat_vec(psi, a.tau),
                         lambda v, x: mat_vec(glued[x], v),
                         lambda v: dot(a.sigma, v),
                         cap, True, stats)
    return _forward(a, reverse_tree, cap, stats, t0, True)


# -- pre-flight bound ------------------------------------------------------


def automaton_values(a: FuzzyAutomaton) -> ValueSet:
    """Every membership degree appearing in sigma, tau or a transition matrix."""
    values = set(a.sigma.entries) | set(a.tau.entries)
    for m in a.delta.values():
        for row in m.entries:
            values.update(row)
    return ValueSet(a.lattice, frozenset(values))


@dataclass(frozen=True)
class PreflightReport:
    """Value subsemiring closure plus the k^n state bound it implies."""

    closure: SemiringClosure
    n: int

    @property
    def bound(self) -> int | None:
        """Upper bound k^n on derivative vectors, None when the closure capped."""
        if not self.closure.closed:
            return None
        return self.closure.k ** self.n


def preflight(a: FuzzyAutomaton, value_cap: int = DEFAULT_CAP) -> PreflightReport:
    """Close the automaton's values under join and tmul before determinizing.

    A closed set of k values bounds every derivative construction by k^n
    states and guarantees termination; a capped closure guarantees nothing
    either way. value_cap must be at least 1.
    """
    closure = semiring_closure(a.lattice, automaton_values(a), value_cap)
    return PreflightReport(closure, a.n)

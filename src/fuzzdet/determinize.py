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

Every construction runs on a Carrier (see algebra): the values that enter
it, psi's included, encoded once, so that its vectors are tuples of bare
codes (ints on every lattice but a Goguen automaton with a value strictly
inside (0, 1)) and its tmul and resid are bound for that automaton.
Decoding happens at one boundary, the TransitionTree: to_cdfa decodes the
cdfa's terminals and label vectors, and state_vectors and state_terminals
decode the tree's states. d_epsilon and d_step stay on the public algebra
of lattice values, as the reference the gather is tested against.
"""

from __future__ import annotations

import time
from collections import deque
from functools import cached_property
from operator import itemgetter
from typing import Callable, Iterable, Sequence, Union

from .algebra import (
    Carrier,
    FuzzyMatrix,
    FuzzyVector,
    SemiringClosure,
    ValueSet,
    _compose,
    _pairs,
    _residual_meet,
    _sup_product,
    dot,
    mat_compose,
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
from .lattice import Lattice, Record, Value, _set

DEFAULT_CAP = 10_000


class BuildStats(Record, frozen=False):
    """Counters for one construction run; elapsed is wall seconds."""

    __slots__ = ("vertices", "closure_checks", "elapsed")

    def __init__(self, vertices: int = 0, closure_checks: int = 0, elapsed: float = 0.0):
        self.vertices = vertices
        self.closure_checks = closure_checks
        self.elapsed = elapsed


class CapExceeded(Record):
    """A construction needed more than cap distinct states and stopped."""

    __slots__ = ("states_built", "cap")

    def __init__(self, states_built: int, cap: int):
        _set(self, "states_built", states_built)
        _set(self, "cap", cap)


class DetOutcome(Record):
    """Result of a determinization: a cdfa or a cap report, plus counters."""

    __slots__ = ("result", "stats")

    def __init__(self, result: Union[Cdfa, CapExceeded], stats: BuildStats):
        _set(self, "result", result)
        _set(self, "stats", stats)

    @property
    def ok(self) -> bool:
        return isinstance(self.result, Cdfa)

    @property
    def cdfa(self) -> Cdfa:
        if not isinstance(self.result, Cdfa):
            raise ValueError(
                f"construction stopped at its cap of {self.result.cap} states")
        return self.result


class TreeVertex(Record, frozen=False):
    """One vertex of a transition tree.

    pointer is the 1-based state number the vertex is glued to, and its
    vector is that state's; closed vertices repeat an earlier vector and
    get no children.
    """

    __slots__ = ("word", "pointer", "closed", "parent", "symbol")

    def __init__(self, word: Word, pointer: int, closed: bool, parent: int | None,
                 symbol: str | None):
        self.word = word
        self.pointer = pointer
        self.closed = closed
        self.parent = parent
        self.symbol = symbol


class TransitionTree(Record, frozen=False):
    """Expanded transition tree together with its glued state table.

    codes and terminal_codes hold each state's vector and terminal degree
    in the carrier's encoding; state_vectors and state_terminals decode
    them. The state lists are indexed by pointer - 1; state_edges[s][i] is
    the glued target of state s under alphabet symbol i. No __slots__: the
    cached properties live in its __dict__.
    """

    _fields = ("carrier", "alphabet", "vertices", "codes", "terminal_codes", "state_edges")

    def __init__(self, carrier: Carrier, alphabet: tuple[str, ...],
                 vertices: list[TreeVertex], codes: list[tuple], terminal_codes: list,
                 state_edges: list[list[int]]):
        self.carrier = carrier
        self.alphabet = alphabet
        self.vertices = vertices
        self.codes = codes
        self.terminal_codes = terminal_codes
        self.state_edges = state_edges

    @property
    def lattice(self) -> Lattice:
        return self.carrier.lattice

    @property
    def n_states(self) -> int:
        return len(self.codes)

    @cached_property
    def state_vectors(self) -> list[FuzzyVector]:
        return [self._decoded(v) for v in self.codes]

    @cached_property
    def state_terminals(self) -> list[Value]:
        return list(self.carrier.values(self.terminal_codes))

    def _decoded(self, codes: tuple) -> FuzzyVector:
        return FuzzyVector(self.carrier.lattice, self.carrier.values(codes))

    def vertex_by_word(self, word: Word) -> TreeVertex:
        for v in self.vertices:
            if v.word == word:
                return v
        raise KeyError(f"no tree vertex for word {word!r}")

    def canonical_words(self) -> list[Word]:
        """Shortlex-least word per state over all vertices glued to it.

        Reverse constructions create vertices in an order that is not
        shortlex (words grow on the left), so the minimum must be taken
        over every vertex sharing the pointer. Vertices are listed
        breadth-first, so word lengths never decrease along the list and
        only a word as long as the best so far can beat it. Lexicographic
        ties break by declared alphabet order.
        """
        rank = {x: i for i, x in enumerate(self.alphabet)}
        words: list[Word | None] = [None] * self.n_states
        for v in self.vertices:
            s = v.pointer - 1
            best = words[s]
            if best is None or (len(v.word) == len(best) and
                                [rank[x] for x in v.word] < [rank[x] for x in best]):
                words[s] = v.word
        return words

    def to_cdfa(self, labels: Sequence[tuple] | None = None) -> Cdfa:
        """The glued table as a cdfa, decoded: the one place codes become values.

        labels are the states' label vectors as codes, the state vectors
        by default.
        """
        words = self.canonical_words()
        vectors = self.codes if labels is None else labels
        return Cdfa(
            lattice=self.lattice,
            alphabet=self.alphabet,
            transitions=tuple(tuple(row) for row in self.state_edges),
            initial=0,
            terminal=self.carrier.values(self.terminal_codes),
            labels=tuple(StateLabel(w, self._decoded(v)) for w, v in zip(words, vectors)),
        )


def _grow(carrier: Carrier,
          alphabet: tuple[str, ...],
          root: tuple,
          child: Callable[[tuple, int], tuple],
          terminal: Callable[[tuple], object],
          cap: int,
          prepend: bool,
          stats: BuildStats) -> Union[TransitionTree, CapExceeded]:
    """Expand a transition tree breadth-first until every leaf is closed.

    Vectors are tuples of carrier codes; child(v, i) is v's child under
    alphabet symbol i. Children are produced in alphabet order; a child
    whose vector already has a state is closed immediately and glued to
    it. Exceeds the cap the moment a (cap+1)-th distinct state would be
    created.
    """
    m = len(alphabet)
    vertices = [TreeVertex((), 1, False, None, None)]
    stats.vertices += 1
    index_of: dict[tuple, int] = {root: 0}
    codes = [root]
    terminals = [terminal(root)]
    edges: list[list[int]] = [[-1] * m]
    frontier = deque([0])
    while frontier:
        vi = frontier.popleft()
        vertex = vertices[vi]
        s = vertex.pointer - 1
        vec = codes[s]
        for i, x in enumerate(alphabet):
            v = child(vec, i)
            word = (x,) + vertex.word if prepend else vertex.word + (x,)
            stats.closure_checks += 1
            hit = index_of.get(v)
            if hit is not None:
                vertices.append(TreeVertex(word, hit + 1, True, vi, x))
                stats.vertices += 1
                edges[s][i] = hit
                continue
            if len(codes) >= cap:
                return CapExceeded(states_built=len(codes), cap=cap)
            t = len(codes)
            index_of[v] = t
            codes.append(v)
            terminals.append(terminal(v))
            edges.append([-1] * m)
            vertices.append(TreeVertex(word, t + 1, False, vi, x))
            stats.vertices += 1
            edges[s][i] = t
            frontier.append(len(vertices) - 1)
    return TransitionTree(carrier, alphabet, vertices, codes, terminals, edges)


class _Encoded:
    """An automaton on its carrier: sigma, tau and the rows of each delta_x as codes.

    delta is indexed by alphabet position.
    """

    def __init__(self, a: FuzzyAutomaton, extra: Iterable[Value] = ()):
        """Encode a, on a carrier built from its values and the extra ones."""
        c = self.carrier = Carrier.of(a.lattice, automaton_values(a).elements.union(extra))
        self.alphabet = a.alphabet
        self.sigma = c.codes(a.sigma)
        self.tau = c.codes(a.tau)
        self.delta = [tuple(map(c.codes, a.delta[x].entries)) for x in a.alphabet]


# -- forward and reverse Nerode ------------------------------------------


def nerode(a: FuzzyAutomaton, cap: int = DEFAULT_CAP) -> DetOutcome:
    """Determinize through left derivative vectors sigma_u = sigma ∘ delta_u.

    Need not terminate for every automaton; the cap turns divergence into a
    CapExceeded outcome.
    """
    require_cap(cap, "state cap")
    stats = BuildStats()
    t0 = time.perf_counter()
    e = _Encoded(a)
    c = e.carrier
    columns = [_pairs(c, zip(*rows)) for rows in e.delta]
    tau = _pairs(c, (e.tau,))
    tree = _grow(c, e.alphabet, e.sigma,
                 lambda v, i: _sup_product(c, columns[i], v),
                 lambda v: _sup_product(c, tau, v)[0],
                 cap, False, stats)
    stats.elapsed = time.perf_counter() - t0
    if isinstance(tree, CapExceeded):
        return DetOutcome(tree, stats)
    return DetOutcome(tree.to_cdfa(), stats)


def _reverse_tree(e: _Encoded, root: tuple, matrices: Sequence[tuple[tuple, ...]],
                  cap: int, stats: BuildStats) -> Union[TransitionTree, CapExceeded]:
    """Grow v_eps = root and v_{xu} = matrices[x] ∘ v_u, terminal sigma ∘ v."""
    c = e.carrier
    rows = [_pairs(c, m) for m in matrices]
    sigma = _pairs(c, (e.sigma,))
    return _grow(c, e.alphabet, root,
                 lambda v, i: _sup_product(c, rows[i], v),
                 lambda v: _sup_product(c, sigma, v)[0],
                 cap, True, stats)


def reverse_nerode_tree(a: FuzzyAutomaton, cap: int = DEFAULT_CAP
                        ) -> Union[TransitionTree, CapExceeded]:
    """The reverse Nerode transition tree: states are the vectors tau_u.

    tau_eps is tau itself and tau_{xu} = delta_x ∘ tau_u, so words grow on
    the left while the tree grows downward.
    """
    require_cap(cap, "state cap")
    e = _Encoded(a)
    return _reverse_tree(e, e.tau, e.delta, cap, BuildStats())


def reverse_nerode(a: FuzzyAutomaton, cap: int = DEFAULT_CAP) -> DetOutcome:
    """Determinize through right derivative vectors, terminal sigma ∘ tau_u."""
    require_cap(cap, "state cap")
    stats = BuildStats()
    t0 = time.perf_counter()
    e = _Encoded(a)
    tree = _reverse_tree(e, e.tau, e.delta, cap, stats)
    stats.elapsed = time.perf_counter() - t0
    if isinstance(tree, CapExceeded):
        return DetOutcome(tree, stats)
    return DetOutcome(tree.to_cdfa(), stats)


# -- inclusion-degree construction ---------------------------------------


def _implication_meet(lattice: Lattice, vectors: Sequence[FuzzyVector],
                      scalars: Sequence[Value]) -> FuzzyVector:
    """Componentwise meet_j (vectors[j][i] -> scalars[j])."""
    columns = _pairs(lattice, zip(*(mu.entries for mu in vectors)))
    return FuzzyVector(lattice, _residual_meet(lattice, columns, scalars))


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
    return _implication_meet(a.lattice, rn_states, scalars)


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
    rn_states = rn_tree.state_vectors
    _check_rn_states(a, rn_states)
    cache: dict[int, Value] = {}
    scalars = []
    for s in range(rn_tree.n_states):
        t = rn_tree.state_edges[s][xi]
        if t not in cache:
            cache[t] = dot(d_u, rn_states[t])
        scalars.append(cache[t])
    return _implication_meet(a.lattice, rn_states, scalars)


def _gather(rn: TransitionTree) -> Callable[[tuple, int], tuple]:
    """child(w, i) = (w[edge(s, i)] for each reverse state s), by one itemgetter."""
    if rn.n_states == 1:  # itemgetter of one index returns the item, not a tuple
        return lambda w, i: w
    pick = [itemgetter(*(row[i] for row in rn.state_edges))
            for i in range(len(rn.alphabet))]
    return lambda w, i: pick[i](w)


def _forward(e: _Encoded, rn: Union[TransitionTree, CapExceeded],
             cap: int, stats: BuildStats, t0: float, d_labels: bool) -> DetOutcome:
    """The index gather over a finished reverse tree rn, as a cdfa.

    w_eps is rn's terminal column, w_{ux}[s] = w_u[edge(s, x)] and the
    terminal degree is w_u[0]; words grow on the right. States are labelled
    by w, or with d_labels by the d vector recovered from w: the implication
    meet of the reverse states' columns against w.
    """
    tree = rn
    if not isinstance(rn, CapExceeded):
        tree = _grow(e.carrier, e.alphabet, tuple(rn.terminal_codes), _gather(rn),
                     itemgetter(0), cap, False, stats)
    if isinstance(tree, CapExceeded):
        stats.elapsed = time.perf_counter() - t0
        return DetOutcome(tree, stats)
    labels = None
    if d_labels:
        columns = _pairs(e.carrier, zip(*rn.codes))
        labels = [_residual_meet(e.carrier, columns, w) for w in tree.codes]
    stats.elapsed = time.perf_counter() - t0
    return DetOutcome(tree.to_cdfa(labels), stats)


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
    e = _Encoded(a)
    rn = _reverse_tree(e, e.tau, e.delta, cap, stats)
    return _forward(e, rn, cap, stats, t0, True)


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
    e = _Encoded(a)
    rn = _reverse_tree(e, e.tau, e.delta, cap, stats)
    return _forward(e, rn, cap, stats, t0, False)


# -- psi-glued construction ----------------------------------------------


class InvarianceViolation(Record):
    """First failed left invariance inequality, for diagnostics.

    constraint is "sigma" or the offending symbol; position is (j,) for the
    initial inequality and (i, j) for a matrix one.
    """

    __slots__ = ("constraint", "position", "lhs", "rhs")

    def __init__(self, constraint: str, position: tuple[int, ...], lhs: Value, rhs: Value):
        _set(self, "constraint", constraint)
        _set(self, "position", position)
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)

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
    e = _Encoded(a, (v for row in psi.entries for v in row))
    c = e.carrier
    p = tuple(map(c.codes, psi.entries))
    rn = _reverse_tree(e, _sup_product(c, _pairs(c, p), e.tau),
                       [_compose(c, p, rows) for rows in e.delta], cap, stats)
    return _forward(e, rn, cap, stats, t0, True)


# -- pre-flight bound ------------------------------------------------------


def automaton_values(a: FuzzyAutomaton) -> ValueSet:
    """Every membership degree appearing in sigma, tau or a transition matrix."""
    values = set(a.sigma.entries) | set(a.tau.entries)
    for m in a.delta.values():
        for row in m.entries:
            values.update(row)
    return ValueSet(a.lattice, frozenset(values))


class PreflightReport(Record):
    """Value subsemiring closure plus the k^n state bound it implies."""

    __slots__ = ("closure", "n")

    def __init__(self, closure: SemiringClosure, n: int):
        _set(self, "closure", closure)
        _set(self, "n", n)

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

"""Crisp determinization of fuzzy automata.

A crisp-deterministic fuzzy automaton (Cdfa) has a crisp transition table,
fuzzy terminal degrees, and a canonical word and a vector for each state,
and find_witness compares two. Only det and equiv load this module.

Every construction here grows the same kind of transition tree: start from a
root vector, expand each state by every alphabet symbol in order, and glue
a child to an earlier state the moment its vector repeats that state's.
The glued tree is the cdfa. What varies is the root, the child map, the
terminal map, and whether words grow on the right (forward constructions)
or on the left (reverse ones).

A tree is kept as its glued state table, which fixes it: each state has
one open vertex, open vertices are expanded in the order their states were
made, children in alphabet order. A state keeps its vector, its terminal
degree, its edge row and the number of the edge that made it, but no word.
One _Run carries a construction: cap, clock, counters, encoded automaton.

Constructions:
  nerode           states sigma_u, children sigma_u ∘ delta_x
  reverse_nerode   states tau_u, children delta_x ∘ tau_u
  d_automaton      reverse Nerode first, then the inclusion-degree vectors
                   d_u; this one is minimal among equivalent cdfa
  brzozowski       reverse Nerode applied twice; the second reversal runs
                   over the first one's crisp table
  psi_d_automaton  d_automaton generalized by a reflexive, left invariant
                   fuzzy relation psi gluing the reverse tree; given a psi
                   matrix, it runs fuzzdet.psi, which holds all psi code

The d vectors are meets of implications: d_eps(a) = meet_mu mu(a) -> (sigma ∘ mu)
over the reverse Nerode states mu, and d_{ux}(a) = meet_mu mu(a) -> (d_u ∘ mu_x)
where mu_x is the glued x-child of mu in the reverse tree.

The last three share one forward phase, an index gather over the reverse
table: with v_s a word of reverse state s, w_u[s] = d_u ∘ mu_s = L(u v_s), so
w_eps is the reverse terminal column, w_{ux}[s] = w_u[edge(s, x)] and
L(u) = w_u[0]. Words glue exactly when their d vectors do, and d_u is the
implication meet of the mu_s against w_u, recovered once per state.

Every construction runs on a Carrier (see algebra and closure.carrier_of):
the values that enter it encoded once, so that its vectors are tuples of
bare codes (ints on every lattice but Goguen) and its tmul and resid are
bound for that automaton. Decoding happens at one boundary, the
TransitionTree's state_vectors and state_terminals, which to_cdfa reads.
"""

import time
from collections import deque
from collections.abc import Callable, Iterable, Sequence
from functools import cached_property
from operator import itemgetter

from .algebra import (DEFAULT_CAP, Carrier, FuzzyMatrix, FuzzyVector, _pairs, _residual_meet,
                      _sup_product)
from .automata import FuzzyAutomaton, Word, check_alphabet
from .closure import automaton_values, carrier_of, require_cap
from .errors import AlphabetMismatch, DimensionMismatch, LatticeMismatch, UnknownSymbol
from .lattice import Lattice, Record, Value


# -- crisp-deterministic automata -----------------------------------------


class Cdfa(Record):
    """Crisp-deterministic fuzzy automaton.

    transitions[state][symbol_index] is the successor state; terminal[state]
    is the degree returned after reading a word that lands there. words[state]
    is the state's canonical access word and vectors[state] the FuzzyVector
    that defines it: sigma_u for nerode, tau_u for reverse_nerode, d_u for
    d_automaton and psi_d_automaton, w_u for brzozowski. Every state must be
    reachable from initial. Equality, hash and repr cover exactly these seven
    fields.
    """

    __slots__ = ("lattice", "alphabet", "transitions", "initial", "terminal", "words",
                 "vectors")

    def __init__(self, lattice: Lattice, alphabet: tuple[str, ...],
                 transitions: tuple[tuple[int, ...], ...], initial: int,
                 terminal: tuple[Value, ...], words: tuple[Word, ...],
                 vectors: tuple[FuzzyVector, ...]):
        alphabet = check_alphabet(alphabet)
        n = len(transitions)
        if n < 1:
            raise ValueError("a cdfa needs at least one state")
        m = len(alphabet)
        for row in transitions:
            if len(row) != m:
                raise DimensionMismatch(f"transition row of width {len(row)}, expected {m}")
            for t in row:
                if not 0 <= t < n:
                    raise ValueError(f"transition target {t} out of range")
        if not 0 <= initial < n:
            raise ValueError(f"initial state {initial} out of range")
        if len(terminal) != n:
            raise DimensionMismatch(f"{len(terminal)} terminal degrees for {n} states")
        lattice.check_all(terminal)
        for name, table in (("words", words), ("vectors", vectors)):
            if len(table) != n:
                raise DimensionMismatch(f"{len(table)} {name} for {n} states")
        reached = {initial}
        frontier = deque([initial])
        while frontier:
            s = frontier.popleft()
            for t in transitions[s]:
                if t not in reached:
                    reached.add(t)
                    frontier.append(t)
        if len(reached) != n:
            missing = sorted(set(range(n)) - reached)
            raise ValueError(f"unreachable states: {missing}")
        super().__init__(lattice, alphabet, transitions, initial, terminal, words, vectors)

    @property
    def n(self) -> int:
        return len(self.transitions)

    def step(self, state: int, symbol: str) -> int:
        if symbol not in self.alphabet:
            raise UnknownSymbol(f"symbol {symbol!r} is not in the alphabet")
        return self.transitions[state][self.alphabet.index(symbol)]


def find_witness(c1: Cdfa, c2: Cdfa) -> Word | None:
    """Shortest word on which the two cdfa disagree, None when equivalent.

    Breadth-first product search; ties inside one length break toward the
    earlier alphabet symbol, so the witness is shortlex-least. Callers must
    compare against None, the empty word is a valid witness.
    """
    if c1.lattice != c2.lattice:
        raise LatticeMismatch("cannot compare cdfa over different lattices")
    if c1.alphabet != c2.alphabet:
        raise AlphabetMismatch(f"alphabets differ: {c1.alphabet} vs {c2.alphabet}")
    start = (c1.initial, c2.initial)
    if c1.terminal[c1.initial] != c2.terminal[c2.initial]:
        return ()
    seen = {start}
    queue: deque[tuple[tuple[int, int], Word]] = deque([(start, ())])
    while queue:
        (s1, s2), word = queue.popleft()
        for i, x in enumerate(c1.alphabet):
            pair = (c1.transitions[s1][i], c2.transitions[s2][i])
            if pair in seen:
                continue
            extended = word + (x,)
            if c1.terminal[pair[0]] != c2.terminal[pair[1]]:
                return extended
            seen.add(pair)
            queue.append((pair, extended))
    return None


class BuildStats(Record):
    """Counters for one construction run; elapsed is wall seconds."""

    __slots__ = ("vertices", "closure_checks", "elapsed")


class CapExceeded(Record):
    """A construction needed more than cap distinct states and stopped."""

    __slots__ = ("states_built", "cap")


class DetOutcome(Record):
    """Result of a determinization: a cdfa or a cap report, plus counters."""

    __slots__ = ("result", "stats")

    @property
    def ok(self) -> bool:
        return isinstance(self.result, Cdfa)

    @property
    def cdfa(self) -> Cdfa:
        if not isinstance(self.result, Cdfa):
            raise ValueError(f"construction stopped at its cap of {self.result.cap} states")
        return self.result


class TransitionTree:
    """A transition tree as its glued state table; vertices lists the tree.

    State lists are indexed by pointer - 1. codes and terminal_codes hold
    each state's vector and terminal degree in the carrier's encoding, and
    state_vectors and state_terminals decode them. state_edges[s][i] is s's
    glued target under alphabet symbol i, and makers[t - 1] = s * |alphabet|
    + i names the edge that made state t. Words grow on the left when
    prepend. A plain object, equal only to itself, as its Carrier is:
    compare two trees by their state_vectors or their to_cdfa().
    """

    def __init__(self, carrier: Carrier, alphabet: tuple[str, ...], codes: list[tuple],
                 terminal_codes: list, state_edges: list[tuple[int, ...]], makers: list[int],
                 prepend: bool):
        self.carrier = carrier
        self.alphabet = alphabet
        self.codes = codes
        self.terminal_codes = terminal_codes
        self.state_edges = state_edges
        self.makers = makers
        self.prepend = prepend

    @property
    def n_states(self) -> int:
        return len(self.codes)

    @cached_property
    def vertices(self) -> "list[TreeVertex]":
        """The tree's vertices, which no construction reads: reference.tree_vertices."""
        from .reference import tree_vertices
        return tree_vertices(self)

    @cached_property
    def state_vectors(self) -> list[FuzzyVector]:
        return [self._decoded(v) for v in self.codes]

    @cached_property
    def state_terminals(self) -> list[Value]:
        return list(self.carrier.values(self.terminal_codes))

    def _decoded(self, codes: tuple) -> FuzzyVector:
        return FuzzyVector(self.carrier.lattice, self.carrier.values(codes))

    def canonical_words(self) -> list[Word]:
        """Shortlex-least word per state over all vertices glued to it.

        made[t] is made[s] grown by x for the edge s -> t under x that made t,
        and grown on the right it is least. Grown on the left, a later edge
        s -> t offers (x,) + made[s], never shorter: ties compete, in alphabet order.
        """
        symbols = [(x,) for x in self.alphabet]
        m = len(symbols)
        made: list[Word] = [()]
        for e in self.makers:
            u, x = made[e // m], symbols[e % m]
            made.append(x + u if self.prepend else u + x)
        if not self.prepend:
            return made
        rank = {x: i for i, x in enumerate(self.alphabet)}
        least = list(made)
        for u, row in zip(made, self.state_edges):
            for x, t in zip(self.alphabet, row):
                if len(u) + 1 == len(made[t]):
                    least[t] = min(least[t], (x,) + u, key=lambda w: [rank[y] for y in w])
        return least

    def to_cdfa(self, vectors: Sequence[tuple] | None = None) -> Cdfa:
        """The glued table as a cdfa, with state_terminals and state_vectors.

        vectors are the cdfa's state vectors as codes, state_vectors by default.
        """
        return Cdfa(self.carrier.lattice, self.alphabet, tuple(self.state_edges), 0,
                    tuple(self.state_terminals), tuple(self.canonical_words()),
                    tuple(self.state_vectors if vectors is None else map(self._decoded, vectors)))


class _Run:
    """One construction: cap, clock, counters, and the automaton as codes.

    The automaton's values and the extra ones make the Carrier; delta
    holds the rows of each delta_x by alphabet position.
    """

    def __init__(self, a: FuzzyAutomaton, cap: int, extra: Iterable[Value] = ()):
        require_cap(cap, "state cap")
        self.cap = cap
        self.vertices = self.checks = 0
        self.t0 = time.perf_counter()
        c = self.carrier = carrier_of(a.lattice, automaton_values(a).elements.union(extra))
        self.alphabet = a.alphabet
        self.sigma = c.codes(a.sigma)
        self.tau = c.codes(a.tau)
        self.delta = [tuple(map(c.codes, a.delta[x].entries)) for x in a.alphabet]

    def grow(self, root: tuple, child: Callable[[tuple, int], tuple],
             terminal: Callable[[tuple], object], prepend: bool = False
             ) -> TransitionTree | CapExceeded:
        """Expand a transition tree breadth-first until every leaf is closed.

        Vectors are tuples of carrier codes; child(v, i) is v's child under
        alphabet symbol i. Exceeds the cap the moment a (cap+1)-th distinct
        state would be created. Each child is one closure check, and each
        vertex made, the root included, one vertex.
        """
        m, cap = len(self.alphabet), self.cap
        index_of = {root: 0}
        codes = [root]
        terminals = [terminal(root)]
        edges: list[tuple[int, ...]] = []
        makers: list[int] = []  # the edge s * m + i that made each state but the root
        for s, vec in enumerate(codes):
            row = []
            for i in range(m):
                v = child(vec, i)
                t = index_of.get(v)
                if t is None:
                    t = len(codes)
                    if t >= cap:
                        self.checks += s * m + i + 1
                        self.vertices += s * m + i + 1
                        return CapExceeded(states_built=t, cap=cap)
                    index_of[v] = t
                    codes.append(v)
                    terminals.append(terminal(v))
                    makers.append(s * m + i)
                row.append(t)
            edges.append(tuple(row))
        self.checks += len(codes) * m
        self.vertices += len(codes) * m + 1
        return TransitionTree(self.carrier, self.alphabet, codes, terminals, edges, makers, prepend)

    def sup_tree(self, root: tuple, matrices: Iterable[Iterable[tuple]], terminal: tuple,
                 prepend: bool) -> TransitionTree | CapExceeded:
        """Grow from root, with x-child matrices[x] ∘ v and terminal degree terminal ∘ v.

        Each matrix is given as its rows. nerode passes the columns of the
        delta_x, and tau; the reverse trees pass the delta_x (psi-glued for
        psi_d_automaton), and sigma, and grow words on the left.
        """
        c = self.carrier
        rows = [_pairs(c, m) for m in matrices]
        terminal_row = _pairs(c, (terminal,))
        return self.grow(root, lambda v, i: _sup_product(c, rows[i], v),
                         lambda v: _sup_product(c, terminal_row, v)[0], prepend)

    def forward(self, rn: TransitionTree | CapExceeded, d_vectors: bool) -> DetOutcome:
        """The index gather over a finished reverse tree rn, as the outcome.

        w_eps is rn's terminal column, w_{ux}[s] = w_u[edge(s, x)] and the
        terminal degree is w_u[0]; words grow on the right. The state
        vectors are the w, or with d_vectors the d vectors recovered from
        w: the implication meet of the reverse states' columns against w.
        """
        if isinstance(rn, CapExceeded):
            return self.done(rn)
        pick = [itemgetter(*(row[i] for row in rn.state_edges))
                for i in range(len(self.alphabet))]
        # itemgetter of one index returns the item, not a tuple
        child = (lambda w, i: w) if rn.n_states == 1 else (lambda w, i: pick[i](w))
        tree = self.grow(tuple(rn.terminal_codes), child, itemgetter(0))
        if isinstance(tree, CapExceeded) or not d_vectors:
            return self.done(tree)
        columns = _pairs(self.carrier, zip(*rn.codes))
        return self.done(tree, [_residual_meet(self.carrier, columns, w) for w in tree.codes])

    def done(self, tree: TransitionTree | CapExceeded,
             vectors: Sequence[tuple] | None = None) -> DetOutcome:
        """Stop the clock, then decode tree with its state vectors, or report its cap."""
        stats = BuildStats(self.vertices, self.checks, time.perf_counter() - self.t0)
        return DetOutcome(tree if isinstance(tree, CapExceeded) else tree.to_cdfa(vectors), stats)


# -- forward and reverse Nerode ------------------------------------------


def nerode(a: FuzzyAutomaton, cap: int = DEFAULT_CAP) -> DetOutcome:
    """Determinize through left derivative vectors sigma_u = sigma ∘ delta_u.

    Need not terminate for every automaton; the cap turns divergence into a
    CapExceeded outcome.
    """
    run = _Run(a, cap)
    return run.done(run.sup_tree(run.sigma, [zip(*rows) for rows in run.delta], run.tau, False))


def reverse_nerode(a: FuzzyAutomaton, cap: int = DEFAULT_CAP) -> DetOutcome:
    """Determinize through right derivative vectors, terminal sigma ∘ tau_u."""
    run = _Run(a, cap)
    return run.done(run.sup_tree(run.tau, run.delta, run.sigma, True))


# -- inclusion-degree construction ---------------------------------------


def d_automaton(a: FuzzyAutomaton, cap: int = DEFAULT_CAP) -> DetOutcome:
    """Minimal cdfa for the language via inclusion-degree vectors.

    Phase one grows the reverse Nerode tree; phase two gathers over its
    table, and each state's vector is its d vector: d_eps at the root,
    d_step(d_u, x) on the x-successor of d_u. Each phase respects the cap
    on its own state count. Terminates whenever the reverse phase does.
    """
    run = _Run(a, cap)
    return run.forward(run.sup_tree(run.tau, run.delta, run.sigma, True), True)


# -- double reversal ------------------------------------------------------


def brzozowski(a: FuzzyAutomaton, cap: int = DEFAULT_CAP) -> DetOutcome:
    """Reverse-determinize twice; the second pass canonizes the first.

    Over the first pass's crisp table the second reverse Nerode pass is the
    gather d_automaton uses, so both share states and transitions; the
    state vectors are the w_u. Minimal, and terminates whenever reverse
    Nerode does.
    """
    run = _Run(a, cap)
    return run.forward(run.sup_tree(run.tau, run.delta, run.sigma, True), False)


# -- psi-glued construction ----------------------------------------------


def psi_d_automaton(a: FuzzyAutomaton, psi: FuzzyMatrix | None = None,
                    cap: int = DEFAULT_CAP) -> DetOutcome:
    """Inclusion-degree construction over a psi-glued reverse tree.

    psi must be reflexive and left invariant; None means the identity
    relation, which is d_automaton exactly. The reverse phase grows
    vectors psi^eps = psi ∘ tau and psi^{xu} = psi ∘ delta_x ∘ psi^u; the
    forward phase is d_automaton's gather over that tree, with d vectors. A
    coarser psi can only glue more, never change the language.
    """
    if psi is None:
        return d_automaton(a, cap)
    from .psi import _psi_d_automaton
    return _psi_d_automaton(a, psi, cap)

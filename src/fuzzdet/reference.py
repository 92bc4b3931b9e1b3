"""Reference code that no command line call runs.

The package exports every public name here, and no command imports this
module, so `python -m fuzzdet` compiles none of it:
  - the algebra on lattice values that the constructions do not use:
    identity_matrix, mat_vec and inclusion_degree;
  - the d vectors from their definitions, d_epsilon and d_step, the
    reference the inclusion-degree gather is tested against;
  - the reverse Nerode tree on its own, reverse_nerode_tree, and a
    transition tree's vertex list, TreeVertex and tree_vertices, which
    TransitionTree.vertices returns;
  - automaton transforms and comparisons: reverse, right_language_step,
    cdfa_evaluate, cdfa_equivalent and cdfa_as_fuzzy_automaton;
  - the writers of a FuzzyAutomaton: serialize_automaton, and the DOT
    form that detcli.export_dot renders for one.
"""

from __future__ import annotations

from collections.abc import Sequence

from .algebra import (
    DEFAULT_CAP,
    Carrier,
    FuzzyMatrix,
    FuzzyVector,
    _pairs,
    _residual_meet,
    _same_lattice,
    _sup_product,
    dot,
)
from .automata import FuzzyAutomaton
from .errors import DimensionMismatch, LatticeMismatch, UnknownSymbol
from .formats import _quote
from .lattice import Lattice, Record, Value


# -- algebra ---------------------------------------------------------------


def identity_matrix(lattice: Lattice, n: int) -> FuzzyMatrix:
    """Crisp identity: top on the diagonal, bottom elsewhere."""
    if n < 1:
        raise DimensionMismatch("identity needs n >= 1")
    top, bottom = lattice.top, lattice.bottom
    return FuzzyMatrix(
        lattice,
        tuple(tuple(top if i == j else bottom for j in range(n)) for i in range(n)))


def mat_vec(m: FuzzyMatrix, g: FuzzyVector) -> FuzzyVector:
    """Matrix times column vector under sup-multiplication."""
    _same_lattice(m, g)
    if m.n_cols != len(g):
        raise DimensionMismatch(f"{m.n_cols} columns against vector of length {len(g)}")
    c = Carrier.identity(m.lattice)
    return FuzzyVector(m.lattice, _sup_product(c, _pairs(c, m.entries), g.entries))


def inclusion_degree(f: FuzzyVector, g: FuzzyVector) -> Value:
    """Degree to which f is contained in g: meet_i resid(f[i], g[i]).

    Equals top exactly when f <= g pointwise.
    """
    _same_lattice(f, g)
    if len(f) != len(g):
        raise DimensionMismatch(f"inclusion of lengths {len(f)} and {len(g)}")
    c = Carrier.identity(f.lattice)
    return _residual_meet(c, _pairs(c, (f.entries,)), g.entries)[0]


# -- the inclusion-degree vectors ------------------------------------------


def _implication_meet(lattice: Lattice, vectors: Sequence[FuzzyVector],
                      scalars: Sequence[Value]) -> FuzzyVector:
    """Componentwise meet_j (vectors[j][i] -> scalars[j])."""
    c = Carrier.identity(lattice)
    columns = _pairs(c, zip(*(mu.entries for mu in vectors)))
    return FuzzyVector(lattice, _residual_meet(c, columns, scalars))


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


# -- the transition tree, and its vertices ----------------------------------


def reverse_nerode_tree(a: FuzzyAutomaton, cap: int = DEFAULT_CAP
                        ) -> TransitionTree | CapExceeded:
    """The reverse Nerode transition tree: states are the vectors tau_u.

    tau_eps is tau itself and tau_{xu} = delta_x ∘ tau_u, so words grow on
    the left while the tree grows downward.
    """
    # imported here, so that importing this module loads no construction
    from .determinize import _Run
    run = _Run(a, cap)
    return run.sup_tree(run.tau, run.delta, run.sigma, True)


class TreeVertex(Record):
    """One vertex of a transition tree, as TransitionTree.vertices lists it.

    pointer is the 1-based state number the vertex is glued to, and its
    vector is that state's; closed vertices repeat an earlier vector and
    get no children. parent is the parent vertex's index in the list and
    symbol labels the edge from it; both are None at the root.
    """

    __slots__ = ("word", "pointer", "closed", "parent", "symbol")


def tree_vertices(tree: TransitionTree) -> list[TreeVertex]:
    """The root, then each state's children in alphabet order.

    A child is open iff it made its state, that is iff it has its
    word; a state's children hang off the vertex that made it.
    """
    vertices = [TreeVertex((), 1, False, None, None)]
    made = [0]
    for s, row in enumerate(tree.state_edges):
        u = tree.words[s]
        for x, t in zip(tree.alphabet, row):
            word = (x,) + u if tree.prepend else u + (x,)
            closed = word != tree.words[t]
            if not closed:
                made.append(len(vertices))
            vertices.append(TreeVertex(word, t + 1, closed, made[s], x))
    return vertices


# -- automata --------------------------------------------------------------


def reverse(a: FuzzyAutomaton) -> FuzzyAutomaton:
    """Mirror image: swap sigma with tau and transpose every matrix.

    The reverse accepts each reversed word with the original degree.
    """
    delta = {x: m.transpose() for x, m in a.delta.items()}
    return FuzzyAutomaton(a.lattice, a.alphabet, a.tau, delta, a.sigma)


def right_language_step(a: FuzzyAutomaton, symbol: str, t: FuzzyVector) -> FuzzyVector:
    """One backward step: from tau_u to tau_{symbol u} = delta_symbol ∘ tau_u."""
    return mat_vec(a.matrix(symbol), t)


def cdfa_evaluate(c: Cdfa, word: Sequence[str]) -> Value:
    """Run the deterministic table and read off the terminal degree."""
    state = c.initial
    for x in word:
        state = c.step(state, x)
    return c.terminal[state]


def cdfa_equivalent(c1: Cdfa, c2: Cdfa) -> bool:
    """True when the two cdfa assign every word the same degree."""
    # imported here, so that importing this module loads no construction
    from .determinize import find_witness
    return find_witness(c1, c2) is None


def cdfa_as_fuzzy_automaton(c: Cdfa) -> FuzzyAutomaton:
    """Embed a cdfa as a fuzzy automaton with crisp initial set and transitions.

    State words and vectors are dropped; only the language matters to callers.
    """
    lat = c.lattice
    top, bottom = lat.top, lat.bottom
    n = c.n
    sigma = FuzzyVector(lat, tuple(top if i == c.initial else bottom for i in range(n)))
    delta = {}
    for xi, x in enumerate(c.alphabet):
        rows = []
        for s in range(n):
            target = c.transitions[s][xi]
            rows.append(tuple(top if j == target else bottom for j in range(n)))
        delta[x] = FuzzyMatrix(lat, tuple(rows))
    tau = FuzzyVector(lat, c.terminal)
    return FuzzyAutomaton(lat, c.alphabet, sigma, delta, tau)


# -- writers ---------------------------------------------------------------


def serialize_automaton(a: FuzzyAutomaton) -> str:
    """Canonical document for an automaton; parse(serialize(a)) == a."""
    fmt = a.lattice.format_value
    lines = [
        f"lattice {a.lattice.describe()}",
        "alphabet " + " ".join(a.alphabet),
        f"states {a.n}",
        "initial " + " ".join(fmt(v) for v in a.sigma),
        "terminal " + " ".join(fmt(v) for v in a.tau),
    ]
    for x in a.alphabet:
        lines.append(f"transitions {x}")
        for row in a.delta[x].entries:
            lines.append(" ".join(fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _merged_label(pairs: list[tuple[str, Value]], lattice: Lattice) -> str:
    """Edge label merging parallel edges: 'x/0.5, y/1', or 'x,y' when boolean."""
    if lattice.kind == "boolean":
        return ",".join(x for x, _ in pairs)
    return ", ".join(f"{x}/{lattice.format_value(v)}" for x, v in pairs)


def _automaton_dot(a: FuzzyAutomaton) -> str:
    """export_dot of a fuzzy automaton.

    One node per state, transition edges labelled 'symbol/degree' with
    zero edges omitted and parallel edges merged; initial and terminal
    degrees hang off point-shaped marker nodes. The boolean lattice drops
    the degrees: plain symbol labels, unlabelled initial arrows,
    doublecircle terminal states.
    """
    lat = a.lattice
    boolean = lat.kind == "boolean"
    fmt = lat.format_value
    bottom = lat.bottom
    out = ["digraph fuzzy_automaton {", "  rankdir=LR;"]
    for i in range(a.n):
        shape = "doublecircle" if boolean and a.tau[i] != bottom else "circle"
        out.append(f"  q{i + 1} [shape={shape}, label={_quote(f'q{i + 1}')}];")
    for i in range(a.n):
        if a.sigma[i] == bottom:
            continue
        out.append(f'  __init{i + 1} [shape=point, label=""];')
        if boolean:
            out.append(f"  __init{i + 1} -> q{i + 1};")
        else:
            out.append(f"  __init{i + 1} -> q{i + 1} [label={_quote(fmt(a.sigma[i]))}];")
    for i in range(a.n):
        grouped: dict[int, list[tuple[str, Value]]] = {}
        for x in a.alphabet:
            for j, v in enumerate(a.delta[x].entries[i]):
                if v != bottom:
                    grouped.setdefault(j, []).append((x, v))
        for j, pairs in grouped.items():
            label = _merged_label(pairs, lat)
            out.append(f"  q{i + 1} -> q{j + 1} [label={_quote(label)}];")
    if not boolean:
        for i in range(a.n):
            if a.tau[i] == bottom:
                continue
            out.append(f'  __fin{i + 1} [shape=point, label=""];')
            out.append(f"  q{i + 1} -> __fin{i + 1} [label={_quote(fmt(a.tau[i]))}];")
    out.append("}")
    return "\n".join(out) + "\n"

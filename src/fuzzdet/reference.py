"""Reference code that no command line call runs.

The package exports every public name here, and no command imports this
module, so `python -m fuzzdet` compiles none of it:
  - the algebra on lattice values that the constructions do not use:
    mat_vec and inclusion_degree, on the identity Carrier's two loops;
  - the reverse Nerode tree on its own, reverse_nerode_tree, and a
    transition tree's vertex list, TreeVertex and tree_vertices, which
    TransitionTree.vertices returns;
  - cdfa_evaluate, a cdfa's table run on one word;
  - the writers of a FuzzyAutomaton: serialize_automaton, and the DOT
    form that detcli.export_dot renders for one;
  - record_repr, the repr of every record, which Record.__repr__ calls.

The slow constructions the tests check the library against (the d
vectors from their definitions, reversal, a cdfa as a fuzzy automaton)
live in the tests' support module, not here.
"""

from collections.abc import Sequence
from fractions import Fraction

from .algebra import DEFAULT_CAP, FuzzyMatrix, FuzzyVector, _carrier
from .automata import FuzzyAutomaton, symbols
from .errors import DimensionMismatch
from .formats import _quote
from .lattice import Lattice, Record, Value, _write


# -- algebra ---------------------------------------------------------------


def mat_vec(m: FuzzyMatrix, g: FuzzyVector) -> FuzzyVector:
    """Matrix times column vector under sup-multiplication."""
    c = _carrier(m, g)
    if m.n_cols != len(g):
        raise DimensionMismatch(f"{m.n_cols} columns against vector of length {len(g)}")
    return FuzzyVector._derived(m.lattice, c.product(m.entries)(g.entries))


def inclusion_degree(f: FuzzyVector, g: FuzzyVector) -> Value:
    """Degree to which f is contained in g: meet_i resid(f[i], g[i]).

    Equals top exactly when f <= g pointwise.
    """
    c = _carrier(f, g)
    if len(f) != len(g):
        raise DimensionMismatch(f"inclusion of lengths {len(f)} and {len(g)}")
    return c.implication((f.entries,))(g.entries)[0]


# -- the transition tree, and its vertices ----------------------------------


def reverse_nerode_tree(a: FuzzyAutomaton, cap: int = DEFAULT_CAP
                        ) -> "TransitionTree | CapExceeded":
    """The reverse Nerode transition tree: states are the vectors tau_u.

    tau_eps is tau itself and tau_{xu} = delta_x ∘ tau_u, so words grow on
    the left while the tree grows downward.
    """
    # imported here, so that importing this module loads no construction
    from .determinize import _Run
    return _Run(a, cap).reverse()


class TreeVertex(Record):
    """One vertex of a transition tree, as TransitionTree.vertices lists it.

    pointer is the 1-based state number the vertex is glued to, and its
    vector is that state's; closed vertices repeat an earlier vector and
    get no children. parent is the parent vertex's index in the list and
    symbol labels the edge from it; both are None at the root.
    """

    __slots__ = ("word", "pointer", "closed", "parent", "symbol")


def tree_vertices(tree: "TransitionTree") -> list[TreeVertex]:
    """The root, then each state's children in alphabet order.

    States are numbered as they were made, so a child is open iff it
    points at the next new state; a state's children hang off the vertex
    that made it, and extend that vertex's word.
    """
    vertices = [TreeVertex((), 1, False, None, None)]
    made = [0]
    for s, row in enumerate(tree.state_edges):
        u = vertices[made[s]].word
        for x, t in zip(tree.alphabet, row):
            word = (x,) + u if tree.prepend else u + (x,)
            closed = t != len(made)
            if not closed:
                made.append(len(vertices))
            vertices.append(TreeVertex(word, t + 1, closed, made[s], x))
    return vertices


# -- automata --------------------------------------------------------------


def cdfa_evaluate(c: "Cdfa", word: Sequence[str]) -> Value:
    """Run the deterministic table and read off the terminal degree."""
    state = c.initial
    for x in symbols(word):
        state = c.step(state, x)
    return c.terminal[state]


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


# -- reprs -----------------------------------------------------------------


def record_repr(record: Record) -> str:
    """The repr of every record, with every number in it written by _write,
    so at any length. A vector or matrix shows its lattice and its entries
    as documents write them, <vector godel [0.5 1 1/3]> or <matrix chain 4
    [1 2; 0 4]>; any other record is Class(field=value, ...), each field as
    repr writes it."""
    if isinstance(record, FuzzyVector):
        entries = " ".join(map(record.lattice.format_value, record.entries))
        return f"<vector {record.lattice.describe()} [{entries}]>"
    if isinstance(record, FuzzyMatrix):
        rows = "; ".join(" ".join(map(record.lattice.format_value, row)) for row in record.entries)
        return f"<matrix {record.lattice.describe()} [{rows}]>"
    body = ", ".join(f"{f}={_field_repr(getattr(record, f))}" for f in record._fields)
    return f"{type(record).__qualname__}({body})"


def _field_repr(v) -> str:
    """repr(v), but each int and Fraction in v, also inside a tuple or a
    frozenset, written by _write."""
    if type(v) is tuple:
        items = ", ".join(map(_field_repr, v))
        return f"({items},)" if len(v) == 1 else f"({items})"
    if type(v) is frozenset:
        return f"frozenset({{{', '.join(map(_field_repr, v))}}})" if v else "frozenset()"
    if type(v) is Fraction:
        return f"Fraction({_write(v.numerator)}, {_write(v.denominator)})"
    return _write(v)

"""Twisted cohomology of the spine of a punctured surface, exactly.

The punctured genus-g surface deformation retracts onto a wedge of
2g + k - 1 circles.  A rank-1 real local system assigns a sign to each loop;
the deformation count needs the system that is -1 around every puncture.  The
spine is subdivided (one midpoint vertex per loop) so that the twisted
cochain complex is the incidence matrix of a connected signed graph.  Over
the rationals that matrix has rank V - 1 when the graph is balanced (every
cycle has sign +1) and rank V otherwise (Zaslavsky, Signed graphs, 1982), so
the dimensions are exact integers by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(eq=False)
class TwistedSurfaceComplex:
    """Subdivided spine of a genus-gamma surface with k punctures.

    Loop generators are a_1, b_1, ..., a_gamma, b_gamma, c_1, ..., c_{k-1};
    the k-th puncture loop is the word that trivializes the surface relation,
    so its monodromy is determined by the others.  Each loop is split into
    two edges through a midpoint vertex; ``edge_signs`` holds the parallel
    transport of the second half-edge, which equals the loop monodromy.
    """

    gamma: int
    k: int
    generators: list
    monodromy: dict
    puncture_words: list
    vertices: int = field(init=False)
    edges: int = field(init=False)

    def __post_init__(self):
        n = len(self.generators)
        self.vertices = n + 1
        self.edges = 2 * n

    @property
    def euler_characteristic(self) -> int:
        return self.vertices - self.edges

    def word_monodromy(self, word) -> int:
        sign = 1
        for gen, power in word:
            sign *= self.monodromy[gen] ** (abs(power) % 2)
        return sign

    def coboundary(self) -> list:
        """Twisted incidence matrix d: C^0 -> C^1 as integer rows per edge.

        Vertex 0 is the wedge point, vertex i the midpoint of loop i.  Edge
        (2i) runs wedge -> midpoint with transport +1, edge (2i + 1) runs
        midpoint -> wedge with transport equal to the loop sign;
        (d gamma)(e) = sign_e * gamma(head) - gamma(tail).
        """
        rows = []
        for i, gen in enumerate(self.generators):
            s = self.monodromy[gen]
            row = [0] * self.vertices
            row[0] = -1
            row[i + 1] = 1
            rows.append(row)
            row = [0] * self.vertices
            row[i + 1] = -1
            row[0] += s
            rows.append(row)
        return rows


def build_complex(gamma: int, k: int, handle_monodromy: int = 1) -> TwistedSurfaceComplex:
    """Spine model with puncture monodromy -1 and configurable handle signs.

    ``k`` must be even and positive: the product of all puncture monodromies
    equals the monodromy of a product of commutators, which is +1 for any
    sign representation, so -1 at every one of k punctures forces k even.
    """
    if gamma < 2:
        raise ValueError("genus must be at least 2")
    if k < 1:
        raise ValueError("the punctured case requires k >= 1")
    if k % 2:
        raise ValueError(
            "no sign representation is -1 at every one of an odd number of punctures"
        )
    if handle_monodromy not in (1, -1):
        raise ValueError("handle monodromy must be +1 or -1")
    # each name is formatted once; the generators and words reuse these strings
    handles = [(f"a{i}", f"b{i}") for i in range(1, gamma + 1)]
    punctures = [f"c{j}" for j in range(1, k)]
    generators = [g for pair in handles for g in pair] + punctures
    monodromy = dict.fromkeys(generators, handle_monodromy)
    monodromy.update(dict.fromkeys(punctures, -1))
    words = [[(c, 1)] for c in punctures]
    # the k-th loop is the inverse of [a_1, b_1] ... [a_gamma, b_gamma] c_1 ... c_{k-1}
    last = [(c, -1) for c in reversed(punctures)]
    for a, b in reversed(handles):
        last += [(b, 1), (a, 1), (b, -1), (a, -1)]
    words.append(last)
    cx = TwistedSurfaceComplex(gamma=gamma, k=k, generators=generators,
                               monodromy=monodromy, puncture_words=words)
    assert cx.euler_characteristic == 2 - 2 * gamma - k
    assert all(cx.word_monodromy(w) == -1 for w in cx.puncture_words)
    return cx


def twisted_cohomology_dims(cx: TwistedSurfaceComplex) -> tuple[int, int]:
    """(h0, h1) of the local system from the signed-graph rank of ``coboundary``.

    The spine is connected and its cycles are generated by the loops, so it
    is balanced exactly when every loop carries monodromy +1; the coboundary
    then has rank V - 1, and rank V otherwise.  h0 vanishes as soon as one
    loop carries monodromy -1; h1 equals the edge count minus the rank (there
    are no 2-cells on the spine).
    """
    balanced = all(s == 1 for s in cx.monodromy.values())
    rank = cx.vertices - balanced
    h0 = cx.vertices - rank
    h1 = cx.edges - rank
    return h0, h1


def row_dimension(row) -> int:
    """The twisted h1 of a ``dimension_table`` row, whose h0 must be 0."""
    _, _, h0, h1, _ = row
    if h0 != 0:
        raise AssertionError("twisted system unexpectedly has parallel sections")
    return h1


def dimension_table(gammas) -> list:
    """Rows (gamma, k, h0, h1, expected) for CSV emission."""
    rows = []
    for gamma in gammas:
        k = 4 * gamma - 4
        h0, h1 = twisted_cohomology_dims(build_complex(gamma, k))
        rows.append((gamma, k, h0, h1, 6 * gamma - 6))
    return rows

import numpy as np
import pytest

from hitchinlab import topology as tp


def test_spine_betti_and_euler():
    cx = tp.build_complex(2, 4)
    assert len(cx.generators) == 2 * 2 + 4 - 1 == 7
    assert cx.euler_characteristic == 2 - 2 * 2 - 4 == -6


# the layout of two small complexes, name by name: generator order, each
# loop's sign, and the puncture words with the k-th the inverse of
# [a1, b1] [a2, b2] c1 ... c_{k-1}
LAYOUTS = {
    (2, 2, 1): (
        ["a1", "b1", "a2", "b2", "c1"],
        [("a1", 1), ("b1", 1), ("a2", 1), ("b2", 1), ("c1", -1)],
        [[("c1", 1)],
         [("c1", -1), ("b2", 1), ("a2", 1), ("b2", -1), ("a2", -1),
          ("b1", 1), ("a1", 1), ("b1", -1), ("a1", -1)]],
    ),
    (2, 4, -1): (
        ["a1", "b1", "a2", "b2", "c1", "c2", "c3"],
        [("a1", -1), ("b1", -1), ("a2", -1), ("b2", -1), ("c1", -1), ("c2", -1), ("c3", -1)],
        [[("c1", 1)], [("c2", 1)], [("c3", 1)],
         [("c3", -1), ("c2", -1), ("c1", -1), ("b2", 1), ("a2", 1), ("b2", -1), ("a2", -1),
          ("b1", 1), ("a1", 1), ("b1", -1), ("a1", -1)]],
    ),
}


@pytest.mark.parametrize("gamma, k, sign", sorted(LAYOUTS))
def test_build_complex_layout(gamma, k, sign):
    cx = tp.build_complex(gamma, k, handle_monodromy=sign)
    generators, monodromy, words = LAYOUTS[gamma, k, sign]
    assert cx.generators == generators
    assert list(cx.monodromy.items()) == monodromy
    assert cx.puncture_words == words


def test_every_puncture_word_is_twisted():
    for gamma, k in ((2, 4), (3, 4), (4, 12)):
        cx = tp.build_complex(gamma, k)
        assert len(cx.puncture_words) == k
        assert all(cx.word_monodromy(w) == -1 for w in cx.puncture_words)


def test_twisted_dimensions_match_expected():
    assert tp.twisted_cohomology_dims(tp.build_complex(2, 4)) == (0, 6)
    assert tp.twisted_cohomology_dims(tp.build_complex(3, 8)) == (0, 12)


def test_untwisted_control_graph_cohomology():
    cx = tp.build_complex(2, 4)
    for g in cx.generators:
        cx.monodromy[g] = 1
    h0, h1 = tp.twisted_cohomology_dims(cx)
    assert (h0, h1) == (1, 7)  # ordinary graph: h0 = 1, h1 = first Betti number


def test_h0_vanishes_with_any_twisted_loop():
    cx = tp.build_complex(2, 4)
    for g in cx.generators:
        cx.monodromy[g] = 1
    cx.monodromy["a1"] = -1
    h0, _ = tp.twisted_cohomology_dims(cx)
    assert h0 == 0


def test_euler_identity_exact():
    for gamma in range(2, 8):
        k = 4 * gamma - 4
        cx = tp.build_complex(gamma, k)
        h0, h1 = tp.twisted_cohomology_dims(cx)
        assert h0 - h1 == cx.euler_characteristic


def test_torus_dimension_formula():
    # criterion 11 checks gamma = 2..10 on the complexes themselves
    for row in tp.dimension_table(range(11, 21)):
        assert tp.row_dimension(row) == 6 * row[0] - 6


def test_row_dimension_guards_h0():
    assert tp.row_dimension(tp.dimension_table([3])[0]) == 12
    with pytest.raises(AssertionError, match="parallel sections"):
        tp.row_dimension((3, 8, 1, 13, 12))


def test_handle_monodromy_independence():
    for gamma, k in ((2, 4), (3, 8)):
        default = tp.twisted_cohomology_dims(tp.build_complex(gamma, k))
        flipped = tp.twisted_cohomology_dims(tp.build_complex(gamma, k, handle_monodromy=-1))
        assert default == flipped


def test_rejections():
    with pytest.raises(ValueError):
        tp.build_complex(1, 4)
    with pytest.raises(ValueError):
        tp.build_complex(2, 0)
    with pytest.raises(ValueError):
        tp.build_complex(2, -2)  # even but negative
    with pytest.raises(ValueError):
        tp.build_complex(2, 3)  # odd k admits no fully twisted system


def test_dimension_table():
    rows = tp.dimension_table(range(2, 5))
    assert rows == [(2, 4, 0, 6, 6), (3, 8, 0, 12, 12), (4, 12, 0, 18, 18)]


def test_rank_formula_matches_exact_coboundary_rank():
    sympy = pytest.importorskip("sympy")

    def exact_dims(cx):
        rank = sympy.Matrix(cx.coboundary()).rank()
        return cx.vertices - rank, cx.edges - rank

    complexes = []
    for gamma, k in ((2, 2), (2, 4), (3, 4)):
        for sign in (1, -1):
            complexes.append(tp.build_complex(gamma, k, handle_monodromy=sign))
        balanced = tp.build_complex(gamma, k)
        balanced.monodromy = dict.fromkeys(balanced.generators, 1)
        complexes.append(balanced)
        for gen in balanced.generators:
            one_twisted = tp.build_complex(gamma, k)
            one_twisted.monodromy = dict.fromkeys(one_twisted.generators, 1)
            one_twisted.monodromy[gen] = -1
            complexes.append(one_twisted)
    rng = np.random.default_rng(7)
    for _ in range(6):
        cx = tp.build_complex(int(rng.integers(2, 5)), 2 * int(rng.integers(1, 4)))
        signs = rng.choice((1, -1), size=len(cx.generators))
        cx.monodromy = {g: int(s) for g, s in zip(cx.generators, signs)}
        complexes.append(cx)
    for cx in complexes:
        assert tp.twisted_cohomology_dims(cx) == exact_dims(cx), cx.monodromy

from math import comb

import pytest

from rpencil.freealg import FreeElement
from rpencil.glie import (
    GeneralizedLieBracket,
    SplittingError,
    bracket_table,
    check_axiom7,
    check_axiom8,
    classical_glie,
    enveloping,
    from_presentation,
    overlap_space,
    random_bracket,
    slie_jacobi_check,
    type2_bracket,
)
from rpencil.linalg import Mat, SubspaceBasis
from rpencil.quadratic import certify_flat_filtered, a0q, jhq, same_ideal
from rpencil.rmatrix import eigen_split, flip_operator, hecke_s, s_w
from rpencil.scalars import DEFAULT_ASSIGNMENT, H, ONE, Q, ZERO, Scalar


def test_splitting_validation():
    g = type2_bracket(2)
    with pytest.raises(SplittingError):
        GeneralizedLieBracket(g.generators, g.i_minus, g.i_minus, g.matrix)
    bad = g.matrix.copy()
    bad.set(0, 0, ONE)  # a (x) a lies in I_plus, so this breaks axiom 1
    with pytest.raises(SplittingError):
        GeneralizedLieBracket(g.generators, g.i_plus, g.i_minus, bad)
    # the dimensions still add up to N^2, so only the rank test can see that
    # the swapped-in I_minus row lies in both spaces
    for h in (g, classical_glie(2)):
        meets = SubspaceBasis(16, list(h.i_plus.rows[1:]) + [h.i_minus.rows[0]])
        assert meets.dim + h.i_minus.dim == 16
        with pytest.raises(SplittingError, match="intersect nontrivially"):
            GeneralizedLieBracket(h.generators, meets, h.i_minus, h.matrix)


def test_relation_vectors_that_do_not_span_rejected():
    # independent relation vectors, one of which lies in I_plus: the vectors
    # together with I_plus are dependent, so the basis matrix is singular
    g = classical_glie(2)
    quads = list(g.i_minus.rows[1:]) + [g.i_plus.rows[0]]
    pairs = [(vec, {0: ONE}) for vec in quads]
    with pytest.raises(SplittingError, match="do not span"):
        GeneralizedLieBracket.from_relation_values(g.generators, g.i_plus, pairs)


def test_overlap_dimensions():
    for n in (2, 3):
        N = n * n
        assert overlap_space(type2_bracket(n).i_minus).dim == comb(N, 3)


def test_overlap_classical_and_trivial():
    skew = classical_glie(2).i_minus
    assert overlap_space(skew).dim == comb(4, 3)
    assert overlap_space(SubspaceBasis(16, [])).dim == 0


def test_type2_bracket_values_n2():
    g = type2_bracket(2)
    gens = g.generators
    # the defining relation quadratic parts map to their lower-order terms
    ab = (FreeElement.generator(gens, "a") * FreeElement.generator(gens, "b")
          - Q * (FreeElement.generator(gens, "b") * FreeElement.generator(gens, "a")))
    (value,) = g.values([ab.to_vector(2)])
    assert value == H * FreeElement.generator(gens, "b")
    ad = (FreeElement.generator(gens, "a") * FreeElement.generator(gens, "d")
          - FreeElement.generator(gens, "d") * FreeElement.generator(gens, "a")
          - (Q - 1 / Q) * (FreeElement.generator(gens, "c") * FreeElement.generator(gens, "b")))
    assert not g.values([ad.to_vector(2)])[0]


def test_vanishes_on_i_plus():
    g = type2_bracket(2)
    assert not any(g.values(g.i_plus.rows))


def _bracket(g, vec):
    """The bracket matrix times one tensor-square vector, entry by entry, as
    {row: value}; row N is the 1-slot."""
    out = {}
    for r, row in enumerate(g.matrix.rows):
        total = sum((v * vec[j] for j, v in row.items() if j in vec), ZERO)
        if total:
            out[r] = total
    return out


def _value_reference(g, vec):
    """The bracket of vec summed term by term into a free-algebra element."""
    total = FreeElement.zero(g.generators)
    for r, c in _bracket(g, vec).items():
        total = total + FreeElement.word(g.generators, (r,) if r < g.dim else (), c)
    return total


@pytest.mark.parametrize(
    "build",
    [lambda: type2_bracket(2), lambda: _constant_shifted(type2_bracket(2), 0),
     lambda: _constant_shifted(classical_glie(2), 3)],
)
def test_values_match_entry_sum(build):
    g = build()
    NN = g.dim * g.dim
    vecs = [{k: ONE} for k in range(NN)] + g.i_minus.rows + g.i_plus.rows
    vecs.append({k: Scalar(k - 5) + Q for k in range(0, NN, 3)})
    values = g.values(vecs)
    assert values == [_value_reference(g, v) for v in vecs]
    assert any(() in v.terms for v in values) == any(g.matrix.rows[g.dim].values())


def test_axioms():
    for n in (2, 3):
        g = type2_bracket(n)
        ok, witness = check_axiom7(g)
        assert ok, witness
        ok, witness = check_axiom8(g)
        assert ok, witness


def _reference_partial_brackets(g, w):
    """(b (x) id - id (x) b)(w) for one cube vector, entry by entry:
    (quadratic part, linear part)."""
    N = g.dim
    cols = g.matrix.transpose().rows
    quad: dict = {}
    lin: dict = {}

    def acc(store, idx, val):
        s = store.get(idx, ZERO) + val
        if s:
            store[idx] = s
        else:
            store.pop(idx, None)

    for idx, c in w.items():
        xy, z = divmod(idx, N)
        for r, v in cols[xy].items():
            if r < N:
                acc(quad, r * N + z, v * c)
            else:
                acc(lin, z, v * c)
        x, yz = divmod(idx, N * N)
        for r, v in cols[yz].items():
            if r < N:
                acc(quad, x * N + r, -(v * c))
            else:
                acc(lin, x, -(v * c))
    return quad, lin


def _reference_axiom7(g):
    for pos, w in enumerate(g.overlap.rows):
        quad, _ = _reference_partial_brackets(g, w)
        if not g.i_minus.contains(quad):
            return False, {"overlap_index": pos, "residual": g.i_minus.reduce(quad)}
    return True, None


def _reference_axiom8(g):
    for pos, w in enumerate(g.overlap.rows):
        quad, lin = _reference_partial_brackets(g, w)
        total = _bracket(g, quad)
        for idx, c in lin.items():
            s = total.get(idx, ZERO) + c
            if s:
                total[idx] = s
            else:
                total.pop(idx, None)
        if total:
            return False, {"overlap_index": pos, "residual": total}
    return True, None


def _fast_type2(n):
    hecke = hecke_s(n).specialize(DEFAULT_ASSIGNMENT)
    i_plus = eigen_split(s_w(hecke))[1]
    return from_presentation(jhq(n).specialize(DEFAULT_ASSIGNMENT), i_plus)


def _constant_shifted(g, k):
    """g with 1 added to the constant slot of relation value k."""
    pairs = []
    for pos, row in enumerate(g.i_minus.rows):
        value = _bracket(g, row)
        if pos == k:
            value[g.dim] = value.get(g.dim, ZERO) + ONE
        pairs.append((row, value))
    return GeneralizedLieBracket.from_relation_values(g.generators, g.i_plus, pairs)


def _random_on(g, seed):
    return random_bracket(g.i_plus, g.i_minus, g.generators, seed)


def _reference_bracket_matrix(generators, i_plus, pairs):
    """The bracket matrix as values * basis^-1, the basis matrix holding the
    relation vectors and then the I_plus rows as its columns."""
    NN = len(generators) ** 2
    basis = Mat(NN, NN)
    for col, vec in enumerate([q for q, _ in pairs] + list(i_plus.rows)):
        for idx, c in vec.items():
            basis.set(idx, col, c)
    values = Mat(len(generators) + 1, NN)
    for col, (_, val) in enumerate(pairs):
        for idx, c in val.items():
            values.set(idx, col, c)
    return values * basis.inverse()


@pytest.mark.parametrize(
    "make",
    [lambda: from_presentation(jhq(2), type2_bracket(2).i_plus), lambda: _fast_type2(3)]
    + [lambda s=s: _random_on(classical_glie(2), s) for s in range(6)],
    ids=["type2-2", "fast-type2-3"] + [f"random-classical-{s}" for s in range(6)],
)
def test_from_relation_values_matches_reference(make, monkeypatch):
    # the builders' own arguments, run through the reference construction
    calls = []
    build = GeneralizedLieBracket.from_relation_values

    def recording(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(GeneralizedLieBracket, "from_relation_values", staticmethod(recording))
    g = make()
    assert g.matrix == _reference_bracket_matrix(*calls[-1])


@pytest.mark.parametrize(
    "make,fails",
    [
        (lambda: type2_bracket(2), (None, None)),
        (lambda: type2_bracket(3), (None, None)),
        (lambda: _fast_type2(2), (None, None)),
        (lambda: _fast_type2(3), (None, None)),
        (lambda: classical_glie(2), (None, None)),
    ]
    # on the skew splitting axiom 7 holds for every bracket: the overlap is
    # the exterior cube, which b (x) id - id (x) b maps into the skew square
    + [(lambda s=s: _random_on(classical_glie(2), s), (None, 0)) for s in range(4)]
    + [(lambda s=s: _random_on(type2_bracket(2), s), (0, 0)) for s in range(4)]
    + [
        (lambda k=k: _constant_shifted(classical_glie(2), k), (None, row))
        for k, row in ((0, 1), (1, 2), (4, 1), (5, 2))
    ]
    + [
        (lambda k=k: _constant_shifted(type2_bracket(2), k), (None, row))
        for k, row in ((0, 0), (1, 0), (2, None), (3, 0), (4, 1), (5, 2))
    ],
    ids=["type2-2", "type2-3", "fast-type2-2", "fast-type2-3", "classical"]
    + [f"random-classical-{s}" for s in range(4)]
    + [f"random-type2-{s}" for s in range(4)]
    + [f"classical-constant-{k}" for k in (0, 1, 4, 5)]
    + [f"type2-constant-{k}" for k in range(6)],
)
def test_axioms_match_reference(make, fails):
    # the kron-built operators against the entry-by-entry reference, verdict
    # and witness both; fails gives the overlap row each axiom fails at
    g = make()
    for check, reference, row in zip(
        (check_axiom7, check_axiom8), (_reference_axiom7, _reference_axiom8), fails
    ):
        got = check(g)
        assert got == reference(g)
        assert got[0] == (row is None)
        if row is not None:
            assert got[1]["overlap_index"] == row


def test_axioms_detect_doubled_value():
    # double one defining value ([ab - q ba] becomes 2hb) and rebuild
    g = type2_bracket(2)
    pres = jhq(2)
    pairs = []
    for k, rel in enumerate(pres.relations):
        quad = rel.homogeneous_part(2)
        value = quad - rel
        if k == 0:
            value = value * 2
        vec = {}
        for word, c in value.terms.items():
            vec[word[0] if word else 4] = c
        pairs.append((quad.to_vector(2), vec))
    broken = GeneralizedLieBracket.from_relation_values(g.generators, g.i_plus, pairs)
    ok7, w7 = check_axiom7(broken)
    ok8, w8 = check_axiom8(broken)
    assert not (ok7 and ok8)
    assert (w7 or w8) is not None


def test_bracket_table_n2():
    table = bracket_table(type2_bracket(2))
    m = H / (1 + Q * Q)
    gens = type2_bracket(2).generators
    b = FreeElement.generator(gens, "b")
    c = FreeElement.generator(gens, "c")
    assert not table[("a", "a")]
    assert not table[("b", "c")]
    assert not table[("a", "d")]
    assert table[("a", "b")] == m * b
    assert table[("b", "d")] == m * b
    assert table[("b", "a")] == -(m * Q) * b
    assert table[("d", "b")] == -(m * Q) * b
    assert table[("a", "c")] == m * c
    assert table[("c", "a")] == -(m * Q) * c


def test_bracket_table_vanishes_at_classical_point():
    table = bracket_table(type2_bracket(2))
    for value in table.values():
        assert not value.specialize({"q": 1, "h": 0})


def test_adjoint_matches_table():
    # ad_a y = [a, y], read from the bracket of the tensor a (x) y
    g = type2_bracket(2)
    table = bracket_table(g)
    a = FreeElement.generator(g.generators, "a")
    for name in g.generators:
        y = FreeElement.generator(g.generators, name)
        assert g.values([(a * y).to_vector(2)])[0] == table[("a", name)]


def test_enveloping_equals_filtered_algebra():
    for n in (2, 3):
        env = enveloping(type2_bracket(n))
        assert env.flag == "filtered"
        assert same_ideal(env, jhq(n), 3)


def test_enveloping_is_flat():
    env = enveloping(type2_bracket(2))
    assert certify_flat_filtered(env.to_ideal(3), a0q(2).to_ideal(3))["flat"]


def test_enveloping_zero_bracket_is_symmetric_algebra():
    c = classical_glie(2)
    zero = GeneralizedLieBracket(c.generators, c.i_plus, c.i_minus, Mat(5, 16))
    env = enveloping(zero)
    assert env.flag == "graded"


def test_classical_enveloping_relations():
    # halving the bracket gives relations xy - yx - [x,y]/2 on the full skew
    # basis, the usual enveloping-algebra relations
    c = classical_glie(2)
    half = GeneralizedLieBracket(c.generators, c.i_plus, c.i_minus, c.matrix * (ONE / 2))
    env = enveloping(half)
    gens = env.generators
    e11, e12, e21, e22 = (FreeElement.generator(gens, g) for g in gens)
    expected = {
        e11 * e12 - e12 * e11 - e12,
        e12 * e21 - e21 * e12 - (e11 - e22),
        e11 * e21 - e21 * e11 + e21,
    }
    relations = set(env.relations)
    assert expected <= relations


def test_classical_axioms():
    c = classical_glie(2)
    assert check_axiom7(c)[0]
    assert check_axiom8(c)[0]


def test_slie_jacobi():
    flip = flip_operator(4)
    assert slie_jacobi_check(classical_glie(2), flip)
    c = classical_glie(2)
    zero = GeneralizedLieBracket(c.generators, c.i_plus, c.i_minus, Mat(5, 16))
    assert slie_jacobi_check(zero, flip)


def test_slie_jacobi_rejects_random():
    c = classical_glie(2)
    rejected = False
    for seed in range(6):
        candidate = random_bracket(c.i_plus, c.i_minus, c.generators, seed)
        if not slie_jacobi_check(candidate, flip_operator(4)):
            rejected = True
            break
    assert rejected


def test_slie_requires_involutive():
    from rpencil.rmatrix import hecke_s, s_w

    g = type2_bracket(2)
    with pytest.raises(ValueError):
        slie_jacobi_check(g, s_w(hecke_s(2)))

import hashlib
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from mpmath.libmp import ComplexResult, from_man_exp, fzero, mpf_mul, mpf_sqrt

from lipforge import Domain, LinearMap, LipForgeError, NormKind, norm, sample_ball
from lipforge.numerics import as_vector, exact_mpf, is_exact_vector, is_mpf
from lipforge.space import CellTable, _bounds_2norm, _halton, _sqrt_raw, norm_batch, op_norm_matrix, unit_directions

from cell_index import CellIndex


def test_norm_examples():
    assert norm(np.array([3.0, 4.0]), NormKind.EUCLIDEAN) == 5.0
    assert norm(np.array([3.0, 4.0]), NormKind.SUP) == 4.0
    assert norm(np.array([0.0, 0.0]), NormKind.ONE) == 0.0


def test_norm_axioms_sampled():
    rng = np.random.default_rng(7)
    for kind in NormKind:
        for _ in range(200):
            u = rng.uniform(-2, 2, size=3)
            v = rng.uniform(-2, 2, size=3)
            c = float(rng.uniform(-3, 3))
            assert norm(u + v, kind) <= norm(u, kind) + norm(v, kind) + 1e-12
            assert abs(norm(c * u, kind) - abs(c) * norm(u, kind)) <= 1e-12
            assert norm(u, kind) >= 0.0


def test_norm_zero_iff_zero():
    for kind in NormKind:
        assert norm(np.zeros(4), kind) == 0.0
        assert norm(np.array([0.0, 1e-150, 0.0, 0.0]), kind) > 0.0


def test_op_norm_single_row_euclidean():
    assert LinearMap(np.array([[0.5, 0.0]])).op_norm == pytest.approx(0.5, abs=1e-12)


def test_op_norm_identity():
    assert LinearMap(np.eye(2)).op_norm == pytest.approx(1.0, abs=1e-10)


def test_op_norm_diag_against_angle_sweep():
    # independent oracle: exhaustive 1-D sweep of unit directions
    m = np.diag([3.0, 4.0])
    thetas = np.linspace(0.0, 2.0 * math.pi, 100_001)
    dirs = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    sweep = float(np.max(norm_batch(dirs @ m.T, NormKind.EUCLIDEAN)))
    got = LinearMap(m).op_norm
    assert got == pytest.approx(4.0, abs=1e-9)
    assert got >= sweep - 1e-6


def test_op_norm_sqrt2_row_is_the_least_upper_float():
    """[[1, -1]] has norm sqrt(2): op_norm is the least float whose square
    is at least 2, which is math.sqrt(2) rounded to nearest."""
    got = LinearMap(np.array([[1.0, -1.0]])).op_norm
    assert Fraction(got) ** 2 >= 2 > Fraction(math.nextafter(got, 0.0)) ** 2
    assert got == math.sqrt(2.0)


def test_op_norm_sup_and_one_closed_forms():
    m = np.array([[1.0, -2.0], [0.5, 3.0]])
    assert op_norm_matrix(m, NormKind.SUP, NormKind.SUP) == pytest.approx(3.5)
    assert op_norm_matrix(m, NormKind.ONE, NormKind.ONE) == pytest.approx(5.0)
    assert op_norm_matrix(m, NormKind.ONE, NormKind.SUP) == pytest.approx(3.0)


def test_op_norm_lower_bounded_by_sampled_quotients():
    rng = np.random.default_rng(3)
    for in_kind in NormKind:
        for out_kind in NormKind:
            m = rng.uniform(-1, 1, size=(2, 3))
            a = LinearMap(m, in_kind, out_kind)
            for _ in range(1000):
                u = rng.uniform(-1, 1, size=3)
                nu = norm(u, in_kind)
                if nu < 1e-9:
                    continue
                assert a.op_norm >= float(norm(m @ u, out_kind)) / float(nu) - 1e-9


def exact_2norm(m: np.ndarray):
    """Reference: the top singular value of the exact float entries, from the
    eigenvalues of A^T A at 50 digits."""
    with mpmath.workdps(50):
        a = mpmath.matrix(m.tolist())
        return mpmath.sqrt(max(mpmath.eigsy(a.T * a)[0]))


def near_degenerate(rng, rows: int, cols: int) -> np.ndarray:
    """A random rows x cols operator with sigma_2 = sigma_1 (1 - 1e-3)."""
    u, _ = np.linalg.qr(rng.normal(size=(rows, rows)))
    v, _ = np.linalg.qr(rng.normal(size=(cols, cols)))
    k = min(rows, cols)
    top = float(rng.uniform(0.1, 2.0))
    sv = np.concatenate([[top, top * (1 - 1e-3)], rng.uniform(0.0, 0.9 * top, size=k - 2)])
    s = np.zeros((rows, cols))
    s[range(k), range(k)] = sv
    return u @ s @ v.T


def test_op_norm_euclidean_is_an_upper_bound():
    """On spectra whose top two singular values are 1e-3 apart, the certified
    norm is never below the exact one and at most a few ulps above it.
    np.linalg.norm rounds too, so it is compared up to one part in 2^50."""
    rng = np.random.default_rng(11)
    for _ in range(200):
        m = near_degenerate(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
        got = LinearMap(m).op_norm
        exact = exact_2norm(m)
        assert mpmath.mpf(got) >= exact
        assert got <= float(exact) * (1 + 2.0**-48)
        assert got >= float(np.linalg.norm(m, 2)) * (1 - 2.0**-50)


def test_op_norm_keeps_exact_values():
    """Operators whose norm is a float get it exactly, and no float below
    it is proven."""
    for m, want in [
        (np.array([[0.5, 0.0]]), 0.5),
        (np.array([[-0.5, 0.0]]), 0.5),
        (np.array([[0.5, 0.0, 0.0]]), 0.5),
        (np.eye(2), 1.0),
        (np.eye(3), 1.0),
        (np.zeros((2, 3)), 0.0),
    ]:
        assert LinearMap(m).op_norm == want
        if want:
            assert not _bounds_2norm(m, math.nextafter(want, 0.0))


def test_bounds_2norm_zero_pivots():
    """The elimination passes a zero pivot whose row is zero and refuses one
    whose row is not; infinity bounds every norm and NaN none."""
    for m, t in [(np.array([[3.0, 4.0]]), 5.0), (np.array([[0.0, 0.0], [0.0, 1.0]]), 1.0),
                 (np.array([[1.0, 0.0], [0.0, 0.0]]), 1.0)]:
        assert _bounds_2norm(m, t)
        assert not _bounds_2norm(m, math.nextafter(t, 0.0))
        assert LinearMap(m).op_norm == t
    # t^2 I - A^T A = [[0, -1], [-1, 0]]: a zero pivot with a nonzero row
    assert not _bounds_2norm(np.array([[1.0, 1.0]]), 1.0)
    assert _bounds_2norm(np.array([[1.0, 1.0]]), math.inf)
    assert not _bounds_2norm(np.array([[1.0, 1.0]]), math.nan)


def exact_sign_norm(m: np.ndarray, p: int) -> Fraction:
    """The max over x in {-1, +1}^d with x_1 = 1 of sum_k |(A x)_k|^p,
    exactly: the sup -> one (p = 1) or the square of the sup -> euclidean
    (p = 2) norm. Floats are dyadic, so the entries are integers over the
    largest of their denominators."""
    scale = max(Fraction(x).denominator for x in m.ravel().tolist())
    a = [[int(Fraction(x) * scale) for x in row] for row in m.tolist()]
    best = 0
    for signs in itertools.product((1, -1), repeat=m.shape[1] - 1):
        x = (1,) + signs
        best = max(best, sum(abs(sum(r * s for r, s in zip(row, x))) ** p for row in a))
    return Fraction(best, scale**p)


def least_float_root(q: Fraction, p: int) -> float:
    """The least float t with t^p >= q."""
    t = float(q) ** (1 / p)
    while Fraction(t) ** p < q:
        t = math.nextafter(t, math.inf)
    while t > 0 and Fraction(math.nextafter(t, 0.0)) ** p >= q:
        t = math.nextafter(t, 0.0)
    return t


def ref_euclidean_to_one(m: np.ndarray) -> float:
    """The euclidean -> one norm as its own sign enumeration: the max over
    s in {-1, +1}^l with s_1 = 1 of ||A^T s||_2, exactly, rounded up to the
    least float whose square is at least its square."""
    return least_float_root(exact_sign_norm(m.T, 2), 2)


def test_op_norm_euclidean_to_one_matches_sign_enumeration():
    """The dual-pair enumeration of A^T gives the same bits as enumerating
    the signs of A's rows directly, exactly and rounded up."""
    rng = np.random.default_rng(11)
    for _ in range(3000):
        m = rng.normal(size=(int(rng.integers(1, 7)), int(rng.integers(1, 7))))
        got = op_norm_matrix(m, NormKind.EUCLIDEAN, NormKind.ONE)
        assert got.hex() == ref_euclidean_to_one(m).hex()
    with pytest.raises(LipForgeError, match="enumeration limited"):
        op_norm_matrix(np.ones((21, 2)), NormKind.EUCLIDEAN, NormKind.ONE)


def coordinate_order_norm(v: list, kind: NormKind) -> float:
    """A float vector's norm in Python float arithmetic, one operation at a
    time, summed from 0.0 over the coordinates in order."""
    if kind is NormKind.SUP:
        return max((abs(x) for x in v), default=0.0)
    acc = 0.0
    for x in v:
        acc += x * x if kind is NormKind.EUCLIDEAN else abs(x)
    return math.sqrt(acc) if kind is NormKind.EUCLIDEAN else acc


@pytest.mark.parametrize("kind", list(NormKind), ids=lambda k: k.value)
def test_float_norm_is_the_one_row_batch_in_coordinate_order(kind):
    """norm of a float vector is norm_batch's one-row case, and both are the
    coordinate-order sum for d = 1...10: a BLAS dot product may fuse its
    multiply-adds, and einsum reorders 3-D rows."""
    rng = np.random.default_rng(5)
    for d in range(1, 11):
        Z = rng.normal(size=(200, d)) * 10.0 ** rng.integers(-3, 4, size=(200, 1))
        for z, b in zip(Z, norm_batch(Z, kind)):
            want = coordinate_order_norm(z.tolist(), kind).hex()
            assert norm(z, kind).hex() == want
            assert float(b).hex() == want
    assert norm(np.zeros(0), kind) == 0.0
    assert norm_batch(np.zeros((3, 0)), kind).tolist() == [0.0] * 3


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_apply_batch_rows_are_their_own_coordinate_order_sums():
    """Each row of apply_batch is the same row applied alone and the sum
    acc += m[k, j] * z[j] from 0.0 in coordinate order, for operators up to
    3 x 10 and rows holding infinite and NaN coordinates."""
    rng = np.random.default_rng(8)
    for rows in range(1, 4):
        for d in range(1, 11):
            m = rng.normal(size=(rows, d))
            Z = rng.normal(size=(12, d))
            odd = rng.random(size=Z.shape) < 0.1
            Z[odd] = rng.choice([np.inf, -np.inf, np.nan], size=int(odd.sum()))
            A = LinearMap(m)
            for z, got in zip(Z, A.apply_batch(Z)):
                want = []
                for m_row in m.tolist():
                    acc = 0.0
                    for mk, x in zip(m_row, z.tolist()):
                        acc += mk * x
                    want.append(acc.hex())
                assert [x.hex() for x in got.tolist()] == want
                assert [x.hex() for x in A.apply(z).tolist()] == want


def test_op_norm_euclidean_is_the_least_proven_float():
    """The Euclidean op_norm is the least float the exact LDL^T proves, on
    the near-degenerate spectra of the upper-bound test."""
    rng = np.random.default_rng(11)
    for _ in range(50):
        m = near_degenerate(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
        got = LinearMap(m).op_norm
        assert _bounds_2norm(m, got)
        assert not _bounds_2norm(m, math.nextafter(got, 0.0))


def test_closed_form_op_norms_are_the_least_upper_floats():
    """The closed forms one -> one, sup -> sup, one -> euclidean and
    euclidean -> sup are each the least float at least the exact norm, a
    2-norm compared through its square; one -> sup is the largest |entry|.
    The family holds the row [0.9644753736367113, 0.8057879050414194] and
    its column, whose 2-norm rounded to nearest, 1.2567843467606976, has a
    square 3.4e-18 below the exact sum of squares."""
    rng = np.random.default_rng(13)
    row = np.array([[0.9644753736367113, 0.8057879050414194]])
    family = [row, row.T] + [
        rng.normal(size=(int(rng.integers(1, 5)), int(rng.integers(1, 5)))) * 10.0 ** int(rng.integers(-3, 4))
        for _ in range(300)
    ]
    E, S, O = NormKind.EUCLIDEAN, NormKind.SUP, NormKind.ONE
    for m in family:
        assert op_norm_matrix(m, O, S) == float(np.max(np.abs(m)))
        for in_kind, out_kind, p in [(O, O, 1), (S, S, 1), (O, E, 2), (E, S, 2)]:
            got = op_norm_matrix(m, in_kind, out_kind)
            vectors = m.T if in_kind is O else m
            exact = max(sum(abs(Fraction(x)) ** p for x in v) for v in vectors.tolist())
            assert Fraction(got) ** p >= exact
            assert Fraction(math.nextafter(got, 0.0)) ** p < exact



def mpf_fractions(m: np.ndarray) -> np.ndarray:
    """The exact values of an object matrix of mpf, as Fractions."""
    def exact(x) -> Fraction:
        sign, man, exp, _ = x._mpf_
        return Fraction(-man if sign else man) * Fraction(2) ** exp

    return np.array([[exact(x) for x in row] for row in m.tolist()], dtype=object)


def exact_op_norm_power(a: np.ndarray, in_kind: NormKind, out_kind: NormKind) -> tuple[Fraction, int]:
    """(q, p) with q the p-th power of the exact operator norm of the
    Fraction matrix a, for every pair but euclidean -> euclidean."""
    E, S, O = NormKind.EUCLIDEAN, NormKind.SUP, NormKind.ONE
    if in_kind is O:
        if out_kind is S:
            return max(abs(x) for x in a.ravel().tolist()), 1
        p = 2 if out_kind is E else 1
        return max(sum(abs(x) ** p for x in col) for col in a.T.tolist()), p
    if (in_kind, out_kind) == (S, S):
        return max(sum(abs(x) for x in row) for row in a.tolist()), 1
    if (in_kind, out_kind) == (E, S):
        return max(sum(x * x for x in row) for row in a.tolist()), 2
    p = 2 if E in (in_kind, out_kind) else 1
    return exact_sign_norm(a.T if in_kind is E else a, p), p


@pytest.mark.parametrize("out_kind", list(NormKind), ids=lambda k: k.value)
@pytest.mark.parametrize("in_kind", list(NormKind), ids=lambda k: k.value)
def test_mpf_op_norms_are_the_least_upper_floats(in_kind, out_kind):
    """An mpf operator's norm is the least float at least the exact norm of
    its entries, not of their nearest floats: for the row [1/3, 0] at 60
    digits, whose nearest float 0.3333333333333333 is below 1/3, its column
    and seeded matrices of 60-digit quotients, under each of the nine pairs.
    The Euclidean pair is proven by the exact LDL^T of the entries."""
    rng = np.random.default_rng(19)
    with mpmath.workdps(60):
        third = mpmath.mpf(1) / 3
        family = [np.array([[third, mpmath.mpf(0)]], dtype=object), np.array([[third], [mpmath.mpf(0)]], dtype=object)]
        for _ in range(40):
            shape = (int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            family.append(np.array([[mpmath.mpf(int(rng.integers(-99, 100))) / int(rng.integers(1, 99))
                                     for _ in range(shape[1])] for _ in range(shape[0])], dtype=object))
    for m in family:
        got = LinearMap(m, in_kind, out_kind).op_norm
        a = mpf_fractions(m)
        if (in_kind, out_kind) == (NormKind.EUCLIDEAN, NormKind.EUCLIDEAN):
            assert _bounds_2norm(a, got) and not _bounds_2norm(a, math.nextafter(got, 0.0))
            continue
        q, p = exact_op_norm_power(a, in_kind, out_kind)
        assert Fraction(got) ** p >= q, m.tolist()
        assert Fraction(math.nextafter(got, 0.0)) ** p < q, m.tolist()
    assert LinearMap(family[0], in_kind, out_kind).op_norm == math.nextafter(1 / 3, 1.0)

@pytest.mark.parametrize("pair", ["sup-euclidean", "sup-one", "euclidean-one"])
def test_sign_enumeration_op_norms_are_the_least_upper_floats(pair):
    """sup -> euclidean, sup -> one and euclidean -> one are each the least
    float at least the exact norm of their sign enumeration, a 2-norm
    compared through its square. The family holds the row
    [0.9644753736367113, 0.8057879050414194] and its column, whose float
    sweeps returned the 2-norm rounded to nearest, 1.2567843467606976,
    3.4e-18 below the exact square."""
    rng = np.random.default_rng(17)
    row = np.array([[0.9644753736367113, 0.8057879050414194]])
    family = [row, row.T] + [
        rng.normal(size=(int(rng.integers(1, 5)), int(rng.integers(1, 5)))) * 10.0 ** int(rng.integers(-3, 4))
        for _ in range(300)
    ]
    in_kind, out_kind = (NormKind.parse(name) for name in pair.split("-"))
    p = 2 if NormKind.EUCLIDEAN in (in_kind, out_kind) else 1
    for m in family:
        got = op_norm_matrix(m, in_kind, out_kind)
        # euclidean -> one is the dual pair, sup -> euclidean of A^T
        exact = exact_sign_norm(m.T if in_kind is NormKind.EUCLIDEAN else m, p)
        assert Fraction(got) ** p >= exact, m.tolist()
        assert Fraction(math.nextafter(got, 0.0)) ** p < exact, m.tolist()


def cell_lists(index: CellIndex, Z: np.ndarray) -> list:
    """The lookup CellTable replaces: each row's list in a CellIndex's dict.
    Float keys hash and compare equal to the integer ones; NaN and infinite
    rows match no cell."""
    return [index.table.get(tuple(key), ()) for key in np.floor(Z / index.cell).tolist()]


@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_cell_table_is_add_per_row(d):
    """CellTable lists each row j in the cells CellIndex.add(j, ...) lists
    it in, in row order, for pads up to half a cell and centers on cell
    bounds; candidates and point_items find each query's list as the dict
    does, for points on cell bounds, far out, huge, infinite and NaN, which
    candidates drops before casting the cell coordinates to int64."""
    rng = np.random.default_rng(29 + d)
    for _ in range(20):
        count = int(rng.integers(0, 40))
        centers = rng.uniform(-1.0, 1.0, size=(count, d))
        centers[::3] = np.round(centers[::3] * 8) / 8
        pads = rng.uniform(0.0, 0.125, size=count)
        table, single = CellTable(0.25, centers, pads), CellIndex(0.25)
        for j in range(count):
            single.add(j, centers[j], float(pads[j]))
        keys = [tuple(k) for k in table.keys.view(np.int64).reshape(-1, max(d, 1))[:, :d].tolist()]
        items = [table.items[a:b].tolist() for a, b in zip(table.starts[:-1], table.starts[1:])]
        assert dict(zip(keys, items)) == single.table
        i, j = table.pairs()
        assert sorted(zip(i.tolist(), j.tolist())) == sorted(ij for cell in single.table.values() for ij in itertools.combinations(cell, 2))
        assert np.all(i < j)
        Z = np.concatenate([rng.uniform(-1.2, 1.2, size=(60, d)), np.round(rng.uniform(-1, 1, size=(20, d)) * 8) / 8])
        with np.errstate(invalid="ignore"):
            Z[::7] *= rng.choice([1e12, 1e300, np.inf, -np.inf, np.nan], size=(len(Z[::7]), d))
        with np.errstate(all="raise"):  # no NaN or huge coordinate reaches the int64 cast
            rows, got = table.candidates(Z)
        want = cell_lists(single, Z)
        assert rows.tolist() == [i for i, cell in enumerate(want) for _ in cell]
        assert got.tolist() == [j for cell in want for j in cell]
        assert [table.point_items(z).tolist() for z in Z.tolist()] == [list(cell) for cell in want]


def test_cell_table_builds_in_three_arrays_of_its_entries():
    """100,000 dense 2-D boxes, each meeting 4 cells, list 400,000 entries in
    at most 20 MiB traced: 16.8 MiB measured, about 44 bytes an entry (the
    unsorted and sorted 16-byte keys and the 8-byte order); with every
    temporary alive until the sort it took 30.1 MiB."""
    centers = 0.45 + 0.1 * np.random.default_rng(0).random((100_000, 2))
    pads = np.full(len(centers), 2.0**-8 + 2e-12)
    tracemalloc.start()
    try:
        table = CellTable(2 * pads[0], centers, pads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table.items) == 400_000
    assert peak < 20 * 2**20


def test_op_norm_rejects_nonfinite():
    with pytest.raises(LipForgeError):
        LinearMap(np.array([[np.nan, 0.0]]))


@pytest.mark.parametrize("value", ["two", None, 1, 1.5, True, [], ["sup"], {}, {"m": "x"}], ids=repr)
def test_norm_parse_refuses_what_is_not_a_norm_name(value):
    """A misspelt name and a norm field holding a number, null, a list or an
    object end in the same diagnostic, in Domain.decode too."""
    with pytest.raises(LipForgeError, match=r"unknown norm .*; expected euclidean, sup or one"):
        NormKind.parse(value)
    with pytest.raises(LipForgeError, match="unknown norm"):
        Domain.decode({**Domain.box([0.0], [1.0]).encode(), "norm": value})


@pytest.mark.parametrize(
    "make",
    [
        lambda: Domain.box([0.0, 0.0], [1.0, math.inf]),
        lambda: Domain.box([-math.inf, 0.0], [1.0, 1.0]),
        lambda: Domain.box([0.0, math.nan], [1.0, 1.0]),
        lambda: Domain.ball([0.0, math.nan], 1.0),
        lambda: Domain.ball([0.0, 0.0], math.inf),
        lambda: Domain.decode({**Domain.ball([0.0, 0.0], 1.0).encode(), "radius": True}),
        lambda: Domain.decode({**Domain.ball([0.0, 0.0], 1.0).encode(), "radius": "nan"}),
    ],
)
def test_domain_refuses_non_finite_bounds(make):
    """The constructors refuse a non-finite bound; Domain.decode refuses a
    ball radius that is not a finite float numeral with the codec's
    diagnostics."""
    with pytest.raises(LipForgeError, match=r"must be finite|: bad numeral True$|: non-finite numeral in 'nan'$"):
        make()


def test_dist_to_boundary_box():
    d = Domain.box([0.0, 0.0], [1.0, 1.0])
    assert d.dist_to_boundary(np.array([0.5, 0.5])) == 0.5
    assert d.dist_to_boundary(np.array([0.1, 0.5])) == pytest.approx(0.1, abs=1e-15)
    with pytest.raises(LipForgeError):
        d.dist_to_boundary(np.array([1.5, 0.5]))


def test_dist_to_boundary_ball():
    d = Domain.ball([0.0, 0.0], 1.0)
    assert d.dist_to_boundary(np.array([0.25, 0.0])) == pytest.approx(0.75, abs=1e-15)


def test_dist_to_boundary_vanishes_on_boundary():
    box = Domain.box([0.0, 0.0], [1.0, 1.0])
    ball = Domain.ball([0.0, 0.0], 1.0)
    rng = np.random.default_rng(11)
    for _ in range(100):
        t = float(rng.uniform(0, 1))
        face = rng.integers(0, 4)
        pt = {
            0: np.array([0.0, t]),
            1: np.array([1.0, t]),
            2: np.array([t, 0.0]),
            3: np.array([t, 1.0]),
        }[int(face)]
        assert abs(float(box.dist_to_boundary(pt))) <= 1e-12
        theta = float(rng.uniform(0, 2 * math.pi))
        sphere = np.array([math.cos(theta), math.sin(theta)])
        sphere /= float(norm(sphere, NormKind.EUCLIDEAN))
        assert abs(float(ball.dist_to_boundary(sphere))) <= 1e-12


@pytest.mark.parametrize("kind", list(NormKind), ids=lambda k: k.value)
@pytest.mark.parametrize("shape", ["box", "ball"])
def test_margins_match_dist_to_boundary_bit_for_bit(shape, kind):
    """margins is, row by row, the per-point float formula dist_to_boundary
    once had: min(x - lo, hi - x) over the axes of a box, radius minus the
    distance to the center of a ball. dist_to_boundary gives it for a point
    inside and refuses a point outside."""
    if shape == "box":
        domain = Domain.box([-0.3, 0.1, 0.0], [0.7, 1.3, 0.9], kind)
    else:
        domain = Domain.ball([0.1, -0.2, 0.3], 0.9, kind)
    lo, hi = domain.bounding_box()
    X = np.random.default_rng(5).uniform(lo - 0.4, hi + 0.4, size=(400, 3))
    outside = 0
    for x, m in zip(X, domain.margins(X).tolist()):
        if shape == "box":
            want = float(np.min(np.minimum(x - domain.lo, domain.hi - x)))
        else:
            want = domain.radius - float(norm(x - domain.center, kind))
        assert m == want
        if m < 0:
            outside += 1
            with pytest.raises(LipForgeError, match="point outside domain"):
                domain.dist_to_boundary(x)
        else:
            assert domain.dist_to_boundary(x) == want
    assert 0 < outside < len(X)
    assert domain.margins(np.empty((0, 3))).shape == (0,)


@pytest.mark.parametrize("shape", ["box", "ball"])
@pytest.mark.parametrize("rows", [np.zeros((2, 1)), np.full((2, 3), 0.5), np.empty((0, 3)), np.full(2, 0.5)],
                         ids=["1d", "3d", "empty-3d", "flat"])
def test_margins_refuse_rows_of_another_dimension(shape, rows):
    """Rows of another dimension than the domain's, and an array that is not
    a list of rows, are refused by name, where numpy would broadcast 1-D rows
    or fail on the shapes; dist_to_boundary refuses such a point, float or
    exact."""
    domain = Domain.box([0.0, 0.0], [1.0, 1.0]) if shape == "box" else Domain.ball([0.5, 0.5], 0.5)
    got = r"shape \(2,\)" if rows.ndim == 1 else f"dimension {rows.shape[1]}"
    with pytest.raises(LipForgeError, match=f"^points of {got} in a domain of dimension 2$"):
        domain.margins(rows)
    with pytest.raises(LipForgeError, match="^points of dimension 3 in a domain of dimension 2$"):
        domain.dist_to_boundary(np.full(3, 0.5))
    with pytest.raises(ValueError):  # an exact point's coordinates are zipped with the domain's, strictly
        domain.dist_to_boundary(as_vector([mpmath.mpf(0.5)] * 3))


def test_diam():
    assert Domain.box([0, 0], [1, 1]).diam() == pytest.approx(math.sqrt(2.0))
    assert Domain.ball([0, 0], 1.0).diam() == 2.0
    assert Domain.box([0, 0], [1, 1], NormKind.SUP).diam() == 1.0


@pytest.mark.parametrize("rnd", ["n", "f", "c", "d", "u"])
def test_sqrt_raw_is_mpf_sqrt(rnd):
    """math.isqrt and the one-step strip give mpf_sqrt's bits: at zero, at
    mantissa 1 with even and odd exponents, at exact squares (whose roots
    end in zeros) and at random values, from 1 to 4076 bits."""
    rng = random.Random(11)
    cases = [fzero] + [from_man_exp(1, e) for e in (-9, -8, -1, 0, 1, 2, 7, 1000, 1001)]
    for _ in range(300):
        s = from_man_exp(rng.getrandbits(rng.randint(1, 5000)) | 1, rng.randint(-4000, 4000))
        cases += [s, mpf_mul(s, s), mpf_mul(s, from_man_exp(1, 1))]
    for prec in (1, 2, 53, 54, 200, 1226, 4076):
        for s in cases:
            assert _sqrt_raw(s, prec, rnd) == mpf_sqrt(s, prec, rnd), (s, prec)


def test_sqrt_raw_refuses_a_negative_like_mpf_sqrt():
    neg = from_man_exp(-9, -4)
    with pytest.raises(ComplexResult) as want:
        mpf_sqrt(neg, 53, "n")
    with pytest.raises(ComplexResult) as got:
        _sqrt_raw(neg, 53, "n")
    assert str(got.value) == str(want.value)


def test_sample_ball_contains_axis_points():
    pts = sample_ball(np.zeros(2), 1.0, 5, 0)
    rows = {tuple(np.round(p, 12)) for p in pts}
    for e in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        assert tuple(float(v) for v in e) in rows


def test_sample_ball_containment_and_determinism():
    c = np.array([0.3, -0.2, 0.1])
    for kind in NormKind:
        pts = sample_ball(c, 0.7, 25, 5, kind)
        assert len(pts) == 25
        for p in pts:
            assert norm(p - c, kind) <= 0.7 + 1e-15
        again = sample_ball(c, 0.7, 25, 5, kind)
        assert all(np.array_equal(a, b) for a, b in zip(pts, again))


def test_sample_ball_budget_too_small():
    with pytest.raises(LipForgeError):
        sample_ball(np.zeros(2), 1.0, 4, 0)


# Per-index reference implementations of the Halton sampler, the direction
# loop and the ball sampler: _halton, unit_directions and sample_ball must
# match them bit for bit.


def ref_halton_value(index: int, base: int) -> float:
    f = 1.0
    r = 0.0
    i = index
    while i > 0:
        f /= base
        r += f * (i % base)
        i //= base
    return r


def ref_halton_point(index: int, dim: int) -> np.ndarray:
    return np.array([ref_halton_value(index, b) for b in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)[:dim]])


def ref_direction(index: int, dim: int, kind: NormKind = NormKind.EUCLIDEAN) -> np.ndarray:
    for attempt in range(64):
        v = 2.0 * ref_halton_point(index + 7 + attempt * 977, dim) - 1.0
        n = float(norm(v, kind))
        if n > 1e-9:
            return v * ((1.0 - 2.0**-50) / n)
    return np.eye(dim)[0]


def ref_sample_ball(c, r, budget, seed, kind=NormKind.EUCLIDEAN):
    c = np.asarray(c) if not isinstance(c, np.ndarray) else c
    d = len(c)
    exact = is_mpf(r) or is_exact_vector(c)

    def shift(direction, scale):
        if exact:
            rr = exact_mpf(r) * exact_mpf(scale) if not is_mpf(scale) else exact_mpf(r) * scale
            return as_vector([exact_mpf(c[i]) + rr * exact_mpf(direction[i]) for i in range(d)])
        return np.asarray(c, dtype=float) + (float(r) * float(scale)) * direction

    pts = []
    eye = np.eye(d)
    for i in range(d):
        pts.append(shift(eye[i], 1.0))
        pts.append(shift(-eye[i], 1.0))
    base = (seed & 0x7FFFFFFF) * 257 + 11
    for j in range(budget - 2 * d):
        if j == 0:
            pts.append(shift(np.zeros(d), 0.0))
            continue
        direction = ref_direction(base + 31 * j, d, kind)
        if j % 2 == 1:
            pts.append(shift(direction, 1.0))
        else:
            u = ref_halton_value(base + 31 * j, 3)
            pts.append(shift(direction, u ** (1.0 / d)))
    return pts


def test_halton_matches_per_index_loop():
    """Bit for bit, dims 1 to 10: small indices, the edges of each base's
    table of low digits (base^m - 1, base^m, base^m + 1 for the largest
    base^m <= 4096, and the same around base^2m and 3 base^m), and indices
    drawn up to 2^40."""
    idx = [0, 1, 2, 3, 7, 977, 2**20 + 1, 2**31 - 1, 389 * (2**31 - 1) + 1, 2**53 + 7]
    idx += list(range(100, 400, 7))
    for base in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29):
        size = base ** max(m for m in range(1, 13) if base**m <= 4096)
        idx += [edge + step for edge in (size, size**2, 3 * size) for step in (-1, 0, 1)]
    idx += np.random.default_rng(40).integers(0, 2**40, size=400, endpoint=True).tolist() + [2**40 - 1, 2**40]
    for dim in range(1, 11):
        got = _halton(np.array(idx, dtype=np.int64), dim)
        assert got.tobytes() == np.stack([ref_halton_point(i, dim) for i in idx]).tobytes()
    with pytest.raises(LipForgeError, match="dimension 10"):
        _halton(np.array([1], dtype=np.int64), 11)


@pytest.mark.parametrize("kind", list(NormKind), ids=lambda k: k.value)
def test_unit_directions_match_direction_loop(kind):
    """The vectorized sampler returns the per-direction loop's bits. Seed
    2131090643 makes the first 1-d draw shorter than 1e-9, so that direction
    takes the retry path."""
    assert abs(2.0 * ref_halton_point(2131090643 * 131 + 8, 1)[0] - 1.0) <= 1e-9
    for dim in (1, 2, 3, 4, 10):
        for count in (1, 32, 128, 192):
            for seed in (0, 7, 360, 2**31 - 1, 2**31 + 5, 2**40 + 3, 2131090643):
                base = (seed & 0x7FFFFFFF) * 131 + 1
                loop = np.stack([ref_direction(base + 13 * i, dim, kind) for i in range(count)])
                assert unit_directions(count, dim, seed, kind).tobytes() == loop.tobytes()


@pytest.mark.parametrize("kind", list(NormKind), ids=lambda k: k.value)
def test_array_seeds_draw_the_int_calls_sets(kind):
    """An int array of seeds gives one set per seed, each equal bit for bit
    to the int call's, in dims 1 to 3; an empty array gives no set."""
    seeds = [0, 1, 7, 360, 728, 2**31 - 1, 2131090643]
    for dim in (1, 2, 3):
        for count in (1, 64 * dim):
            got = unit_directions(count, dim, np.array(seeds, dtype=np.int64), kind)
            assert got.shape == (len(seeds), count, dim)
            for one, seed in zip(got, seeds):
                assert one.tobytes() == unit_directions(count, dim, seed, kind).tobytes()
        assert unit_directions(5, dim, np.array([], dtype=np.int64), kind).shape == (0, 5, dim)


def test_int_seeds_are_masked_to_31_bits():
    """A Python int seed, negative or past int64, is masked to its low 31
    bits before numpy sees it."""
    for seed in (-1, 2**31, 2**63 + 5, 2**70):
        want = unit_directions(128, 2, seed & 0x7FFFFFFF)
        assert unit_directions(128, 2, seed).tobytes() == want.tobytes()
        assert unit_directions(128, 2, np.array([seed & 0x7FFFFFFF])).tobytes() == want.tobytes()


# sha256 of the direction sets the float continuity check draws, seed after
# seed: the standard run's 2-D layers (128 directions, seeds 0-360) and the
# 3-D cube's (192 directions, seeds 0-728), under each norm.
DIRECTION_SET_PINS = {
    ("std", "euclidean"): "21b0670bc54f77a654c16c7acaf7040dba25845c5ef0457a199e57e0fe96c42d",
    ("std", "sup"): "9daa0b8be573bb6d283be7d7ff7ba615726211f1e28a73621f995a4b9fa61c1b",
    ("std", "one"): "f2c592de7d9c47fdf497c67e60cf75efaf30d31cb7702dfe03f811a7947e6038",
    ("wide", "euclidean"): "6f03e4cc7d22fca215fac31eb0359fd7fb3867ce6a73c4d55d2d039e119b6712",
    ("wide", "sup"): "0e2771481ba92d2ccabdfb75e961a271f2de96687e078dd2ec8495b64a22a262",
    ("wide", "one"): "a4c4d74743b310739b8ba208117fcc06a4c121fc8bf5c60457f3a982cae909c4",
}


@pytest.mark.parametrize("layer, count, dim, seeds", [("std", 128, 2, 361), ("wide", 192, 3, 729)])
@pytest.mark.parametrize("kind", list(NormKind), ids=lambda k: k.value)
def test_direction_sets_match_their_pins(layer, count, dim, seeds, kind):
    """Drawn per seed and for all seeds in one call, the sets hash to the pins."""
    one_call = unit_directions(count, dim, np.arange(seeds), kind)
    per_seed = b"".join(unit_directions(count, dim, seed, kind).tobytes() for seed in range(seeds))
    assert one_call.tobytes() == per_seed
    assert hashlib.sha256(per_seed).hexdigest() == DIRECTION_SET_PINS[layer, kind.value]


# Seed 802172880 makes the first 1-d sample_ball direction (j = 1) shorter
# than 1e-9, so it takes the retry path; 2131090643 does in unit_directions.
BALL_SEEDS = (0, 5, 2**31 + 5, 802172880, 2131090643)


def assert_same_points(got, ref):
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        if is_exact_vector(b):
            assert is_exact_vector(a)
            assert [x._mpf_ for x in a] == [x._mpf_ for x in b]
        else:
            assert a.dtype == b.dtype == np.float64
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind", list(NormKind), ids=lambda k: k.value)
def test_sample_ball_matches_reference(kind):
    """Float and exact branches, dims 1 to 10, budgets from the cheapest on,
    against the per-point loop, bit for bit."""
    assert abs(2.0 * ref_halton_point(802172880 * 257 + 11 + 31 + 7, 1)[0] - 1.0) <= 1e-9
    rng = np.random.default_rng(3)
    for d in (1, 2, 3, 10):
        c = rng.normal(size=d)
        for budget in sorted({2 * d + 1, 2 * d + 2, 17, 64}):
            if budget < 2 * d + 1:
                continue
            for seed in BALL_SEEDS:
                assert_same_points(sample_ball(c, 0.37, budget, seed, kind), ref_sample_ball(c, 0.37, budget, seed, kind))
                with mpmath.mp.workdps(80):
                    r_e = mpmath.mpf(2) ** -200 / 3
                    assert_same_points(sample_ball(c, r_e, budget, seed, kind), ref_sample_ball(c, r_e, budget, seed, kind))
                    c_e = as_vector([exact_mpf(x) + mpmath.mpf(2) ** -100 for x in c])
                    assert_same_points(sample_ball(c_e, 0.37, budget, seed, kind), ref_sample_ball(c_e, 0.37, budget, seed, kind))

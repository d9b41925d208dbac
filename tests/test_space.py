import math

import numpy as np
import pytest

from lipforge import Domain, LinearMap, LipForgeError, NormKind, norm, sample_ball
from lipforge.space import _direction, norm_batch, op_norm_matrix, unit_directions


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


def test_op_norm_power_iteration_degenerate_start():
    # all-ones start is exactly orthogonal to the top singular direction
    m = np.array([[1.0, -1.0]])
    assert LinearMap(m).op_norm == pytest.approx(math.sqrt(2.0), abs=1e-9)


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


def test_op_norm_rejects_nonfinite():
    with pytest.raises(LipForgeError):
        LinearMap(np.array([[np.nan, 0.0]]))


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


def test_diam():
    assert Domain.box([0, 0], [1, 1]).diam() == pytest.approx(math.sqrt(2.0))
    assert Domain.ball([0, 0], 1.0).diam() == 2.0
    assert Domain.box([0, 0], [1, 1], NormKind.SUP).diam() == 1.0


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


@pytest.mark.parametrize("kind", list(NormKind), ids=lambda k: k.value)
def test_unit_directions_match_direction_loop(kind):
    """The vectorized sampler returns the per-direction loop's bits. Seed
    2131090643 makes the first 1-d draw shorter than 1e-9, so that direction
    takes the retry path."""
    for dim in (1, 2, 3, 4, 10):
        for count in (1, 32, 128, 192):
            for seed in (0, 7, 360, 2**31 - 1, 2**31 + 5, 2**40 + 3, 2131090643):
                base = (seed & 0x7FFFFFFF) * 131 + 1
                loop = np.stack([_direction(base + 13 * i, dim, kind) for i in range(count)])
                assert np.array_equal(unit_directions(count, dim, seed, kind), loop)

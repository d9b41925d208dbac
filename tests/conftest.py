import multiprocessing
import time
from types import SimpleNamespace

import numpy as np
import pytest
from mpmath import mp

from lipforge import Const, Domain, LinearMap, TargetSet, run_game, sup_dist
from lipforge.numerics import to_float


@pytest.fixture(scope="session")
def sampled_round_distances():
    """A function that samples ||g_k - g_{k-1}|| in every round of an
    in-memory transcript (g_0 the zero mapping), asserts each sample is
    within the round's analytic rho_bound and returns the samples. A sample
    only bounds the distance from below: a cross-check of rho_bound, not a
    certificate."""

    def sample(transcript) -> list[float]:
        prev = Const(np.zeros(transcript.out_dim), transcript.domain.dim)
        out = []
        for rec in transcript.rounds:
            k, center = rec.round_k, rec.move.center(prev)
            with mp.workdps(transcript.dps):
                rho = sup_dist(rec.reply_fun, center, transcript.domain, 192, transcript.seed * 101 + k,
                               transcript.out_norm)
            assert rho <= to_float(rec.rho_bound) + 1e-9, f"round {k}: sampled distance {rho:.3e} above rho_bound"
            out.append(rho)
            prev = rec.reply_fun
        return out

    return sample


@pytest.fixture(scope="session")
def acceptance_run():
    """The standard 8-round run shared by the acceptance criteria:
    unit box, 0.05-grid targets, opposite horizontal operators, stay adversary.
    """
    domain = Domain.box([0.0, 0.0], [1.0, 1.0])
    target = TargetSet.grid([0.0, 0.0], [1.0, 1.0], 0.05)
    operators = (
        LinearMap(np.array([[0.5, 0.0]])),
        LinearMap(np.array([[-0.5, 0.0]])),
    )
    t0 = time.perf_counter()
    transcript = run_game(domain, target, operators, "stay", rounds=8, seed=0)
    construct_seconds = time.perf_counter() - t0
    return SimpleNamespace(
        domain=domain,
        target=target,
        operators=operators,
        transcript=transcript,
        construct_seconds=construct_seconds,
    )


@pytest.fixture(scope="session", params=[2, 3], ids=["2d", "3d"])
def small_game(request):
    """A 0.25-grid, 4-round game on the unit square or cube: deep enough for
    exact-path patches, small enough to probe every witness."""
    d = request.param
    lo, hi = [0.0] * d, [1.0] * d
    ops = (LinearMap(np.array([[0.5] + [0.0] * (d - 1)])), LinearMap(np.array([[-0.5] + [0.0] * (d - 1)])))
    return run_game(Domain.box(lo, hi), TargetSet.grid(lo, hi, 0.25), ops, "stay", rounds=4, seed=0)


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fails any test that leaves a live child process, such as a forked
    worker of the witness report."""
    yield
    left = multiprocessing.active_children()
    assert left == [], f"live child processes after the test: {left}"

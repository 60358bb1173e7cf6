import numpy as np
import pytest

from minkdecode import HmmModel, LogScoreMatrix, PosteriorMatrix


def make_random_hmm(rng, num_states, classes=None):
    """Row-stochastic HMM with identity-ish state->class map and word labels."""
    classes = num_states if classes is None else classes
    init = rng.dirichlet(np.ones(num_states))
    trans = rng.dirichlet(np.ones(num_states), size=num_states)
    labels = [f"w{i}" for i in range(num_states)]
    s2c = [i % classes for i in range(num_states)]
    return HmmModel.from_probs(init, trans, labels, s2c)


def make_uniform_hmm(num_states):
    p = np.full(num_states, 1.0 / num_states)
    trans = np.full((num_states, num_states), 1.0 / num_states)
    labels = [f"w{i}" for i in range(num_states)]
    return HmmModel.from_probs(p, trans, labels, list(range(num_states)))


def make_random_posteriors(rng, frames, classes):
    return PosteriorMatrix(rng.dirichlet(np.ones(classes), size=frames))


def make_edge_rows(rng, frames, classes, small=(0.0, 5e-324), large=(1.0,), share=0.2):
    """frames x classes Dirichlet(0.5) rows that sum to 1, with edge entries injected.

    In each row about `share` of the entries become a value of small, and
    one entry, never injected, makes up the row's sum: about a tenth of the
    rows are one-hot on a value of large there (their other entries 0 or
    small); in the rest the entries not injected are rescaled to sum to 1.
    """
    m = rng.dirichlet(np.full(classes, 0.5), size=frames)
    rows = np.arange(frames)
    keep = rng.integers(0, classes, size=frames)
    edge = rng.random(m.shape) < share
    edge[rows, keep] = False
    free = np.where(edge, 0.0, m)
    m = np.where(edge, rng.choice(small, size=m.shape), free / free.sum(axis=1, keepdims=True))
    hot = rng.random(frames) < 0.1
    m[hot] = np.where(edge[hot], m[hot], 0.0)
    m[rows[hot], keep[hot]] = rng.choice(large, size=int(hot.sum()))
    return m


def make_random_scores(rng, frames, classes):
    return LogScoreMatrix(rng.normal(size=(frames, classes)))


@pytest.fixture
def rng():
    return np.random.default_rng(20250809)

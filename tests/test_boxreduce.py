import numpy as np
import pytest

from simplexcs.boxreduce import box_membership, embed
from simplexcs.confset import ConfidenceSet, membership, simplex_candidate_grid
from simplexcs.wealth import UPState


def test_embed_spot_value():
    out = embed(np.array([0.3, 0.9]))
    assert np.allclose(out, [0.15, 0.45, 0.4], atol=1e-12)


def test_embed_lands_on_simplex():
    rng = np.random.default_rng(7)
    for _ in range(200):
        d = int(rng.integers(1, 5))
        y = rng.random(d)
        out = embed(y)
        assert out.size == d + 1
        assert out.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(out >= -1e-12)


def test_embed_is_affine():
    rng = np.random.default_rng(13)
    a, b = rng.random(3), rng.random(3)
    lam = 0.3
    direct = embed(lam * a + (1 - lam) * b)
    mixed = lam * embed(a) + (1 - lam) * embed(b)
    assert np.allclose(direct, mixed, atol=1e-12)


def test_embed_commutes_with_averaging():
    # mean of embedded observations equals the embedding of the mean
    rng = np.random.default_rng(17)
    obs = rng.random((20, 2))
    lhs = np.mean([embed(y) for y in obs], axis=0)
    rhs = embed(obs.mean(axis=0))
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_embed_scalar_case():
    out = embed(np.array([0.3]))
    assert np.allclose(out, [0.3, 0.7], atol=1e-12)


def test_embed_validation():
    with pytest.raises(ValueError):
        embed(np.array([1.2, 0.1]))
    with pytest.raises(ValueError):
        embed(np.array([[0.1, 0.2]]))


def test_box_membership_equals_direct_wealth():
    # the box-level decision is exactly the simplex-level decision at the
    # embedded candidate
    rng = np.random.default_rng(23)
    delta = 0.05
    s = UPState(3)
    for _ in range(8):
        s = s.absorb(embed(rng.random(2)))

    def simplex_member(point):
        return membership(s.log_wealth(point), delta)

    for _ in range(100):
        m_box = rng.random(2)
        direct = membership(s.log_wealth(embed(m_box)), delta)
        assert box_membership(m_box, simplex_member) == direct


def test_box_membership_with_realized_set():
    # a grid-realized set cannot answer for an arbitrary point: the nearest
    # candidate's flag is not the point's, so such a set is refused
    cands = simplex_candidate_grid(3, 30)
    cs = ConfidenceSet(cands, 0.05)
    with pytest.raises(TypeError):
        box_membership(np.array([0.4, 0.6]), cs)
    with pytest.raises(TypeError):
        box_membership(np.array([0.4, 0.6]), "not a set")

"""Tests for the reciprocity response model."""

import pytest

from repro.behavior.reciprocity import (
    EMPTY_ATTRACTIVENESS,
    LIVED_IN_ATTRACTIVENESS,
    ReciprocityModel,
    ReciprocityParams,
)
from repro.platform.models import ActionType
from repro.util import derive_rng


@pytest.fixture
def model():
    return ReciprocityModel(ReciprocityParams(), derive_rng(3, "recip"))


class TestReciprocityParams:
    def test_defaults_are_probabilities(self):
        params = ReciprocityParams()
        assert 0 < params.like_to_like < 0.1
        assert 0 < params.follow_to_follow < 0.3
        assert params.follow_to_like == 0.0

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            ReciprocityParams(like_to_like=1.5)

    def test_gains_must_be_at_least_one(self):
        with pytest.raises(ValueError):
            ReciprocityParams(lived_in_like_gain=0.5)

    def test_scaled(self):
        params = ReciprocityParams(like_to_like=0.02).scaled(0.5)
        assert params.like_to_like == pytest.approx(0.01)

    def test_scaled_caps_at_one(self):
        params = ReciprocityParams(follow_to_follow=0.5).scaled(10)
        assert params.follow_to_follow == 1.0

    def test_scaled_invalid_factor(self):
        with pytest.raises(ValueError):
            ReciprocityParams().scaled(0)


class TestResponseProbabilities:
    def test_like_to_like_baseline(self, model):
        probs = model.response_probabilities(ActionType.LIKE, EMPTY_ATTRACTIVENESS, 1.0)
        assert probs[ActionType.LIKE] == pytest.approx(model.params.like_to_like)

    def test_lived_in_boosts_likes(self, model):
        empty = model.response_probabilities(ActionType.LIKE, EMPTY_ATTRACTIVENESS, 1.0)
        lived = model.response_probabilities(ActionType.LIKE, LIVED_IN_ATTRACTIVENESS, 1.0)
        ratio = lived[ActionType.LIKE] / empty[ActionType.LIKE]
        assert ratio == pytest.approx(model.params.lived_in_like_gain)

    def test_follow_never_triggers_like(self, model):
        probs = model.response_probabilities(ActionType.FOLLOW, EMPTY_ATTRACTIVENESS, 1.0)
        assert ActionType.LIKE not in probs  # follow_to_like == 0

    def test_follow_to_follow_dominates(self, model):
        probs = model.response_probabilities(ActionType.FOLLOW, EMPTY_ATTRACTIVENESS, 1.0)
        assert probs[ActionType.FOLLOW] > 0.05

    def test_propensity_scales_linearly(self, model):
        lo = model.response_probabilities(ActionType.LIKE, EMPTY_ATTRACTIVENESS, 0.5)
        hi = model.response_probabilities(ActionType.LIKE, EMPTY_ATTRACTIVENESS, 2.0)
        assert hi[ActionType.LIKE] == pytest.approx(4 * lo[ActionType.LIKE])

    def test_affinity_only_boosts_follow_on_like(self, model):
        base = model.response_probabilities(ActionType.LIKE, EMPTY_ATTRACTIVENESS, 1.0, 1.0)
        boosted = model.response_probabilities(ActionType.LIKE, EMPTY_ATTRACTIVENESS, 1.0, 9.0)
        assert boosted[ActionType.FOLLOW] == pytest.approx(9 * base[ActionType.FOLLOW])
        assert boosted[ActionType.LIKE] == pytest.approx(base[ActionType.LIKE])

    def test_comment_behaves_like_weak_like(self, model):
        like = model.response_probabilities(ActionType.LIKE, EMPTY_ATTRACTIVENESS, 1.0)
        comment = model.response_probabilities(ActionType.COMMENT, EMPTY_ATTRACTIVENESS, 1.0)
        assert comment[ActionType.LIKE] == pytest.approx(0.5 * like[ActionType.LIKE])

    def test_unfollow_produces_nothing(self, model):
        assert model.response_probabilities(ActionType.UNFOLLOW, 0.5, 1.0) == {}

    def test_probabilities_capped(self, model):
        probs = model.response_probabilities(ActionType.FOLLOW, LIVED_IN_ATTRACTIVENESS, 1000.0)
        assert all(p <= 1.0 for p in probs.values())


def _responses(model, inbound, attractiveness, propensity, affinity=1.0):
    """One notification's responses by the organic driver's rule: each
    memoized item is taken when its draw is below its probability."""
    items = model.response_items(inbound, attractiveness, propensity, affinity)
    return [kind for (kind, p), draw in zip(items, model.draws(len(items))) if draw < p]


class TestRespond:
    def test_zero_propensity_never_responds(self, model):
        for _ in range(50):
            assert _responses(model, ActionType.LIKE, EMPTY_ATTRACTIVENESS, 0.0) == []

    def test_statistical_rate(self):
        model = ReciprocityModel(ReciprocityParams(follow_to_follow=0.2), derive_rng(9, "r"))
        hits = sum(
            bool(_responses(model, ActionType.FOLLOW, EMPTY_ATTRACTIVENESS, 1.0))
            for _ in range(2000)
        )
        assert 300 <= hits <= 500  # ~0.2 of 2000

    def test_respond_is_items_then_draws(self):
        """One draw call over a whole inbox's items, as the organic driver
        makes it, takes the same responses and leaves the same generator
        state as one scalar draw per item in item order."""
        params = ReciprocityParams(like_to_like=0.5, like_to_follow=0.5)
        model = ReciprocityModel(params, derive_rng(13, "reciprocity"))
        scalar = derive_rng(13, "reciprocity")
        inbox = (ActionType.LIKE, ActionType.FOLLOW, ActionType.COMMENT, ActionType.POST) * 20
        items = [
            item
            for inbound in inbox
            for item in model.response_items(inbound, LIVED_IN_ATTRACTIVENESS, 1.0, 1.0)
        ]
        expected = [kind for kind, p in items if scalar.random() < p]
        draws = model.draws(len(items))
        assert [kind for (kind, p), draw in zip(items, draws) if draw < p] == expected
        assert model._rng.bit_generator.state == scalar.bit_generator.state

"""Table 11: action-type mix per AAS.

Paper: Insta* is follow-heavy (38.6% follows vs 30.8% likes) with heavy
auto-unfollow (25%) and some comments (5.6%); Boostgram is like-heavy
(64% likes vs 19.3% follows, no comments); Hublaagram is like-heavy
(63% likes, 35.3% follows, no unfollows).
"""

from conftest import emit

from repro.core import experiments as E
from repro.core import reporting as R
from repro.core.study import INSTA_STAR


def test_table11_action_mix(benchmark, bench_dataset):
    rows = benchmark(E.table11_action_mix, bench_dataset)
    emit(R.render_table11(rows))
    by_service = {r["service"]: r for r in rows}

    insta = by_service[INSTA_STAR]
    assert insta["follow"] > 0.2  # follow-heavy
    assert insta["unfollow"] > 0.1  # heavy auto-unfollow
    assert insta["comment"] > 0.01  # comments present

    boost = by_service["Boostgram"]
    assert boost["like"] > boost["follow"] * 2  # like-heavy (paper 3.3x)
    assert boost["comment"] == 0.0  # not offered

    hub = by_service["Hublaagram"]
    assert hub["like"] > hub["follow"]  # like-heavy (paper 1.8x)
    assert hub["unfollow"] == 0.0  # collusion networks never unfollow

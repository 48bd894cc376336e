"""Figure 4: CDF of follower counts (in-degree) — AAS targets vs random
receiving accounts.

Paper medians: Boostgram targets 498, Insta* targets 384, random
Instagram 796 — targets have far *fewer* followers than the baseline
("presumably more open to reciprocating when targeted").
"""

from conftest import emit

from repro.core import experiments as E
from repro.core import reporting as R
from repro.core.study import INSTA_STAR


def test_fig04_indegree_cdf(benchmark, bench_study, bench_dataset):
    result = benchmark.pedantic(
        E.fig34_target_bias,
        args=(bench_study, bench_dataset),
        kwargs={"sample_size": 1000},
        rounds=2,
        iterations=1,
    )
    emit(R.render_fig34(result))
    baseline = result["baseline"]["median_in_degree"]
    assert result["Boostgram"]["median_in_degree"] < baseline
    assert result[INSTA_STAR]["median_in_degree"] <= baseline * 1.1
    # the in-degree gap is the more pronounced one (paper Section 5.3)
    out_gap = result["Boostgram"]["median_out_degree"] / max(
        result["baseline"]["median_out_degree"], 1.0
    )
    in_gap = baseline / max(result["Boostgram"]["median_in_degree"], 1.0)
    assert in_gap > 1.0

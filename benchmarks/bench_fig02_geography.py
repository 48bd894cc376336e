"""Figure 2: customer Instagram-account locations by country.

Paper: each AAS's advertised country is also where the largest share of
its customers live (Boostgram -> USA, Hublaagram -> IDN); Insta* has a
large "OTHER" tail attributed to undiscovered franchises.
"""

from conftest import emit

from repro.core import experiments as E
from repro.core import reporting as R


def test_fig02_geography(benchmark, bench_study, bench_dataset):
    result = benchmark.pedantic(
        E.fig2_geography, args=(bench_study, bench_dataset), rounds=2, iterations=1
    )
    emit(R.render_fig2(result))
    for service, shares in result.items():
        assert shares, f"{service} should have located customers"
        total = sum(share for _, share in shares)
        assert abs(total - 1.0) < 1e-6
        # every bar shown is >=5% or the OTHER bucket
        for country, share in shares:
            assert share >= 0.05 or country == "OTHER"

"""Tests for the pop-under ad network model."""

import pytest

from repro.aas.ads import HIGH_CPM_CENTS, LOW_CPM_CENTS, PopUnderAdNetwork
from repro.util import derive_rng


class TestPopUnderAdNetwork:
    def test_serves_one_to_four_ads(self):
        network = PopUnderAdNetwork(derive_rng(1, "ads"))
        for _ in range(100):
            shown = network.serve_request()
            assert 1 <= shown <= 4
        assert 100 <= network.impressions <= 400

    def test_paper_cpm_band(self):
        assert LOW_CPM_CENTS == 60  # $0.60 CPM
        assert HIGH_CPM_CENTS == 400  # $4.00 CPM

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            PopUnderAdNetwork(derive_rng(1, "ads5"), ads_per_request=(0, 2))
        with pytest.raises(ValueError):
            PopUnderAdNetwork(derive_rng(1, "ads6"), ads_per_request=(3, 2))

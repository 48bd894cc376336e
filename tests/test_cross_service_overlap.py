"""Cross-service customer overlap (paper Section 5.1, "Popularity").

"Overall, account overlap is small. Fewer than 200 accounts generate
any activity in the three AASs, 1,963 participate in two distinct
Reciprocity Abuse AASs, and 4,485 accounts participate in at least one
Reciprocity Abuse AAS as well as the Hublaagram collusion network."
"""

from collections import Counter


def _enrolment_counts(dataset) -> Counter:
    """Account -> number of services whose customer base it is in."""
    return Counter(
        account for analytics in dataset.analytics.values() for account in analytics.customers
    )


class TestOverlap:
    def test_overlap_is_small(self, tiny_dataset):
        enrolments = _enrolment_counts(tiny_dataset)
        two_plus = [account for account, n in enrolments.items() if n >= 2]
        # overlap is a small fraction of the overall customer union
        # (paper: a few thousand of >1.1M)
        assert len(two_plus) <= 0.35 * len(enrolments)

    def test_triple_overlap_smaller_than_double(self, tiny_dataset):
        enrolments = _enrolment_counts(tiny_dataset)
        assert sum(n >= 3 for n in enrolments.values()) <= sum(n >= 2 for n in enrolments.values())

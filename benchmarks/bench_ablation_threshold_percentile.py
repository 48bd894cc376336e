"""Ablation: the false-positive bound behind the 99th-percentile choice.

Section 6.2 sets mixed-ASN thresholds at the daily 99th percentile of
benign activity, bounding false positives at 1% of benign account-days.
This bench recomputes thresholds at several percentiles over the bench
dataset's benign traffic and measures the realized benign eligibility
(the false-positive rate the intervention would have incurred).
"""

from conftest import emit

from repro.interventions.thresholds import compute_thresholds
from repro.interventions import thresholds as thresholds_module
from repro.interventions.metrics import eligible_flags
from repro.util.tables import format_table


def _benign_fp_rate(benign_records, aas_records, subject_by_asn, percentile):
    """Fraction of benign (account, day) pairs with an eligible action."""
    original = thresholds_module.MIXED_ASN_PERCENTILE
    thresholds_module.MIXED_ASN_PERCENTILE = percentile
    try:
        table = compute_thresholds(aas_records, benign_records, subject_by_asn)
    finally:
        thresholds_module.MIXED_ASN_PERCENTILE = original
    flagged = eligible_flags(benign_records, table)
    account_days = {(r.actor, r.day) for r in benign_records}
    hit_days = {(record.actor, record.day) for record, _, eligible in flagged if eligible}
    if not account_days:
        return 0.0, table
    return len(hit_days) / len(account_days), table


def test_ablation_threshold_percentile(benchmark, bench_study, bench_dataset):
    classifier = bench_study.classifier
    benign = classifier.benign_records(bench_dataset.start_tick, bench_dataset.end_tick)
    aas = [
        r
        for activity in bench_dataset.attributed.values()
        for r in activity.records
    ]
    subject_by_asn = bench_study._subject_by_asn()
    # restrict benign records to the thresholded ASNs (the VPN users)
    covered = set(subject_by_asn)
    benign_in_scope = [r for r in benign if r.endpoint.asn in covered]

    def sweep():
        rows = []
        for percentile in (50.0, 90.0, 99.0, 100.0):
            rate, _ = _benign_fp_rate(benign_in_scope, aas, subject_by_asn, percentile)
            rows.append((percentile, rate))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        format_table(
            ["benign percentile", "benign FP rate (account-days)"],
            [[p, f"{r:.3%}"] for p, r in rows],
            title="Ablation: threshold percentile vs false-positive rate",
        )
    )
    rates = dict(rows)
    # lower percentiles hurt legitimate users more
    assert rates[50.0] >= rates[90.0] >= rates[99.0] >= rates[100.0]
    # the paper's p99 keeps benign collateral near the 1% design bound
    assert rates[99.0] <= 0.05

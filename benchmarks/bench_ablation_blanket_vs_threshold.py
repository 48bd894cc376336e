"""Ablation: blanket ASN blocking vs account-level thresholds.

The paper positions its account-level interventions against prior
work's network-level blocking (Section 2, Farooqi et al.): "Instagram
users still use [their accounts] to initiate legitimate actions that
should not be blocked". This bench replays the bench dataset's mixed
ASNs under both policies and compares benign collateral damage: the
blanket block refuses every benign VPN-user action; the 99th-percentile
threshold touches almost none of them while still capping the abuse.
"""

from conftest import emit

from repro.interventions.metrics import eligible_flags
from repro.interventions.thresholds import compute_thresholds
from repro.util.tables import format_table


def test_ablation_blanket_vs_threshold(benchmark, bench_study, bench_dataset):
    classifier = bench_study.classifier
    benign = classifier.benign_records(bench_dataset.start_tick, bench_dataset.end_tick)
    subject_by_asn = bench_study._subject_by_asn()
    covered = set(subject_by_asn)
    benign_in_scope = [r for r in benign if r.endpoint.asn in covered]
    aas_in_scope = [
        r
        for activity in bench_dataset.attributed.values()
        for r in activity.records
        if r.endpoint.asn in covered
    ]

    def run():
        # blanket: every action from a service ASN is refused
        blanket_benign_hit = len(benign_in_scope)
        blanket_abuse_hit = len(aas_in_scope)
        # threshold: only above-threshold actions are eligible
        table = compute_thresholds(aas_in_scope, benign_in_scope, subject_by_asn)
        benign_eligible = sum(
            1 for _, _, eligible in eligible_flags(benign_in_scope, table) if eligible
        )
        abuse_eligible = sum(
            1 for _, _, eligible in eligible_flags(aas_in_scope, table) if eligible
        )
        return {
            "blanket_benign": blanket_benign_hit,
            "blanket_abuse": blanket_abuse_hit,
            "threshold_benign": benign_eligible,
            "threshold_abuse": abuse_eligible,
        }

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        format_table(
            ["policy", "abusive actions covered", "benign actions hit"],
            [
                ["blanket ASN block", result["blanket_abuse"], result["blanket_benign"]],
                ["per-account threshold", result["threshold_abuse"], result["threshold_benign"]],
            ],
            title="Ablation: network-level blocking vs account-level thresholds",
        )
    )
    assert result["blanket_benign"] > 0, "mixed ASNs must carry benign traffic"
    # the threshold policy spares nearly all benign traffic the blanket hits
    assert result["threshold_benign"] < 0.1 * result["blanket_benign"]
    # while still covering a large share of the abuse volume
    assert result["threshold_abuse"] > 0.3 * result["blanket_abuse"]

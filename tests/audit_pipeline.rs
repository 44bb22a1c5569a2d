//! Integration: a reduced audit must recover the paper's qualitative
//! findings end to end — decay ordering, rolling-window attrition with
//! the strict second-order refinement, pool-size ordering, regression
//! signs, and comment-endpoint stability.

use ytaudit::core::testutil::test_client;
use ytaudit::core::{Analyzer, Collector, CollectorConfig};
use ytaudit::types::Topic;

/// One shared medium-sized collection for all assertions in this file
/// (collections dominate test time; analyses are cheap).
fn collect() -> ytaudit::core::AuditDataset {
    let (client, _service) = test_client(0.35);
    let mut config = CollectorConfig::quick(vec![Topic::Blm, Topic::Brexit, Topic::Higgs], 8);
    config.fetch_comments = true;
    Collector::new(&client, config)
        .run()
        .expect("collection succeeds")
}

#[test]
fn reduced_audit_recovers_the_papers_findings() {
    let dataset = collect();
    let report = Analyzer::analyze_dataset(&dataset);

    // --- Figure 1: decay with the right topic ordering. ---
    let fig1 = &report.figure1;
    let final_j = |t: Topic| {
        fig1.iter()
            .find(|tc| tc.topic == t)
            .unwrap()
            .final_jaccard_first()
    };
    assert!(final_j(Topic::Higgs) > final_j(Topic::Brexit));
    assert!(final_j(Topic::Brexit) > final_j(Topic::Blm));
    assert!(
        final_j(Topic::Blm) < 0.85,
        "BLM must churn: {}",
        final_j(Topic::Blm)
    );
    assert!(
        final_j(Topic::Higgs) > 0.85,
        "Higgs must persist: {}",
        final_j(Topic::Higgs)
    );
    // Adjacent similarity exceeds first-vs-last similarity (decay is
    // cumulative, not a level shift).
    for tc in fig1 {
        assert!(
            tc.mean_jaccard_prev() >= tc.final_jaccard_first(),
            "{}",
            tc.topic
        );
    }
    // Drop-ins occur for every topic — deletions cannot explain churn.
    for tc in fig1 {
        let gains: usize = tc.points.iter().map(|p| p.dropped_in).sum();
        assert!(gains > 0, "{} must gain videos over snapshots", tc.topic);
    }

    // --- Figure 3: rolling window, including the second-order
    // refinement (8 snapshots give enough mixed-history transitions). ---
    let fig3 = report.figure3.as_ref().expect("transitions observed");
    assert!(
        fig3.p_stay_present() > 0.8,
        "P(P|PP) = {}",
        fig3.p_stay_present()
    );
    assert!(
        fig3.p_stay_absent() > 0.55,
        "P(A|AA) = {}",
        fig3.p_stay_absent()
    );
    assert!(
        fig3.transitions[0][0] > fig3.transitions[2][0],
        "P(P|PP) {} must exceed P(P|AP) {}",
        fig3.transitions[0][0],
        fig3.transitions[2][0]
    );

    // --- Table 2: no ceiling effect. ---
    for row in &report.table2 {
        assert!(row.max < 50, "{}: per-hour max {}", row.topic, row.max);
        assert!(row.mean < 2.0, "{}: per-hour mean {}", row.topic, row.mean);
    }

    // --- Table 4: pool ordering and cap behaviour. ---
    let t4 = &report.table4;
    let pool = |t: Topic| t4.iter().find(|r| r.topic == t).unwrap().clone();
    assert!(pool(Topic::Higgs).mean < pool(Topic::Brexit).mean);
    assert!(pool(Topic::Brexit).mean < pool(Topic::Blm).mean);
    assert_eq!(pool(Topic::Blm).max, 1_000_000, "BLM pins the cap");
    assert!(pool(Topic::Higgs).max < 100_000);

    // --- Tables 3/6/7: the sign pattern. ---
    let regression = report.regression.as_ref().expect("builds");
    let t3 = regression.table3.as_ref().expect("fits");
    let t6 = regression.table6.as_ref().expect("fits");
    for (label, coeff_of) in [
        (
            "t3",
            &t3.names
                .iter()
                .cloned()
                .zip(t3.coefficients.iter().cloned())
                .collect::<Vec<_>>(),
        ),
        (
            "t6",
            &t6.names
                .iter()
                .cloned()
                .zip(t6.coefficients.iter().cloned())
                .collect::<Vec<_>>(),
        ),
    ] {
        let get = |name: &str| {
            coeff_of
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, c)| *c)
                .unwrap_or_else(|| panic!("{label}: missing {name}"))
        };
        assert!(
            get("higgs (topic)") > 0.5,
            "{label}: higgs {}",
            get("higgs (topic)")
        );
        assert!(
            get("brexit (topic)") > 0.0,
            "{label}: brexit {}",
            get("brexit (topic)")
        );
        assert!(
            get("duration") < 0.0,
            "{label}: duration {}",
            get("duration")
        );
    }
    assert!(t3.lr_p < 1e-6, "the model beats the null decisively");
    assert!(
        t3.pseudo_r2 < 0.5,
        "most variance stays unexplained (randomization)"
    );

    // --- Table 5: comment endpoints are stable on shared videos. ---
    for row in &report.table5 {
        if let Some(tl_shared) = row.top_level_shared {
            assert!(tl_shared > 0.9, "{}: TL,S = {tl_shared}", row.topic);
        }
        if row.topic == Topic::Higgs {
            assert!(row.nested_shared.is_none(), "Higgs nested must be N/A");
        }
    }

    // --- Figure 4: ID-based metadata is near-complete. ---
    for ft in &report.figure4 {
        for p in ft.vs_previous.iter().chain(&ft.vs_first) {
            assert!(p.coverage_current > 90.0, "{}: {:?}", ft.topic, p);
            assert!(p.jaccard_common > 0.9, "{}: {:?}", ft.topic, p);
        }
    }

    // --- Dataset round-trips through its JSON cache format. ---
    let json = dataset.to_json().expect("serializes");
    let back = ytaudit::core::AuditDataset::from_json(&json).expect("parses");
    assert_eq!(back, dataset);
}

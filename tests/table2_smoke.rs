//! Integration smoke test of the Table II experiment harness: trains and
//! verifies two small `I4×N` predictors end to end.

use certnn_bench::table2::{run_table2, Table2Config};

#[test]
fn table2_smoke_produces_paper_shaped_output() {
    let result = run_table2(&Table2Config::smoke_test()).expect("experiment runs");
    assert_eq!(result.rows.len(), 2);
    assert!(result.training_samples > 50);

    for row in &result.rows {
        let max = row.max_lateral.expect("tiny networks close");
        // A predictor trained on sanitized data suggests physically
        // plausible lateral velocities even in the worst case.
        assert!(max.abs() < 20.0, "{}: absurd verified max {max}", row.label);
        assert!(row.stats.binaries > 0, "some neurons must be unstable");
        assert!(row.stats.elapsed.as_nanos() > 0);
    }

    // The wider network encodes with at least as many binaries.
    assert!(
        result.rows[1].stats.binaries >= result.rows[0].stats.binaries,
        "binaries should not shrink with width: {:?}",
        result
            .rows
            .iter()
            .map(|r| (r.label.clone(), r.stats.binaries))
            .collect::<Vec<_>>()
    );

    // The decision query ran on the largest network.
    assert_eq!(result.proofs.last().unwrap().label, "I4x6");
    let table = result.to_table();
    assert!(table.contains("I4x4") && table.contains("I4x6"));
    assert!(table.contains("paper"));
}

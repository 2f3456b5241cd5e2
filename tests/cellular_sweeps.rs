//! The paired-arm sweeps are three tables over one engine
//! (`bench::sweep`): what the tables promise each other, and what they
//! promise readers of the committed `BENCH_*.json` baselines.

use bench::{Column, Sweep, SweepCell, FIGCELL, FIGMUX, TABLE2};

/// A cell with made-up PLTs — one site, arm `k` took `1000 + k` ms —
/// per grid cell of `table`: enough to derive metrics from without
/// simulating anything.
fn placeholder_cells(table: &Sweep) -> Vec<SweepCell> {
    let plts: Vec<Vec<f64>> = vec![(0..table.arms.len()).map(|k| 1000.0 + k as f64).collect()];
    let cells = table.grid.cells(2014).into_iter();
    cells
        .map(|(cell, _)| SweepCell {
            plts: plts.clone(),
            ..cell
        })
        .collect()
}

/// The metric keys of a BENCH file, in file order (run metadata skipped).
fn bench_file_keys(json: &str) -> Vec<&str> {
    json.lines()
        .filter_map(|line| line.trim().strip_prefix('"')?.split_once("\":"))
        .map(|(key, _)| key)
        .filter(|key| !["bench", "seed", "sites"].contains(key))
        .collect()
}

/// Table 2 ⊂ figmux: an arm two tables share — the same (protocol, CC,
/// recovery tier, replay mode) — yields identical per-site PLTs on
/// every cell both tables sweep. A load depends on its configuration,
/// site and seed only, never on which table ran it or at which
/// position. (The cellular arms share one table, so each runs once.)
#[test]
fn shared_arms_reproduce_across_tables() {
    let tables = [&TABLE2, &FIGMUX];
    let runs = tables.map(|table| (table, table.run(2, 2014, None)));
    let mut compared = 0;
    for (a, (table_a, cells_a)) in runs.iter().enumerate() {
        for (table_b, cells_b) in &runs[a + 1..] {
            for (ia, arm_a) in table_a.arms.iter().enumerate() {
                for (ib, arm_b) in table_b.arms.iter().enumerate() {
                    if (arm_a.protocol, arm_a.cc, arm_a.recovery, arm_a.mode)
                        != (arm_b.protocol, arm_b.cc, arm_b.recovery, arm_b.mode)
                    {
                        continue;
                    }
                    for cell_a in cells_a {
                        let Some(cell_b) = cells_b.iter().find(|c| c.key() == cell_a.key()) else {
                            continue;
                        };
                        let plts = |cell: &SweepCell, arm: usize| -> Vec<f64> {
                            cell.plts.iter().map(|site| site[arm]).collect()
                        };
                        assert_eq!(
                            plts(cell_a, ia),
                            plts(cell_b, ib),
                            "{} vs {} on {}",
                            arm_a.label,
                            arm_b.label,
                            cell_a.key()
                        );
                        compared += 1;
                    }
                }
            }
        }
    }
    // Table 2's `multi` is figmux's `http1` on all 9 (rate, delay)
    // cells.
    assert_eq!(compared, 9);
}

/// The keys each table emits, in order, are the keys of its committed
/// baseline: a renamed or reordered column fails here.
#[test]
fn emitted_keys_match_committed_baselines() {
    for (table, baseline) in [
        (&TABLE2, include_str!("../BENCH_table2.json")),
        (&FIGMUX, include_str!("../BENCH_figmux.json")),
        (&FIGCELL, include_str!("../BENCH_figcell.json")),
    ] {
        let emitted = table.metrics(&placeholder_cells(table));
        let emitted: Vec<&str> = emitted.iter().map(|(key, _)| key.as_str()).collect();
        assert_eq!(emitted, bench_file_keys(baseline), "{}", table.title);
    }
}

#[test]
fn an_arm_paired_with_itself_gains_nothing() {
    let table = Sweep {
        columns: &[Column::Paired {
            key: "self_pct",
            base: 1,
            other: 1,
        }],
        ..FIGCELL
    }
    .checked();
    let cells = placeholder_cells(&table);
    let metrics = table.metrics(&cells);
    assert_eq!(metrics.len(), cells.len());
    assert!(metrics.iter().all(|&(_, pct)| pct == 0.0), "{metrics:?}");
}

/// The check each `const` table passes through at compile time.
#[test]
#[should_panic(expected = "column names an arm outside the table")]
fn a_column_outside_the_table_is_rejected() {
    assert_eq!(FIGCELL.arms.len(), 11);
    let _ = Sweep {
        columns: &[Column::Plt(11)],
        ..FIGCELL
    }
    .checked();
}

//! The cellular sweeps are three tables over one engine
//! (`bench::cellular`): what the tables promise each other, and what
//! they promise readers of the committed `BENCH_*.json` baselines.

use bench::{figcell_regimes, CellularSweep, Column, SweepCell, FIGBBR, FIGCELL, FIGRACK};

/// A cell with made-up PLTs — one site, arm `k` took `1000 + k` ms —
/// per (regime, qdisc) of `table`: enough to derive metrics from
/// without simulating anything.
fn placeholder_cells(table: &CellularSweep) -> Vec<SweepCell> {
    let mut cells = Vec::new();
    for (regime, _) in figcell_regimes() {
        for &(qdisc, _) in table.qdiscs {
            let plts = vec![(0..table.arms.len()).map(|k| 1000.0 + k as f64).collect()];
            cells.push(SweepCell {
                regime,
                qdisc,
                plts,
            });
        }
    }
    cells
}

/// The metric keys of a BENCH file, in file order (run metadata skipped).
fn bench_file_keys(json: &str) -> Vec<&str> {
    json.lines()
        .filter_map(|line| line.trim().strip_prefix('"')?.split_once("\":"))
        .map(|(key, _)| key)
        .filter(|key| !["bench", "seed", "sites"].contains(key))
        .collect()
}

/// figcell ⊂ figrack ⊂ figbbr: an arm two tables share — the same
/// (protocol, CC, recovery tier) — yields identical per-site PLTs on
/// every (regime, qdisc) cell both tables sweep. A load depends on its
/// configuration, site and seed only, never on which table ran it or
/// at which position.
#[test]
fn shared_arms_reproduce_across_tables() {
    let runs = [&FIGCELL, &FIGRACK, &FIGBBR].map(|table| (table, table.run(2, 2014)));
    let mut compared = 0;
    for (a, (table_a, cells_a)) in runs.iter().enumerate() {
        for (table_b, cells_b) in &runs[a + 1..] {
            for (ia, arm_a) in table_a.arms.iter().enumerate() {
                for (ib, arm_b) in table_b.arms.iter().enumerate() {
                    if (arm_a.protocol, arm_a.cc, arm_a.recovery)
                        != (arm_b.protocol, arm_b.cc, arm_b.recovery)
                    {
                        continue;
                    }
                    for cell_a in cells_a {
                        let Some(cell_b) = cells_b
                            .iter()
                            .find(|c| (c.regime, c.qdisc) == (cell_a.regime, cell_a.qdisc))
                        else {
                            continue;
                        };
                        let plts = |cell: &SweepCell, arm: usize| -> Vec<f64> {
                            cell.plts.iter().map(|site| site[arm]).collect()
                        };
                        assert_eq!(
                            plts(cell_a, ia),
                            plts(cell_b, ib),
                            "{} vs {} on {}/{}",
                            arm_a.label,
                            arm_b.label,
                            cell_a.regime,
                            cell_a.qdisc
                        );
                        compared += 1;
                    }
                }
            }
        }
    }
    // Two arms shared by all three tables, two more by figrack and
    // figbbr; every pair of tables shares 3 regimes × {droptail32, codel}.
    assert_eq!(compared, (2 + 2 + 4) * 6);
}

/// The keys each table emits, in order, are the keys of its committed
/// baseline: a renamed or reordered column fails here.
#[test]
fn emitted_keys_match_committed_baselines() {
    for (table, baseline) in [
        (&FIGCELL, include_str!("../BENCH_figcell.json")),
        (&FIGRACK, include_str!("../BENCH_figrack.json")),
        (&FIGBBR, include_str!("../BENCH_figbbr.json")),
    ] {
        let emitted = table.metrics(&placeholder_cells(table));
        let emitted: Vec<&str> = emitted.iter().map(|(key, _)| key.as_str()).collect();
        assert_eq!(emitted, bench_file_keys(baseline), "{}", table.title);
    }
}

#[test]
fn an_arm_paired_with_itself_gains_nothing() {
    let table = CellularSweep {
        columns: &[Column::Paired {
            key: "self_pct",
            base: 1,
            other: 1,
        }],
        ..FIGRACK
    }
    .checked();
    let metrics = table.metrics(&placeholder_cells(&table));
    assert_eq!(metrics.len(), 3 * FIGRACK.qdiscs.len());
    assert!(metrics.iter().all(|&(_, pct)| pct == 0.0), "{metrics:?}");
}

/// The check each `const` table passes through at compile time.
#[test]
#[should_panic(expected = "column names an arm outside the table")]
fn a_column_outside_the_table_is_rejected() {
    assert_eq!(FIGCELL.arms.len(), 4);
    let _ = CellularSweep {
        columns: &[Column::Plt(4)],
        ..FIGCELL
    }
    .checked();
}

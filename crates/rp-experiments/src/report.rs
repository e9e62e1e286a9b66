//! Turning sweep results into the tables behind the paper's figures.
//!
//! Figures 9–12 are line plots of "percentage of success" and "relative
//! cost" against λ, one series per heuristic (plus the LP series on the
//! success plots). This module renders the same data as CSV (for
//! replotting) and as human-readable markdown tables.

use rp_core::Heuristic;

use crate::metrics::LambdaBatch;
use crate::runner::SweepResults;

/// A simple rectangular table: a header row plus data rows.
#[derive(Clone, Debug, PartialEq)]
pub struct SeriesTable {
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (already formatted).
    pub rows: Vec<Vec<String>>,
}

impl SeriesTable {
    /// Renders the table as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&csv_row(&self.headers));
        for row in &self.rows {
            out.push_str(&csv_row(row));
        }
        out
    }

    /// Renders the table as a GitHub-flavoured markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.headers.iter().map(|_| "---|").collect::<String>()
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }
}

fn csv_row(fields: &[String]) -> String {
    let escaped: Vec<String> = fields
        .iter()
        .map(|f| {
            if f.contains(',') || f.contains('"') {
                format!("\"{}\"", f.replace('"', "\"\""))
            } else {
                f.clone()
            }
        })
        .collect();
    format!("{}\n", escaped.join(","))
}

fn heuristic_columns(heuristics: &[Heuristic]) -> Vec<String> {
    heuristics
        .iter()
        .map(|h| h.full_name().to_string())
        .collect()
}

/// The "percentage of success" table (Figures 9 and 11): one row per λ,
/// one column per heuristic plus the LP column.
pub fn success_table(results: &SweepResults) -> SeriesTable {
    let heuristics = &results.config.heuristics;
    let mut headers = vec!["lambda".to_string()];
    headers.extend(heuristic_columns(heuristics));
    headers.push("LP".to_string());

    let rows = results
        .batches
        .iter()
        .map(|batch| {
            let mut row = vec![format!("{:.1}", batch.lambda)];
            for &h in heuristics {
                row.push(format!("{:.3}", batch.success_rate(h)));
            }
            row.push(format!("{:.3}", batch.lp_success_rate()));
            row
        })
        .collect();
    SeriesTable { headers, rows }
}

/// The "relative cost" table (Figures 10 and 12): one row per λ, one
/// column per heuristic.
pub fn relative_cost_table(results: &SweepResults) -> SeriesTable {
    let heuristics = &results.config.heuristics;
    let mut headers = vec!["lambda".to_string()];
    headers.extend(heuristic_columns(heuristics));

    let rows = results
        .batches
        .iter()
        .map(|batch| {
            let mut row = vec![format!("{:.1}", batch.lambda)];
            for &h in heuristics {
                row.push(format!("{:.3}", batch.relative_cost(h)));
            }
            row
        })
        .collect();
    SeriesTable { headers, rows }
}

/// A per-λ summary of sizes and runtimes.
pub fn runtime_table(results: &SweepResults) -> SeriesTable {
    let headers = vec![
        "lambda".to_string(),
        "trees".to_string(),
        "mean_problem_size".to_string(),
        "total_seconds".to_string(),
    ];
    let rows = results
        .batches
        .iter()
        .map(|batch: &LambdaBatch| {
            vec![
                format!("{:.1}", batch.lambda),
                batch.trials.len().to_string(),
                format!("{:.1}", batch.mean_problem_size()),
                format!("{:.2}", batch.total_seconds()),
            ]
        })
        .collect();
    SeriesTable { headers, rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::TrialResult;
    use crate::runner::ExperimentConfig;

    fn fake_results() -> SweepResults {
        let config = ExperimentConfig {
            heuristics: vec![Heuristic::Cbu, Heuristic::Mg],
            ..ExperimentConfig::smoke_test()
        };
        let trial = |lp: Option<f64>, cbu: Option<u64>, mg: Option<u64>| TrialResult {
            tree_index: 0,
            problem_size: 20,
            achieved_lambda: 0.5,
            lp_bound: lp,
            heuristic_costs: vec![(Heuristic::Cbu, cbu), (Heuristic::Mg, mg)],
            lp_seconds: 0.01,
            heuristics_seconds: 0.02,
        };
        SweepResults {
            config,
            batches: vec![
                LambdaBatch {
                    lambda: 0.2,
                    trials: vec![trial(Some(10.0), Some(12), Some(11))],
                },
                LambdaBatch {
                    lambda: 0.6,
                    trials: vec![trial(Some(10.0), None, Some(14)), trial(None, None, None)],
                },
            ],
        }
    }

    #[test]
    fn success_table_has_lambda_heuristics_and_lp_columns() {
        let table = success_table(&fake_results());
        assert_eq!(
            table.headers,
            vec!["lambda", "ClosestBottomUp", "MultipleGreedy", "LP"]
        );
        assert_eq!(table.num_rows(), 2);
        // λ = 0.6: CBU succeeded on 0/2 trees, MG on 1/2, LP on 1/2.
        assert_eq!(table.rows[1], vec!["0.6", "0.000", "0.500", "0.500"]);
    }

    #[test]
    fn relative_cost_table_matches_metric_values() {
        let table = relative_cost_table(&fake_results());
        assert_eq!(table.headers.len(), 3);
        // λ = 0.2: CBU = 10/12, MG = 10/11.
        assert_eq!(table.rows[0][1], format!("{:.3}", 10.0 / 12.0));
        assert_eq!(table.rows[0][2], format!("{:.3}", 10.0 / 11.0));
    }

    #[test]
    fn csv_and_markdown_render() {
        let table = success_table(&fake_results());
        let csv = table.to_csv();
        assert!(csv.starts_with("lambda,"));
        assert_eq!(csv.lines().count(), 3);
        let md = table.to_markdown();
        assert!(md.starts_with("| lambda |"));
        assert!(md.contains("|---|"));
    }

    #[test]
    fn csv_escapes_fields_with_commas() {
        let table = SeriesTable {
            headers: vec!["a".into(), "b,c".into()],
            rows: vec![vec!["1".into(), "say \"hi\"".into()]],
        };
        let csv = table.to_csv();
        assert!(csv.contains("\"b,c\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn runtime_table_reports_sizes_and_seconds() {
        let table = runtime_table(&fake_results());
        assert_eq!(table.headers[2], "mean_problem_size");
        assert_eq!(table.rows[0][1], "1");
        assert_eq!(table.rows[1][1], "2");
    }
}

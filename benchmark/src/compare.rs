//! Compare two sets of result documents (a parent commit and a change) by
//! the rule of the benchmark: paired runs, medians and quartiles, and the
//! regression bounds of `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use serde_json::Value;

use crate::metrics::{Better, END_TO_END};
use crate::stats::{median, quartiles, relative_iqr};

/// Pairs a comparison needs at least.
pub const MIN_PAIRS: usize = 10;

/// Share of the pairs the change must win to count as an improvement.
pub const WIN_SHARE: f64 = 0.9;

/// One result document: a workload and its end-to-end metric values.
#[derive(Debug, Clone, PartialEq)]
pub struct Doc {
    /// Workload name.
    pub workload: String,
    /// Metric name → (value, unit).
    pub metrics: BTreeMap<String, (f64, String)>,
}

impl Doc {
    /// Read a document written by `benchmark --json`.
    pub fn from_value(value: &Value) -> Result<Doc, String> {
        let workload = value
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("document has no `workload`")?
            .to_string();
        let members = value
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or("document has no `metrics`")?;
        let mut metrics = BTreeMap::new();
        for (name, metric) in members {
            let number = metric.get("value").and_then(Value::as_f64);
            let unit = metric.get("unit").and_then(Value::as_str);
            match (number, unit) {
                (Some(number), Some(unit)) => {
                    metrics.insert(name.clone(), (number, unit.to_string()));
                }
                _ => return Err(format!("metric `{name}` has no value and unit")),
            }
        }
        Ok(Doc { workload, metrics })
    }
}

/// Every document in `dir`: each `*.json` or `*.jsonl` file, one document
/// per non-empty line, files in name order.
pub fn load_dir(dir: &Path) -> Result<Vec<Doc>, String> {
    let mut files: Vec<_> = fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "json" || e == "jsonl"))
        .collect();
    files.sort();
    let mut docs = Vec::new();
    for file in files {
        let text = fs::read_to_string(&file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        for (index, line) in text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
        {
            let value = serde_json::from_str(line)
                .map_err(|e| format!("{}:{}: {e}", file.display(), index + 1))?;
            docs.push(
                Doc::from_value(&value)
                    .map_err(|e| format!("{}:{}: {e}", file.display(), index + 1))?,
            );
        }
    }
    Ok(docs)
}

/// Direction and bound of every end-to-end metric: the crate's table, with
/// the bounds of the `end_to_end` entries of `BENCHMARK.json` applied on top.
pub fn bounds(benchmark_json: &Value) -> Result<BTreeMap<String, (Better, f64)>, String> {
    let mut bounds: BTreeMap<String, (Better, f64)> = END_TO_END
        .iter()
        .map(|m| (m.name.to_string(), (m.better, m.bound)))
        .collect();
    let entries = benchmark_json
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no `end_to_end` list")?;
    for entry in entries {
        let name = entry.get("name").and_then(Value::as_str);
        let better = entry
            .get("better")
            .and_then(Value::as_str)
            .and_then(Better::parse);
        let bound = entry.get("bound").and_then(Value::as_f64);
        match (name, better, bound) {
            (Some(name), Some(better), Some(bound)) => {
                bounds.insert(name.to_string(), (better, bound));
            }
            _ => return Err(format!("malformed end_to_end entry {entry:?}")),
        }
    }
    Ok(bounds)
}

/// The verdict on one (workload, metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins at least nine tenths of the pairs and the medians
    /// differ by more than the parent's own spread.
    Improved,
    /// Within the bound.
    Unchanged,
    /// The change's median is worse than the parent's by more than the bound.
    Worse,
    /// The runs spread wider than the bound, so no claim either way.
    Unresolved,
}

impl Verdict {
    /// Lower-case name used in the report.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Unit.
    pub unit: String,
    /// Parent quartiles.
    pub parent: (f64, f64, f64),
    /// Change quartiles.
    pub change: (f64, f64, f64),
    /// Pairs the change won (strictly better), of `pairs`.
    pub wins: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// The verdict.
    pub verdict: Verdict,
}

fn better_than(better: Better, a: f64, b: f64) -> bool {
    match better {
        Better::Higher => a > b,
        Better::Lower => a < b,
    }
}

/// Judge one metric from its paired values.
pub fn judge(better: Better, bound: f64, parent: &[f64], change: &[f64]) -> Option<Row> {
    let pairs = parent.len().min(change.len());
    let (parent, change) = (&parent[..pairs], &change[..pairs]);
    let p = quartiles(parent)?;
    let c = quartiles(change)?;
    let (pm, cm) = (median(parent)?, median(change)?);
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| better_than(better, **c, **p))
        .count();
    let scale = pm.abs();
    let spread = relative_iqr(parent).unwrap_or(0.0);
    // How much worse the change's median is, as a share of the parent's.
    let worse_by = match better {
        Better::Higher => pm - cm,
        Better::Lower => cm - pm,
    };
    let worse_share = if scale > 0.0 {
        worse_by / scale
    } else if worse_by > 0.0 {
        f64::INFINITY
    } else {
        0.0
    };
    let all = |a: &[f64], b: &[f64]| {
        a.iter()
            .all(|x| b.iter().all(|y| better_than(better, *x, *y)))
    };
    let improved = wins as f64 >= WIN_SHARE * pairs as f64
        && better_than(better, cm, pm)
        && (cm - pm).abs() > p.2 - p.0;
    // A deterministic metric (flow time, ratio) reads the same in every
    // pair when nothing changed, however much it varies between seeds.
    let identical = parent.iter().zip(change).all(|(p, c)| p == c);
    let verdict = if identical {
        Verdict::Unchanged
    } else if spread > bound {
        if all(change, parent) {
            Verdict::Improved
        } else if all(parent, change) && worse_share > bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else if improved {
        Verdict::Improved
    } else if worse_share > bound {
        Verdict::Worse
    } else {
        Verdict::Unchanged
    };
    Some(Row {
        workload: String::new(),
        metric: String::new(),
        unit: String::new(),
        parent: p,
        change: c,
        wins,
        pairs,
        verdict,
    })
}

/// Compare every (workload, metric) both sets report.  The i-th parent
/// document of a workload is paired with its i-th change document.
pub fn compare(
    parent: &[Doc],
    change: &[Doc],
    bounds: &BTreeMap<String, (Better, f64)>,
) -> Result<Vec<Row>, String> {
    let group = |docs: &[Doc]| {
        let mut by: BTreeMap<String, Vec<Doc>> = BTreeMap::new();
        for doc in docs {
            by.entry(doc.workload.clone())
                .or_default()
                .push(doc.clone());
        }
        by
    };
    let (parent, change) = (group(parent), group(change));
    let mut rows = Vec::new();
    for (workload, parent_docs) in &parent {
        let Some(change_docs) = change.get(workload) else {
            continue;
        };
        let pairs = parent_docs.len().min(change_docs.len());
        if pairs < MIN_PAIRS {
            return Err(format!(
                "{workload}: {pairs} pair(s) of runs, at least {MIN_PAIRS} are needed"
            ));
        }
        for metric in END_TO_END.iter().map(|m| m.name) {
            let values = |docs: &[Doc]| -> Option<Vec<f64>> {
                docs.iter()
                    .map(|d| d.metrics.get(metric).map(|m| m.0))
                    .collect()
            };
            let (Some(p), Some(c)) = (values(parent_docs), values(change_docs)) else {
                continue;
            };
            let &(better, bound) = bounds
                .get(metric)
                .ok_or_else(|| format!("no bound for `{metric}`"))?;
            if let Some(mut row) = judge(better, bound, &p, &c) {
                row.workload = workload.clone();
                row.metric = metric.to_string();
                row.unit = parent_docs[0].metrics[metric].1.clone();
                rows.push(row);
            }
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(workload: &str, tasks_per_s: f64, flow: f64) -> Doc {
        let mut metrics = BTreeMap::new();
        metrics.insert("tasks_per_s".to_string(), (tasks_per_s, "1/s".to_string()));
        metrics.insert("mean_flow_time".to_string(), (flow, "sim_time".to_string()));
        Doc {
            workload: workload.to_string(),
            metrics,
        }
    }

    fn set(workload: &str, tasks: &[f64], flow: f64) -> Vec<Doc> {
        tasks.iter().map(|&t| doc(workload, t, flow)).collect()
    }

    /// Bounds of 10% on throughput and 5% on flow time.
    fn table() -> BTreeMap<String, (Better, f64)> {
        [
            ("tasks_per_s".to_string(), (Better::Higher, 0.10)),
            ("mean_flow_time".to_string(), (Better::Lower, 0.05)),
        ]
        .into_iter()
        .collect()
    }

    fn verdict(rows: &[Row], metric: &str) -> Verdict {
        rows.iter().find(|r| r.metric == metric).unwrap().verdict
    }

    const PARENT: [f64; 10] = [
        100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
    ];

    #[test]
    fn identical_sets_are_unchanged() {
        let rows = compare(&set("w", &PARENT, 5.0), &set("w", &PARENT, 5.0), &table()).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(verdict(&rows, "tasks_per_s"), Verdict::Unchanged);
        assert_eq!(verdict(&rows, "mean_flow_time"), Verdict::Unchanged);
    }

    #[test]
    fn a_consistent_gain_beyond_the_spread_is_improved() {
        let faster: Vec<f64> = PARENT.iter().map(|t| t * 1.05).collect();
        let rows = compare(&set("w", &PARENT, 5.0), &set("w", &faster, 5.0), &table()).unwrap();
        let row = rows.iter().find(|r| r.metric == "tasks_per_s").unwrap();
        assert_eq!(
            (row.wins, row.pairs, row.verdict),
            (10, 10, Verdict::Improved)
        );
    }

    #[test]
    fn a_loss_beyond_the_bound_is_worse() {
        let slower: Vec<f64> = PARENT.iter().map(|t| t * 0.8).collect();
        let rows = compare(&set("w", &PARENT, 5.0), &set("w", &slower, 5.5), &table()).unwrap();
        assert_eq!(verdict(&rows, "tasks_per_s"), Verdict::Worse);
        // 10% longer flow time against a 5% bound.
        assert_eq!(verdict(&rows, "mean_flow_time"), Verdict::Worse);
    }

    #[test]
    fn a_small_loss_within_the_bound_is_unchanged() {
        let slower: Vec<f64> = PARENT.iter().map(|t| t * 0.97).collect();
        let rows = compare(&set("w", &PARENT, 5.0), &set("w", &slower, 5.0), &table()).unwrap();
        assert_eq!(verdict(&rows, "tasks_per_s"), Verdict::Unchanged);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let noisy = [
            60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 100.0, 100.0,
        ];
        let rows = compare(&set("w", &noisy, 5.0), &set("w", &PARENT, 5.0), &table()).unwrap();
        assert_eq!(verdict(&rows, "tasks_per_s"), Verdict::Unresolved);
        // Unless every change run beats every parent run.
        let fast = [200.0; 10];
        let rows = compare(&set("w", &noisy, 5.0), &set("w", &fast, 5.0), &table()).unwrap();
        assert_eq!(verdict(&rows, "tasks_per_s"), Verdict::Improved);
    }

    #[test]
    fn identical_pairs_are_unchanged_whatever_the_spread_between_seeds() {
        let per_seed: Vec<f64> = (0..10).map(|k| 1.0 + 0.01 * k as f64).collect();
        let exact = [("ratio_mean".to_string(), (Better::Lower, 1e-9))]
            .into_iter()
            .collect();
        let docs = |values: &[f64]| -> Vec<Doc> {
            values
                .iter()
                .map(|&v| Doc {
                    workload: "w".into(),
                    metrics: [("ratio_mean".to_string(), (v, "ratio".to_string()))]
                        .into_iter()
                        .collect(),
                })
                .collect()
        };
        let rows = compare(&docs(&per_seed), &docs(&per_seed), &exact).unwrap();
        assert_eq!(rows[0].verdict, Verdict::Unchanged);
        let mut worse = per_seed.clone();
        worse[3] += 0.5;
        let rows = compare(&docs(&per_seed), &docs(&worse), &exact).unwrap();
        assert_eq!(rows[0].verdict, Verdict::Unresolved);
    }

    #[test]
    fn fewer_than_ten_pairs_are_refused() {
        let short = &PARENT[..9];
        assert!(compare(&set("w", short, 5.0), &set("w", short, 5.0), &table()).is_err());
    }

    #[test]
    fn documents_round_trip_through_json() {
        let text =
            r#"{"workload": "w", "metrics": {"tasks_per_s": {"value": 12.5, "unit": "1/s"}}}"#;
        let parsed = Doc::from_value(&serde_json::from_str(text).unwrap()).unwrap();
        assert_eq!(parsed.workload, "w");
        assert_eq!(parsed.metrics["tasks_per_s"], (12.5, "1/s".to_string()));
    }
}

//! One benchmark run of one workload: set-up, a checked warm-up pass, timed
//! passes for the requested number of seconds, and optionally one traced
//! pass.

use std::collections::BTreeMap;
use std::fs;
use std::io::BufWriter;
use std::path::PathBuf;
use std::sync::Arc;

use serde_json::Value;
use telemetry::SpanTimer;

use crate::metrics::{end_to_end, PER_LAYER};
use crate::spans::{layer_times, write_jsonl, LayerTime, Tracer};
use crate::stats::{median, segment_min_total, Percentiles};
use crate::workloads::{coverage, setup, Check, Scale, Workload};

/// Timed passes a run makes at least, whatever the time budget.
pub const MIN_PASSES: usize = 3;

/// Groups of consecutive checkpoints the per-stretch minima are taken over
/// (see [`segment_min_total`]).
pub const SEGMENT_GROUPS: usize = 64;

/// A round of set-up repeats it at least a given number of times and until
/// a given time has passed, but at most this often (set-up can take a
/// microsecond).
const SETUP_MAX_REPEATS: usize = 200;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Time budget of the timed passes, in seconds.
    pub seconds: f64,
    /// Make one extra traced pass and report the per-layer metrics.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Directory to write the traced pass's spans to, as
    /// `<workload>.jsonl`.
    pub spans: Option<PathBuf>,
}

/// One reported end-to-end value.
#[derive(Debug, Clone, PartialEq)]
pub struct Reported {
    /// Metric name (see [`crate::metrics::END_TO_END`]).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
    /// Extra context printed after the unit (sample count, percentile).
    pub note: Option<String>,
}

/// Context every result document carries.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Seed of the run.
    pub seed: u64,
    /// Input scale.
    pub scale: Scale,
    /// Time budget of the timed passes.
    pub seconds: f64,
    /// Timed passes made.
    pub passes: usize,
    /// Input size of the workload.
    pub size: String,
    /// `std::thread::available_parallelism`.
    pub parallelism: usize,
    /// Build profile of the binary.
    pub profile: &'static str,
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Every output was checked and found correct.
    pub correct: bool,
    /// Operations attempted over every pass.
    pub attempted: usize,
    /// Operations that failed over every pass.
    pub failed: usize,
    /// End-to-end metrics that apply to the workload.
    pub metrics: Vec<Reported>,
    /// Per-layer metrics of the traced pass, in [`PER_LAYER`] order.
    pub per_layer: Option<Vec<(&'static str, f64)>>,
    /// Per-layer self times of the traced pass, by span name.
    pub layers: BTreeMap<&'static str, LayerTime>,
    /// The run's context.
    pub envelope: Envelope,
    /// Violations and mismatches found, for the log.
    pub messages: Vec<String>,
}

/// The build profile this binary was compiled with.
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), if readable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Set-up times (input generation plus registry build) of every repeat.
#[derive(Default)]
struct SetupTimes {
    setup_s: Vec<f64>,
    generate_s: Vec<f64>,
}

impl SetupTimes {
    /// Set up at least `min_repeats` times and until `min_seconds` have
    /// passed; returns the last input.
    fn round(
        &mut self,
        options: &Options,
        min_repeats: usize,
        min_seconds: f64,
    ) -> malleable_core::Result<Box<dyn Workload>> {
        let clock = SpanTimer::start();
        let mut repeats = 0;
        loop {
            let timer = SpanTimer::start();
            let (built, generate) = setup(&options.workload, options.seed, options.scale)?;
            self.setup_s.push(timer.elapsed().as_secs_f64());
            self.generate_s.push(generate);
            repeats += 1;
            let done = repeats >= min_repeats && clock.elapsed().as_secs_f64() >= min_seconds;
            if done || repeats >= SETUP_MAX_REPEATS {
                return Ok(built);
            }
        }
    }
}

/// Run one workload.
pub fn run(options: &Options) -> Result<Report, String> {
    let fail = |e: malleable_core::Error| format!("{}: {e}", options.workload);

    // Set-up is timed in rounds: one before the warm-up pass and a short one
    // after every timed pass, so its median samples the whole run rather
    // than one moment of it.
    let mut setup_times = SetupTimes::default();
    let mut workload = setup_times.round(options, 5, 0.05).map_err(fail)?;

    // Warm-up: one untimed pass, fully checked.  Peak memory is read after
    // it: set-up plus one pass is what the workload needs, while later
    // passes only add allocator drift (fresh shard threads get fresh
    // arenas) that varies with the number of passes.
    let warm = workload.pass(SpanTimer::start(), true).map_err(fail)?;
    let peak_rss_mb = peak_rss_mb().unwrap_or(0.0);
    let check = warm.check.clone().unwrap_or_default();
    let mut messages = check.messages.clone();

    // Timed passes until the budget is spent.
    let budget = SpanTimer::start();
    let mut passes = Vec::new();
    loop {
        passes.push(workload.pass(SpanTimer::start(), false).map_err(fail)?);
        setup_times.round(options, 1, 0.005).map_err(fail)?;
        let elapsed = budget.elapsed().as_secs_f64();
        let per_pass = elapsed / passes.len() as f64;
        if passes.len() >= MIN_PASSES && elapsed + per_pass > options.seconds {
            break;
        }
    }

    // Every pass must reproduce the checked pass bit for bit.
    let units = workload.units();
    let mismatched = passes
        .iter()
        .filter(|p| p.fingerprint != warm.fingerprint)
        .count();
    if mismatched > 0 {
        messages.push(format!(
            "{mismatched} timed pass(es) differ from the checked pass"
        ));
    }
    let attempted = units * (1 + passes.len());
    let failed = check.failed * (1 + passes.len() - mismatched) + units * mismatched;

    let metrics = end_to_end_metrics(
        workload.as_ref(),
        &passes,
        &check,
        median(&setup_times.setup_s).unwrap_or(0.0),
        failed as f64 / attempted.max(1) as f64,
        peak_rss_mb,
    )?;

    let mut correct = failed == 0 && mismatched == 0;
    let mut per_layer = None;
    let mut layers = BTreeMap::new();
    if options.trace {
        let tracer = Arc::new(Tracer::new());
        let traced = workload.traced(&tracer).map_err(fail)?;
        if traced.fingerprint != warm.fingerprint {
            correct = false;
            messages.push("the traced pass differs from the checked pass".into());
        }
        let mut values = traced.values;
        values.insert(
            "workload.generate_s",
            median(&setup_times.generate_s).unwrap_or(0.0),
        );
        values.insert("validate.s", check.seconds);
        values.insert("validate.violations", check.violations as f64);
        values.insert("trace.coverage", coverage(&tracer));
        // One traced pass against the median untraced pass: comparing it
        // with the fastest-stretch total would count a single pass's share
        // of outside interference as tracing overhead.
        let walls: Vec<f64> = passes.iter().map(|p| p.wall_ns() as f64 * 1e-9).collect();
        let untraced_s = median(&walls).unwrap_or(0.0);
        values.insert(
            "trace.overhead_share",
            1.0 - untraced_s / traced.work_s.max(1e-12),
        );
        if let Some(unknown) = values
            .keys()
            .find(|k| !PER_LAYER.iter().any(|m| m.0 == **k))
        {
            return Err(format!("per-layer metric `{unknown}` is not declared"));
        }
        per_layer = Some(
            PER_LAYER
                .iter()
                .map(|&(name, _, _)| (name, values.get(name).copied().unwrap_or(0.0)))
                .collect(),
        );
        let spans = tracer.spans();
        layers = layer_times(&spans);
        if let Some(dir) = &options.spans {
            let path = dir.join(format!("{}.jsonl", workload.name()));
            fs::create_dir_all(dir)
                .and_then(|()| fs::File::create(&path))
                .and_then(|file| write_jsonl(&spans, &mut BufWriter::new(file)))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
    }

    Ok(Report {
        workload: workload.name(),
        correct,
        attempted,
        failed,
        metrics,
        per_layer,
        layers,
        envelope: Envelope {
            seed: options.seed,
            scale: options.scale,
            seconds: options.seconds,
            passes: passes.len(),
            size: workload.size(),
            parallelism: std::thread::available_parallelism().map_or(1, usize::from),
            profile: profile(),
        },
        messages,
    })
}

/// The end-to-end metrics of the timed passes.
fn end_to_end_metrics(
    workload: &dyn Workload,
    passes: &[crate::workloads::Pass],
    check: &Check,
    setup_s: f64,
    failed_share: f64,
    peak_rss_mb: f64,
) -> Result<Vec<Reported>, String> {
    let name = workload.name();
    let checkpoints: Vec<Vec<u64>> = passes.iter().map(|p| p.checkpoints.clone()).collect();
    let pass_s = segment_min_total(&checkpoints, SEGMENT_GROUPS)
        .ok_or("timed passes reported different checkpoints")?
        * 1e-9;
    let latencies_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.latencies_ns.iter().map(|&ns| ns as f64 * 1e-6))
        .collect();
    let mut values: Vec<(&'static str, f64, Option<String>)> =
        vec![("tasks_per_s", workload.tasks() as f64 / pass_s, None)];
    // A tail metric reports its named percentile when at least ten samples
    // lie beyond it, else the highest percentile that has them (noted).
    let mut latency = |p50: &'static str, tail: &'static str, q: f64| {
        if let Some(p) = Percentiles::from_samples_up_to(&latencies_ms, q) {
            let n = format!("n={}", p.n);
            let note = match p.tail {
                Some((found, _)) if found == q => n.clone(),
                Some((found, _)) => format!("p{found} {n}"),
                None => format!("p50 {n}"),
            };
            values.push((p50, p.p50, Some(n)));
            values.push((tail, p.tail_or_median(), Some(note)));
        }
    };
    if name == "offline-mrt" {
        latency("solve_ms_p50", "solve_ms_p95", 95.0);
        values.push(("solves_per_s", workload.units() as f64 / pass_s, None));
        values.push(("ratio_mean", check.ratio_mean.unwrap_or(0.0), None));
    } else {
        latency("epoch_ms_p50", "epoch_ms_p99", 99.0);
    }
    values.push(("mean_flow_time", check.mean_flow_time, None));
    values.push(("failed_share", failed_share, None));
    values.push(("peak_rss_mb", peak_rss_mb, None));
    values.push(("setup_s", setup_s, None));

    let mut reported = Vec::with_capacity(values.len());
    for (metric, value, note) in values {
        let def = end_to_end(metric).ok_or_else(|| format!("metric `{metric}` is not declared"))?;
        if !def.workloads.contains(&name) {
            return Err(format!("metric `{metric}` does not apply to `{name}`"));
        }
        reported.push(Reported {
            name: def.name,
            unit: def.unit,
            value,
            note,
        });
    }
    Ok(reported)
}

impl Report {
    /// `workload metric value unit [note]`, one line per end-to-end metric.
    pub fn human_lines(&self) -> Vec<String> {
        self.metrics
            .iter()
            .map(|m| {
                let mut line = format!("{} {} {} {}", self.workload, m.name, m.value, m.unit);
                if let Some(note) = &m.note {
                    line.push(' ');
                    line.push_str(note);
                }
                line
            })
            .collect()
    }

    /// The per-layer table of the traced pass: spans, total and self time,
    /// and self time as a share of the pass.
    pub fn layer_table(&self) -> Vec<String> {
        let pass_s = self.layers.get("pass").map_or(0.0, |l| l.total_s);
        let mut lines = vec![format!(
            "{:<20} {:>9} {:>12} {:>12} {:>8}",
            "layer", "spans", "total_s", "self_s", "self%"
        )];
        for (name, layer) in &self.layers {
            lines.push(format!(
                "{:<20} {:>9} {:>12.6} {:>12.6} {:>7.2}%",
                name,
                layer.spans,
                layer.total_s,
                layer.self_s,
                100.0 * layer.self_s / pass_s.max(1e-12)
            ));
        }
        lines
    }

    fn metric_object(entries: impl Iterator<Item = (&'static str, &'static str, f64)>) -> Value {
        Value::Object(
            entries
                .map(|(name, unit, value)| {
                    (
                        name.to_string(),
                        Value::Object(vec![
                            ("value".into(), Value::Number(value)),
                            ("unit".into(), Value::from(unit)),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The one-line result printed last: the headline end-to-end metrics,
    /// or with a traced pass the per-layer metrics.
    pub fn result_line(&self) -> Value {
        let metrics = match &self.per_layer {
            Some(values) => Self::metric_object(values.iter().map(|&(name, value)| {
                let unit = crate::metrics::per_layer(name).map_or("", |m| m.1);
                (name, unit, value)
            })),
            None => Self::metric_object(
                self.metrics
                    .iter()
                    .filter(|m| end_to_end(m.name).is_some_and(|d| d.headline))
                    .map(|m| (m.name, m.unit, m.value)),
            ),
        };
        Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::from(self.attempted)),
            ("failed".into(), Value::from(self.failed)),
            ("metrics".into(), metrics),
        ])
    }

    /// The full result document: envelope, every end-to-end metric, and the
    /// per-layer metrics of a traced run.
    pub fn document(&self, commit: &str) -> Value {
        let e = &self.envelope;
        let envelope = Value::Object(vec![
            ("commit".into(), Value::from(commit)),
            ("available_parallelism".into(), Value::from(e.parallelism)),
            ("profile".into(), Value::from(e.profile)),
            ("seed".into(), Value::from(e.seed)),
            ("scale".into(), Value::from(e.scale.name())),
            ("seconds".into(), Value::from(e.seconds)),
            ("passes".into(), Value::from(e.passes)),
            ("size".into(), Value::from(e.size.clone())),
        ]);
        let per_layer = match &self.per_layer {
            Some(values) => Self::metric_object(values.iter().map(|&(name, value)| {
                let unit = crate::metrics::per_layer(name).map_or("", |m| m.1);
                (name, unit, value)
            })),
            None => Value::Null,
        };
        Value::Object(vec![
            ("workload".into(), Value::from(self.workload)),
            ("envelope".into(), envelope),
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::from(self.attempted)),
            ("failed".into(), Value::from(self.failed)),
            (
                "metrics".into(),
                Self::metric_object(self.metrics.iter().map(|m| (m.name, m.unit, m.value))),
            ),
            ("per_layer".into(), per_layer),
        ])
    }
}

//! Single-threaded benchmark of the augmented-queue workspace.
//!
//! Two seeded workloads (`sweep_points`, `aq_dataplane_1m`) time calls
//! into the public API of `aq-workloads`, `aq-bench`, `aq-netsim`, `aq-core` and
//! `aq-harness` on one thread. See `perfbench/README.md` for what each
//! workload stresses and which metric each layer should move.

pub mod aqload;
pub mod census;
pub mod clock;
pub mod host;
pub mod rng;
pub mod stats;
pub mod sweep;
pub mod trace;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// Everything one invocation reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Checked operations whose output was wrong.
    pub failed: u64,
    /// One line per failure (printed to stderr).
    pub failures: Vec<String>,
    /// Reported metrics, in output order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() {
                    format!("{:?}", m.value)
                } else {
                    "null".to_string()
                };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// `sweep_points` or `aq_dataplane_1m`.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Reduced sizes (for tests).
    pub small: bool,
    /// Repository root (holds `baselines/expected`).
    pub root: std::path::PathBuf,
}

/// The workload names, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 2] = ["sweep_points", "aq_dataplane_1m"];

/// Scenarios of the reduced sweep (the sharded-engine probe needs
/// `interpod_fattree`).
const SMALL_SCENARIOS: &[&str] = &["udp_tcp_share", "interpod_fattree"];

enum Measured {
    Sweep(sweep::SweepRun),
    Aq(aqload::AqRun),
}

impl Measured {
    fn end_to_end(&self) -> Vec<Metric> {
        match self {
            Measured::Sweep(r) => r.end_to_end(),
            Measured::Aq(r) => r.end_to_end(),
        }
    }

    fn absorb_into(&self, out: &mut Outcome) {
        let (attempted, failed, failures) = match self {
            Measured::Sweep(r) => (r.attempted, r.failed, &r.failures),
            Measured::Aq(r) => (r.attempted, r.failed, &r.failures),
        };
        out.attempted += attempted;
        out.failed += failed;
        out.failures.extend(failures.iter().cloned());
    }

    fn pkts_per_s(&self) -> f64 {
        self.end_to_end()
            .iter()
            .find(|m| m.name == "pkts_per_s")
            .map_or(f64::NAN, |m| m.value)
    }
}

fn grid(opts: &Options) -> Result<Vec<sweep::Point>, String> {
    let only = if opts.small {
        Some(SMALL_SCENARIOS)
    } else {
        None
    };
    sweep::points(sweep::GRID_SEED, &opts.root, only)
}

fn measure(
    opts: &Options,
    grid: &[sweep::Point],
    seconds: f64,
    tr: &mut trace::Tracer,
    tamper: aqload::Tamper,
) -> Measured {
    let scale = if opts.small {
        aqload::Scale::SMALL
    } else {
        aqload::Scale::FULL
    };
    // A traced run's halves are not gated and need not hold the floor.
    let passes = if opts.small || opts.trace {
        1
    } else {
        sweep::MIN_PASSES
    };
    match opts.workload.as_str() {
        "sweep_points" => Measured::Sweep(sweep::measure(grid, opts.seed, seconds, passes, tr)),
        _ => Measured::Aq(aqload::dataplane(opts.seed, seconds, 3, scale, tr, tamper)),
    }
}

/// Replace or append `m` in `metrics` by name.
fn set(metrics: &mut Vec<Metric>, m: Metric) {
    match metrics.iter_mut().find(|x| x.name == m.name) {
        Some(x) => *x = m,
        None => metrics.push(m),
    }
}

/// Run one invocation. With tracing off the metrics are the end-to-end
/// ones. A traced run measures the workload twice for half the time each,
/// untraced then traced (their `pkts_per_s` ratio is the tracing
/// overhead), and adds the census probes; its metrics are the per-layer
/// ones, and its spans are returned for writing out.
pub fn run(opts: &Options, tamper: aqload::Tamper) -> Result<(Outcome, trace::Tracer), String> {
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("unknown workload `{}`", opts.workload));
    }
    let grid = grid(opts)?;
    let mut out = Outcome::default();
    if !opts.trace {
        let mut tr = trace::Tracer::new(false);
        let m = measure(opts, &grid, opts.seconds, &mut tr, tamper);
        m.absorb_into(&mut out);
        out.metrics = m.end_to_end();
        return Ok((out, tr));
    }

    let half = opts.seconds / 2.0;
    let plain = measure(
        opts,
        &grid,
        half,
        &mut trace::Tracer::new(false),
        &mut |_, _| {},
    );
    plain.absorb_into(&mut out);
    let mut tr = trace::Tracer::new(true);
    let traced = measure(opts, &grid, half, &mut tr, tamper);
    traced.absorb_into(&mut out);
    let mut layer = match &traced {
        Measured::Sweep(run) => run.per_layer(&tr),
        Measured::Aq(run) => {
            // The simulator layers are measured on one traced pass of
            // the sweep grid; the verdict and table counts stay this
            // workload's own.
            let mut sweep_tr = trace::Tracer::new(true);
            let sweep = sweep::measure(&grid, opts.seed, 0.0, 1, &mut sweep_tr);
            out.attempted += sweep.attempted;
            out.failed += sweep.failed;
            out.failures.extend(sweep.failures.iter().cloned());
            let mut m = sweep.per_layer(&sweep_tr);
            let t = &run.first;
            for (name, v, unit) in [
                ("core.pipeline.forwarded", t.forwarded, "count"),
                ("core.pipeline.marked", t.marked, "count"),
                ("core.pipeline.dropped", t.dropped, "count"),
                ("core.table.evictions", t.evictions, "count"),
                ("core.table.readmissions", t.readmissions, "count"),
                ("core.table.rejected", t.rejected, "count"),
                ("core.table.peak_bytes", t.peak_bytes, "B"),
            ] {
                set(&mut m, Metric::new(name, v as f64, unit));
            }
            m
        }
    };
    let fattree = grid
        .iter()
        .find(|p| p.run.key.scenario == "interpod_fattree")
        .ok_or("the sweep grid lacks interpod_fattree")?;
    let scale = if opts.small {
        census::CensusScale::SMALL
    } else {
        census::CensusScale::FULL
    };
    let c = census::run(opts.seed, fattree, scale);
    out.attempted += c.attempted;
    out.failed += c.failed;
    out.failures.extend(c.failures);
    layer.extend(c.metrics);
    layer.push(Metric::new(
        "trace.overhead_frac",
        1.0 - traced.pkts_per_s() / plain.pkts_per_s(),
        "frac",
    ));
    out.metrics = layer;
    Ok((out, tr))
}

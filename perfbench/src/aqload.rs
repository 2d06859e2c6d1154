//! `aq_dataplane_1m`: a single `AqPipeline` holding 10⁶ AQs, driven
//! directly through `SwitchPipeline::ingress`. It never enters `netsim`'s scheduler or `transport`; the
//! rows far exceed the private caches, so a packet costs about one miss.
//! Also the churn pass (`on_control` create/destroy trains against a
//! budgeted table) that the traced census times.

use crate::clock;
use crate::host::RssPeak;
use crate::rng::{mix, Stream};
use crate::stats::{fast_rate, fast_time, median, quantile};

/// The fast-passes quantile of a timing metric. A data-plane pass takes
/// 0.15–0.25 s, so a 40 s run puts 15 or more passes beyond it.
pub const FAST_PASSES: f64 = 0.1;
use crate::trace::Tracer;
use crate::Metric;
use aq_core::{AqConfig, AqPipeline, CcPolicy, OverflowPolicy, PACKED_AQ_BYTES};
use aq_netsim::churn::{ChurnKind, ChurnPlan};
use aq_netsim::ids::{EntityId, FlowId, NodeId};
use aq_netsim::node::{PipelineVerdict, SwitchPipeline};
use aq_netsim::packet::{AqTag, Ecn, Packet};
use aq_netsim::time::{Duration, Rate, Time};
use std::hint::black_box;

/// Workload size.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// AQs deployed (and, for a churn pass, the register budget in rows).
    pub rows: u32,
    /// Packets per timed batch.
    pub batch: usize,
    /// Batches per data-plane pass.
    pub batches_per_pass: usize,
    /// Churn-train ticks per churn pass.
    pub ticks: u32,
    /// Times the table is built per run (`setup_s` is their median).
    pub setup_reps: usize,
}

impl Scale {
    /// The benchmark's size.
    pub const FULL: Scale = Scale {
        rows: 1_000_000,
        batch: 4096,
        batches_per_pass: 256,
        ticks: 80,
        setup_reps: 9,
    };

    /// A reduced size that runs in well under a second.
    pub const SMALL: Scale = Scale {
        rows: 20_000,
        batch: 256,
        batches_per_pass: 64,
        ticks: 20,
        setup_reps: 2,
    };
}

/// The configuration of AQ `id` for `seed`: rates from 1 Mbit/s to
/// 2 Gbit/s, limits of 1.5–7.5 kB, and an even mix of drop-, ECN- and
/// delay-based feedback, so forward, mark and drop verdicts all occur.
pub fn cfg_for(seed: u64, id: u32) -> AqConfig {
    let h = mix(seed ^ u64::from(id).wrapping_mul(0xD6E8_FEB8_6659_FD93));
    AqConfig {
        id: AqTag(id),
        rate: Rate::from_mbps(1 << (h % 12)),
        limit_bytes: 1_500 + (h >> 8) % 6_000,
        cc: match (h >> 20) % 3 {
            0 => CcPolicy::DropBased,
            1 => CcPolicy::EcnBased {
                threshold_bytes: 300 + ((h >> 24) % 1_500) as u32,
            },
            _ => CcPolicy::DelayBased,
        },
    }
}

/// Deploy AQs `1..=rows` into `pipe`.
pub fn fill(pipe: &mut AqPipeline, seed: u64, rows: u32) {
    for id in 1..=rows {
        pipe.deploy_ingress(cfg_for(seed, id));
    }
}

/// A budgeted pipeline: 15 B of register memory per row, longest-idle
/// eviction on overflow.
pub fn budgeted(rows: u32) -> AqPipeline {
    let mut pipe = AqPipeline::new();
    pipe.set_register_budget(
        Some(u64::from(rows) * PACKED_AQ_BYTES as u64),
        OverflowPolicy::EvictIdle,
    );
    pipe
}

/// Cumulative verdict and table counters of a pipeline's ingress side.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Packets forwarded by a matching AQ.
    pub forwarded: u64,
    /// Packets CE-marked.
    pub marked: u64,
    /// Packets dropped (AQ limit or overflow policing).
    pub dropped: u64,
    /// Rows evicted.
    pub evictions: u64,
    /// Parked AQs re-admitted by a data packet.
    pub readmissions: u64,
    /// Deploys rejected.
    pub rejected: u64,
    /// Packets that passed while their AQ was parked.
    pub degraded: u64,
    /// Register-memory high-water mark.
    pub peak_bytes: u64,
}

impl Tally {
    /// Read `pipe`'s counters.
    pub fn of(pipe: &AqPipeline) -> Tally {
        let s = &pipe.stats;
        let dropped = s.drops + s.overflow_drops;
        Tally {
            forwarded: s.ingress_matches.saturating_sub(dropped),
            marked: s.marks,
            dropped,
            evictions: pipe.ingress_table.evictions(),
            readmissions: pipe.ingress_degrade.readmissions,
            rejected: pipe.ingress_table.rejected_deploys(),
            degraded: pipe.ingress_degrade.degraded_pkts(),
            peak_bytes: pipe.ingress_table.peak_register_memory_bytes(),
        }
    }

    /// Counter growth from `before` to `self` (the peak is kept as is).
    pub fn since(&self, before: &Tally) -> Tally {
        Tally {
            forwarded: self.forwarded - before.forwarded,
            marked: self.marked - before.marked,
            dropped: self.dropped - before.dropped,
            evictions: self.evictions - before.evictions,
            readmissions: self.readmissions - before.readmissions,
            rejected: self.rejected - before.rejected,
            degraded: self.degraded - before.degraded,
            peak_bytes: self.peak_bytes,
        }
    }
}

fn packet() -> Packet {
    let mut pkt = Packet::data(
        FlowId(1),
        EntityId(1),
        NodeId(0),
        NodeId(1),
        0,
        1000,
        false,
        Time::ZERO,
    );
    pkt.ecn = Ecn::Capable;
    pkt
}

/// Push one batch of packets through `pipe`'s ingress. Packet `k` of the
/// batch carries AQ id `ids[k]`, `sizes[k]` bytes, and arrives at
/// `t0 + k` ns. Returns the number of packets the pipeline dropped.
pub fn ingress_batch(pipe: &mut dyn SwitchPipeline, ids: &[u32], sizes: &[u32], t0: u64) -> u64 {
    let mut pkt = packet();
    let mut drops = 0u64;
    for (k, (&id, &size)) in ids.iter().zip(sizes).enumerate() {
        pkt.aq_ingress = AqTag(id);
        pkt.size = size;
        pkt.ecn = Ecn::Capable;
        pkt.vdelay_ns = 0;
        let v = pipe.ingress(Time::from_nanos(t0 + k as u64), &mut pkt);
        drops += u64::from(v != PipelineVerdict::Forward);
    }
    black_box(drops)
}

/// Raw samples of one data-plane run (or of churn passes).
#[derive(Debug, Default)]
pub struct AqRun {
    /// Table build times (ns), one per set-up repetition.
    pub setup_ns: Vec<f64>,
    /// Summary of every timed pass.
    pub passes: Vec<PassStats>,
    /// Every timed batch (ns).
    pub batch_ns: Vec<f64>,
    /// Every timed control op of a churn pass (ns).
    pub ctl_ns: Vec<f64>,
    /// Counter growth of the first pass.
    pub first: Tally,
    /// Packets checked.
    pub attempted: u64,
    /// Operations in passes whose counters were wrong.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// Resident-set peak.
    pub rss: RssPeak,
}

impl AqRun {
    fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        self.failures.push(why);
    }

    /// Close a pass that began when `batch_ns` held `b0` samples:
    /// summarise the samples it added.
    fn end_pass(&mut self, b0: usize, pkts: u64) {
        let batches = &self.batch_ns[b0..];
        let batch_ns: f64 = batches.iter().sum();
        self.passes.push(PassStats {
            pkts_per_s: pkts as f64 / (batch_ns / 1e9),
            run_ms_p50: quantile(batches, 0.5) / 1e6,
            run_ms_p90: quantile(batches, 0.9) / 1e6,
        });
    }

    /// End-to-end metrics (see the benchmark's README for definitions).
    pub fn end_to_end(&self) -> Vec<Metric> {
        let col = |f: fn(&PassStats) -> f64| -> Vec<f64> { self.passes.iter().map(f).collect() };
        let fast = |f| fast_time(&col(f), FAST_PASSES);
        vec![
            Metric::new("setup_s", median(&self.setup_ns) / 1e9, "s"),
            Metric::new(
                "pkts_per_s",
                fast_rate(&col(|p| p.pkts_per_s), FAST_PASSES),
                "pkt/s",
            ),
            Metric::new("run_ms_p50", fast(|p| p.run_ms_p50), "ms"),
            Metric::new("run_ms_p90", fast(|p| p.run_ms_p90), "ms"),
            Metric::new("peak_rss_mb", self.rss.mb(), "MB"),
        ]
    }
}

/// One timed pass of an aq workload.
#[derive(Debug, Clone, Copy)]
pub struct PassStats {
    /// Packets per second of batch time.
    pub pkts_per_s: f64,
    /// Median batch time.
    pub run_ms_p50: f64,
    /// 90th-percentile batch time.
    pub run_ms_p90: f64,
}

/// The seeded data-plane stream: one pass of AQ ids (uniform over the
/// table) and packet sizes (64–1500 B).
pub struct DataplaneInputs {
    ids: Vec<u32>,
    sizes: Vec<u32>,
}

impl DataplaneInputs {
    /// Generate one pass of inputs.
    pub fn new(seed: u64, scale: Scale) -> DataplaneInputs {
        let n = scale.batch * scale.batches_per_pass;
        let mut rng = Stream::new(seed, 1);
        let rows = u64::from(scale.rows);
        let ids = (0..n).map(|_| 1 + rng.below(rows) as u32).collect();
        let sizes = (0..n).map(|_| 64 + rng.below(1_437) as u32).collect();
        DataplaneInputs { ids, sizes }
    }
}

/// Simulated start of data-plane pass `p`. Passes sit 100 s apart, so
/// every A-Gap drains to zero in between and each pass replays from the
/// same state: its verdicts must repeat exactly.
fn pass_base_ns(p: usize) -> u64 {
    (p as u64 + 1) * 100_000_000_000
}

/// One data-plane pass: `batches_per_pass` timed batches.
pub fn dataplane_pass(
    pipe: &mut AqPipeline,
    scale: Scale,
    inputs: &DataplaneInputs,
    p: usize,
    tr: &mut Tracer,
    run: &mut AqRun,
) -> Tally {
    let before = Tally::of(pipe);
    let base = pass_base_ns(p);
    let b0 = run.batch_ns.len();
    for b in 0..scale.batches_per_pass {
        let lo = b * scale.batch;
        let hi = lo + scale.batch;
        tr.begin("core.pipeline.ingress");
        let t = clock::now();
        ingress_batch(
            pipe,
            &inputs.ids[lo..hi],
            &inputs.sizes[lo..hi],
            base + lo as u64,
        );
        run.batch_ns.push(clock::ns_since(t) as f64);
        tr.end();
    }
    run.end_pass(b0, inputs.ids.len() as u64);
    Tally::of(pipe).since(&before)
}

/// Called after every pass with the pass index; tests use it to plant a
/// fault in the pipeline.
pub type Tamper<'a> = &'a mut dyn FnMut(usize, &mut AqPipeline);

/// Run `aq_dataplane_1m`: build the table `setup_reps` times, then replay
/// the seeded pass until `seconds` have elapsed (at least `min_passes`
/// passes). Every pass must reproduce the first pass's counters.
pub fn dataplane(
    seed: u64,
    seconds: f64,
    min_passes: usize,
    scale: Scale,
    tr: &mut Tracer,
    tamper: Tamper,
) -> AqRun {
    let mut run = AqRun::default();
    let mut pipe = AqPipeline::new();
    for _ in 0..scale.setup_reps {
        drop(pipe);
        tr.begin("core.table.fill");
        let t = clock::now();
        pipe = AqPipeline::new();
        fill(&mut pipe, seed, scale.rows);
        run.setup_ns.push(clock::ns_since(t) as f64);
        tr.end();
        run.rss.sample();
    }
    let inputs = DataplaneInputs::new(seed, scale);
    let ops_per_pass = inputs.ids.len() as u64;
    let start = clock::now();
    let mut p = 0;
    while p < min_passes || (clock::ns_since(start) as f64) < seconds * 1e9 {
        let got = dataplane_pass(&mut pipe, scale, &inputs, p, tr, &mut run);
        run.attempted += ops_per_pass;
        if p == 0 {
            run.first = got;
            if got.forwarded == 0 || got.marked == 0 || got.dropped == 0 {
                run.fail(
                    ops_per_pass,
                    format!("pass 0: not every verdict occurred: {got:?}"),
                );
            }
        } else if got != run.first {
            run.fail(
                ops_per_pass,
                format!(
                    "pass {p}: counters {got:?} differ from pass 0 {:?}",
                    run.first
                ),
            );
        }
        if pipe.ingress_table.len() != scale.rows as usize {
            run.fail(
                ops_per_pass,
                format!(
                    "pass {p}: {} rows deployed, expected {}",
                    pipe.ingress_table.len(),
                    scale.rows
                ),
            );
        }
        tamper(p, &mut pipe);
        p += 1;
    }
    run.rss.sample();
    run
}

/// The `tenant_train` of churn pass `p`: `ticks` ticks 10 µs apart, each
/// creating a fresh tenant id above the pre-filled rows; from tick
/// `ticks / 2` on each tick also destroys the tenant created `ticks / 2`
/// ticks earlier.
pub fn churn_train(seed: u64, scale: Scale, p: usize) -> ChurnPlan {
    let base = scale.rows + 1 + u32::try_from(p).expect("pass index fits u32") * scale.ticks;
    ChurnPlan::new(seed).tenant_train(
        NodeId(0),
        Time::from_nanos(pass_base_ns(p)),
        Duration::from_micros(10),
        scale.ticks,
        base,
        scale.ticks,
        scale.ticks / 2,
        1_000_000_000,
        6_000,
    )
}

/// One churn pass on a full budgeted table. Every create finds the table
/// full and evicts the longest-idle row; each destroy frees a row, which
/// the tick's first data packet — addressed to an evicted (parked) AQ —
/// re-admits. The remaining packets of each tick's batch go to deployed
/// AQs, uniformly. Control ops and data batches are timed separately.
pub fn churn_pass(
    pipe: &mut AqPipeline,
    seed: u64,
    scale: Scale,
    p: usize,
    tr: &mut Tracer,
    run: &mut AqRun,
) -> Tally {
    let before = Tally::of(pipe);
    let train = churn_train(seed, scale, p);
    let mut rng = Stream::new(seed, 1_000 + p as u64);
    let rows = u64::from(scale.rows);
    let mut ids = Vec::with_capacity(scale.batch);
    let sizes: Vec<u32> = (0..scale.batch)
        .map(|_| 64 + rng.below(1_437) as u32)
        .collect();
    let b0 = run.batch_ns.len();
    let mut pkts = 0u64;
    let mut i = 0;
    while i < train.events.len() {
        let at = train.events[i].at;
        let mut destroyed = false;
        while i < train.events.len() && train.events[i].at == at {
            let ev = train.events[i];
            destroyed |= matches!(ev.kind, ChurnKind::Destroy { .. });
            let op = ev.kind.control();
            tr.begin("core.pipeline.on_control");
            let t = clock::now();
            pipe.on_control(ev.at, &op);
            run.ctl_ns.push(clock::ns_since(t) as f64);
            tr.end();
            i += 1;
        }
        // Inputs for this tick's batch, drawn before the clock starts.
        ids.clear();
        let parked = &pipe.ingress_degrade.parked;
        if destroyed {
            let r = 1 + rng.below(rows) as u32;
            let readmit = parked.range(r..).next().or_else(|| parked.iter().next());
            ids.extend(readmit.map(|(&id, _)| id));
        }
        while ids.len() < scale.batch {
            let id = 1 + rng.below(rows) as u32;
            if !parked.contains_key(&id) {
                ids.push(id);
            }
        }
        tr.begin("core.pipeline.ingress");
        let t = clock::now();
        ingress_batch(pipe, &ids, &sizes, at.0);
        run.batch_ns.push(clock::ns_since(t) as f64);
        tr.end();
        pkts += ids.len() as u64;
    }
    run.end_pass(b0, pkts);
    Tally::of(pipe).since(&before)
}

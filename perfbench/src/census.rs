//! Per-layer probes for the traced run.
//!
//! Every traced run, whatever its workload, ends with this census so that
//! it reports every per-layer metric: the event-queue hold model, the
//! sharded engine at one worker, and the `aq-core` table, gap, feedback
//! and pipeline micro-paths at fixed sizes. Inputs come from the run's
//! seed; each probe also checks the outputs it can.

use crate::aqload::{budgeted, cfg_for, fill, ingress_batch, Tally};
use crate::clock;
use crate::rng::Stream;
use crate::stats::median;
use crate::sweep::Point;
use crate::trace::Tracer;
use crate::Metric;
use aq_bench::report::RunReport;
use aq_bench::{build_experiment, pq_ecn_for, ExpConfig};
use aq_core::{
    process_packet, AGap, AqInstance, AqPipeline, CcPolicy, DeployOutcome, OverflowPolicy,
    PackedAq, PACKED_AQ_BYTES,
};
use aq_netsim::event::{EventKind, EventQueue};
use aq_netsim::ids::{EntityId, FlowId, NodeId};
use aq_netsim::node::{PipelineControl, SwitchPipeline};
use aq_netsim::packet::{AqTag, Ecn, Packet};
use aq_netsim::shard::ShardedSim;
use aq_netsim::time::{Duration, Time};
use aq_workloads::registry::RunPlan;
use std::hint::black_box;

/// Sizes of the census probes.
#[derive(Debug, Clone, Copy)]
pub struct CensusScale {
    /// Table sizes of the ingress-cost and eviction-cost curves.
    pub curve: &'static [u32],
    /// Packets streamed at each curve point.
    pub curve_pkts: usize,
    /// Iterations of each compute-only micro-loop.
    pub micro_iters: u64,
    /// Push/pop pairs of the event-queue hold model.
    pub hold_ops: u64,
    /// Repetitions of the sharded-engine probe.
    pub shard_reps: usize,
}

impl CensusScale {
    /// The benchmark's size. The 10⁷-row curve point is left out: its
    /// table would hold ~2.2 GB resident, more while its vectors grow.
    pub const FULL: CensusScale = CensusScale {
        curve: &[1_000, 10_000, 100_000, 1_000_000],
        curve_pkts: 1 << 21,
        micro_iters: 5_000_000,
        hold_ops: 2_000_000,
        shard_reps: 3,
    };

    /// A reduced size for tests.
    pub const SMALL: CensusScale = CensusScale {
        curve: &[1_000, 10_000],
        curve_pkts: 1 << 14,
        micro_iters: 100_000,
        hold_ops: 50_000,
        shard_reps: 1,
    };
}

/// What the census measured.
#[derive(Debug, Default)]
pub struct Census {
    /// Per-layer metrics.
    pub metrics: Vec<Metric>,
    /// Checked operations.
    pub attempted: u64,
    /// Checked operations whose output was wrong.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Census {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }

    fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(why());
        }
    }
}

/// Time `n` iterations of `f` and return nanoseconds per iteration.
fn per_iter(n: u64, mut f: impl FnMut(u64)) -> f64 {
    let t = clock::now();
    for i in 0..n {
        f(i);
    }
    clock::ns_since(t) as f64 / n as f64
}

/// `EventQueue` hold model: keep `pending` events queued; each step pops
/// the earliest and pushes one a random 1–1000 ns later. Returns ns per
/// pop+push pair; pops must come out in time order.
fn hold(c: &mut Census, seed: u64, pending: u64, ops: u64) -> f64 {
    let mut rng = Stream::new(seed, 7);
    let mut q = EventQueue::new();
    let kind = |token| EventKind::NodeTimer {
        node: NodeId(0),
        token,
    };
    for i in 0..pending {
        q.push(Time::from_nanos(1 + rng.below(1_000)), kind(i));
    }
    let incs: Vec<u64> = (0..4096).map(|_| 1 + rng.below(1_000)).collect();
    let mut last = Time::ZERO;
    let mut ordered = true;
    let ns = per_iter(ops, |i| {
        let ev = q.pop().expect("hold model keeps the queue non-empty");
        ordered &= ev.time >= last;
        last = ev.time;
        q.push(
            ev.time + Duration::from_nanos(incs[(i & 4095) as usize]),
            kind(i),
        );
    });
    c.check(ordered && q.len() as u64 == pending, || {
        format!("event queue hold model at {pending}: pops out of time order or lost events")
    });
    ns
}

/// The sharded engine at one worker on `interpod_fattree`: partition,
/// run and finish times, and their total over the reference engine's run
/// of the same point. The merged report must equal the reference's.
fn shard(c: &mut Census, point: &Point, reps: usize) {
    let run = &point.run;
    let build = || {
        let plan = (run.def.build)(&run.resolved);
        let exp = build_experiment(
            run.approach,
            &plan,
            ExpConfig {
                seed: run.key.seed,
                ecn_threshold: pq_ecn_for(run.approach, &plan.entities),
                ..Default::default()
            },
        );
        let until = match plan.run {
            RunPlan::FixedHorizon { horizon } => Time::ZERO + horizon,
            RunPlan::UntilComplete { deadline } => Time::ZERO + deadline,
        };
        (exp, until)
    };
    let render = |sim: &mut aq_netsim::sim::Simulator| {
        let mut rep = RunReport::new("shard");
        rep.capture("run", sim);
        rep.render_json()
    };
    let (mut partition, mut run_ms, mut finish, mut ratio) = (vec![], vec![], vec![], vec![]);
    for _ in 0..reps {
        let (mut exp, until) = build();
        let t = clock::now();
        exp.sim.run_until(until);
        let reference_ns = clock::ns_since(t) as f64;
        let want = render(&mut exp.sim);

        let (exp, until) = build();
        let t = clock::now();
        let sharded = ShardedSim::partition(exp.sim, &exp.shard_plan, 1);
        let p_ns = clock::ns_since(t) as f64;
        let Ok(mut sharded) = sharded else {
            c.check(false, || format!("{}: not shardable", run.key));
            return;
        };
        let t = clock::now();
        sharded.run_until(until);
        let r_ns = clock::ns_since(t) as f64;
        let t = clock::now();
        let mut merged = sharded.finish();
        let f_ns = clock::ns_since(t) as f64;
        let got = render(&mut merged);
        c.check(got == want, || {
            format!("{}: sharded report differs from reference", run.key)
        });
        partition.push(p_ns / 1e6);
        run_ms.push(r_ns / 1e6);
        finish.push(f_ns / 1e6);
        ratio.push((p_ns + r_ns + f_ns) / reference_ns);
    }
    c.put("netsim.shard.partition_ms", median(&partition), "ms");
    c.put("netsim.shard.run_ms_jobs1", median(&run_ms), "ms");
    c.put("netsim.shard.finish_ms", median(&finish), "ms");
    c.put("netsim.shard.jobs1_over_ref", median(&ratio), "ratio");
}

/// Per-packet ingress cost against a table of each curve size, plus the
/// table-layer, gap, feedback and encoding micro-paths.
fn dataplane_layers(c: &mut Census, seed: u64, scale: CensusScale) {
    const BATCH: usize = 4096;
    let mut rng = Stream::new(seed, 11);
    let sizes: Vec<u32> = (0..BATCH).map(|_| 64 + rng.below(1_437) as u32).collect();
    let largest = *scale.curve.last().expect("curve has points");
    for &n in scale.curve {
        let rss0 = crate::host::rss_bytes();
        let mut pipe = AqPipeline::new();
        let t = clock::now();
        fill(&mut pipe, seed, n);
        let fill_ns = clock::ns_since(t) as f64;
        let rss1 = crate::host::rss_bytes();
        let ids: Vec<u32> = (0..scale.curve_pkts)
            .map(|_| 1 + rng.below(u64::from(n)) as u32)
            .collect();
        let mut per_pkt = Vec::new();
        for (b, chunk) in ids.chunks(BATCH).enumerate() {
            let t = clock::now();
            ingress_batch(&mut pipe, chunk, &sizes[..chunk.len()], (b * BATCH) as u64);
            per_pkt.push(clock::ns_since(t) as f64 / chunk.len() as f64);
        }
        let tally = Tally::of(&pipe);
        c.check(tally.forwarded + tally.dropped == ids.len() as u64, || {
            format!(
                "ingress curve at {n}: {tally:?} does not account for {} packets",
                ids.len()
            )
        });
        c.put(
            &format!("core.pipeline.ingress_ns_{}", exponent(n)),
            median(&per_pkt),
            "ns",
        );
        if n != largest {
            continue;
        }
        c.put("core.table.deploy_ns", fill_ns / f64::from(n), "ns");
        c.put(
            "core.table.rss_bytes_per_aq",
            rss1.saturating_sub(rss0) as f64 / f64::from(n),
            "B",
        );
        let mut pkt = data_packet();
        let base = (ids.len() + 1) as u64;
        let mut hits = 0u64;
        let ns = per_iter(ids.len() as u64, |i| {
            pkt.size = sizes[(i as usize) % BATCH];
            pkt.vdelay_ns = 0;
            pkt.ecn = Ecn::Capable;
            let id = AqTag(ids[i as usize]);
            hits += u64::from(
                pipe.ingress_table
                    .process(id, Time::from_nanos(base + i), &mut pkt)
                    .is_some(),
            );
        });
        c.check(hits == ids.len() as u64, || {
            format!("table process at {n}: {hits} hits")
        });
        c.put(&format!("core.table.process_ns_{}", exponent(n)), ns, "ns");
    }

    let cfg = cfg_for(seed, 1);
    let mut gap = AGap::new(cfg.rate);
    let ns = per_iter(scale.micro_iters, |i| {
        black_box(gap.on_packet(Time::from_nanos(i * 100), sizes[(i as usize) % BATCH]));
    });
    c.put("core.gap.on_packet_ns", ns, "ns");

    let mut inst = AqInstance::new(aq_core::AqConfig {
        cc: CcPolicy::EcnBased {
            threshold_bytes: 3_000,
        },
        ..cfg
    });
    let mut pkt = data_packet();
    let ns = per_iter(scale.micro_iters, |i| {
        pkt.size = sizes[(i as usize) % BATCH];
        pkt.ecn = Ecn::Capable;
        black_box(process_packet(
            &mut inst,
            Time::from_nanos(i * 100),
            &mut pkt,
        ));
    });
    c.put("core.feedback.algorithm2_ns", ns, "ns");

    let ns = per_iter(scale.micro_iters, |_| {
        black_box(PackedAq::encode(black_box(&inst)));
    });
    c.put("core.config.packed_encode_ns", ns, "ns");
}

fn data_packet() -> Packet {
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

/// `1_000_000` → `"1e6"`.
fn exponent(n: u32) -> String {
    format!("1e{}", f64::from(n).log10().round())
}

/// Check a churn pass's counters against its train's structure.
fn check_churn(c: &mut Census, pipe: &AqPipeline, scale: crate::aqload::Scale, got: &Tally) {
    let destroys = u64::from(scale.ticks - scale.ticks / 2);
    let budget = u64::from(scale.rows) * PACKED_AQ_BYTES as u64;
    for (bad, why) in [
        (
            got.evictions != u64::from(scale.ticks),
            "every create must evict",
        ),
        (
            got.readmissions != destroys,
            "every freed row must be re-admitted",
        ),
        (got.rejected != 0, "evict_idle never rejects"),
        (got.degraded != 0, "no packet may pass unenforced"),
        (got.peak_bytes > budget, "occupancy exceeded the budget"),
        (
            pipe.ingress_table.len() != scale.rows as usize,
            "the table must end full",
        ),
    ] {
        c.check(!bad, || format!("churn pass: {why}: {got:?}"));
    }
}

/// Control-path costs against a full budgeted table of each curve size:
/// evicting deploys at every size, and at the largest size the fill,
/// re-admission, churn-op, reject, remove and wipe paths.
fn control_layers(c: &mut Census, seed: u64, scale: CensusScale) {
    let largest = *scale.curve.last().expect("curve has points");
    for &n in scale.curve {
        let mut pipe = budgeted(n);
        let t = clock::now();
        fill(&mut pipe, seed, n);
        let fill_ns = clock::ns_since(t) as f64 / f64::from(n);
        // About 0.3 s of evictions at each size, between 20 and 1000.
        let evicts = (300_000_000 / u64::from(n)).clamp(20, 1_000) as u32;
        let mut evict_us = Vec::new();
        let mut ok = true;
        for k in 0..evicts {
            let cfg = cfg_for(seed, n + 1 + k);
            let t = clock::now();
            let outcome = pipe.deploy_ingress(cfg);
            evict_us.push(clock::ns_since(t) as f64 / 1e3);
            ok &= matches!(outcome, DeployOutcome::Evicted(_));
        }
        c.check(ok, || {
            format!("evict curve at {n}: a deploy at budget did not evict")
        });
        c.put(
            &format!("core.table.evict_us_{}", exponent(n)),
            median(&evict_us),
            "us",
        );
        if n != largest {
            continue;
        }
        c.put("core.table.fill_deploy_ns", fill_ns, "ns");

        // Re-admission: free a row, then send a packet of a parked AQ.
        let mut readmit_us = Vec::new();
        let mut now = 1_000_000_000u64;
        let mut pkt = data_packet();
        for k in 0..evicts.min(20) {
            pipe.on_control(
                Time::from_nanos(now),
                &PipelineControl::Destroy { id: n + 1 + k },
            );
            let Some(&parked) = pipe.ingress_degrade.parked.keys().next() else {
                break;
            };
            let before = pipe.ingress_degrade.readmissions;
            pkt.aq_ingress = AqTag(parked);
            now += 1_000;
            let t = clock::now();
            black_box(pipe.ingress(Time::from_nanos(now), &mut pkt));
            readmit_us.push(clock::ns_since(t) as f64 / 1e3);
            c.check(pipe.ingress_degrade.readmissions == before + 1, || {
                format!("aq {parked} was not re-admitted into a free row")
            });
        }
        c.put("core.pipeline.readmit_us", median(&readmit_us), "us");

        // A short churn pass through the control hook on the full table:
        // every create must evict, every freed row must be re-admitted.
        let short = crate::aqload::Scale {
            rows: n,
            ticks: 24,
            batch: 256,
            ..crate::aqload::Scale::FULL
        };
        let mut churn = crate::aqload::AqRun::default();
        let got = crate::aqload::churn_pass(
            &mut pipe,
            seed,
            short,
            1_000,
            &mut Tracer::new(false),
            &mut churn,
        );
        check_churn(c, &pipe, short, &got);
        let ctl_us: Vec<f64> = churn.ctl_ns.iter().map(|ns| ns / 1e3).collect();
        c.put("core.pipeline.on_control_us_p50", median(&ctl_us), "us");

        // Reject path: top the table up, switch to reject-new, offer
        // fresh ids.
        let budget = pipe.ingress_table.budget_bytes();
        pipe.set_register_budget(budget, OverflowPolicy::RejectNew);
        let mut top_up = 0;
        while (pipe.ingress_table.len() as u32) < n {
            pipe.deploy_ingress(cfg_for(seed, 3 * n + top_up));
            top_up += 1;
        }
        let rejected0 = pipe.ingress_table.rejected_deploys();
        let offers = 10_000u32;
        let ns = per_iter(u64::from(offers), |i| {
            black_box(
                pipe.ingress_table
                    .try_deploy(Time::ZERO, cfg_for(seed, 4 * n + i as u32)),
            );
        });
        c.check(
            pipe.ingress_table.rejected_deploys() - rejected0 == u64::from(offers),
            || "reject-new admitted a deploy at budget".to_string(),
        );
        c.put("core.table.reject_ns", ns, "ns");

        let mut rng = Stream::new(seed, 13);
        let victims: Vec<u32> = (0..10_000)
            .map(|_| 1 + rng.below(u64::from(n)) as u32)
            .collect();
        let ns = per_iter(victims.len() as u64, |i| {
            black_box(pipe.ingress_table.remove(AqTag(victims[i as usize])));
        });
        c.put("core.table.remove_ns", ns, "ns");

        let t = clock::now();
        pipe.ingress_table.wipe(Time::from_nanos(now));
        c.put(
            &format!("core.table.wipe_ms_{}", exponent(n)),
            clock::ns_since(t) as f64 / 1e6,
            "ms",
        );
    }
}

/// Run every probe. `fattree` is the `interpod_fattree` sweep point.
pub fn run(seed: u64, fattree: &Point, scale: CensusScale) -> Census {
    let mut c = Census::default();
    let h2 = hold(&mut c, seed, 100, scale.hold_ops);
    let h4 = hold(&mut c, seed, 10_000, scale.hold_ops);
    c.put("netsim.event.hold_ns_1e2", h2, "ns");
    c.put("netsim.event.hold_ns_1e4", h4, "ns");
    shard(&mut c, fattree, scale.shard_reps);
    dataplane_layers(&mut c, seed, scale);
    control_layers(&mut c, seed, scale);
    c
}

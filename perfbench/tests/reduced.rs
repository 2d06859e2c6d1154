//! Reduced-size runs of every workload, and planted faults that the
//! output checks must count as failed operations.
//!
//! ```text
//! cargo test --manifest-path perfbench/Cargo.toml
//! ```

use aq_perfbench::aqload::{self, Scale};
use aq_perfbench::sweep;
use aq_perfbench::trace::Tracer;
use aq_perfbench::{run, Options, WORKLOADS};
use std::path::PathBuf;

fn root() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
}

fn small(workload: &str, trace: bool) -> Options {
    Options {
        workload: workload.to_string(),
        seed: 4,
        seconds: 0.0,
        trace,
        small: true,
        root: root(),
    }
}

#[test]
fn every_workload_runs_clean_at_reduced_size() {
    for w in WORKLOADS {
        let (out, _) = run(&small(w, false), &mut |_, _| {}).expect("runs");
        assert!(out.attempted > 0, "{w}: nothing attempted");
        assert_eq!(out.failed, 0, "{w}: {:?}", out.failures);
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "setup_s",
                "pkts_per_s",
                "run_ms_p50",
                "run_ms_p90",
                "peak_rss_mb"
            ],
            "{w}"
        );
        for m in &out.metrics {
            assert!(m.value.is_finite() && m.value > 0.0, "{w}: {m:?}");
        }
        assert!(out.to_json().starts_with("{\"correct\": true, "));
    }
}

#[test]
fn traced_run_reports_the_layers() {
    let (out, tr) = run(&small("aq_dataplane_1m", true), &mut |_, _| {}).expect("runs");
    assert_eq!(out.failed, 0, "{:?}", out.failures);
    let has = |n: &str| out.metrics.iter().any(|m| m.name == n);
    for n in [
        "workloads.registry.plan_us_p50",
        "netsim.sim.ns_per_event_p50",
        "netsim.event.hold_ns_1e4",
        "netsim.shard.jobs1_over_ref",
        "core.pipeline.ingress_ns_1e3",
        "core.table.evict_us_1e4",
        "core.pipeline.readmit_us",
        "core.pipeline.on_control_us_p50",
        "core.table.evictions",
        "trace.overhead_frac",
    ] {
        assert!(has(n), "missing {n}");
    }
    // The data plane re-provisions in place and never evicts.
    let evictions = out
        .metrics
        .iter()
        .find(|m| m.name == "core.table.evictions")
        .unwrap();
    assert_eq!(evictions.value, 0.0);
    assert!(tr.spans().iter().any(|s| s.name == "core.pipeline.ingress"));
}

#[test]
fn a_corrupted_committed_report_is_a_failed_point() {
    let mut grid = sweep::points(1, &root(), Some(&["udp_tcp_share"])).expect("points");
    assert_eq!(grid.len(), 1);
    let expected = grid[0]
        .expected
        .as_mut()
        .expect("seed 1 has a committed artifact");
    *expected = expected.replacen("\"events\"", "\"evnts\"", 1);
    let run = sweep::measure(&grid, 4, 0.0, 1, &mut Tracer::new(false));
    // The warm-up pass and the timed pass both render the true report.
    assert_eq!(run.attempted, 2);
    assert_eq!(run.failed, 2, "{:?}", run.failures);
    assert!(run.failures[0].contains("differs from the baselines/expected/smoke artifact"));
}

#[test]
fn a_verdict_tally_that_does_not_repeat_fails_its_pass() {
    // After pass 0, shrink every AQ's limit so later passes drop more.
    let mut tamper = |p: usize, pipe: &mut aq_core::AqPipeline| {
        if p == 0 {
            for id in 1..=Scale::SMALL.rows {
                let mut cfg = aqload::cfg_for(4, id);
                cfg.limit_bytes = 100;
                pipe.deploy_ingress(cfg);
            }
        }
    };
    let run = aqload::dataplane(
        4,
        0.0,
        3,
        Scale::SMALL,
        &mut Tracer::new(false),
        &mut tamper,
    );
    let per_pass = run.attempted / 3;
    assert_eq!(run.failed, 2 * per_pass, "{:?}", run.failures);
    assert!(run.failures[0].contains("differ from pass 0"));
}

//! Command-line entry point:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep_points|aq_dataplane_1m> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The last line of standard output is the
//! JSON result; earlier lines, each starting with `#`, carry host context
//! and failure details. A traced run also writes its spans to
//! `perfbench/out/trace-<workload>-seed<n>.jsonl`.

use aq_perfbench::{host, run, Options};
use std::path::PathBuf;

fn parse() -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        small: false,
        root: PathBuf::from("."),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => opts.workload = value,
            "--seed" => opts.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => opts.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => opts.trace = value == "1",
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !opts.root.join("baselines/expected").is_dir() {
        return Err("run from the repository root: baselines/expected not found".to_string());
    }
    Ok(opts)
}

fn probe_json(p: &host::Probe) -> String {
    format!(
        "{{\"int_loop_ms\": {:.3}, \"rand_mem_ns\": {:.2}}}",
        p.int_loop_ms, p.rand_mem_ns
    )
}

fn main() {
    let opts = parse().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let before = host::probe();
    let (out, tr) = run(&opts, &mut |_, _| {}).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let after = host::probe();
    println!(
        "# host {{\"available_parallelism\": {}, \"before\": {}, \"after\": {}}}",
        host::parallelism(),
        probe_json(&before),
        probe_json(&after)
    );
    for f in &out.failures {
        println!("# failed: {f}");
    }
    if tr.enabled() {
        let dir = opts.root.join("perfbench/out");
        let path = dir.join(format!("trace-{}-seed{}.jsonl", opts.workload, opts.seed));
        if let Err(e) =
            std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tr.to_jsonl()))
        {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
    }
    println!("{}", out.to_json());
}

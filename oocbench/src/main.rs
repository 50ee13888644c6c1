//! End-to-end and per-layer benchmark of the oocnvm simulator stack.
//!
//! ```text
//! oocbench --workload <table2_sweep|journal_ckpt|eigensolve_qos>
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run: build the workload's inputs from the seed, run one warm-up
//! pass whose results are the reference, then untraced passes for
//! `--seconds` (the median is `wall_s`), building the inputs once more
//! after each (the median of all builds is `setup_s`). Every operation of every pass is checked (see `checks`) and
//! compared bit for bit with the reference. With `--trace 1` a traced,
//! single-threaded layer-by-layer pass follows (see `traced`); its
//! spans are written to `spans_path`.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`, with the end-to-end
//! metrics under `--trace 0` and the per-layer metrics under `--trace 1`.
//! The exit code is 1 when any operation failed, 2 on a usage error.

mod alloc;
mod checks;
mod spans;
mod traced;
mod workloads;

#[cfg(test)]
mod tests;

use checks::Tally;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workloads::Workload;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// End-to-end metrics, measured on untraced passes: name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_heap_mib", "MiB"),
    ("ok_frac", "ratio"),
    ("sim_makespan_s", "s"),
    ("dev_bytes_per_posix_byte", "ratio"),
];

/// Per-layer metrics, measured on the traced pass: name and unit. A
/// layer the workload does not call reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workload.gen_ms", "ms"),
    ("workload.posix_records", "count"),
    ("workload.posix_bytes", "bytes"),
    ("workload.host_share", "ratio"),
    ("fs.transform_ms", "ms"),
    ("fs.block_requests", "count"),
    ("fs.split_ratio", "ratio"),
    ("fs.host_share", "ratio"),
    ("fs.allocs", "count"),
    ("fs.alloc_mib", "MiB"),
    ("ufs.replay_ms", "ms"),
    ("ufs.replay_growth", "exponent"),
    ("ufs.user_bytes", "bytes"),
    ("ufs.cow_bytes", "bytes"),
    ("ufs.journal_bytes", "bytes"),
    ("ufs.apply_bytes", "bytes"),
    ("ufs.commits", "count"),
    ("ufs.host_share", "ratio"),
    ("ufs.allocs", "count"),
    ("ufs.alloc_mib", "MiB"),
    ("ssd.run_ms", "ms"),
    ("ssd.run_ms.slc", "ms"),
    ("ssd.run_ms.mlc", "ms"),
    ("ssd.run_ms.tlc", "ms"),
    ("ssd.run_ms.pcm", "ms"),
    ("ssd.requests", "count"),
    ("ssd.bytes", "bytes"),
    ("ssd.ns_per_request", "ns"),
    ("ssd.run_growth", "exponent"),
    ("ssd.wear_erases", "count"),
    ("ssd.gc_runs", "count"),
    ("ssd.host_share", "ratio"),
    ("ssd.allocs", "count"),
    ("ssd.alloc_mib", "MiB"),
    ("flashsim.die_ops", "count"),
    ("flashsim.pages", "count"),
    ("flashsim.ns_per_die_op", "ns"),
    ("flashsim.channel_util", "ratio"),
    ("flashsim.package_util", "ratio"),
    ("flashsim.die_ns", "ns"),
    ("flashsim.channel_ns", "ns"),
    ("interconnect.link_ns", "ns"),
    ("interconnect.dma_media_idle_ns", "ns"),
    ("experiment.batch_ms", "ms"),
    ("experiment.parallel_eff", "ratio"),
    ("experiment.paper_err_pct", "%"),
    ("experiment.host_share", "ratio"),
    ("qos.run_ms", "ms"),
    ("qos.requests", "count"),
    ("qos.ns_per_request", "ns"),
    ("qos.kv_p99_ns", "ns"),
    ("qos.eigensolve_p99_ns", "ns"),
    ("qos.checkpoint_p99_ns", "ns"),
    ("qos.host_share", "ratio"),
    ("qos.allocs", "count"),
    ("qos.alloc_mib", "MiB"),
    ("ooc.build_ms", "ms"),
    ("ooc.solve_ms", "ms"),
    ("ooc.iterations", "count"),
    ("ooc.applies", "count"),
    ("ooc.bytes_read", "bytes"),
    ("ooc.ms_per_apply", "ms"),
    ("ooc.host_share", "ratio"),
    ("ooc.allocs", "count"),
    ("ooc.alloc_mib", "MiB"),
    ("simobs.trace_overhead_x", "ratio"),
    ("simobs.events", "count"),
    ("simobs.dropped", "count"),
    ("bench.span_overhead_x", "ratio"),
];

/// Timed passes: at least this many, however long they take.
const MIN_PASSES: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: oocbench --workload <table2_sweep|journal_ckpt|eigensolve_qos> \
--seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = workloads::DEFAULT_SEED;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, not {v}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// Where a traced run writes its spans: under the build directory
/// (`CARGO_TARGET_DIR`, else the package's `target`), which git ignores.
fn spans_path(w: Workload, seed: u64) -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(
            || PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target")),
            PathBuf::from,
        )
        .join("oocbench-spans")
        .join(format!("{}-seed{seed}.json", w.name()))
}

fn write_spans(path: &Path, rec: &spans::Recorder) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, rec.to_json())
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A finite JSON number with all its digits.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "{e}\n{USAGE}\nseeds: default {}, held out {}",
                workloads::DEFAULT_SEED,
                workloads::HELD_OUT_SEED
            );
            return ExitCode::from(2);
        }
    };
    let w = args.workload;

    // Set-up. It is timed once here and once more after every timed
    // pass, so its samples spread over the run like the passes do and a
    // slow spell of the host moves both alike.
    let t = Instant::now();
    let mut inputs = workloads::build(w, args.seed);
    let mut setup_s = vec![t.elapsed().as_secs_f64()];
    workloads::count_tenant_bytes(&mut inputs);

    // Warm-up pass: its results are the reference for every later pass.
    // Peak heap: the bytes live before the first pass (the inputs) plus
    // the median over passes of the pass's own high-water mark above the
    // bytes live when it started (which include the reference results).
    let mut tally = Tally::default();
    let inputs_bytes = alloc::reset_peak();
    let reference = workloads::pass(&inputs);
    let mut pass_peaks = vec![(alloc::peak_bytes() - inputs_bytes) as f64];
    tally.pass(&reference, None);

    let mut walls = Vec::new();
    let timed = Instant::now();
    while walls.len() < MIN_PASSES || timed.elapsed().as_secs_f64() < args.seconds {
        let live = alloc::reset_peak();
        let t = Instant::now();
        let ops = workloads::pass(&inputs);
        walls.push(t.elapsed().as_secs_f64());
        pass_peaks.push((alloc::peak_bytes() - live) as f64);
        tally.pass(&ops, Some(&reference));
        drop(ops);
        let t = Instant::now();
        let again = workloads::build(w, args.seed);
        setup_s.push(t.elapsed().as_secs_f64());
        drop(again);
    }
    let passes = walls.len();
    let wall_s = median(&mut walls);
    let heap_mib = (inputs_bytes as f64 + median(&mut pass_peaks)) / (1024.0 * 1024.0);
    let sim = workloads::sim_totals(&reference);

    let mut per_layer = std::collections::BTreeMap::new();
    if args.trace {
        let (t, rec) = traced::run(&inputs, args.seed, &reference, wall_s * 1e9);
        tally.attempted += t.tally.attempted;
        tally.failed += t.tally.failed;
        tally.messages.extend(t.tally.messages);
        per_layer = t.metrics;
        let path = spans_path(w, args.seed);
        match write_spans(&path, &rec) {
            Ok(()) => eprintln!("{} spans written to {}", rec.spans().len(), path.display()),
            Err(e) => eprintln!("cannot write spans to {}: {e}", path.display()),
        }
        eprintln!("layer self time, decomposition spans:");
        for (name, _) in PER_LAYER.iter().filter(|(n, _)| n.ends_with(".host_share")) {
            eprintln!(
                "  {name:<24} {:.4}",
                per_layer.get(name).copied().unwrap_or(0.0)
            );
        }
    }
    let e2e: [(&str, f64); 6] = [
        ("wall_s", wall_s),
        ("setup_s", median(&mut setup_s)),
        ("peak_heap_mib", heap_mib),
        (
            "ok_frac",
            1.0 - tally.failed as f64 / tally.attempted.max(1) as f64,
        ),
        ("sim_makespan_s", sim.makespan_ns as f64 / 1e9),
        (
            "dev_bytes_per_posix_byte",
            sim.device_bytes as f64 / sim.posix_bytes.max(1) as f64,
        ),
    ];

    for m in &tally.messages {
        eprintln!("FAILED {m}");
    }
    println!(
        "{}: seed {}, {passes} timed passes, {} operations attempted, {} failed",
        w.name(),
        args.seed,
        tally.attempted,
        tally.failed
    );
    let (list, values): (&[(&str, &str)], Vec<f64>) = if args.trace {
        (
            PER_LAYER,
            PER_LAYER
                .iter()
                .map(|(n, _)| per_layer.get(n).copied().unwrap_or(0.0))
                .collect(),
        )
    } else {
        (
            END_TO_END,
            END_TO_END
                .iter()
                .map(|(n, _)| e2e.iter().find(|(m, _)| m == n).map_or(0.0, |m| m.1))
                .collect(),
        )
    };
    let mut metrics = Vec::new();
    for ((name, unit), v) in list.iter().zip(&values) {
        println!("  {name:<32} {:>18} {unit}", num(*v));
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(*v)
        ));
    }
    let correct = tally.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! The traced pass: the workload once more, single-threaded, calling each
//! layer's public function in turn with a span around every call.
//!
//! Order of a traced pass:
//! 1. decomposition: the generators, then per operation the file-system
//!    transform or journaled replay, then `SsdDevice::run` /
//!    `SsdDevice::run_shared`, plus the solver calls. Each report must
//!    equal the one the untraced pass got from `ExperimentSpec::run` /
//!    `TenancySpec::run`. Per-layer host times, shares and allocation
//!    counts come from these spans only;
//! 2. growth: the `ufs` and `ssd` calls again at half the trace size;
//! 3. observer: every operation through its public entry point with a
//!    `simobs::Tracer::ring` attached, for the media counters and the
//!    tracer's own cost; the report must again be unchanged;
//! 4. batch (`table2_sweep` only): `run_batch` on the thread pool.
//!
//! Sections 1-3 run with `RAYON_NUM_THREADS=1`, so the solver's kernels
//! run on the calling thread too and every span's allocations are its
//! own.

use crate::checks::{self, Tally};
use crate::spans::Recorder;
use crate::workloads::{self as wl, Inputs, Op, Out, Solve};
use nvmtypes::NvmKind;
use oocnvm_core::config::SystemConfig;
use oocnvm_core::experiment::{run_batch, ExperimentSpec};
use oocnvm_core::tenancy::{TenancyReport, TenantSpec};
use ooctrace::PosixTrace;
use simobs::{HdrHistogram, Tracer};
use ssd::{QosPolicy, RunReport, TenantWorkload};
use std::collections::BTreeMap;
use ufs::JournaledUfs;

/// The vendored pool's thread-count override.
const THREADS_VAR: &str = "RAYON_NUM_THREADS";

/// Events kept by the observer pass's ring sink; the rest are counted
/// as dropped.
const RING_EVENTS: usize = 1 << 16;

/// Per-layer metrics by name, plus the operations the traced pass
/// checked.
pub struct Traced {
    pub metrics: BTreeMap<&'static str, f64>,
    pub tally: Tally,
}

#[derive(Default)]
struct Acc {
    m: BTreeMap<&'static str, f64>,
    runs: u64,
}

impl Acc {
    fn add(&mut self, name: &'static str, v: f64) {
        *self.m.entry(name).or_insert(0.0) += v;
    }

    fn set(&mut self, name: &'static str, v: f64) {
        self.m.insert(name, v);
    }

    fn get(&self, name: &str) -> f64 {
        self.m.get(name).copied().unwrap_or(0.0)
    }

    fn generated(&mut self, posix: &PosixTrace) {
        self.add("workload.posix_records", posix.len() as f64);
        self.add("workload.posix_bytes", posix.total_bytes() as f64);
    }

    fn transformed(&mut self, posix: &PosixTrace, block_requests: usize) {
        self.add("fs.block_requests", block_requests as f64);
        self.add("fs.posix_records_in", posix.len() as f64);
    }

    /// Simulated per-layer counters of one device run; `requests` names
    /// the counter of the layer that called the device.
    fn device(&mut self, requests: &'static str, run: &RunReport) {
        self.add(requests, run.requests as f64);
        self.add("ssd.wear_erases", run.wear.erases as f64);
        self.add("ssd.gc_runs", run.wear.gc_runs as f64);
        self.add("flashsim.channel_util", run.media.channel_util);
        self.add("flashsim.package_util", run.media.package_util);
        self.add("flashsim.die_ns", run.attribution.die_ns as f64);
        self.add("flashsim.channel_ns", run.attribution.channel_ns as f64);
        self.add("interconnect.link_ns", run.attribution.link_ns as f64);
        self.add("interconnect.dma_media_idle_ns", run.dma_media_idle as f64);
        self.runs += 1;
    }
}

/// The `ssd` span of a device run is named after its medium, so host
/// time can be split by medium.
const KIND_METRICS: [(NvmKind, &str); 4] = [
    (NvmKind::Slc, "ssd.run_ms.slc"),
    (NvmKind::Mlc, "ssd.run_ms.mlc"),
    (NvmKind::Tlc, "ssd.run_ms.tlc"),
    (NvmKind::Pcm, "ssd.run_ms.pcm"),
];

fn expect_experiment(reference: &[Op], i: usize) -> Option<&RunReport> {
    match reference.get(i).map(|op| &op.out) {
        Some(Out::Experiment(r)) => Some(&r.run),
        _ => None,
    }
}

fn expect_tenancy(reference: &[Op], i: usize) -> Option<&TenancyReport> {
    match reference.get(i).map(|op| &op.out) {
        Some(Out::Tenancy(r)) => Some(r),
        _ => None,
    }
}

fn expect_solve(reference: &[Op], i: usize) -> Option<&Solve> {
    match reference.get(i).map(|op| &op.out) {
        Some(Out::Solve(s)) => Some(s),
        _ => None,
    }
}

fn name_of(reference: &[Op], i: usize) -> &str {
    reference.get(i).map_or("?", |op| op.name.as_str())
}

/// A layer-by-layer report must pass the output checks and equal the
/// untraced pass's report.
fn matches(posix_bytes: u64, run: &RunReport, expected: Option<&RunReport>) -> Result<(), String> {
    checks::check_run(posix_bytes, run)?;
    if expected != Some(run) {
        return Err("layer-by-layer report differs from ExperimentSpec::run".to_string());
    }
    Ok(())
}

/// One plain experiment, layer by layer: FS transform, then the device.
fn plain_experiment(
    rec: &mut Recorder,
    acc: &mut Acc,
    op: usize,
    (config, kind): (SystemConfig, NvmKind),
    posix: &PosixTrace,
) -> RunReport {
    rec.span("experiment", "op", Some(op), |rec| {
        let block = rec.span("fs", "transform", Some(op), |_| config.fs.transform(posix));
        acc.transformed(posix, block.len());
        let run = rec.span("ssd", kind.label(), Some(op), |_| {
            config.device(kind).run(&block)
        });
        acc.add("ssd.bytes", run.total_bytes as f64);
        acc.device("ssd.requests", &run);
        run
    })
}

/// One journaled experiment, layer by layer: UFS replay, then the device.
fn journaled_experiment(
    rec: &mut Recorder,
    acc: &mut Acc,
    op: usize,
    (config, kind): (SystemConfig, NvmKind),
    posix: &PosixTrace,
) -> Result<RunReport, String> {
    rec.span("experiment", "op", Some(op), |rec| {
        let (block, wa) = rec
            .span("ufs", "replay", Some(op), |_| {
                JournaledUfs::default().transform_with_stats(posix)
            })
            .map_err(|e| format!("journaled replay failed: {e}"))?;
        acc.add("ufs.user_bytes", wa.user_bytes as f64);
        acc.add("ufs.cow_bytes", wa.cow_bytes as f64);
        acc.add("ufs.journal_bytes", wa.journal_bytes as f64);
        acc.add("ufs.apply_bytes", wa.apply_bytes as f64);
        acc.add("ufs.commits", wa.commits as f64);
        let run = rec.span("ssd", kind.label(), Some(op), |_| {
            config.device(kind).run(&block)
        });
        acc.add("ssd.bytes", run.total_bytes as f64);
        acc.device("ssd.requests", &run);
        Ok(run)
    })
}

/// One tenancy, layer by layer: each tenant's generator and FS
/// transform, then `run_shared` on one device. Each tenancy generates
/// its tenants' traces, as `TenancySpec::run` does; `first` counts them
/// into the `workload.*` counters once.
fn tenancy(
    rec: &mut Recorder,
    acc: &mut Acc,
    op: usize,
    config: SystemConfig,
    first: bool,
    tenants: &[TenantSpec],
    arrivals: &oocnvm_core::tenancy::ArrivalProcess,
) -> ssd::SharedRunReport {
    rec.span("experiment", "tenancy", Some(op), |rec| {
        let at = arrivals.arrivals(tenants.len());
        let workloads: Vec<TenantWorkload> = tenants
            .iter()
            .zip(&at)
            .map(|(t, &arrival_ns)| {
                let posix = rec.span("workload", "gen", Some(op), |_| {
                    t.profile.posix_trace(t.seed)
                });
                if first {
                    acc.generated(&posix);
                }
                let block = rec.span("fs", "transform", Some(op), |_| config.fs.transform(&posix));
                acc.transformed(&posix, block.len());
                let mut w = TenantWorkload::new(block);
                w.weight = t.weight;
                w.arrival_ns = arrival_ns;
                w.fault_plan = t.fault_plan;
                w
            })
            .collect();
        let shared = rec.span("qos", "run_shared", Some(op), |_| {
            config.device(wl::TENANCY_KIND).run_shared(
                &workloads,
                &QosPolicy::unlimited(),
                &mut Tracer::off(),
            )
        });
        acc.device("qos.requests", &shared.fleet);
        shared
    })
}

/// p99 of the merged latency histograms of one profile's tenants.
fn profile_p99(shared: &ssd::SharedRunReport, tenants: &[TenantSpec], label: &str) -> f64 {
    let mut merged = HdrHistogram::new();
    for (s, t) in shared.tenants.iter().zip(tenants) {
        if t.profile.label() == label {
            merged.merge(&s.latency_hdr);
        }
    }
    merged.percentiles().p99 as f64
}

/// Mean of |measured / paper - 1| over the four §7 factors, as
/// `bench::headline` computes them from the Table-2 sweep.
pub fn paper_err_pct(rows: &[(&'static str, NvmKind, f64)]) -> Option<f64> {
    let bw = |label: &str, k: NvmKind| {
        rows.iter()
            .find(|(l, kind, _)| *l == label && *kind == k)
            .map(|r| r.2)
    };
    let mut factors = [0.0f64; 4];
    for k in NvmKind::ALL {
        let ion = bw("ION-GPFS", k)?;
        let mut cnl = 0.0;
        for label in oocnvm_bench::headline::TRADITIONAL_CNL {
            cnl += bw(label, k)?;
        }
        let cnl = cnl / oocnvm_bench::headline::TRADITIONAL_CNL.len() as f64;
        let ufs = bw("CNL-UFS", k)?;
        let n16 = bw("CNL-NATIVE-16", k)?;
        factors[0] += cnl / ion;
        factors[1] += ufs / cnl;
        factors[2] += n16 / ufs;
        factors[3] += n16 / ion;
    }
    let paper = [2.08, 1.52, 3.50, 10.3];
    let n = NvmKind::ALL.len() as f64;
    let err: f64 = factors
        .iter()
        .zip(paper)
        .map(|(f, p)| (f / n / p - 1.0).abs())
        .sum();
    Some(100.0 * err / 4.0)
}

/// Runs the traced pass. `reference` is the first untraced pass, whose
/// reports the layer-by-layer ones must equal; `pass_ns` is the median
/// untraced pass wall time.
pub fn run(inputs: &Inputs, seed: u64, reference: &[Op], pass_ns: f64) -> (Traced, Recorder) {
    let mut rec = Recorder::new();
    let mut acc = Acc::default();
    let mut tally = Tally::default();

    // Sections 1-3 run on one thread: the vendored pool reads
    // `RAYON_NUM_THREADS` at each parallel region, and the solver's
    // kernels are its only parallel regions there. Its results do not
    // depend on the thread count.
    let threads = std::env::var_os(THREADS_VAR);
    std::env::set_var(THREADS_VAR, "1");

    // 1. Decomposition.
    let start = rec.mark();
    let mut half_ufs: Vec<PosixTrace> = Vec::new();
    let mut half_ssd: Vec<(SystemConfig, NvmKind, PosixTrace)> = Vec::new();
    match inputs {
        Inputs::Table2 { specs, .. } => {
            let posix = rec.span("workload", "gen", None, |_| {
                wl::synthetic_trace(wl::TABLE2_BYTES, seed)
            });
            acc.generated(&posix);
            let mut rows = Vec::new();
            for (i, &spec) in specs.iter().enumerate() {
                let run = plain_experiment(&mut rec, &mut acc, i, spec, &posix);
                rows.push((spec.0.label, spec.1, run.bandwidth_mb_s));
                let r = matches(posix.total_bytes(), &run, expect_experiment(reference, i));
                tally.record(name_of(reference, i), r);
            }
            if let Some(e) = paper_err_pct(&rows) {
                acc.set("experiment.paper_err_pct", e);
            }
            let half = wl::synthetic_trace(wl::TABLE2_BYTES / 2, seed);
            half_ssd.extend(specs.iter().map(|&(c, k)| (c, k, half.clone())));
        }
        Inputs::Journal { .. } => {
            let traces = rec.span("workload", "gen", None, |_| {
                wl::journal_traces(wl::JOURNAL_READ_BYTES, seed)
            });
            for (i, (_, posix)) in traces.iter().enumerate() {
                acc.generated(posix);
                let r = journaled_experiment(&mut rec, &mut acc, i, wl::journal_config(), posix)
                    .and_then(|run| {
                        matches(posix.total_bytes(), &run, expect_experiment(reference, i))
                    });
                tally.record(name_of(reference, i), r);
            }
            half_ufs = wl::journal_traces(wl::JOURNAL_READ_BYTES / 2, seed)
                .into_iter()
                .map(|(_, t)| t)
                .collect();
        }
        Inputs::Eigen {
            replays, tenancies, ..
        } => {
            let (matrix, diag) = rec.span("ooc", "build", None, |_| {
                wl::build_matrix(&wl::hamiltonian())
            });
            let tenants = wl::tenant_mix(seed);
            let arrivals = wl::arrivals(seed);
            let solved = rec.span("experiment", "op", Some(0), |rec| {
                rec.span("ooc", "solve", Some(0), |_| {
                    wl::solve(&matrix, &diag, &mut Tracer::off())
                })
            });
            // The capture is the solver's output, not a generator's, so
            // it counts as `ooc.bytes_read`, not as `workload.*`.
            let capture = solved.trace.clone();
            acc.set("ooc.iterations", solved.result.iterations as f64);
            acc.set("ooc.applies", solved.result.operator_applies as f64);
            acc.set("ooc.bytes_read", capture.total_bytes() as f64);
            let r = checks::check_solve(&solved).and_then(|()| match expect_solve(reference, 0) {
                Some(s) if checks::same_solve(s, &solved) => Ok(()),
                _ => Err("solve differs from the untraced pass".to_string()),
            });
            tally.record(name_of(reference, 0), r);
            let mut op = 1;
            for &spec in replays {
                let run = plain_experiment(&mut rec, &mut acc, op, spec, &capture);
                let r = matches(
                    capture.total_bytes(),
                    &run,
                    expect_experiment(reference, op),
                );
                tally.record(name_of(reference, op), r);
                op += 1;
            }
            for (t, &config) in tenancies.iter().enumerate() {
                let shared = tenancy(&mut rec, &mut acc, op, config, t == 0, &tenants, &arrivals);
                let r = match expect_tenancy(reference, op) {
                    Some(report) => {
                        let bytes = reference[op].posix_bytes.as_slice();
                        let per: Vec<_> = shared
                            .tenants
                            .iter()
                            .map(|t| (t.requests, t.bytes, t.attribution.is_exact()))
                            .collect();
                        checks::check_run(bytes.iter().sum(), &shared.fleet)
                            .and_then(|()| checks::check_tenants(bytes, &per, &shared.fleet))
                            .and_then(|()| {
                                if checks::shared_matches(&shared, report) {
                                    Ok(())
                                } else {
                                    Err("run_shared differs from TenancySpec::run".to_string())
                                }
                            })
                    }
                    None => Err("no untraced tenancy to compare with".to_string()),
                };
                tally.record(name_of(reference, op), r);
                if config.label == SystemConfig::cnl_ufs().label {
                    acc.set("qos.kv_p99_ns", profile_p99(&shared, &tenants, "kv-lookup"));
                    acc.set(
                        "qos.eigensolve_p99_ns",
                        profile_p99(&shared, &tenants, "eigensolve"),
                    );
                    acc.set(
                        "qos.checkpoint_p99_ns",
                        profile_p99(&shared, &tenants, "checkpoint"),
                    );
                }
                op += 1;
            }
            let mut half = PosixTrace::new();
            for r in &capture.records[..capture.len() / 2] {
                half.push(*r);
            }
            half_ssd.extend(replays.iter().map(|&(c, k)| (c, k, half.clone())));
        }
    }
    let decomposed = start..rec.mark();

    // 2. Growth: `ufs` and `ssd` at half the trace size.
    let growth = rec.mark();
    for posix in &half_ufs {
        if let Ok((block, _)) = rec.span("ufs", "replay_half", None, |_| {
            JournaledUfs::default().transform_with_stats(posix)
        }) {
            let (config, kind) = wl::journal_config();
            rec.span("ssd", "run_half", None, |_| config.device(kind).run(&block));
        }
    }
    for (config, kind, posix) in &half_ssd {
        let block = config.fs.transform(posix);
        rec.span("ssd", "run_half", None, |_| {
            config.device(*kind).run(&block)
        });
    }
    let growth = growth..rec.mark();

    // 3. Observer: each operation through its public entry point with a
    //    ring tracer attached.
    let observed = rec.mark();
    for (i, op) in reference.iter().enumerate() {
        let mut obs = Tracer::ring(RING_EVENTS);
        let same = rec.span("simobs", "traced_op", Some(i), |_| {
            match (&op.out, inputs) {
                (Out::Experiment(r), Inputs::Table2 { posix, specs }) => {
                    let (config, kind) = specs[i];
                    ExperimentSpec::new(&config, kind)
                        .tracer(&mut obs)
                        .run(posix)
                        == *r
                }
                (Out::Experiment(r), Inputs::Journal { traces }) => {
                    let (config, kind) = wl::journal_config();
                    ExperimentSpec::new(&config, kind)
                        .journaled_ufs(true)
                        .tracer(&mut obs)
                        .run(&traces[i].1)
                        == *r
                }
                (Out::Experiment(r), Inputs::Eigen { replays, .. }) => {
                    let capture = match expect_solve(reference, 0) {
                        Some(s) => &s.trace,
                        None => return false,
                    };
                    let (config, kind) = replays[i - 1];
                    ExperimentSpec::new(&config, kind)
                        .tracer(&mut obs)
                        .run(capture)
                        == *r
                }
                (
                    Out::Tenancy(r),
                    Inputs::Eigen {
                        tenancies,
                        replays,
                        tenants,
                        arrivals,
                        ..
                    },
                ) => {
                    let config = tenancies[i - 1 - replays.len()];
                    let t = ExperimentSpec::new(&config, wl::TENANCY_KIND)
                        .tracer(&mut obs)
                        .tenants(tenants.clone())
                        .arrivals(*arrivals)
                        .run();
                    checks::same_tenancy(&t, r)
                }
                (Out::Solve(s), Inputs::Eigen { matrix, diag, .. }) => {
                    checks::same_solve(&wl::solve(matrix, diag, &mut obs), s)
                }
                _ => false,
            }
        });
        let log = obs.finish();
        acc.add(
            "flashsim.die_ops",
            log.metrics.counter("media.die_ops") as f64,
        );
        acc.add("flashsim.pages", log.metrics.counter("media.pages") as f64);
        acc.add("simobs.events", log.emitted as f64);
        acc.add("simobs.dropped", log.dropped as f64);
        let r = if same {
            Ok(())
        } else {
            Err("traced report differs from the untraced one".to_string())
        };
        tally.record(&op.name, r);
    }
    let observed = observed..rec.mark();
    match threads {
        Some(v) => std::env::set_var(THREADS_VAR, v),
        None => std::env::remove_var(THREADS_VAR),
    }

    // 4. Batch: the experiment layer's fan-out over the pool.
    if let Inputs::Table2 { posix, specs } = inputs {
        let batch = specs
            .iter()
            .map(|(c, k)| ExperimentSpec::new(c, *k))
            .collect();
        let reports = rec.span("experiment", "batch", None, |_| run_batch(batch, posix));
        for (i, r) in reports.iter().enumerate() {
            let same = expect_experiment(reference, i) == Some(&r.run);
            let result = if same {
                Ok(())
            } else {
                Err("run_batch differs".to_string())
            };
            tally.record(name_of(reference, i), result);
        }
    }

    // Metrics.
    let costs = rec.costs(decomposed.clone());
    let ms = |ns: u64| ns as f64 / 1e6;
    let total = |layer: &str, name: &str| rec.total_ns(decomposed.clone(), layer, name);
    let layer_ns = |layer: &str| costs.get(layer).map_or(0, |c| c.self_ns);
    let op_ns: u64 = rec.spans()[decomposed.clone()]
        .iter()
        .filter(|s| s.layer == "experiment" && s.parent.is_none())
        .map(|s| s.ns())
        .sum();
    let all_ns: u64 = rec.spans()[decomposed.clone()]
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.ns())
        .sum();

    acc.set("workload.gen_ms", ms(layer_ns("workload")));
    acc.set("fs.transform_ms", ms(layer_ns("fs")));
    let posix_in = acc.get("fs.posix_records_in");
    if posix_in > 0.0 {
        acc.set("fs.split_ratio", acc.get("fs.block_requests") / posix_in);
    }
    acc.set("ufs.replay_ms", ms(layer_ns("ufs")));
    let ssd_ns = layer_ns("ssd");
    acc.set("ssd.run_ms", ms(ssd_ns));
    for (kind, metric) in KIND_METRICS {
        acc.set(metric, ms(total("ssd", kind.label())));
    }
    if acc.get("ssd.requests") > 0.0 {
        acc.set(
            "ssd.ns_per_request",
            ssd_ns as f64 / acc.get("ssd.requests"),
        );
    }
    let qos_ns = layer_ns("qos");
    acc.set("qos.run_ms", ms(qos_ns));
    if acc.get("qos.requests") > 0.0 {
        acc.set(
            "qos.ns_per_request",
            qos_ns as f64 / acc.get("qos.requests"),
        );
    }
    if acc.get("flashsim.die_ops") > 0.0 {
        acc.set(
            "flashsim.ns_per_die_op",
            (ssd_ns + qos_ns) as f64 / acc.get("flashsim.die_ops"),
        );
    }
    if acc.runs > 0 {
        acc.set(
            "flashsim.channel_util",
            acc.get("flashsim.channel_util") / acc.runs as f64,
        );
        acc.set(
            "flashsim.package_util",
            acc.get("flashsim.package_util") / acc.runs as f64,
        );
    }
    acc.set("ooc.build_ms", ms(total("ooc", "build")));
    let solve_ns = total("ooc", "solve");
    acc.set("ooc.solve_ms", ms(solve_ns));
    if acc.get("ooc.applies") > 0.0 {
        acc.set("ooc.ms_per_apply", ms(solve_ns) / acc.get("ooc.applies"));
    }
    for (layer, allocs, mib) in [
        ("fs", "fs.allocs", "fs.alloc_mib"),
        ("ufs", "ufs.allocs", "ufs.alloc_mib"),
        ("ssd", "ssd.allocs", "ssd.alloc_mib"),
        ("qos", "qos.allocs", "qos.alloc_mib"),
        ("ooc", "ooc.allocs", "ooc.alloc_mib"),
    ] {
        let c = costs.get(layer).copied().unwrap_or_default();
        acc.set(allocs, c.allocs as f64);
        acc.set(mib, c.alloc_bytes as f64 / (1024.0 * 1024.0));
    }
    for (layer, share) in [
        ("workload", "workload.host_share"),
        ("fs", "fs.host_share"),
        ("ufs", "ufs.host_share"),
        ("ssd", "ssd.host_share"),
        ("qos", "qos.host_share"),
        ("experiment", "experiment.host_share"),
        ("ooc", "ooc.host_share"),
    ] {
        if all_ns > 0 {
            acc.set(share, layer_ns(layer) as f64 / all_ns as f64);
        }
    }

    let growth_of = |full: u64, half: u64| {
        if full > 0 && half > 0 {
            (full as f64 / half as f64).log2()
        } else {
            0.0
        }
    };
    acc.set(
        "ufs.replay_growth",
        growth_of(
            layer_ns("ufs"),
            rec.total_ns(growth.clone(), "ufs", "replay_half"),
        ),
    );
    acc.set(
        "ssd.run_growth",
        growth_of(ssd_ns, rec.total_ns(growth, "ssd", "run_half")),
    );

    let observed_ns = rec.total_ns(observed, "simobs", "traced_op");
    if op_ns > 0 {
        acc.set("simobs.trace_overhead_x", observed_ns as f64 / op_ns as f64);
    }
    let batch_ns = rec.total_ns(0..rec.mark(), "experiment", "batch");
    acc.set("experiment.batch_ms", ms(batch_ns));
    if batch_ns > 0 {
        let workers = rayon::current_num_threads() as f64;
        acc.set(
            "experiment.parallel_eff",
            op_ns as f64 / (batch_ns as f64 * workers),
        );
    }
    if pass_ns > 0.0 {
        acc.set("bench.span_overhead_x", op_ns as f64 / pass_ns);
    }

    (
        Traced {
            metrics: acc.m,
            tally,
        },
        rec,
    )
}

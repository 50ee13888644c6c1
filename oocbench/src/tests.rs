//! Benchmark-local tests. Run them optimised:
//! `cargo test --release --manifest-path oocbench/Cargo.toml -- --test-threads 1`.

use crate::checks::{self, Tally};
use crate::workloads::{self as wl, Inputs, Op, Out, Workload, DEFAULT_SEED, HELD_OUT_SEED};
use crate::{spans_path, traced, write_spans, END_TO_END, PER_LAYER};
use nvmtypes::MIB;
use oocnvm_core::experiment::ExperimentSpec;
use simobs::json::{self, Json};
use ufs::JournaledUfs;

/// A workload's inputs and the data the output checks need.
fn setup(w: Workload, seed: u64) -> Inputs {
    let mut inputs = wl::build(w, seed);
    wl::count_tenant_bytes(&mut inputs);
    inputs
}

/// The trace every input of a workload is generated from, flattened so
/// two seeds can be compared.
fn generated_traces(inputs: &Inputs, seed: u64) -> Vec<ooctrace::PosixTrace> {
    match inputs {
        Inputs::Table2 { posix, .. } => vec![posix.clone()],
        Inputs::Journal { traces } => traces.iter().map(|(_, t)| t.clone()).collect(),
        Inputs::Eigen { tenants, .. } => {
            let mut out: Vec<_> = tenants
                .iter()
                .map(|t| t.profile.posix_trace(t.seed))
                .collect();
            // The arrival times are an input too.
            let mut arrivals = ooctrace::PosixTrace::new();
            for (i, t) in wl::arrivals(seed)
                .arrivals(tenants.len())
                .into_iter()
                .enumerate()
            {
                arrivals.push(ooctrace::TraceRecord {
                    t,
                    op: nvmtypes::IoOp::Read,
                    file: i as u32,
                    offset: 0,
                    len: 4096,
                });
            }
            out.push(arrivals);
            out
        }
    }
}

#[test]
fn a_256_mib_read_only_journaled_replay_counts_as_failed() {
    let posix = wl::synthetic_trace(256 * MIB, DEFAULT_SEED);
    let (config, kind) = wl::journal_config();
    // Through the public entry point the replay error comes back as an
    // empty run, which the conservation check rejects.
    let report = ExperimentSpec::new(&config, kind)
        .journaled_ufs(true)
        .run(&posix);
    let op = Op {
        name: "journaled-256MiB".to_string(),
        posix_bytes: vec![posix.total_bytes()],
        out: Out::Experiment(report),
    };
    let err = checks::check(&op).expect_err("an empty run from a 256 MiB trace must fail");
    assert!(err.contains("POSIX bytes in"), "{err}");
    let mut tally = Tally::default();
    tally.pass(std::slice::from_ref(&op), None);
    assert_eq!((tally.attempted, tally.failed), (1, 1));
    // Layer by layer the replay itself reports the error.
    assert!(JournaledUfs::default()
        .transform_with_stats(&posix)
        .is_err());
}

#[test]
fn default_and_held_out_seeds_pass_every_check_with_different_traces() {
    assert_ne!(DEFAULT_SEED, HELD_OUT_SEED);
    for w in Workload::ALL {
        let a = setup(w, DEFAULT_SEED);
        let b = setup(w, HELD_OUT_SEED);
        assert_ne!(
            generated_traces(&a, DEFAULT_SEED),
            generated_traces(&b, HELD_OUT_SEED),
            "{}: both seeds generate the same inputs",
            w.name()
        );
        for inputs in [&a, &b] {
            let ops = wl::pass(inputs);
            let mut tally = Tally::default();
            tally.pass(&ops, None);
            let again = wl::pass(inputs);
            tally.pass(&again, Some(&ops));
            assert!(tally.attempted > 0);
            assert_eq!(tally.failed, 0, "{}: {:?}", w.name(), tally.messages);
        }
    }
}

#[test]
fn layer_by_layer_reports_equal_the_public_entry_points() {
    for w in Workload::ALL {
        let inputs = setup(w, DEFAULT_SEED);
        let reference = wl::pass(&inputs);
        let (t, rec) = traced::run(&inputs, DEFAULT_SEED, &reference, 1e9);
        assert!(t.tally.attempted >= reference.len() as u64 * 2);
        assert_eq!(t.tally.failed, 0, "{}: {:?}", w.name(), t.tally.messages);
        for (name, _) in PER_LAYER {
            let v = t.metrics.get(name).copied().unwrap_or(0.0);
            assert!(v.is_finite() && v >= 0.0, "{}: {name} = {v}", w.name());
        }
        // Every span closed, and a child lies inside its parent.
        for s in rec.spans() {
            assert!(s.end_ns >= s.start_ns);
            if let Some(p) = s.parent {
                let p = &rec.spans()[p];
                assert!(p.start_ns <= s.start_ns && s.end_ns <= p.end_ns);
            }
        }
        assert_spans_written(w, &rec);
        // Single-threaded, the traced pass allocates the same at every
        // run.
        let (again, _) = traced::run(&inputs, DEFAULT_SEED, &reference, 1e9);
        for (name, _) in PER_LAYER.iter().filter(|(n, _)| n.contains(".alloc")) {
            assert_eq!(
                t.metrics.get(name),
                again.metrics.get(name),
                "{}: {name} differs between two traced runs",
                w.name()
            );
        }
        let shares: f64 = PER_LAYER
            .iter()
            .filter(|(n, _)| n.ends_with(".host_share"))
            .map(|(n, _)| t.metrics.get(n).copied().unwrap_or(0.0))
            .sum();
        assert!(
            (shares - 1.0).abs() < 1e-9,
            "{}: shares sum to {shares}",
            w.name()
        );
    }
}

/// Writes the spans where a traced run does, reads the file back and
/// checks that it parses to one object per span.
fn assert_spans_written(w: Workload, rec: &crate::spans::Recorder) {
    let path = spans_path(w, DEFAULT_SEED);
    write_spans(&path, rec).expect("spans written");
    let text = std::fs::read_to_string(&path).expect("spans read back");
    let Ok(Json::Arr(items)) = json::parse(&text) else {
        panic!("{}: spans are not a JSON array", path.display());
    };
    assert_eq!(items.len(), rec.spans().len());
    let num = |item: &Json, key: &str| match item.get(key) {
        Some(Json::Num(n)) => n.parse::<u64>().ok(),
        _ => None,
    };
    for (i, (item, span)) in items.iter().zip(rec.spans()).enumerate() {
        assert_eq!(num(item, "id"), Some(i as u64));
        assert_eq!(item.get("layer"), Some(&Json::str(span.layer)));
        assert_eq!(item.get("name"), Some(&Json::str(span.name)));
        assert_eq!(num(item, "start_ns"), Some(span.start_ns));
        assert_eq!(num(item, "end_ns"), Some(span.end_ns));
        assert_eq!(num(item, "allocs"), Some(span.allocs));
        match (item.get("parent"), span.parent) {
            (Some(Json::Null), None) => {}
            (Some(_), Some(p)) => assert_eq!(num(item, "parent"), Some(p as u64)),
            other => panic!("span {i}: parent {other:?}"),
        }
    }
}

#[test]
fn paper_error_follows_the_headline_factors() {
    // Bandwidths that reproduce the four §7 factors exactly.
    let mut rows = Vec::new();
    for k in nvmtypes::NvmKind::ALL {
        let ion = 100.0;
        let cnl = ion * 2.08;
        let ufs = cnl * 1.52;
        rows.push(("ION-GPFS", k, ion));
        for label in oocnvm_bench::headline::TRADITIONAL_CNL {
            rows.push((label, k, cnl));
        }
        rows.push(("CNL-UFS", k, ufs));
        rows.push(("CNL-NATIVE-16", k, ion * 10.3));
    }
    let err = traced::paper_err_pct(&rows).expect("every label present");
    // NATIVE-16 over UFS is then 10.3 / (2.08 * 1.52) = 3.258, not 3.50.
    let expected = 100.0 * (10.3_f64 / (2.08 * 1.52) / 3.5 - 1.0).abs() / 4.0;
    assert!((err - expected).abs() < 1e-9, "{err} vs {expected}");
    assert!(traced::paper_err_pct(&rows[1..]).is_none());
}

/// The names `BENCHMARK.json` declares, in order, from one of its lists.
fn declared(json: &str, list: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{list}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("list closes")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

#[test]
fn benchmark_json_declares_what_the_benchmark_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let names = |l: &[(&str, &str)]| l.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
    assert_eq!(declared(&json, "end_to_end"), names(END_TO_END));
    assert_eq!(declared(&json, "per_layer"), names(PER_LAYER));
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(declared(&json, "workloads"), workloads);
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} [{unit}] not declared with that unit"
        );
    }
}

//! # oocnvm-bench — figure and table regeneration
//!
//! One binary per table/figure of the paper (run with
//! `cargo run --release -p oocnvm-bench --bin <name>`):
//!
//! | binary     | regenerates |
//! |------------|-------------|
//! | `table1`   | Table 1 — NVM latency matrix |
//! | `table2`   | Table 2 — evaluated configurations |
//! | `fig1`     | Figure 1 — network vs NVM bandwidth trends |
//! | `fig6`     | Figure 6 — POSIX vs sub-GPFS access patterns |
//! | `fig7`     | Figures 7a/7b — bandwidth achieved / remaining per FS |
//! | `fig8`     | Figures 8a/8b — device-improvement bandwidths |
//! | `fig9`     | Figures 9a/9b — channel / package utilization |
//! | `fig10`    | Figures 10a–10d — execution breakdown + parallelism |
//! | `headline` | §7's headline ratios (108% / 52% / 250% / 10.3x) |
//! | `calibrate`| the full sweep in one table (development aid) |
//! | `bench`    | the pinned perf scenario vs `results/BENCH_core.json` |
use nvmtypes::MIB;
use oocnvm_core::workload::synthetic_ooc_trace;
use ooctrace::PosixTrace;
use simobs::json::Json;

pub mod cli;
pub mod headline;
pub mod perf;
pub mod sweep;

/// The standard experiment workload: a read-dominant out-of-core panel
/// sweep. Size defaults to 256 MiB and can be scaled with the
/// `OOCNVM_TRACE_MIB` environment variable (the paper's traces cover tens
/// of GiB; bandwidths converge well before that).
pub fn standard_trace() -> PosixTrace {
    let mib = std::env::var("OOCNVM_TRACE_MIB")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(256);
    synthetic_ooc_trace(mib * MIB, 6 * MIB, 42)
}

/// Renders a figure banner; callers print it (library code never prints
/// — the `no_println_in_lib` simlint rule).
#[must_use]
pub fn banner(id: &str, caption: &str) -> String {
    let rule = "==============================================================";
    format!("{rule}\n{id} — {caption}\n{rule}")
}

/// Renders a machine-readable report in the workspace's versioned-JSON
/// convention: a leading `"format": "<schema>"` tag followed by the
/// payload's fields, through simobs's canonical renderer (insertion-
/// ordered keys, pre-rendered numbers), so equal reports render
/// byte-identically. Every `--json` bin emits through this one helper.
#[must_use]
pub fn json_report(schema: &str, payload: Json) -> String {
    simobs::json::report(schema, payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_trace_is_read_only_and_sized() {
        let t = standard_trace();
        assert!(t.total_bytes() >= 256 * MIB);
        assert!((t.read_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn json_report_prepends_the_schema_tag() {
        let payload = Json::obj().field("x", Json::u64(1));
        let doc = json_report("oocnvm.test/1", payload);
        assert_eq!(doc, r#"{"format":"oocnvm.test/1","x":1}"#);
        // Non-object payloads nest under "payload" instead of merging.
        let arr = json_report("oocnvm.test/1", Json::Arr(vec![Json::u64(2)]));
        assert_eq!(arr, r#"{"format":"oocnvm.test/1","payload":[2]}"#);
    }
}

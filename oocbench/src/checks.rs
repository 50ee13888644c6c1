//! Output checks. An operation fails when one of these returns an error,
//! or when its result differs from the same operation in the first pass
//! of the run.

use crate::workloads::{Op, Out, Solve};
use oocnvm_core::tenancy::{TenancyReport, TenantReport};
use ssd::{RunReport, SharedRunReport, TenantRunStats};

/// Conservation checks every replay must pass.
pub fn check_run(posix_bytes: u64, run: &RunReport) -> Result<(), String> {
    if posix_bytes > 0 && (run.requests == 0 || run.total_bytes == 0) {
        return Err(format!(
            "{posix_bytes} POSIX bytes in, but {} block requests and {} device bytes out",
            run.requests, run.total_bytes
        ));
    }
    if (run.makespan > 0) != (run.requests > 0) {
        return Err(format!(
            "makespan {} ns with {} requests",
            run.makespan, run.requests
        ));
    }
    if !run.attribution.is_exact() {
        return Err("latency attribution is not exact".to_string());
    }
    Ok(())
}

/// Per-tenant checks: each tenant's attribution is exact, a tenant with
/// POSIX bytes issued requests, and tenants sum to the fleet totals.
pub fn check_tenants(
    posix_bytes: &[u64],
    tenants: &[(u64, u64, bool)],
    fleet: &RunReport,
) -> Result<(), String> {
    if tenants.len() != posix_bytes.len() {
        return Err(format!(
            "{} tenant reports for {} tenants",
            tenants.len(),
            posix_bytes.len()
        ));
    }
    for (i, (&(requests, _, exact), &bytes)) in tenants.iter().zip(posix_bytes).enumerate() {
        if bytes > 0 && requests == 0 {
            return Err(format!("tenant {i}: {bytes} POSIX bytes but no requests"));
        }
        if !exact {
            return Err(format!("tenant {i}: latency attribution is not exact"));
        }
    }
    let requests: u64 = tenants.iter().map(|t| t.0).sum();
    let bytes: u64 = tenants.iter().map(|t| t.1).sum();
    if requests != fleet.requests || bytes != fleet.total_bytes {
        return Err(format!(
            "tenants sum to {requests} requests / {bytes} bytes, fleet has {} / {}",
            fleet.requests, fleet.total_bytes
        ));
    }
    Ok(())
}

pub fn check_tenancy(posix_bytes: &[u64], report: &TenancyReport) -> Result<(), String> {
    check_run(posix_bytes.iter().sum(), &report.fleet.run)?;
    let tenants: Vec<_> = report
        .tenants
        .iter()
        .map(|t| (t.requests, t.bytes, t.attribution.is_exact()))
        .collect();
    check_tenants(posix_bytes, &tenants, &report.fleet.run)
}

/// LOBPCG must return finite, ascending, converged eigenvalues.
pub fn check_solve(s: &Solve) -> Result<(), String> {
    let eig = &s.result.eigenvalues;
    if eig.is_empty() || !eig.iter().all(|v| v.is_finite()) {
        return Err(format!("eigenvalues not finite: {eig:?}"));
    }
    if !eig.windows(2).all(|w| w[0] <= w[1]) {
        return Err(format!("eigenvalues not ascending: {eig:?}"));
    }
    if !s.result.converged {
        return Err(format!(
            "not converged after {} iterations",
            s.result.iterations
        ));
    }
    if s.trace.is_empty() {
        return Err("the solve read no panels".to_string());
    }
    Ok(())
}

pub fn check(op: &Op) -> Result<(), String> {
    match &op.out {
        Out::Experiment(r) => check_run(op.posix_bytes.iter().sum(), &r.run),
        Out::Tenancy(r) => check_tenancy(&op.posix_bytes, r),
        Out::Solve(s) => check_solve(s),
    }
}

fn same_tenant(a: &TenantReport, b: &TenantReport) -> bool {
    a.tenant == b.tenant
        && a.profile == b.profile
        && a.weight == b.weight
        && a.arrival_ns == b.arrival_ns
        && a.admitted_ns == b.admitted_ns
        && a.finish_ns == b.finish_ns
        && a.requests == b.requests
        && a.bytes == b.bytes
        && a.latency == b.latency
        && a.latency_hdr == b.latency_hdr
        && a.attribution == b.attribution
        && a.media_busy_ns == b.media_busy_ns
        && a.media_ops == b.media_ops
        && a.media_bytes == b.media_bytes
}

pub fn same_tenancy(a: &TenancyReport, b: &TenancyReport) -> bool {
    a.fleet == b.fleet
        && a.tenants.len() == b.tenants.len()
        && a.tenants
            .iter()
            .zip(&b.tenants)
            .all(|(x, y)| same_tenant(x, y))
}

pub fn same_solve(a: &Solve, b: &Solve) -> bool {
    let bits =
        |s: &Solve| -> Vec<u64> { s.result.eigenvalues.iter().map(|v| v.to_bits()).collect() };
    bits(a) == bits(b)
        && a.result.iterations == b.result.iterations
        && a.result.converged == b.result.converged
        && a.result.operator_applies == b.result.operator_applies
        && a.trace == b.trace
}

/// True when two runs of one operation produced the same result, bit
/// for bit (the simulated digest).
pub fn same(a: &Out, b: &Out) -> bool {
    match (a, b) {
        (Out::Experiment(x), Out::Experiment(y)) => x == y,
        (Out::Tenancy(x), Out::Tenancy(y)) => same_tenancy(x, y),
        (Out::Solve(x), Out::Solve(y)) => same_solve(x, y),
        _ => false,
    }
}

/// True when a layer-by-layer `run_shared` call reproduced what
/// `TenancySpec::run` reported.
pub fn shared_matches(shared: &SharedRunReport, report: &TenancyReport) -> bool {
    let same = |s: &TenantRunStats, t: &TenantReport| {
        s.tenant == t.tenant
            && s.requests == t.requests
            && s.bytes == t.bytes
            && s.admitted_ns == t.admitted_ns
            && s.finish_ns == t.finish_ns
            && s.latency_hdr == t.latency_hdr
            && s.attribution == t.attribution
            && s.media.busy_ns == t.media_busy_ns
            && s.media.ops == t.media_ops
            && s.media.bytes == t.media_bytes
    };
    shared.fleet == report.fleet.run
        && shared.tenants.len() == report.tenants.len()
        && shared
            .tenants
            .iter()
            .zip(&report.tenants)
            .all(|(s, t)| same(s, t))
}

/// Counts operations attempted and failed, keeping the first few
/// failure messages.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, name: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.messages.len() < 16 {
                self.messages.push(format!("{name}: {e}"));
            }
        }
    }

    /// Checks every operation of a pass, and compares it with the same
    /// operation of the reference pass when one is given.
    pub fn pass(&mut self, ops: &[Op], reference: Option<&[Op]>) {
        if let Some(r) = reference {
            if r.len() != ops.len() {
                self.record(
                    "pass",
                    Err(format!("{} ops, reference has {}", ops.len(), r.len())),
                );
            }
        }
        for (i, op) in ops.iter().enumerate() {
            let result = check(op).and_then(|()| match reference {
                Some(r) if !r.get(i).is_some_and(|r| same(&r.out, &op.out)) => {
                    Err("result differs from the first pass".to_string())
                }
                _ => Ok(()),
            });
            self.record(&op.name, result);
        }
    }
}

//! The three workloads: their inputs, made from a seed, and the untraced
//! pass whose operations the end-to-end metrics time.
//!
//! An operation is one experiment, journaled replay, tenancy or solve.
//! A pass runs the workload's operations closed-loop, one after the
//! other; only `table2_sweep` fans its 52 experiments out over the
//! thread pool, through `run_batch`.

use nvmtypes::{NvmKind, MIB};
use ooc::lobpcg::{Lobpcg, LobpcgOptions, LobpcgResult, TracedOperator};
use ooc::{HamiltonianSpec, OocMatrix};
use oocnvm_core::config::SystemConfig;
use oocnvm_core::experiment::{run_batch, ExperimentReport, ExperimentSpec};
use oocnvm_core::tenancy::{ArrivalProcess, TenancyReport, TenantProfile, TenantSpec};
use oocnvm_core::workload::{checkpoint_trace, synthetic_ooc_trace};
use ooctrace::{PosixTrace, TraceCapture};

/// The seed the benchmark is tuned on.
pub const DEFAULT_SEED: u64 = 42;
/// A seed kept out of tuning, to confirm a claim on unseen inputs.
pub const HELD_OUT_SEED: u64 = 7;

/// `table2_sweep`: the synthetic out-of-core trace the §7 headline uses.
pub const TABLE2_BYTES: u64 = 256 * MIB;
/// POSIX read size of the synthetic traces: one matrix panel.
pub const PANEL_BYTES: u64 = MIB;
/// `journal_ckpt`: bytes read by each of its traces. The largest size
/// at which the journaled replay still succeeds.
pub const JOURNAL_READ_BYTES: u64 = 64 * MIB;
const CKPT_INTERVAL_BYTES: u64 = 16 * MIB;
const CKPT_BYTES: u64 = 8 * MIB;
/// Mixed into the seed for `journal_ckpt`'s second draw of each trace.
const JOURNAL_SEED_MIX: u64 = 0x9e37_79b9_7f4a_7c15;
/// `eigensolve_qos`: Hamiltonian dimension and panel height of the real
/// LOBPCG capture (8000 x 8000, 40 panels).
const HAMILTONIAN_N: usize = 8000;
const ROWS_PER_PANEL: usize = 200;
/// Solver options of `workload::lobpcg_posix_trace`, except that the
/// iteration cap leaves room to converge (it takes 35-45 iterations).
const SOLVER: LobpcgOptions = LobpcgOptions {
    block_size: 4,
    max_iters: 60,
    tol: 1e-6,
    seed: 13,
    precondition: true,
};
/// Tenants sharing one device in each tenancy.
const TENANTS: usize = 12;
/// Fair-queueing weight of the latency-sensitive kv tenants.
const KV_WEIGHT: u64 = 4;
/// Mean inter-arrival gap and burst share of the tenants' arrivals.
const ARRIVAL_GAP_NS: u64 = 200_000;
const ARRIVAL_BURST: f64 = 0.25;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Table2Sweep,
    JournalCkpt,
    EigensolveQos,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Table2Sweep,
        Workload::JournalCkpt,
        Workload::EigensolveQos,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Table2Sweep => "table2_sweep",
            Workload::JournalCkpt => "journal_ckpt",
            Workload::EigensolveQos => "eigensolve_qos",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Everything a pass needs, built before the first pass.
pub enum Inputs {
    Table2 {
        posix: PosixTrace,
        specs: Vec<(SystemConfig, NvmKind)>,
    },
    Journal {
        traces: Vec<(&'static str, PosixTrace)>,
    },
    Eigen {
        matrix: OocMatrix,
        diag: Vec<f64>,
        replays: Vec<(SystemConfig, NvmKind)>,
        tenancies: Vec<SystemConfig>,
        tenants: Vec<TenantSpec>,
        /// POSIX bytes of each tenant's trace; filled by
        /// [`count_tenant_bytes`], not by [`build`].
        tenant_bytes: Vec<u64>,
        arrivals: ArrivalProcess,
    },
}

/// The synthetic out-of-core sweep of `bytes`, read in panels.
pub fn synthetic_trace(bytes: u64, seed: u64) -> PosixTrace {
    synthetic_ooc_trace(bytes, PANEL_BYTES, seed)
}

/// The 13 Table-2 configurations x 4 media.
pub fn table2_specs() -> Vec<(SystemConfig, NvmKind)> {
    SystemConfig::table2()
        .into_iter()
        .flat_map(|c| NvmKind::ALL.map(|k| (c, k)))
        .collect()
}

/// `journal_ckpt`'s traces, reading `read_bytes` each: the checkpointing
/// job (a third of its bytes are writes) and the read-only out-of-core
/// sweep, each from two seeds derived from `seed`. The journaled replay's
/// write amplification swings with the record-size jitter, so two draws
/// per kind keep the pass's totals steady from seed to seed.
pub fn journal_traces(read_bytes: u64, seed: u64) -> Vec<(&'static str, PosixTrace)> {
    let mut out = Vec::new();
    for (ckpt, ooc, s) in [
        ("checkpoint-a", "ooc-a", seed),
        ("checkpoint-b", "ooc-b", seed ^ JOURNAL_SEED_MIX),
    ] {
        out.push((
            ckpt,
            checkpoint_trace(read_bytes, CKPT_INTERVAL_BYTES, CKPT_BYTES, PANEL_BYTES, s),
        ));
        out.push((ooc, synthetic_trace(read_bytes, s)));
    }
    out
}

/// The journaled replays run on CNL-UFS with TLC media.
pub fn journal_config() -> (SystemConfig, NvmKind) {
    (SystemConfig::cnl_ufs(), NvmKind::Tlc)
}

/// The Hamiltonian behind the LOBPCG capture. It does not depend on the
/// seed: the solver is one fixed application, and the seed varies the
/// tenants sharing the device with it.
pub fn hamiltonian() -> HamiltonianSpec {
    HamiltonianSpec::medium(HAMILTONIAN_N)
}

/// Builds the out-of-core matrix and its diagonal (the preconditioner).
pub fn build_matrix(spec: &HamiltonianSpec) -> (OocMatrix, Vec<f64>) {
    let h = spec.generate();
    let diag = (0..h.n).map(|i| h.get(i, i)).collect();
    (OocMatrix::build(&h, ROWS_PER_PANEL, 0, None), diag)
}

/// Runs LOBPCG over the out-of-core matrix, capturing every panel read.
pub fn solve(matrix: &OocMatrix, diag: &[f64], obs: &mut simobs::Tracer) -> Solve {
    let cap = TraceCapture::new();
    let result = {
        let op = TracedOperator::new(matrix, &cap).with_diagonal(diag.to_vec());
        Lobpcg::new(SOLVER).solve_observed(&op, obs)
    };
    Solve {
        result,
        trace: cap.into_trace(),
    }
}

/// The 12-tenant mix: profiles cycle eigensolve, checkpoint, kv-lookup
/// (as in the `tenants` study), scaled up about 85x; kv tenants carry
/// weight 4. Per tenant: a 512 MiB panel sweep; 340 MiB of reads with an
/// 85 MiB checkpoint every 170 MiB; 170 MiB of 8 KiB lookups.
pub fn tenant_mix(seed: u64) -> Vec<TenantSpec> {
    (0..TENANTS)
        .map(|i| {
            let (profile, weight) = match i % 3 {
                0 => (
                    TenantProfile::Eigensolve {
                        total_bytes: 512 * MIB,
                        record_size: PANEL_BYTES,
                    },
                    1,
                ),
                1 => (
                    TenantProfile::Checkpoint {
                        read_bytes: 340 * MIB,
                        ckpt_interval_bytes: 170 * MIB,
                        ckpt_bytes: 85 * MIB,
                        record_size: PANEL_BYTES,
                    },
                    1,
                ),
                _ => (
                    TenantProfile::KvLookup {
                        total_bytes: 170 * MIB,
                        value_size: 8192,
                    },
                    KV_WEIGHT,
                ),
            };
            TenantSpec::new(profile)
                .seed(seed.wrapping_add(i as u64))
                .weight(weight)
        })
        .collect()
}

pub fn arrivals(seed: u64) -> ArrivalProcess {
    ArrivalProcess::bursty(ARRIVAL_GAP_NS, ARRIVAL_BURST, seed)
}

/// The configurations the LOBPCG capture is replayed on.
pub fn eigen_replays() -> Vec<(SystemConfig, NvmKind)> {
    [SystemConfig::ion_gpfs(), SystemConfig::cnl_native16()]
        .into_iter()
        .flat_map(|c| [NvmKind::Tlc, NvmKind::Pcm].map(|k| (c, k)))
        .collect()
}

/// The configurations the tenant mix shares, on TLC media.
pub fn eigen_tenancies() -> Vec<SystemConfig> {
    vec![SystemConfig::ion_gpfs(), SystemConfig::cnl_ufs()]
}

pub const TENANCY_KIND: NvmKind = NvmKind::Tlc;

/// The set-up a user of the program does before running the workload:
/// traces, the Hamiltonian and its out-of-core matrix, and the experiment
/// specs. `setup_s` times this. The tenants' traces are not generated
/// here, because `TenancySpec::run` generates them inside the run.
pub fn build(workload: Workload, seed: u64) -> Inputs {
    match workload {
        Workload::Table2Sweep => Inputs::Table2 {
            posix: synthetic_trace(TABLE2_BYTES, seed),
            specs: table2_specs(),
        },
        Workload::JournalCkpt => Inputs::Journal {
            traces: journal_traces(JOURNAL_READ_BYTES, seed),
        },
        Workload::EigensolveQos => {
            let (matrix, diag) = build_matrix(&hamiltonian());
            Inputs::Eigen {
                matrix,
                diag,
                replays: eigen_replays(),
                tenancies: eigen_tenancies(),
                tenants: tenant_mix(seed),
                tenant_bytes: Vec::new(),
                arrivals: arrivals(seed),
            }
        }
    }
}

/// Counts each tenant's POSIX bytes, for the conservation checks, by
/// generating its trace once outside the timed set-up.
pub fn count_tenant_bytes(inputs: &mut Inputs) {
    if let Inputs::Eigen {
        tenants,
        tenant_bytes,
        ..
    } = inputs
    {
        *tenant_bytes = tenants
            .iter()
            .map(|t| t.profile.posix_trace(t.seed).total_bytes())
            .collect();
    }
}

/// A solve and the panel reads it made.
#[derive(Debug)]
pub struct Solve {
    pub result: LobpcgResult,
    pub trace: PosixTrace,
}

/// What one operation produced.
#[derive(Debug)]
pub enum Out {
    Experiment(ExperimentReport),
    Tenancy(TenancyReport),
    Solve(Solve),
}

/// One operation of a pass.
#[derive(Debug)]
pub struct Op {
    pub name: String,
    /// POSIX bytes of the trace the operation replayed, one entry per
    /// trace (per tenant for a tenancy; none for a solve).
    pub posix_bytes: Vec<u64>,
    pub out: Out,
}

fn op_name(config: &SystemConfig, kind: NvmKind) -> String {
    format!("{}/{}", config.label, kind.label())
}

/// One untraced pass over the workload, through the public entry points
/// a user calls: `run_batch`, `ExperimentSpec::run`, `TenancySpec::run`
/// and `Lobpcg::solve`.
pub fn pass(inputs: &Inputs) -> Vec<Op> {
    match inputs {
        Inputs::Table2 { posix, specs } => {
            let batch = specs
                .iter()
                .map(|(c, k)| ExperimentSpec::new(c, *k))
                .collect();
            let bytes = posix.total_bytes();
            specs
                .iter()
                .zip(run_batch(batch, posix))
                .map(|((c, k), r)| Op {
                    name: op_name(c, *k),
                    posix_bytes: vec![bytes],
                    out: Out::Experiment(r),
                })
                .collect()
        }
        Inputs::Journal { traces } => {
            let (config, kind) = journal_config();
            traces
                .iter()
                .map(|(name, posix)| Op {
                    name: format!("{}/journaled/{name}", op_name(&config, kind)),
                    posix_bytes: vec![posix.total_bytes()],
                    out: Out::Experiment(
                        ExperimentSpec::new(&config, kind)
                            .journaled_ufs(true)
                            .run(posix),
                    ),
                })
                .collect()
        }
        Inputs::Eigen {
            matrix,
            diag,
            replays,
            tenancies,
            tenants,
            tenant_bytes,
            arrivals,
        } => {
            let solved = solve(matrix, diag, &mut simobs::Tracer::off());
            let capture = solved.trace.clone();
            let mut ops = vec![Op {
                name: "lobpcg".to_string(),
                posix_bytes: Vec::new(),
                out: Out::Solve(solved),
            }];
            for (c, k) in replays {
                ops.push(Op {
                    name: format!("{}/lobpcg", op_name(c, *k)),
                    posix_bytes: vec![capture.total_bytes()],
                    out: Out::Experiment(ExperimentSpec::new(c, *k).run(&capture)),
                });
            }
            for c in tenancies {
                ops.push(Op {
                    name: format!("{}/tenants", op_name(c, TENANCY_KIND)),
                    posix_bytes: tenant_bytes.clone(),
                    out: Out::Tenancy(
                        ExperimentSpec::new(c, TENANCY_KIND)
                            .tenants(tenants.clone())
                            .arrivals(*arrivals)
                            .run(),
                    ),
                });
            }
            ops
        }
    }
}

/// Simulated totals of a pass: makespan, device bytes and POSIX bytes
/// summed over its replays and tenancies.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimTotals {
    pub makespan_ns: u64,
    pub device_bytes: u64,
    pub posix_bytes: u64,
}

pub fn sim_totals(ops: &[Op]) -> SimTotals {
    let mut t = SimTotals::default();
    for op in ops {
        let run = match &op.out {
            Out::Experiment(r) => &r.run,
            Out::Tenancy(r) => &r.fleet.run,
            Out::Solve(_) => continue,
        };
        t.makespan_ns += run.makespan;
        t.device_bytes += run.total_bytes;
        t.posix_bytes += op.posix_bytes.iter().sum::<u64>();
    }
    t
}

//! The simulation-point pipeline every batch workload shares, the
//! counters it accumulates, and the outcome a workload hands back.
//!
//! Each call into a workspace crate sits inside a [`Tracer`] span named
//! after that crate, so a traced run splits host time by layer.

use crate::stats::{held_out, Digest};
use crate::trace::Tracer;
use psb_compile::{compile, ArtifactCache, CompileRequest, CompiledArtifact};
use psb_core::{MachineConfig, VliwResult};
use psb_isa::ScalarProgram;
use psb_scalar::{RunResult, ScalarConfig, ScalarMachine};
use psb_sched::Model;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The six synthetic benchmarks.
pub const BENCHMARKS: [&str; 6] = ["compress", "eqntott", "espresso", "grep", "li", "nroff"];

/// One benchmark's held-out training and evaluation programs.
pub struct Bench {
    pub name: &'static str,
    pub train: ScalarProgram,
    pub eval: ScalarProgram,
}

/// Held-out (training, evaluation) seeds of a run.
pub fn seeds(seed: u64) -> (u64, u64) {
    (held_out(seed, 1), held_out(seed, 2))
}

/// Generates every benchmark's programs (`psb-workloads`).
pub fn generate(tr: &Tracer, seed: u64, size: usize) -> Vec<Bench> {
    let (train_seed, eval_seed) = seeds(seed);
    tr.span("workloads.gen", || {
        BENCHMARKS
            .iter()
            .map(|&name| {
                let gen = |s| {
                    psb_workloads::by_name(name, s, size)
                        .expect("every listed benchmark exists")
                        .program
                };
                Bench {
                    name,
                    train: gen(train_seed),
                    eval: gen(eval_seed),
                }
            })
            .collect()
    })
}

/// The scalar golden run of `program` (`psb-scalar`).
pub fn golden(tr: &Tracer, c: &mut Counters, program: &ScalarProgram) -> Result<RunResult, String> {
    let res = tr.span("scalar.golden", || {
        ScalarMachine::new(program, ScalarConfig::default()).run()
    });
    let res = res.map_err(|e| format!("scalar golden run failed: {e}"))?;
    c.scalar_cycles += res.cycles;
    Ok(res)
}

/// Compiles through `cache`, recording the artifact's own stage times
/// as children of the compile span (`psb-compile`, with the profile run
/// in `psb-scalar`, scheduling in `psb-sched` and decode in `psb-core`).
pub fn compile_point(
    tr: &Tracer,
    c: &mut Counters,
    req: &CompileRequest<'_>,
    cache: &ArtifactCache,
) -> Result<Arc<CompiledArtifact>, String> {
    let misses = cache.stats().misses;
    let mut fresh = false;
    let art = tr.span_named(|| {
        let art = compile(req, cache);
        fresh = cache.stats().misses > misses;
        if let (true, Ok(a)) = (fresh, &art) {
            tr.stages(&stage_spans(a));
        }
        (art, if fresh { "compile.miss" } else { "compile.hit" })
    });
    let art = art.map_err(|e| format!("compile failed: {e}"))?;
    c.count_compile(&art, fresh);
    Ok(art)
}

/// The artifact's measured compile stages as labelled child spans.
pub fn stage_spans(a: &CompiledArtifact) -> [(&'static str, f64); 3] {
    [
        ("scalar.profile", a.stats.profile_seconds),
        ("sched.schedule", a.stats.schedule_seconds),
        ("core.decode", a.stats.decode_seconds),
    ]
}

/// Runs the artifact (`psb-core`) and holds its observable state to the
/// scalar golden run.
pub fn simulate(
    tr: &Tracer,
    c: &mut Counters,
    art: &CompiledArtifact,
    cfg: MachineConfig,
    eval: &ScalarProgram,
    golden: &RunResult,
) -> Result<VliwResult, String> {
    let res = tr.span("core.run", || art.run(cfg));
    let res = res.map_err(|e| format!("machine error: {e}"))?;
    if res.observable(&eval.live_out) != golden.observable(&eval.live_out) {
        return Err("diverged from the scalar golden model".to_string());
    }
    c.add_run(&res);
    Ok(res)
}

/// Work counters accumulated over a measured window.
#[derive(Clone, Default, Debug)]
pub struct Counters {
    pub points: u64,
    pub sim_cycles: u64,
    pub ops_executed: u64,
    pub ops_squashed: u64,
    pub words_issued: u64,
    pub stall_operand: u64,
    pub stall_sb_full: u64,
    pub stall_load_miss: u64,
    pub stall_ifetch: u64,
    pub commits: u64,
    pub squashes: u64,
    pub icache: (u64, u64),
    pub dcache: (u64, u64),
    pub scalar_cycles: u64,
    pub compiles: u64,
    pub compile_hits: u64,
    pub static_ops_scheduled: u64,
    pub store_loads: u64,
    pub store_hits: u64,
    pub store_bytes: u64,
}

impl Counters {
    pub fn add_run(&mut self, r: &VliwResult) {
        self.points += 1;
        self.sim_cycles += r.cycles;
        self.ops_executed += r.ops_executed;
        self.ops_squashed += r.ops_squashed;
        self.words_issued += r.words_issued;
        self.stall_operand += r.stall_operand;
        self.stall_sb_full += r.stall_sb_full;
        self.stall_load_miss += r.stall_load_miss;
        self.stall_ifetch += r.stall_ifetch;
        self.commits += r.commits;
        self.squashes += r.squashes;
        self.icache.0 += r.icache_accesses;
        self.icache.1 += r.icache_misses;
        self.dcache.0 += r.dcache_accesses;
        self.dcache.1 += r.dcache_misses;
    }

    pub fn add(&mut self, c: &Counters) {
        self.points += c.points;
        self.sim_cycles += c.sim_cycles;
        self.ops_executed += c.ops_executed;
        self.ops_squashed += c.ops_squashed;
        self.words_issued += c.words_issued;
        self.stall_operand += c.stall_operand;
        self.stall_sb_full += c.stall_sb_full;
        self.stall_load_miss += c.stall_load_miss;
        self.stall_ifetch += c.stall_ifetch;
        self.commits += c.commits;
        self.squashes += c.squashes;
        self.icache.0 += c.icache.0;
        self.icache.1 += c.icache.1;
        self.dcache.0 += c.dcache.0;
        self.dcache.1 += c.dcache.1;
        self.scalar_cycles += c.scalar_cycles;
        self.compiles += c.compiles;
        self.compile_hits += c.compile_hits;
        self.static_ops_scheduled += c.static_ops_scheduled;
        self.store_loads += c.store_loads;
        self.store_hits += c.store_hits;
        self.store_bytes += c.store_bytes;
    }

    pub fn count_compile(&mut self, art: &CompiledArtifact, fresh: bool) {
        if fresh {
            self.compiles += 1;
            self.static_ops_scheduled += art.program.static_ops() as u64;
        } else {
            self.compile_hits += 1;
        }
    }
}

/// One distinct simulated point: what the digest, the speedups and the
/// paper comparison are computed from.
#[derive(Clone, Debug)]
pub struct SimPoint {
    pub program: String,
    pub model: Model,
    /// Simulated on the paper's base machine and scheduler configuration.
    pub base: bool,
    /// Machine / scheduler configuration label.
    pub config: String,
    pub scalar_cycles: u64,
    pub res: VliwResult,
}

impl SimPoint {
    pub fn speedup(&self) -> f64 {
        self.scalar_cycles as f64 / self.res.cycles as f64
    }
}

/// Digest of every simulated statistic of the distinct points, in order.
pub fn digest(points: &[SimPoint]) -> String {
    let mut d = Digest::new();
    for p in points {
        d.add_str(&p.program);
        d.add_str(p.model.name());
        d.add_str(&p.config);
        d.add(p.scalar_cycles);
        let r = &p.res;
        for v in [
            r.cycles,
            r.words_issued,
            r.ops_executed,
            r.ops_squashed,
            r.stall_operand,
            r.stall_sb_full,
            r.stall_busy,
            r.recoveries,
            r.faults_handled,
            r.region_transfers,
            r.commits,
            r.squashes,
            r.stall_ifetch,
            r.stall_load_miss,
            r.icache_accesses,
            r.icache_misses,
            r.dcache_accesses,
            r.dcache_misses,
        ] {
            d.add(v);
        }
    }
    d.hex()
}

/// What one workload run measured.
#[derive(Default)]
pub struct Outcome {
    /// Wall time of each repeated set-up.
    pub setup_s: Vec<f64>,
    /// Latency of every answered serve-open request.
    pub latency_s: Vec<f64>,
    /// Latency of the serve-open requests whose compile missed every cache.
    pub cold_latency_s: Vec<f64>,
    /// Each batch unit's latency in every pass (a point, a store load or a
    /// sweep), by unit index, with whether the unit compiles cold.
    pub unit_s: Vec<(bool, Vec<f64>)>,
    /// The measured window: the untraced passes (batch workloads) or the
    /// closed-loop probe (serve-open).
    pub wall_s: f64,
    /// Wall time of each whole pass over a batch workload's units.
    pub pass_s: Vec<f64>,
    /// Passes run (0 for serve-open, which runs a schedule, not passes).
    pub passes: usize,
    /// Highest offered request rate that met the latency limit (serve-open).
    pub max_rate: f64,
    /// Peak RSS at the end of the measured phase, where it ends before
    /// the run does (serve-open's rate search follows it).
    pub peak_rss_mb: Option<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Work done in the measured window.
    pub work: Counters,
    /// The work `core.run_s` times, where it is not `work`: one bare
    /// replay of machine-sweep's grid.
    pub core_work: Option<Counters>,
    /// Threads the measured calls are spread over (0 counts as 1).
    pub lanes: usize,
    /// The distinct points of one pass, in a fixed order.
    pub sim: Vec<SimPoint>,
    /// Workload-specific per-layer metrics (traced runs).
    pub layer: BTreeMap<&'static str, f64>,
    /// Lines describing the simulated state of the run.
    pub notes: Vec<String>,
    /// First failure messages, for the log.
    pub errors: Vec<String>,
}

impl Outcome {
    /// Records batch unit `k`'s latency in one pass.
    pub fn unit(&mut self, k: usize, cold: bool, wall: f64) {
        if self.unit_s.len() <= k {
            self.unit_s.resize_with(k + 1, Default::default);
        }
        self.unit_s[k].0 = cold;
        self.unit_s[k].1.push(wall);
    }

    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }
}

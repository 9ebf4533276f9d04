//! The three batch workloads: `paper-large`, `sched-grid` and
//! `machine-sweep`.  Each runs in numbered passes over the same inputs,
//! so a traced run can repeat exactly the passes an untraced run did.

use crate::pipeline::{
    compile_point, generate, golden, seeds, simulate, Bench, Counters, Outcome, SimPoint,
};
use crate::stats::Rng;
use crate::trace::Tracer;
use crate::Ctx;
use psb_compile::{
    compile_stored, ArtifactCache, ArtifactSource, CompileRequest, CompiledArtifact, DiskStore,
    ProfileSource,
};
use psb_core::{MachineConfig, ShadowMode};
use psb_eval::{parallel_map, parse_grid, run_sweep, SweepGrid, SweepParams, SweepPoint};
use psb_isa::Resources;
use psb_scalar::{RunResult, ScalarConfig, ScalarMachine};
use psb_sched::{Model, SchedConfig};
use psb_telemetry::NullTelemetry;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Set-up repetitions per run; `setup_s` is their median.  Set-ups
/// repeat for at least `SETUP_MIN_S` too, so a sub-millisecond set-up is
/// timed on a warmed-up core rather than in the first instants of the
/// process.
const SETUP_REPS: usize = 9;
const SETUP_MIN_S: f64 = 0.05;

/// `paper-large` input size: large enough that simulation and the
/// golden/training runs dominate, small enough for several passes over
/// all 42 points in one run.
const PAPER_SIZE: usize = 16384;

/// `sched-grid` input size: small, so scheduling and the store dominate.
const SCHED_SIZE: usize = 64;

/// A batch workload whose measured work is a sequence of numbered passes.
pub trait Passes {
    /// Runs pass `i`, pushing the latency of each unit it completes (a
    /// point or a sweep) and counting its outcomes.
    fn pass(&mut self, tr: &Tracer, out: &mut Outcome, i: usize);
}

fn timed_setup<T>(out: &mut Outcome, tr: &Tracer, mut f: impl FnMut(&Tracer) -> T) -> T {
    let first = Instant::now();
    let mut reps = 0;
    loop {
        let start = Instant::now();
        let made = f(tr);
        out.setup_s.push(start.elapsed().as_secs_f64());
        reps += 1;
        if reps >= SETUP_REPS && first.elapsed().as_secs_f64() >= SETUP_MIN_S {
            return made;
        }
    }
}

// ---------------------------------------------------------------- paper-large

pub struct PaperLarge {
    benches: Vec<Bench>,
}

pub fn paper_large(ctx: &Ctx, tr: &Tracer, out: &mut Outcome) -> PaperLarge {
    let benches = timed_setup(out, tr, |tr| generate(tr, ctx.seed, PAPER_SIZE));
    let (t, e) = seeds(ctx.seed);
    out.notes.push(format!(
        "inputs: 6 benchmarks x 7 models, size {PAPER_SIZE}, held-out train_seed={t} eval_seed={e}, memory perfect"
    ));
    out.lanes = threads();
    PaperLarge { benches }
}

impl PaperLarge {
    /// One point: golden run, cold compile, simulation and golden check.
    fn point(&self, tr: &Tracer, k: usize) -> Result<(f64, Counters, SimPoint), String> {
        let (b, model) = (&self.benches[k / 7], Model::ALL[k % 7]);
        let mut c = Counters::default();
        let start = Instant::now();
        let gold = golden(tr, &mut c, &b.eval)?;
        let req = CompileRequest {
            program: &b.eval,
            profile: ProfileSource::Train {
                program: &b.train,
                config: ScalarConfig::default(),
            },
            sched: SchedConfig::new(model),
        };
        let cache = ArtifactCache::new();
        let art = compile_point(tr, &mut c, &req, &cache)?;
        let res = simulate(tr, &mut c, &art, MachineConfig::default(), &b.eval, &gold)?;
        let point = SimPoint {
            program: b.name.to_string(),
            model,
            base: true,
            config: "base".to_string(),
            scalar_cycles: gold.cycles,
            res,
        };
        Ok((start.elapsed().as_secs_f64(), c, point))
    }
}

impl Passes for PaperLarge {
    /// All 42 points spread over every core, as `repro fig7 --jobs
    /// <nproc>` runs them.
    fn pass(&mut self, tr: &Tracer, out: &mut Outcome, i: usize) {
        let points: Vec<usize> = (0..self.benches.len() * Model::ALL.len()).collect();
        let root = tr.current();
        let this = &*self;
        let results = parallel_map(&points, threads(), |&k| {
            tr.span_under(root, "bench.point", || this.point(tr, k))
        });
        for (k, r) in results.into_iter().enumerate() {
            out.attempted += 1;
            match r {
                Ok((wall, c, point)) => {
                    out.unit(k, true, wall);
                    out.work.add(&c);
                    if i == 0 {
                        out.sim.push(point);
                    }
                }
                Err(e) => out.fail(format!(
                    "{}/{}: {e}",
                    self.benches[k / 7].name,
                    Model::ALL[k % 7]
                )),
            }
        }
    }
}

/// Worker threads for work spread over the host: one per core.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

// ----------------------------------------------------------------- sched-grid

/// One scheduler configuration of the grid: (issue width, depth, CCR entries).
#[derive(Clone, Copy)]
struct SchedPoint {
    width: usize,
    depth: usize,
    conds: usize,
}

impl SchedPoint {
    /// The paper's base machine: 4-issue with 4 ALU / 4 branch / 2 load /
    /// 1 store units, K = D = 4.
    fn base(&self) -> bool {
        self.width == 4 && self.depth == 4 && self.conds == 4
    }

    fn resources(&self) -> Resources {
        if self.width == 4 {
            Resources::paper_base()
        } else {
            Resources::full_issue(self.width)
        }
    }

    fn sched(&self, model: Model) -> SchedConfig {
        SchedConfig {
            issue_width: self.width,
            resources: self.resources(),
            num_conds: self.conds,
            depth: self.depth.min(self.conds),
            ..SchedConfig::new(model)
        }
    }

    fn machine(&self) -> MachineConfig {
        MachineConfig {
            issue_width: self.width,
            resources: self.resources(),
            ..MachineConfig::default()
        }
    }
}

pub struct SchedGrid {
    benches: Vec<Bench>,
    goldens: Vec<RunResult>,
    grid: Vec<(usize, SchedPoint, Model)>,
    root: PathBuf,
    store: Option<DiskStore>,
    stores: usize,
}

pub fn sched_grid(ctx: &Ctx, tr: &Tracer, out: &mut Outcome) -> Result<SchedGrid, String> {
    let root = ctx.scratch.join("sched-store");
    let (benches, goldens) = timed_setup(out, tr, |tr| {
        let benches = generate(tr, ctx.seed, SCHED_SIZE);
        let mut c = Counters::default();
        let goldens = benches
            .iter()
            .map(|b| golden(tr, &mut c, &b.eval))
            .collect::<Result<Vec<_>, _>>();
        (benches, goldens)
    });
    let goldens = goldens?;
    let mut grid = Vec::new();
    for b in 0..benches.len() {
        for width in [2, 4, 8] {
            for depth in [2, 4] {
                for conds in [4, 8] {
                    for model in Model::ALL {
                        grid.push((
                            b,
                            SchedPoint {
                                width,
                                depth,
                                conds,
                            },
                            model,
                        ));
                    }
                }
            }
        }
    }
    out.lanes = threads();
    let (t, e) = seeds(ctx.seed);
    out.notes.push(format!(
        "inputs: 6 benchmarks x 7 models x 12 scheduler configs (width 2/4/8 x depth 2/4 x CCR 4/8), size {SCHED_SIZE}, held-out train_seed={t} eval_seed={e}, memory perfect"
    ));
    Ok(SchedGrid {
        benches,
        goldens,
        grid,
        root,
        store: None,
        stores: 0,
    })
}

impl SchedGrid {
    /// Opens an empty store in a directory of its own.  Called when a
    /// measured sequence of passes starts, so the untraced and the traced
    /// passes each fill a store once.
    fn open_store(&mut self) -> Result<(), String> {
        let dir = self.root.join(self.stores.to_string());
        self.stores += 1;
        self.store = Some(DiskStore::open(dir).map_err(|e| format!("store: {e}"))?);
        Ok(())
    }

    fn request(&self, k: usize) -> CompileRequest<'_> {
        let (b, sp, model) = self.grid[k];
        CompileRequest {
            program: &self.benches[b].eval,
            profile: ProfileSource::Train {
                program: &self.benches[b].train,
                config: ScalarConfig::default(),
            },
            sched: sp.sched(model),
        }
    }

    /// Pass 1: compile cold through `cache` and run.
    fn pass1(
        &self,
        tr: &Tracer,
        cache: &ArtifactCache,
        k: usize,
    ) -> Result<(f64, Counters, Arc<CompiledArtifact>, SimPoint), String> {
        let (b, sp, model) = self.grid[k];
        let mut c = Counters::default();
        let start = Instant::now();
        let art = compile_point(tr, &mut c, &self.request(k), cache)?;
        // The store is content-addressed: an artifact is written once, by
        // the first pass, and later passes find it there.  Rewriting every
        // file on every pass made the filesystem's cost swing several-fold
        // between runs on a journalled disk.
        let store = self.store.as_ref().expect("store opened at the first unit");
        let path = store.path_for(art.request_key);
        if !path.exists() {
            tr.span("store.save", || store.save(&art, &NullTelemetry))
                .map_err(|e| format!("store save: {e}"))?;
            c.store_bytes += std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        }
        let (bench, gold) = (&self.benches[b], &self.goldens[b]);
        let res = simulate(tr, &mut c, &art, sp.machine(), &bench.eval, gold)?;
        let point = SimPoint {
            program: bench.name.to_string(),
            model,
            base: sp.base(),
            config: format!("w{}d{}k{}", sp.width, sp.depth, sp.conds),
            scalar_cycles: gold.cycles,
            res,
        };
        Ok((start.elapsed().as_secs_f64(), c, art, point))
    }

    /// Pass 2: load through `cache` from the store pass 1 filled, and
    /// check it is the artifact pass 1 compiled.
    fn pass2(
        &self,
        tr: &Tracer,
        cache: &ArtifactCache,
        built: Option<&CompiledArtifact>,
        k: usize,
    ) -> Result<(f64, Counters), String> {
        let mut c = Counters::default();
        let start = Instant::now();
        let store = self.store.as_ref().expect("store opened at the first unit");
        let (art, source) = tr
            .span("store.load", || {
                compile_stored(&self.request(k), cache, Some(store), &NullTelemetry)
            })
            .map_err(|e| format!("compile: {e}"))?;
        c.store_loads += 1;
        if source == ArtifactSource::Disk {
            c.store_hits += 1;
        }
        let built = built.ok_or("no pass-1 artifact")?;
        if source != ArtifactSource::Disk || !art.same_content(built) {
            return Err(format!(
                "store round trip: source {} differs from the compiled artifact",
                source.name()
            ));
        }
        Ok((start.elapsed().as_secs_f64(), c))
    }

    fn label(&self, k: usize) -> String {
        let (b, sp, model) = self.grid[k];
        format!(
            "{}/{model} w{}d{}k{}",
            self.benches[b].name, sp.width, sp.depth, sp.conds
        )
    }
}

impl Passes for SchedGrid {
    /// Pass 1 then pass 2 over the whole grid, each spread over every
    /// core and each through a fresh memory cache.
    fn pass(&mut self, tr: &Tracer, out: &mut Outcome, i: usize) {
        if i == 0 {
            if let Err(e) = self.open_store() {
                out.attempted += 1;
                return out.fail(e);
            }
        }
        let points: Vec<usize> = (0..self.grid.len()).collect();
        let root = tr.current();
        let this = &*self;
        let cache = ArtifactCache::new();
        let first = parallel_map(&points, threads(), |&k| {
            tr.span_under(root, "bench.point", || this.pass1(tr, &cache, k))
        });
        let mut built = vec![None; points.len()];
        for (k, r) in first.into_iter().enumerate() {
            out.attempted += 1;
            match r {
                Ok((wall, c, art, point)) => {
                    out.unit(k, true, wall);
                    out.work.add(&c);
                    built[k] = Some(art);
                    if i == 0 {
                        out.sim.push(point);
                    }
                }
                Err(e) => out.fail(format!("{}: {e}", self.label(k))),
            }
        }
        let cache = ArtifactCache::new();
        let second = parallel_map(&points, threads(), |&k| {
            tr.span_under(root, "bench.point", || {
                this.pass2(tr, &cache, built[k].as_deref(), k)
            })
        });
        for (k, r) in second.into_iter().enumerate() {
            out.attempted += 1;
            match r {
                Ok((wall, c)) => {
                    out.unit(points.len() + k, false, wall);
                    out.work.add(&c);
                }
                Err(e) => out.fail(format!("{}: {e}", self.label(k))),
            }
        }
    }
}

impl Drop for SchedGrid {
    fn drop(&mut self) {
        self.store = None;
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

// -------------------------------------------------------------- machine-sweep

/// I$ and D$ geometries the seed picks from.  Every choice has the same
/// shape (2-way, 4-word lines, 1-cycle hit), so the host work per point
/// is comparable across seeds.
const ICACHE_SETS: [usize; 3] = [8, 16, 32];
const DCACHE_SETS: [usize; 3] = [16, 32, 64];
const MISS_LATENCY: [u64; 3] = [8, 10, 12];

pub struct MachineSweep {
    params: SweepParams,
    points: usize,
    /// Counters of one sweep's grid, from the bare replay.
    per_sweep: Counters,
    reference: Vec<SweepPoint>,
}

fn kernel_path(kernel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../asm")
        .join(format!("{kernel}.asm"))
}

pub fn machine_sweep(ctx: &Ctx, tr: &Tracer, out: &mut Outcome) -> MachineSweep {
    let mut rng = Rng::new(ctx.seed ^ 0x5eed_5eed);
    let icache = format!(
        "{}x2x4x1x{}",
        ICACHE_SETS[rng.below(3)],
        MISS_LATENCY[rng.below(3)]
    );
    let dcache = format!(
        "{}x2x4x1x{}",
        DCACHE_SETS[rng.below(3)],
        MISS_LATENCY[rng.below(3)]
    );
    let spec = format!(
        "kernel=dotprod,gcd,matmul,sort;model=trace-pred,region-pred;width=4;sb=4,16;scan=indexed;latency=2;\
         icache=off,{icache};dcache=off,{dcache}"
    );
    let params = timed_setup(out, tr, |tr| {
        let grid = tr
            .span("eval.grid", || parse_grid(&spec, SweepGrid::quick()))
            .expect("the benchmark's grid spec parses");
        // Every kernel must load, so a sweep never fails on its input.
        for k in &grid.kernels {
            tr.span("workloads.gen", || psb_fuzz::load_repro(&kernel_path(k)))
                .expect("kernel loads");
        }
        SweepParams {
            quick: false,
            deterministic: false,
            jobs: threads(),
            grid,
        }
    });
    let points =
        params.grid.kernels.len() * params.grid.models.len() * params.grid.lane_axes().len();
    out.notes.push(format!(
        "inputs: asm kernels dotprod/gcd/matmul/sort x trace-pred/region-pred x sb 4/16 x icache off/{icache} x dcache off/{dcache} ({points} points), chosen by seed; caches start empty on every point"
    ));
    MachineSweep {
        params,
        points,
        per_sweep: Counters::default(),
        reference: Vec::new(),
    }
}

impl Passes for MachineSweep {
    /// One `run_sweep` over the grid.
    fn pass(&mut self, tr: &Tracer, out: &mut Outcome, _i: usize) {
        out.attempted += 1;
        let start = Instant::now();
        let report = tr.span("eval.sweep", || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_sweep(&self.params)))
        });
        let wall = start.elapsed().as_secs_f64();
        match report {
            Ok(r) if r.points.len() == self.points => {
                out.unit(0, true, wall);
                if self.reference.is_empty() {
                    self.reference = r.points;
                } else if r.points != self.reference {
                    out.fail("sweep points differ between repeats of one grid".to_string());
                    return;
                }
                out.work.add(&self.per_sweep);
            }
            Ok(r) => out.fail(format!(
                "sweep reported {} points, expected {}",
                r.points.len(),
                self.points
            )),
            Err(_) => out.fail("sweep panicked (golden divergence or machine error)".to_string()),
        }
    }
}

impl MachineSweep {
    /// Replays the grid as bare `CompiledArtifact::run` calls (one compile
    /// per artifact, one run per machine configuration), checks every run
    /// against the scalar golden model and every sweep point against its
    /// replay, and keeps the replay's counters.  Call before measuring:
    /// the measured sweeps count their work from these counters.
    pub fn replay(&mut self, tr: &Tracer, out: &mut Outcome) {
        let grid = &self.params.grid;
        let mut c = Counters::default();
        let mut sim = Vec::new();
        let cache = ArtifactCache::new();
        for kernel in &grid.kernels {
            let case = match psb_fuzz::load_repro(&kernel_path(kernel)) {
                Ok(case) => case,
                Err(e) => return out.fail(format!("{kernel}: {e}")),
            };
            let scfg = ScalarConfig {
                fault_once_addrs: case.fault_once.clone(),
                ..ScalarConfig::default()
            };
            let gold = match tr.span("scalar.golden", || {
                ScalarMachine::new(&case.program, scfg.clone()).run()
            }) {
                Ok(g) => g,
                Err(e) => return out.fail(format!("{kernel}: scalar run failed: {e}")),
            };
            for &model in &grid.models {
                let sched = SchedConfig::new(model);
                let single = sched.single_shadow;
                let req = CompileRequest {
                    program: &case.program,
                    profile: ProfileSource::Provided(&gold.edge_profile),
                    sched,
                };
                let art = match compile_point(tr, &mut c, &req, &cache) {
                    Ok(a) => a,
                    Err(e) => return out.fail(format!("{kernel}/{model}: {e}")),
                };
                for ax in grid.lane_axes() {
                    let cfg = MachineConfig {
                        shadow_mode: if single {
                            ShadowMode::Single
                        } else {
                            ShadowMode::Infinite
                        },
                        fault_once_addrs: case.fault_once.clone(),
                        store_buffer_size: ax.sb,
                        commit_scan: ax.scan,
                        load_latency: ax.latency,
                        memory: ax.memory(),
                        ..MachineConfig::full_issue(ax.width)
                    };
                    let name = |c: &Option<psb_core::CacheConfig>| {
                        c.map_or("off".to_string(), |c| c.to_string())
                    };
                    let (ic, dc) = (name(&ax.icache), name(&ax.dcache));
                    match simulate(tr, &mut c, &art, cfg, &case.program, &gold) {
                        Ok(res) => sim.push(SimPoint {
                            program: kernel.clone(),
                            model,
                            base: ax.sb == 16 && ax.icache.is_none() && ax.dcache.is_none(),
                            config: format!("sb{}-i{ic}-d{dc}", ax.sb),
                            scalar_cycles: gold.cycles,
                            res,
                        }),
                        Err(e) => out.fail(format!("{kernel}/{model} sb{} {ic} {dc}: {e}", ax.sb)),
                    }
                }
            }
        }
        // Only the simulation counters describe a sweep's work; the
        // replay's own compiles are not part of it.
        self.per_sweep = Counters {
            scalar_cycles: 0,
            compiles: 0,
            compile_hits: 0,
            static_ops_scheduled: 0,
            ..c
        };
        out.sim = sim;
    }

    /// Counters of one bare replay of the grid.
    pub fn per_sweep(&self) -> &Counters {
        &self.per_sweep
    }

    /// Holds every point the sweeps reported to its bare replay.
    pub fn check(&self, out: &mut Outcome) {
        for p in &self.reference {
            let hit = out.sim.iter().find(|s| {
                s.program == p.kernel
                    && s.model.name() == p.model
                    && s.config == format!("sb{}-i{}-d{}", p.sb, p.icache, p.dcache)
            });
            let same = hit.is_some_and(|s| {
                let r = &s.res;
                (
                    r.cycles,
                    r.words_issued,
                    r.commits,
                    r.squashes,
                    r.recoveries,
                    r.stall_operand,
                    r.stall_sb_full,
                    r.stall_ifetch,
                    r.stall_load_miss,
                ) == (
                    p.cycles,
                    p.words_issued,
                    p.commits,
                    p.squashes,
                    p.recoveries,
                    p.stall_operand,
                    p.stall_sb_full,
                    p.stall_ifetch,
                    p.stall_load_miss,
                ) && (
                    r.icache_accesses,
                    r.icache_misses,
                    r.dcache_accesses,
                    r.dcache_misses,
                ) == (
                    p.icache_accesses,
                    p.icache_misses,
                    p.dcache_accesses,
                    p.dcache_misses,
                )
            });
            if !same {
                out.attempted += 1;
                out.fail(format!(
                    "sweep point {}/{} sb{} {} {} differs from its bare replay",
                    p.kernel, p.model, p.sb, p.icache, p.dcache
                ));
            }
        }
    }
}

//! `repro sweep` — exhaustive design-space sweeps with a deterministic,
//! gateable report.
//!
//! The paper could only sample its (issue-width × buffer-depth ×
//! scan-strategy × model) design space; `repro sweep` explores a
//! configurable grid of it exhaustively.  The work splits into one unit
//! per (kernel × model) artifact, spread over [`parallel_map`].  A unit
//! loads the kernel, runs the golden scalar machine and compiles once —
//! the compile key deliberately excludes `MachineConfig`, so one
//! artifact serves the whole machine grid — then runs every machine
//! configuration of the grid exactly once under [`NullSink`] and holds
//! each result to the golden observable state, so a sweep number can
//! never describe broken code.  The report counts the machine runs and
//! compiles it performed, so "once" is gated, not just documented.
//!
//! The report follows the `BENCH.json` determinism contract: simulated
//! counters and work counters are byte-identical across hosts and
//! `--jobs` values; wall times live in `host` objects that
//! `--deterministic` zeroes, so CI can `cmp` two runs and gate counter
//! drift against `baselines/sweep_baseline.json` via [`check_sweep`].

use crate::bench::{asm_dir, BenchCheck};
use crate::json::{Json, ToJson};
use crate::runner::parallel_map;
use crate::trace::parse_model;
use psb_compile::{compile_fresh, CompileRequest, ProfileSource};
use psb_core::{CacheConfig, CommitScan, MachineConfig, MemoryModel, NullSink, ShadowMode};
use psb_scalar::{ScalarConfig, ScalarMachine};
use psb_sched::{Model, SchedConfig};
use psb_telemetry::round_us;
use std::time::Instant;

/// Version string stamped into the sweep report; a mismatch against the
/// baseline is a hard check failure.
pub const SWEEP_SCHEMA_VERSION: &str = "psb-sweep-v2";

/// The stable report name of a commit-scan strategy.
fn scan_name(s: CommitScan) -> &'static str {
    match s {
        CommitScan::Naive => "naive",
        CommitScan::Indexed => "indexed",
    }
}

fn parse_scan(s: &str) -> Option<CommitScan> {
    match s {
        "naive" => Some(CommitScan::Naive),
        "indexed" => Some(CommitScan::Indexed),
        _ => None,
    }
}

/// The stable report name of a cache axis value: `"off"` or the
/// `SETSxWAYSxLINExHITxMISS` spec.
fn cache_axis_name(c: &Option<CacheConfig>) -> String {
    match c {
        None => "off".to_string(),
        Some(c) => c.to_string(),
    }
}

fn parse_cache_axis(v: &str) -> Result<Option<CacheConfig>, String> {
    if v == "off" {
        return Ok(None);
    }
    CacheConfig::parse(v).map(Some)
}

/// The design-space grid one sweep explores.  The machine dimensions
/// (width × sb × scan × latency) form the lane set of every
/// (kernel × model) artifact; their cross product is the sweep's point
/// count.
#[derive(Clone, PartialEq, Debug)]
pub struct SweepGrid {
    /// Kernel programs (names under `asm/`).
    pub kernels: Vec<String>,
    /// Scheduling models (compile-time dimension: one artifact each).
    pub models: Vec<Model>,
    /// Issue widths, realised as full-issue machines (Figure 8's axis).
    pub widths: Vec<usize>,
    /// Store-buffer depths.
    pub sb: Vec<usize>,
    /// Commit-scan strategies (architecturally identical — their
    /// byte-equal counters are themselves a differential check).
    pub scans: Vec<CommitScan>,
    /// Load latencies in cycles.  Only meaningful for `off`-cache lanes
    /// (perfect memory); a lane with any cache takes its load and fetch
    /// timing from the cache specs instead.
    pub latencies: Vec<u64>,
    /// Instruction-cache axis: `None` = off (single-cycle fetch), or a
    /// parameterized cache.
    pub icaches: Vec<Option<CacheConfig>>,
    /// Data-cache axis: `None` = off, or a parameterized cache.
    pub dcaches: Vec<Option<CacheConfig>>,
}

/// One machine-grid lane: the cross product element of the sweep's
/// machine dimensions, in report order.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct LaneAxis {
    /// Issue width.
    pub width: usize,
    /// Store-buffer depth.
    pub sb: usize,
    /// Commit-scan strategy.
    pub scan: CommitScan,
    /// Load latency (perfect-memory lanes only).
    pub latency: u64,
    /// Instruction cache, or `None` for single-cycle fetch.
    pub icache: Option<CacheConfig>,
    /// Data cache, or `None` for fixed-latency loads.
    pub dcache: Option<CacheConfig>,
}

impl LaneAxis {
    /// The lane's memory model: perfect when both caches are off (so
    /// cache-free grids reproduce the paper's fixed-latency timing
    /// bit-for-bit), the parameterized hierarchy otherwise.
    pub fn memory(&self) -> MemoryModel {
        if self.icache.is_none() && self.dcache.is_none() {
            MemoryModel::Perfect
        } else {
            MemoryModel::Cache {
                icache: self.icache,
                dcache: self.dcache,
            }
        }
    }
}

impl SweepGrid {
    /// The CI quick grid: 8 machine configs × 8 artifacts = 64 points.
    pub fn quick() -> SweepGrid {
        SweepGrid {
            kernels: crate::KERNELS.iter().map(|k| k.to_string()).collect(),
            models: vec![Model::RegionPred, Model::TracePred],
            widths: vec![4],
            sb: vec![4, 16],
            scans: vec![CommitScan::Naive, CommitScan::Indexed],
            latencies: vec![2, 4],
            icaches: vec![None],
            dcaches: vec![None],
        }
    }

    /// The default full grid: 48 machine configs × 8 artifacts = 384
    /// points.
    pub fn full() -> SweepGrid {
        SweepGrid {
            widths: vec![4, 8],
            sb: vec![2, 4, 8, 16],
            latencies: vec![2, 3, 4],
            ..SweepGrid::quick()
        }
    }

    /// The machine-dimension cross product, in fixed nesting order
    /// (width, then sb, then scan, then latency, then icache, then
    /// dcache) — the run order of every artifact and the point order of
    /// the report.
    pub fn lane_axes(&self) -> Vec<LaneAxis> {
        let mut axes = Vec::new();
        for &w in &self.widths {
            for &sb in &self.sb {
                for &scan in &self.scans {
                    for &lat in &self.latencies {
                        for &ic in &self.icaches {
                            for &dc in &self.dcaches {
                                axes.push(LaneAxis {
                                    width: w,
                                    sb,
                                    scan,
                                    latency: lat,
                                    icache: ic,
                                    dcache: dc,
                                });
                            }
                        }
                    }
                }
            }
        }
        axes
    }
}

impl ToJson for SweepGrid {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("kernels", self.kernels.to_json()),
            (
                "models",
                Json::Array(
                    self.models
                        .iter()
                        .map(|m| m.name().to_json())
                        .collect::<Vec<_>>(),
                ),
            ),
            ("widths", self.widths.to_json()),
            ("sb", self.sb.to_json()),
            (
                "scans",
                Json::Array(
                    self.scans
                        .iter()
                        .map(|&s| scan_name(s).to_json())
                        .collect::<Vec<_>>(),
                ),
            ),
            ("latencies", self.latencies.to_json()),
            (
                "icaches",
                Json::Array(
                    self.icaches
                        .iter()
                        .map(|c| cache_axis_name(c).to_json())
                        .collect::<Vec<_>>(),
                ),
            ),
            (
                "dcaches",
                Json::Array(
                    self.dcaches
                        .iter()
                        .map(|c| cache_axis_name(c).to_json())
                        .collect::<Vec<_>>(),
                ),
            ),
        ])
    }
}

/// Parses a `--grid` spec on top of `base`, overriding only the named
/// dimensions.  The spec is `dim=v1,v2[;dim=...]` with dimensions
/// `kernel`, `model`, `width`, `sb`, `scan`, `latency`, `icache` and
/// `dcache` (e.g. `"width=4,8;sb=2,16;scan=indexed;model=all"`).
///
/// Numeric dimensions also accept ranges: `lo..hi` enumerates every
/// value (inclusive) and `lo..hi:pow2` doubles from `lo` while within
/// `hi` — `sb=1..64:pow2` is `1,2,4,8,16,32,64` and `latency=1..8` is
/// all eight.  Ranges and plain values mix freely in one list.
///
/// The cache dimensions take `off` or a `SETSxWAYSxLINExHITxMISS` spec
/// (e.g. `dcache=off,64x2x4x1x10`); every icache × dcache combination
/// becomes a lane.
///
/// # Errors
///
/// A ready-to-print message for the first unknown dimension, unknown
/// value, or empty value list.
pub fn parse_grid(spec: &str, base: SweepGrid) -> Result<SweepGrid, String> {
    let mut grid = base;
    for part in spec.split(';').filter(|p| !p.is_empty()) {
        let (dim, vals) = part
            .split_once('=')
            .ok_or_else(|| format!("grid dimension `{part}` is not dim=v1,v2"))?;
        let vals: Vec<&str> = vals.split(',').filter(|v| !v.is_empty()).collect();
        if vals.is_empty() {
            return Err(format!("grid dimension `{dim}` has no values"));
        }
        /// Expands one list entry: a plain number, `lo..hi`, or
        /// `lo..hi:pow2`.
        fn expand(dim: &str, v: &str, min: u64) -> Result<Vec<u64>, String> {
            let Some((lo, rest)) = v.split_once("..") else {
                return v
                    .parse::<u64>()
                    .ok()
                    .filter(|&n| n >= min)
                    .map(|n| vec![n])
                    .ok_or_else(|| format!("grid `{dim}` needs numbers >= {min}, got `{v}`"));
            };
            let (hi, pow2) = match rest.split_once(':') {
                None => (rest, false),
                Some((h, "pow2")) => (h, true),
                Some((_, step)) => {
                    return Err(format!(
                        "grid `{dim}` range step `{step}` unknown (only `pow2`)"
                    ))
                }
            };
            let parse = |s: &str| {
                s.parse::<u64>()
                    .ok()
                    .filter(|&n| n >= min)
                    .ok_or_else(|| format!("grid `{dim}` needs numbers >= {min}, got `{s}`"))
            };
            let (lo, hi) = (parse(lo)?, parse(hi)?);
            if lo > hi {
                return Err(format!("grid `{dim}` range `{v}` is empty (lo > hi)"));
            }
            if !pow2 && hi - lo >= 1024 {
                return Err(format!(
                    "grid `{dim}` range `{v}` spans {} values; cap is 1024",
                    hi - lo + 1
                ));
            }
            let mut out = Vec::new();
            if pow2 {
                let mut n = lo;
                while n <= hi {
                    out.push(n);
                    match n.checked_mul(2) {
                        Some(next) => n = next,
                        None => break,
                    }
                }
            } else {
                out.extend(lo..=hi);
            }
            Ok(out)
        }
        fn nums<T: TryFrom<u64>>(dim: &str, vals: &[&str], min: u64) -> Result<Vec<T>, String> {
            let mut out = Vec::new();
            for v in vals {
                for n in expand(dim, v, min)? {
                    out.push(T::try_from(n).map_err(|_| {
                        format!("grid `{dim}` value {n} is out of range for the dimension")
                    })?);
                }
            }
            Ok(out)
        }
        match dim {
            "kernel" => {
                grid.kernels = vals
                    .iter()
                    .map(|v| {
                        if crate::KERNELS.contains(v) {
                            Ok(v.to_string())
                        } else {
                            Err(format!("grid kernel `{v}` is not in asm/"))
                        }
                    })
                    .collect::<Result<_, _>>()?;
            }
            "model" => {
                if vals == ["all"] {
                    grid.models = Model::ALL.to_vec();
                } else {
                    grid.models = vals
                        .iter()
                        .map(|v| parse_model(v).ok_or_else(|| format!("grid model `{v}` unknown")))
                        .collect::<Result<_, _>>()?;
                }
            }
            "width" => grid.widths = nums("width", &vals, 1)?,
            "sb" => grid.sb = nums("sb", &vals, 1)?,
            "scan" => {
                grid.scans = vals
                    .iter()
                    .map(|v| {
                        parse_scan(v).ok_or_else(|| format!("grid scan `{v}` (naive|indexed)"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "latency" => grid.latencies = nums("latency", &vals, 1)?,
            "icache" => {
                grid.icaches = vals
                    .iter()
                    .map(|v| parse_cache_axis(v).map_err(|e| format!("grid icache `{v}`: {e}")))
                    .collect::<Result<_, _>>()?;
            }
            "dcache" => {
                grid.dcaches = vals
                    .iter()
                    .map(|v| parse_cache_axis(v).map_err(|e| format!("grid dcache `{v}`: {e}")))
                    .collect::<Result<_, _>>()?;
            }
            other => return Err(format!("unknown grid dimension `{other}`")),
        }
    }
    Ok(grid)
}

/// Parameters of one `repro sweep` invocation.
#[derive(Clone, Debug)]
pub struct SweepParams {
    /// `"quick"`/`"full"` suite tag (grid defaults follow it).
    pub quick: bool,
    /// Zero every host-dependent field so two runs diff byte-identically.
    pub deterministic: bool,
    /// Worker threads over (kernel × model) artifact units; the report
    /// is byte-identical for every value.
    pub jobs: usize,
    /// The grid to sweep.
    pub grid: SweepGrid,
}

/// One measured design point: a machine configuration of one compiled
/// artifact.  All fields are deterministic.
#[derive(Clone, PartialEq, Debug)]
pub struct SweepPoint {
    /// Kernel name.
    pub kernel: String,
    /// Scheduling model name.
    pub model: String,
    /// Issue width (full-issue resources).
    pub width: usize,
    /// Store-buffer depth.
    pub sb: usize,
    /// Commit-scan strategy name.
    pub scan: String,
    /// Load latency in cycles.
    pub latency: u64,
    /// Instruction-cache axis name (`"off"` or the spec).
    pub icache: String,
    /// Data-cache axis name (`"off"` or the spec).
    pub dcache: String,
    /// Total cycles.
    pub cycles: u64,
    /// Words issued.
    pub words_issued: u64,
    /// Buffered commits.
    pub commits: u64,
    /// Buffered squashes.
    pub squashes: u64,
    /// Recovery episodes.
    pub recoveries: u64,
    /// Operand stall cycles.
    pub stall_operand: u64,
    /// Store-buffer-full stall cycles.
    pub stall_sb_full: u64,
    /// Instruction-fetch stall cycles.
    pub stall_ifetch: u64,
    /// Stall cycles charged to an outstanding data-cache miss.
    pub stall_load_miss: u64,
    /// I$ accesses (0 when the icache axis is off).
    pub icache_accesses: u64,
    /// I$ misses.
    pub icache_misses: u64,
    /// D$ accesses (0 when the dcache axis is off).
    pub dcache_accesses: u64,
    /// D$ misses.
    pub dcache_misses: u64,
}

/// The deterministic counters compared exactly by [`check_sweep`].
const POINT_COUNTERS: [&str; 13] = [
    "cycles",
    "words_issued",
    "commits",
    "squashes",
    "recoveries",
    "stall_operand",
    "stall_sb_full",
    "stall_ifetch",
    "stall_load_miss",
    "icache_accesses",
    "icache_misses",
    "dcache_accesses",
    "dcache_misses",
];

impl SweepPoint {
    fn counter(&self, field: &str) -> u64 {
        match field {
            "cycles" => self.cycles,
            "words_issued" => self.words_issued,
            "commits" => self.commits,
            "squashes" => self.squashes,
            "recoveries" => self.recoveries,
            "stall_operand" => self.stall_operand,
            "stall_sb_full" => self.stall_sb_full,
            "stall_ifetch" => self.stall_ifetch,
            "stall_load_miss" => self.stall_load_miss,
            "icache_accesses" => self.icache_accesses,
            "icache_misses" => self.icache_misses,
            "dcache_accesses" => self.dcache_accesses,
            "dcache_misses" => self.dcache_misses,
            _ => unreachable!("unknown sweep counter {field}"),
        }
    }
}

impl ToJson for SweepPoint {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("kernel", self.kernel.to_json()),
            ("model", self.model.to_json()),
            ("width", self.width.to_json()),
            ("sb", self.sb.to_json()),
            ("scan", self.scan.to_json()),
            ("latency", self.latency.to_json()),
            ("icache", self.icache.to_json()),
            ("dcache", self.dcache.to_json()),
            ("cycles", self.cycles.to_json()),
            ("words_issued", self.words_issued.to_json()),
            ("commits", self.commits.to_json()),
            ("squashes", self.squashes.to_json()),
            ("recoveries", self.recoveries.to_json()),
            ("stall_operand", self.stall_operand.to_json()),
            ("stall_sb_full", self.stall_sb_full.to_json()),
            ("stall_ifetch", self.stall_ifetch.to_json()),
            ("stall_load_miss", self.stall_load_miss.to_json()),
            ("icache_accesses", self.icache_accesses.to_json()),
            ("icache_misses", self.icache_misses.to_json()),
            ("dcache_accesses", self.dcache_accesses.to_json()),
            ("dcache_misses", self.dcache_misses.to_json()),
        ])
    }
}

/// Host-dependent timing; zeroed by `--deterministic`.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct SweepHost {
    /// Wall seconds: of one artifact's unit (kernel load, golden run,
    /// compile and every machine run), or of the whole sweep.
    pub wall_seconds: f64,
}

impl ToJson for SweepHost {
    fn to_json(&self) -> Json {
        Json::obj(vec![("wall_seconds", self.wall_seconds.to_json())])
    }
}

/// Per-artifact (kernel × model) accounting.
#[derive(Clone, PartialEq, Debug)]
pub struct SweepArtifact {
    /// Kernel name.
    pub kernel: String,
    /// Scheduling model name.
    pub model: String,
    /// Design points run (the machine-grid size).
    pub lanes: u64,
    /// Architectural cycles simulated across all points.
    pub lane_cycles: u64,
    /// Compiles this artifact's unit performed (one).
    pub compiles: u64,
    /// Host-dependent timing.
    pub host: SweepHost,
}

impl ToJson for SweepArtifact {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("kernel", self.kernel.to_json()),
            ("model", self.model.to_json()),
            ("lanes", self.lanes.to_json()),
            ("lane_cycles", self.lane_cycles.to_json()),
            ("compiles", self.compiles.to_json()),
            ("host", self.host.to_json()),
        ])
    }
}

/// The whole sweep report (`psb-sweep-v2`).
#[derive(Clone, PartialEq, Debug)]
pub struct SweepReport {
    /// `"full"` or `"quick"`.
    pub suite: String,
    /// The grid that was swept (echoed so the baseline pins it).
    pub grid: SweepGrid,
    /// Every design point, in fixed (kernel, model, lane-axis) order.
    pub points: Vec<SweepPoint>,
    /// Per-artifact rows.
    pub artifacts: Vec<SweepArtifact>,
    /// Total design points (`artifacts × lanes`).
    pub lanes_total: u64,
    /// Total simulated cycles across every point.
    pub sim_cycles_total: u64,
    /// Machine runs performed: one per design point.
    pub machine_runs: u64,
    /// Compiles performed: one per artifact.
    pub compiles: u64,
    /// Wall time of the whole sweep.
    pub host: SweepHost,
}

impl ToJson for SweepReport {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", SWEEP_SCHEMA_VERSION.to_json()),
            ("suite", self.suite.to_json()),
            ("grid", self.grid.to_json()),
            ("points", self.points.to_json()),
            ("artifacts", self.artifacts.to_json()),
            (
                "totals",
                Json::obj(vec![
                    ("lanes_total", self.lanes_total.to_json()),
                    ("sim_cycles_total", self.sim_cycles_total.to_json()),
                    ("machine_runs", self.machine_runs.to_json()),
                    ("compiles", self.compiles.to_json()),
                    ("host", self.host.to_json()),
                ]),
            ),
        ])
    }
}

impl SweepReport {
    /// Zeroes every host-dependent field (the `--deterministic`
    /// contract).
    pub fn zero_host(&mut self) {
        for a in &mut self.artifacts {
            a.host = SweepHost::default();
        }
        self.host = SweepHost::default();
    }
}

/// A unit result travelling back through `parallel_map`: the artifact
/// row, its points and its machine-run count.
struct UnitResult {
    artifact: SweepArtifact,
    points: Vec<SweepPoint>,
    machine_runs: u64,
}

/// Runs the whole grid for one (kernel × model) artifact in one pass:
/// load the kernel, run the golden scalar machine and compile once, then
/// run every machine configuration once and hold it to the golden
/// observable state.
fn run_unit(kernel: &str, model: Model, grid: &SweepGrid) -> UnitResult {
    let start = Instant::now();
    let path = asm_dir().join(format!("{kernel}.asm"));
    let case = psb_fuzz::load_repro(&path).unwrap_or_else(|e| panic!("sweep kernel {kernel}: {e}"));
    let (program, fault_once) = (case.program, case.fault_once);
    let scalar = ScalarMachine::new(
        &program,
        ScalarConfig {
            fault_once_addrs: fault_once.clone(),
            ..ScalarConfig::default()
        },
    )
    .run()
    .unwrap_or_else(|e| panic!("{kernel}: scalar run failed: {e}"));
    let sched = SchedConfig::new(model);
    let shadow_mode = if sched.single_shadow {
        ShadowMode::Single
    } else {
        ShadowMode::Infinite
    };
    // The work counters are bumped at the call they count.
    let (mut compiles, mut machine_runs) = (0, 0);
    let art = compile_fresh(&CompileRequest {
        program: &program,
        profile: ProfileSource::Provided(&scalar.edge_profile),
        sched,
    })
    .unwrap_or_else(|e| panic!("{kernel}/{model}: compile failed: {e}"));
    compiles += 1;
    let golden = scalar.observable(&program.live_out);

    let mut points = Vec::new();
    for ax in grid.lane_axes() {
        let cfg = MachineConfig {
            shadow_mode,
            fault_once_addrs: fault_once.clone(),
            store_buffer_size: ax.sb,
            commit_scan: ax.scan,
            load_latency: ax.latency,
            memory: ax.memory(),
            ..MachineConfig::full_issue(ax.width)
        };
        let (scan, icache, dcache) = (
            scan_name(ax.scan),
            cache_axis_name(&ax.icache),
            cache_axis_name(&ax.dcache),
        );
        let at = || {
            format!(
                "{kernel}/{model} at width={} sb={} scan={scan} latency={} icache={icache} \
                 dcache={dcache}",
                ax.width, ax.sb, ax.latency
            )
        };
        let (res, _) = art
            .run_with_sink(cfg, NullSink)
            .unwrap_or_else(|e| panic!("{}: machine failed: {e}", at()));
        machine_runs += 1;
        assert_eq!(
            res.observable(&program.live_out),
            golden,
            "{}: diverged from the scalar golden model",
            at()
        );
        points.push(SweepPoint {
            kernel: kernel.to_string(),
            model: model.name().to_string(),
            width: ax.width,
            sb: ax.sb,
            scan: scan.to_string(),
            latency: ax.latency,
            icache,
            dcache,
            cycles: res.cycles,
            words_issued: res.words_issued,
            commits: res.commits,
            squashes: res.squashes,
            recoveries: res.recoveries,
            stall_operand: res.stall_operand,
            stall_sb_full: res.stall_sb_full,
            stall_ifetch: res.stall_ifetch,
            stall_load_miss: res.stall_load_miss,
            icache_accesses: res.icache_accesses,
            icache_misses: res.icache_misses,
            dcache_accesses: res.dcache_accesses,
            dcache_misses: res.dcache_misses,
        });
    }
    UnitResult {
        artifact: SweepArtifact {
            kernel: kernel.to_string(),
            model: model.name().to_string(),
            lanes: points.len() as u64,
            lane_cycles: points.iter().map(|p| p.cycles).sum(),
            compiles,
            host: SweepHost {
                wall_seconds: round_us(start.elapsed().as_secs_f64()),
            },
        },
        machine_runs,
        points,
    }
}

/// Runs the sweep over every (kernel × model) artifact of the grid.
///
/// # Panics
///
/// Panics on any kernel load, compile, or machine failure, and on
/// golden-model divergence — a sweep result must never describe broken
/// code.
pub fn run_sweep(params: &SweepParams) -> SweepReport {
    let start = Instant::now();
    let grid = &params.grid;
    let mut units = Vec::new();
    for kernel in &grid.kernels {
        for &model in &grid.models {
            units.push((kernel.clone(), model));
        }
    }
    let results = parallel_map(&units, params.jobs, |(kernel, model)| {
        run_unit(kernel, *model, grid)
    });

    let mut points = Vec::new();
    let mut artifacts = Vec::new();
    let mut machine_runs = 0;
    for r in results {
        machine_runs += r.machine_runs;
        artifacts.push(r.artifact);
        points.extend(r.points);
    }
    let mut report = SweepReport {
        suite: if params.quick { "quick" } else { "full" }.to_string(),
        grid: grid.clone(),
        lanes_total: points.len() as u64,
        sim_cycles_total: points.iter().map(|p| p.cycles).sum(),
        machine_runs,
        compiles: artifacts.iter().map(|a| a.compiles).sum(),
        points,
        artifacts,
        host: SweepHost {
            wall_seconds: round_us(start.elapsed().as_secs_f64()),
        },
    };
    if params.deterministic {
        report.zero_host();
    }
    report
}

#[allow(clippy::type_complexity)]
fn point_key(j: &Json) -> Option<(String, String, i64, i64, String, i64, String, String)> {
    Some((
        j.get("kernel")?.as_str()?.to_string(),
        j.get("model")?.as_str()?.to_string(),
        j.get("width")?.as_i64()?,
        j.get("sb")?.as_i64()?,
        j.get("scan")?.as_str()?.to_string(),
        j.get("latency")?.as_i64()?,
        j.get("icache")?.as_str()?.to_string(),
        j.get("dcache")?.as_str()?.to_string(),
    ))
}

/// Compares `current` against the checked-in sweep baseline document.
///
/// The schema version, suite and grid must agree, every baseline point's
/// deterministic counters must match exactly, and so must the work
/// counters (total machine runs, compiles per artifact) — anything else
/// is a hard failure.  Wall times are never compared.
pub fn check_sweep(current: &SweepReport, baseline: &Json) -> BenchCheck {
    let mut check = BenchCheck::default();

    match baseline.get("schema_version").and_then(Json::as_str) {
        Some(v) if v == SWEEP_SCHEMA_VERSION => {}
        Some(v) => check.failures.push(format!(
            "schema_version mismatch: baseline {v:?}, current {SWEEP_SCHEMA_VERSION:?}"
        )),
        None => check
            .failures
            .push("baseline has no schema_version".to_string()),
    }
    match baseline.get("suite").and_then(Json::as_str) {
        Some(s) if s == current.suite => {}
        Some(s) => check.failures.push(format!(
            "suite mismatch: baseline ran {s:?}, current ran {:?}",
            current.suite
        )),
        None => check.failures.push("baseline has no suite".to_string()),
    }
    match baseline.get("grid") {
        Some(g) if g.pretty() == current.grid.to_json().pretty() => {}
        Some(_) => check.failures.push(
            "grid mismatch: the baseline swept a different grid (rebaseline deliberately)"
                .to_string(),
        ),
        None => check.failures.push("baseline has no grid".to_string()),
    }

    let empty = Vec::new();
    let base_points = baseline
        .get("points")
        .and_then(Json::as_array)
        .unwrap_or(&empty);
    if base_points.is_empty() {
        check.failures.push("baseline has no points".to_string());
    }
    let mut matched = 0usize;
    for bp in base_points {
        let Some(key) = point_key(bp) else {
            check
                .failures
                .push("baseline point is missing identity fields".to_string());
            continue;
        };
        let label = format!(
            "{}/{}/w{}/sb{}/{}/lat{}/i{}/d{}",
            key.0, key.1, key.2, key.3, key.4, key.5, key.6, key.7
        );
        let Some(cur) = current.points.iter().find(|p| {
            p.kernel == key.0
                && p.model == key.1
                && p.width as i64 == key.2
                && p.sb as i64 == key.3
                && p.scan == key.4
                && p.latency as i64 == key.5
                && p.icache == key.6
                && p.dcache == key.7
        }) else {
            check
                .failures
                .push(format!("{label}: point missing from current run"));
            continue;
        };
        matched += 1;
        for field in POINT_COUNTERS {
            let got = cur.counter(field);
            match bp.get(field).and_then(Json::as_i64) {
                Some(want) if want == got as i64 => {}
                Some(want) => check.failures.push(format!(
                    "{label}: determinism breakage: {field} was {want}, now {got}"
                )),
                None => check
                    .failures
                    .push(format!("{label}: baseline point lacks {field}")),
            }
        }
    }
    if matched < current.points.len() {
        check.notes.push(format!(
            "{} point(s) in the current run are not in the baseline",
            current.points.len() - matched
        ));
    }

    let base_runs = baseline
        .get("totals")
        .and_then(|t| t.get("machine_runs"))
        .and_then(Json::as_i64);
    if base_runs != Some(current.machine_runs as i64) {
        check.failures.push(format!(
            "machine_runs was {base_runs:?}, now {} (one run per design point)",
            current.machine_runs
        ));
    }
    let base_artifacts = baseline
        .get("artifacts")
        .and_then(Json::as_array)
        .unwrap_or(&empty);
    for a in &current.artifacts {
        let base_compiles = base_artifacts
            .iter()
            .find(|b| {
                b.get("kernel").and_then(Json::as_str) == Some(a.kernel.as_str())
                    && b.get("model").and_then(Json::as_str) == Some(a.model.as_str())
            })
            .and_then(|b| b.get("compiles"))
            .and_then(Json::as_i64);
        if base_compiles != Some(a.compiles as i64) {
            check.failures.push(format!(
                "{}/{}: compiles was {base_compiles:?}, now {} (one per artifact)",
                a.kernel, a.model, a.compiles
            ));
        }
    }
    check
}

/// Renders a human-readable summary (stderr companion to the JSON).
pub fn render_sweep(report: &SweepReport) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    writeln!(
        s,
        "Sweep suite `{}`: {} points ({} artifacts x {} lanes), {} simulated cycles",
        report.suite,
        report.points.len(),
        report.artifacts.len(),
        report.grid.lane_axes().len(),
        report.sim_cycles_total
    )
    .unwrap();
    writeln!(
        s,
        "{:<9} {:<12} {:>5} {:>11} {:>8} {:>9}",
        "kernel", "model", "lanes", "lane cyc", "compiles", "wall(s)"
    )
    .unwrap();
    for a in &report.artifacts {
        writeln!(
            s,
            "{:<9} {:<12} {:>5} {:>11} {:>8} {:>9.4}",
            a.kernel, a.model, a.lanes, a.lane_cycles, a.compiles, a.host.wall_seconds
        )
        .unwrap();
    }
    writeln!(
        s,
        "total: {} machine runs, {} compiles, {:.4}s wall",
        report.machine_runs, report.compiles, report.host.wall_seconds
    )
    .unwrap();
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_grid() -> SweepGrid {
        SweepGrid {
            kernels: vec!["dotprod".to_string()],
            models: vec![Model::RegionPred],
            widths: vec![4],
            sb: vec![4, 16],
            scans: vec![CommitScan::Naive, CommitScan::Indexed],
            latencies: vec![2, 4],
            icaches: vec![None],
            dcaches: vec![None],
        }
    }

    fn tiny_params(jobs: usize) -> SweepParams {
        SweepParams {
            quick: true,
            deterministic: true,
            jobs,
            grid: tiny_grid(),
        }
    }

    #[test]
    fn grid_parse_overrides_only_named_dimensions() {
        let g = parse_grid("sb=2,8;scan=naive", SweepGrid::quick()).unwrap();
        assert_eq!(g.sb, vec![2, 8]);
        assert_eq!(g.scans, vec![CommitScan::Naive]);
        // Untouched dimensions keep the base values.
        assert_eq!(g.kernels, SweepGrid::quick().kernels);
        assert_eq!(g.latencies, SweepGrid::quick().latencies);
        let g = parse_grid("model=all;kernel=gcd,sort", SweepGrid::quick()).unwrap();
        assert_eq!(g.models.len(), Model::ALL.len());
        assert_eq!(g.kernels, vec!["gcd", "sort"]);
    }

    #[test]
    fn grid_parse_expands_ranges() {
        let g = parse_grid("sb=1..64:pow2;latency=1..8", SweepGrid::quick()).unwrap();
        assert_eq!(g.sb, vec![1, 2, 4, 8, 16, 32, 64]);
        assert_eq!(g.latencies, vec![1, 2, 3, 4, 5, 6, 7, 8]);
        // Ranges and plain values mix in one list.
        let g = parse_grid("width=2,4..6", SweepGrid::quick()).unwrap();
        assert_eq!(g.widths, vec![2, 4, 5, 6]);
        // A pow2 range keeps its (possibly non-power-of-two) start.
        let g = parse_grid("sb=3..20:pow2", SweepGrid::quick()).unwrap();
        assert_eq!(g.sb, vec![3, 6, 12]);
    }

    #[test]
    fn grid_parse_reads_cache_axes() {
        let g = parse_grid(
            "icache=off,8x1x2x1x4;dcache=64x2x4x1x10",
            SweepGrid::quick(),
        )
        .unwrap();
        assert_eq!(g.icaches.len(), 2);
        assert_eq!(g.icaches[0], None);
        assert_eq!(cache_axis_name(&g.icaches[1]), "8x1x2x1x4");
        assert_eq!(g.dcaches.len(), 1);
        assert_eq!(cache_axis_name(&g.dcaches[0]), "64x2x4x1x10");
    }

    #[test]
    fn grid_parse_rejects_bad_specs() {
        for bad in [
            "frobnicate=1",
            "sb=",
            "sb=0",
            "sb=four",
            "width",
            "scan=quantum",
            "kernel=nope",
            "model=nope",
            "batch=4",
            "sb=8..2",
            "latency=1..8:fib",
            "latency=1..9999",
            "icache=8x1x2",
            "dcache=0x1x1x1x1",
        ] {
            assert!(parse_grid(bad, SweepGrid::quick()).is_err(), "{bad}");
        }
    }

    #[test]
    fn lane_axes_order_is_fixed_and_exhaustive() {
        let axes = tiny_grid().lane_axes();
        assert_eq!(axes.len(), 8);
        assert_eq!(
            axes[0],
            LaneAxis {
                width: 4,
                sb: 4,
                scan: CommitScan::Naive,
                latency: 2,
                icache: None,
                dcache: None,
            }
        );
        assert_eq!(
            axes[7],
            LaneAxis {
                width: 4,
                sb: 16,
                scan: CommitScan::Indexed,
                latency: 4,
                icache: None,
                dcache: None,
            }
        );
        assert_eq!(axes[0].memory(), MemoryModel::Perfect);
        let cached = LaneAxis {
            dcache: Some(CacheConfig::small()),
            ..axes[0]
        };
        assert!(matches!(cached.memory(), MemoryModel::Cache { .. }));
    }

    #[test]
    fn cache_axes_sweep_reports_miss_counters() {
        let mut grid = tiny_grid();
        grid.latencies = vec![2];
        grid.sb = vec![4];
        grid.scans = vec![CommitScan::Indexed];
        grid.icaches = vec![None, Some(CacheConfig::parse("8x1x2x1x4").unwrap())];
        grid.dcaches = vec![None, Some(CacheConfig::parse("4x2x2x1x6").unwrap())];
        let report = run_sweep(&SweepParams {
            quick: true,
            deterministic: true,
            jobs: 1,
            grid,
        });
        assert_eq!(report.points.len(), 4);
        let off = &report.points[0];
        assert_eq!((off.icache.as_str(), off.dcache.as_str()), ("off", "off"));
        assert_eq!(off.icache_accesses + off.dcache_accesses, 0);
        let cached = report
            .points
            .iter()
            .find(|p| p.icache != "off" && p.dcache != "off")
            .expect("fully cached point present");
        assert!(cached.icache_accesses > 0 && cached.dcache_accesses > 0);
        assert!(
            cached.icache_misses > 0,
            "a tiny icache must miss on a real kernel"
        );
        assert!(cached.stall_ifetch > 0, "icache misses must stall fetch");
        assert!(
            cached.cycles > off.cycles,
            "realistic memory cannot be free"
        );
    }

    #[test]
    fn sweep_report_is_jobs_invariant_and_self_checks() {
        let serial = run_sweep(&tiny_params(1));
        assert_eq!(serial.points.len(), 8);
        assert_eq!(serial.lanes_total, 8);
        assert!(serial.sim_cycles_total > 0);
        // --deterministic zeroed the host section.
        assert_eq!(serial.host, SweepHost::default());
        // The sb dimension actually moves a counter somewhere, or the
        // grid is vacuous.
        assert!(
            serial
                .points
                .iter()
                .any(|p| p.stall_sb_full != serial.points[0].stall_sb_full
                    || p.cycles != serial.points[0].cycles),
            "grid dimensions changed nothing"
        );
        let parallel = run_sweep(&tiny_params(4));
        assert_eq!(
            serial.to_json().pretty(),
            parallel.to_json().pretty(),
            "sweep report must be byte-identical at any --jobs"
        );
        let baseline = Json::parse(&serial.to_json().pretty()).unwrap();
        let check = check_sweep(&serial, &baseline);
        assert!(check.passed(), "{:?}", check.failures);
    }

    #[test]
    fn every_point_runs_once_and_every_artifact_compiles_once() {
        let mut grid = tiny_grid();
        grid.kernels = vec!["dotprod".to_string(), "gcd".to_string()];
        grid.models = vec![Model::RegionPred, Model::TracePred];
        for jobs in [1, 4] {
            let report = run_sweep(&SweepParams {
                grid: grid.clone(),
                ..tiny_params(jobs)
            });
            assert_eq!(report.lanes_total, 4 * 8, "jobs={jobs}");
            assert_eq!(report.machine_runs, report.lanes_total, "jobs={jobs}");
            assert_eq!(report.artifacts.len(), 4, "jobs={jobs}");
            assert!(
                report.artifacts.iter().all(|a| a.compiles == 1),
                "jobs={jobs}: {:?}",
                report.artifacts
            );
            assert_eq!(report.compiles, 4, "jobs={jobs}");
        }
    }

    #[test]
    fn check_sweep_fails_on_drift_schema_and_grid_changes() {
        let report = run_sweep(&tiny_params(1));
        let baseline = Json::parse(&report.to_json().pretty()).unwrap();

        let mut drifted = report.clone();
        drifted.points[0].cycles += 1;
        let check = check_sweep(&drifted, &baseline);
        assert!(!check.passed());
        assert!(check.failures[0].contains("determinism breakage"));

        let mut other_grid = report.clone();
        other_grid.grid.sb = vec![1];
        assert!(check_sweep(&other_grid, &baseline)
            .failures
            .iter()
            .any(|f| f.contains("grid mismatch")));

        let mut doc = report.to_json();
        if let Json::Object(fields) = &mut doc {
            fields[0].1 = Json::Str("psb-sweep-v1".to_string());
        }
        assert!(!check_sweep(&report, &doc).passed());

        let missing = SweepReport {
            points: report.points[1..].to_vec(),
            ..report.clone()
        };
        assert!(check_sweep(&missing, &baseline)
            .failures
            .iter()
            .any(|f| f.contains("missing from current run")));

        // The work counters are gated exactly.
        let mut rerun = report.clone();
        rerun.machine_runs *= 2;
        assert!(check_sweep(&rerun, &baseline)
            .failures
            .iter()
            .any(|f| f.contains("machine_runs")));
        let mut recompiled = report.clone();
        recompiled.artifacts[0].compiles = 8;
        assert!(check_sweep(&recompiled, &baseline)
            .failures
            .iter()
            .any(|f| f.contains("compiles")));
    }

    #[test]
    fn timed_runs_record_wall_times_that_the_check_ignores() {
        let mut params = tiny_params(1);
        params.deterministic = false;
        let report = run_sweep(&params);
        assert!(report.host.wall_seconds > 0.0);
        assert!(report.artifacts.iter().all(|a| a.host.wall_seconds > 0.0));
        // The whole sweep spans every unit (run serially here).
        let units: f64 = report.artifacts.iter().map(|a| a.host.wall_seconds).sum();
        assert!(report.host.wall_seconds >= units - 1e-5, "{report:?}");
        // Wall time is advisory on shared runners: a much slower run
        // checks clean against its own baseline, with no warning.
        let baseline = Json::parse(&report.to_json().pretty()).unwrap();
        let mut slow = report.clone();
        slow.host.wall_seconds *= 10.0;
        slow.artifacts[0].host.wall_seconds *= 10.0;
        let check = check_sweep(&slow, &baseline);
        assert!(check.passed(), "{:?}", check.failures);
        assert!(check.warnings.is_empty(), "{:?}", check.warnings);
        // --deterministic zeroes every wall field.
        let mut zeroed = report.clone();
        zeroed.zero_host();
        assert_eq!(zeroed.host, SweepHost::default());
        assert!(zeroed
            .artifacts
            .iter()
            .all(|a| a.host == SweepHost::default()));
    }
}

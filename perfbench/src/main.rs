//! The repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-large --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Runs one workload against the workspace crates' public functions,
//! checks every simulated point against the scalar golden model, prints
//! each metric with its unit and sample count, a digest of all simulated
//! statistics, and as its last line one JSON object.  `--trace 0` reports
//! the end-to-end metrics; `--trace 1` runs the same work untraced and
//! traced and reports the per-layer metrics and the tracing overhead.
//! The exit code is 1 when any point failed or diverged, 2 on bad usage.

mod batch;
mod pipeline;
mod serve_open;
mod stats;
mod trace;

use batch::Passes;
use pipeline::{digest, Outcome};
use psb_sched::Model;
use stats::{geomean, median, peak_rss_mb, percentile, ratio};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// The paper column of EXPERIMENTS.md's Headline table: each model's
/// speedup geomean as the paper reports it.
const PAPER: [(Model, f64); 7] = [
    (Model::Global, 1.27),
    (Model::Squash, 1.45),
    (Model::Trace, 1.78),
    (Model::RegionSquash, 1.8),
    (Model::Boost, 1.74),
    (Model::TracePred, 2.24),
    (Model::RegionPred, 2.45),
];

const WORKLOADS: [&str; 4] = ["paper-large", "machine-sweep", "sched-grid", "serve-open"];

/// One run's parameters.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory inside the working directory, removed at exit.
    pub scratch: PathBuf,
}

fn parse_args() -> Result<Ctx, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let scratch = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".perfbench-tmp")
        .join(format!("{workload}-{}", std::process::id()));
    Ok(Ctx {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        scratch,
    })
}

/// Runs whole passes until the budget is spent.  A traced run
/// first runs untraced for half the budget, then repeats exactly those
/// passes traced under a root `bench` span.
fn measure<P: Passes>(ctx: &Ctx, w: &mut P, tr: &Tracer, out: &mut Outcome) {
    let off = Tracer::new(false);
    let budget = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let mut scratch = Outcome::default();
    let sink = if ctx.trace { &mut scratch } else { &mut *out };
    let start = Instant::now();
    let mut passes = 0;
    while passes == 0 || start.elapsed().as_secs_f64() < budget {
        let pass = Instant::now();
        w.pass(&off, sink, passes);
        sink.pass_s.push(pass.elapsed().as_secs_f64());
        passes += 1;
    }
    let untraced = start.elapsed().as_secs_f64();
    if ctx.trace {
        out.attempted += scratch.attempted;
        out.failed += scratch.failed;
        out.errors.append(&mut scratch.errors);
        let start = Instant::now();
        tr.span("bench", || (0..passes).for_each(|i| w.pass(tr, out, i)));
        out.wall_s = start.elapsed().as_secs_f64();
        out.layer.insert("trace.wall_untraced_s", untraced);
        out.layer.insert("trace.wall_traced_s", out.wall_s);
    } else {
        out.wall_s = untraced;
    }
    out.passes = passes;
}

fn run(ctx: &Ctx) -> Result<(Outcome, Tracer), String> {
    let mut out = Outcome::default();
    let setup_tr = Tracer::new(ctx.trace);
    let tr = Tracer::new(ctx.trace);
    std::fs::create_dir_all(&ctx.scratch).map_err(|e| format!("scratch dir: {e}"))?;
    match ctx.workload.as_str() {
        "paper-large" => {
            let mut w = batch::paper_large(ctx, &setup_tr, &mut out);
            measure(ctx, &mut w, &tr, &mut out);
        }
        "sched-grid" => {
            let mut w = batch::sched_grid(ctx, &setup_tr, &mut out)?;
            measure(ctx, &mut w, &tr, &mut out);
        }
        "machine-sweep" => {
            let mut w = batch::machine_sweep(ctx, &setup_tr, &mut out);
            let replay = Tracer::new(true);
            w.replay(&replay, &mut out);
            measure(ctx, &mut w, &tr, &mut out);
            w.check(&mut out);
            out.core_work = Some(w.per_sweep().clone());
            let run_s = replay.totals().get("core.run").map_or(0.0, |t| t.1);
            let sweep = tr.totals().get("eval.sweep").map_or((0, 0.0), |&t| t);
            let per_sweep = sweep.1 / sweep.0.max(1) as f64;
            out.layer.insert("eval.sweep_s", per_sweep);
            out.layer
                .insert("eval.sweep_overhead_ratio", ratio(per_sweep, run_s));
            out.layer.insert("replay.core_run_s", run_s);
        }
        "serve-open" => {
            let mut s = serve_open::serve_open(ctx, &setup_tr, &mut out)?;
            serve_open::run(ctx, &mut s, &tr, &mut out);
        }
        _ => unreachable!("workload validated by parse_args"),
    }
    if let Some(g) = setup_tr.totals().get("workloads.gen") {
        out.layer
            .insert("workloads.gen_s", g.1 / out.setup_s.len().max(1) as f64);
    }
    Ok((out, tr))
}

/// Speedup geomean per model over the base-configuration points.
fn model_geomeans(out: &Outcome) -> Vec<(Model, f64)> {
    PAPER
        .iter()
        .filter_map(|&(m, _)| {
            let s: Vec<f64> = out
                .sim
                .iter()
                .filter(|p| p.base && p.model == m)
                .map(|p| p.speedup())
                .collect();
            (!s.is_empty()).then(|| (m, geomean(&s)))
        })
        .collect()
}

/// `(name, value, unit, samples)` of every end-to-end metric.
fn end_to_end(out: &Outcome) -> Vec<(&'static str, f64, &'static str, usize)> {
    let geo = model_geomeans(out);
    let region = geo
        .iter()
        .find(|(m, _)| *m == Model::RegionPred)
        .map_or(f64::NAN, |g| g.1);
    let gap = geo
        .iter()
        .map(|(m, g)| {
            let paper = PAPER.iter().find(|p| p.0 == *m).expect("paper row").1;
            (g / paper - 1.0).abs()
        })
        .sum::<f64>()
        / geo.len() as f64;
    let region_n = out
        .sim
        .iter()
        .filter(|p| p.base && p.model == Model::RegionPred)
        .count();
    // Batch workloads report rates from the median pass, and latency
    // percentiles across units of each unit's median over the passes, so
    // they follow the work rather than the host's worst moments.
    // serve-open reports what its closed-loop probe completed over the
    // probe's wall, and percentiles of the raw request latencies.
    let (lat, cold, per_pass, pass_s, max_rate, n) = if out.passes > 0 {
        let medians = |cold_only: bool| -> Vec<f64> {
            out.unit_s
                .iter()
                .filter(|u| u.0 || !cold_only)
                .map(|u| median(&u.1))
                .collect()
        };
        let p = median(&out.pass_s);
        let passes = out.passes as f64;
        let samples: usize = out.unit_s.iter().map(|u| u.1.len()).sum();
        let units = samples as f64 / passes / p;
        (medians(false), medians(true), passes, p, units, out.passes)
    } else {
        let (lat, cold) = (out.latency_s.clone(), out.cold_latency_s.clone());
        (
            lat,
            cold,
            1.0,
            out.wall_s,
            out.max_rate,
            out.work.points as usize,
        )
    };
    let (points, ops) = (
        out.work.points as f64 / per_pass,
        out.work.ops_executed as f64 / per_pass,
    );
    vec![
        ("setup_s", median(&out.setup_s), "s", out.setup_s.len()),
        ("points_per_s", points / pass_s, "1/s", n),
        ("sim_ops_per_s", ops / pass_s, "1/s", n),
        ("run_p50_ms", percentile(&lat, 0.5) * 1e3, "ms", lat.len()),
        ("run_p99_ms", percentile(&lat, 0.99) * 1e3, "ms", lat.len()),
        (
            "cold_run_p50_ms",
            percentile(&cold, 0.5) * 1e3,
            "ms",
            cold.len(),
        ),
        ("max_rate_rps", max_rate, "1/s", n),
        (
            "ok_frac",
            1.0 - ratio(out.failed as f64, out.attempted as f64),
            "ratio",
            out.attempted as usize,
        ),
        (
            "peak_rss_mb",
            out.peak_rss_mb.unwrap_or_else(peak_rss_mb),
            "MB",
            1,
        ),
        ("speedup_geomean", region, "x", region_n),
        ("paper_gap", gap, "ratio", geo.len()),
    ]
}

/// `(name, value, unit)` of every per-layer metric.
fn per_layer(out: &Outcome, tr: &Tracer) -> Vec<(String, f64, &'static str)> {
    let totals = tr.totals();
    let t = |label: &str| totals.get(label).map_or(0.0, |v| v.1);
    let w = &out.work;
    let layer = |k: &str| out.layer.get(k).copied();
    let mut v: Vec<(String, f64, &'static str)> = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        v.push((name.to_string(), value, unit));
    };
    let golden = t("scalar.golden");
    let schedule = t("sched.schedule");
    let run = t("core.run");
    let misses = w.compiles as f64;
    let calls = (w.compiles + w.compile_hits + w.store_loads) as f64;
    put(
        "workloads.gen_s",
        layer("workloads.gen_s").unwrap_or(0.0),
        "s",
    );
    put("scalar.golden_s", golden, "s");
    put("scalar.profile_s", t("scalar.profile"), "s");
    put(
        "scalar.ns_per_cycle",
        ratio(golden * 1e9, w.scalar_cycles as f64),
        "ns",
    );
    put("sched.schedule_s", schedule, "s");
    put("sched.calls", misses, "count");
    put(
        "sched.ns_per_static_op",
        ratio(schedule * 1e9, w.static_ops_scheduled as f64),
        "ns",
    );
    put(
        "compile.calls",
        layer("compile.calls").unwrap_or(calls),
        "count",
    );
    put(
        "compile.hit_ratio",
        layer("compile.hit_ratio")
            .unwrap_or_else(|| ratio((w.compile_hits + w.store_hits) as f64, calls)),
        "ratio",
    );
    put("compile.miss_s", t("compile.miss"), "s");
    put("compile.hit_s", t("compile.hit"), "s");
    put("compile.decode_s", t("core.decode"), "s");
    put("store.save_s", t("store.save"), "s");
    put("store.load_s", t("store.load"), "s");
    put("store.bytes", w.store_bytes as f64, "bytes");
    put(
        "store.hit_ratio",
        layer("store.hit_ratio")
            .unwrap_or_else(|| ratio(w.store_hits as f64, w.store_loads as f64)),
        "ratio",
    );
    // On machine-sweep `core.run_s` times one bare replay of the grid, so
    // the core figures count that replay's work.
    let run = layer("replay.core_run_s").unwrap_or(run);
    let w = out.core_work.as_ref().unwrap_or(w);
    put("core.run_s", run, "s");
    put(
        "core.ns_per_cycle",
        ratio(run * 1e9, w.sim_cycles as f64),
        "ns",
    );
    put(
        "core.ns_per_op",
        ratio(run * 1e9, w.ops_executed as f64),
        "ns",
    );
    put("core.sim_cycles", w.sim_cycles as f64, "cycles");
    put("core.ops_executed", w.ops_executed as f64, "count");
    put(
        "core.spec_commit_ratio",
        ratio(w.commits as f64, (w.commits + w.squashes) as f64),
        "ratio",
    );
    put(
        "core.squash_ratio",
        ratio(w.ops_squashed as f64, w.ops_executed as f64),
        "ratio",
    );
    let terms = [
        ("core.cyc_issue", w.words_issued),
        ("core.cyc_operand", w.stall_operand),
        ("core.cyc_sb_full", w.stall_sb_full),
        ("core.cyc_load_miss", w.stall_load_miss),
        ("core.cyc_ifetch", w.stall_ifetch),
    ];
    for (name, cycles) in terms {
        put(name, cycles as f64, "cycles");
    }
    let accounted: u64 = terms.iter().map(|t| t.1).sum();
    put(
        "core.unaccounted_cycles",
        w.sim_cycles as f64 - accounted as f64,
        "cycles",
    );
    put(
        "mem.icache_miss_ratio",
        ratio(w.icache.1 as f64, w.icache.0 as f64),
        "ratio",
    );
    put(
        "mem.dcache_miss_ratio",
        ratio(w.dcache.1 as f64, w.dcache.0 as f64),
        "ratio",
    );
    put(
        "mem.stall_cycles",
        (w.stall_ifetch + w.stall_load_miss) as f64,
        "cycles",
    );
    put("eval.sweep_s", layer("eval.sweep_s").unwrap_or(0.0), "s");
    put(
        "eval.sweep_overhead_ratio",
        layer("eval.sweep_overhead_ratio").unwrap_or(0.0),
        "ratio",
    );
    for (name, unit) in [
        ("serve.latency_ms", "ms"),
        ("serve.handle_ms", "ms"),
        ("serve.wait_ms", "ms"),
        ("serve.gen_lag_ms", "ms"),
        ("serve.queue_depth_max", "count"),
        ("serve.closed_loop_ms", "ms"),
        ("serve.cache_memory_hits", "count"),
        ("serve.cache_disk_hits", "count"),
        ("serve.cache_compiles", "count"),
    ] {
        put(name, layer(name).unwrap_or(0.0), unit);
    }
    // Self time per layer and its share of the untraced wall.
    let selfs = tr.self_times();
    let untraced = layer("trace.wall_untraced_s").unwrap_or(out.wall_s);
    let traced = layer("trace.wall_traced_s").unwrap_or(out.wall_s);
    for l in [
        "bench",
        "workloads",
        "scalar",
        "sched",
        "compile",
        "store",
        "core",
        "eval",
        "serve",
    ] {
        let s = selfs.get(l).copied().unwrap_or(0.0);
        put(&format!("self.{l}_s"), s, "s");
        put(&format!("share.{l}"), ratio(s, untraced), "ratio");
    }
    // Self times are summed over the threads the workload spreads its
    // calls over, so per thread they should cover the untraced wall to
    // within the tracing overhead.
    let per_lane = selfs.values().sum::<f64>() / out.lanes.max(1) as f64;
    put("trace.wall_untraced_s", untraced, "s");
    put("trace.wall_traced_s", traced, "s");
    put(
        "trace.overhead_ratio",
        ratio(traced - untraced, untraced),
        "ratio",
    );
    put("trace.self_per_lane_s", per_lane, "s");
    put("trace.accounted_ratio", ratio(per_lane, traced), "ratio");
    v
}

/// Whether the self time per thread accounts for the wall within the
/// tracing overhead: the traced wall is the untraced wall plus that
/// overhead, and the self times per thread should cover it but for at
/// most the overhead's size.
fn accounting(metrics: &[(String, f64, &str)], lanes: usize) -> String {
    let get = |name: &str| metrics.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1);
    let untraced = get("trace.wall_untraced_s");
    let traced = get("trace.wall_traced_s");
    let per_lane = get("trace.self_per_lane_s");
    let holds = (traced - per_lane).abs() <= (traced - untraced).abs();
    format!(
        "trace: self time per thread {per_lane:.3} s over {lanes} thread(s) covers {:.1}% of the traced wall {traced:.3} s; untraced wall {untraced:.3} s, overhead {:+.1}%: {}",
        100.0 * ratio(per_lane, traced),
        100.0 * ratio(traced - untraced, untraced),
        if holds {
            "accounted for within the tracing overhead"
        } else {
            "NOT accounted for within the tracing overhead"
        }
    )
}

/// A JSON number: non-finite values (an empty sample set) print as 0.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let ctx = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let result = run(&ctx);
    let _ = std::fs::remove_dir_all(&ctx.scratch);
    if let Some(parent) = ctx.scratch.parent() {
        // Removes the shared scratch root only once no other run uses it.
        let _ = std::fs::remove_dir(parent);
    }
    let (out, tr) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", ctx.workload);
            return ExitCode::from(1);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace)
    );
    for n in &out.notes {
        println!("state: {n}");
    }
    println!(
        "state: modelled I$/D$ start empty on every point; paper_gap compares against the paper column of EXPERIMENTS.md's Headline table; the model is otherwise unvalidated"
    );
    println!(
        "digest {} seed={} points={} {}",
        ctx.workload,
        ctx.seed,
        out.sim.len(),
        digest(&out.sim)
    );
    for e in &out.errors {
        println!("error: {e}");
    }
    let metrics: Vec<(String, f64, &str)> = if ctx.trace {
        per_layer(&out, &tr)
    } else {
        end_to_end(&out)
            .into_iter()
            .map(|(name, value, unit, n)| {
                println!("metric {name} = {} {unit} (n={n})", num(value));
                (name.to_string(), value, unit)
            })
            .collect()
    };
    if ctx.trace {
        for (name, value, unit) in &metrics {
            println!("layer {name} = {} {unit}", num(*value));
        }
        println!("{}", accounting(&metrics, out.lanes.max(1)));
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*value)
            )
        })
        .collect();
    let correct = out.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

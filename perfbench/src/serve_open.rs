//! `serve-open`: an in-process `psb_serve::serve` on loopback, driven
//! open-loop by a seeded arrival schedule over keep-alive connections.
//!
//! The generator holds one connection per core.  Each connection thread
//! takes the next due arrival, sends it in a single write with
//! `TCP_NODELAY`, and reads the response, so any stall measured is the
//! server's.  Latency is timed from when the request was due, so a stall
//! also counts against the requests queued behind it.  Percentiles come
//! from the raw samples.

use crate::pipeline::{seeds, Counters, Outcome, SimPoint};
use crate::stats::{held_out, median, percentile, ratio, Rng};
use crate::trace::Tracer;
use crate::Ctx;
use psb_compile::{compile, ArtifactCache, CompileRequest, DiskStore, ProfileSource};
use psb_core::{MachineConfig, VliwResult};
use psb_scalar::{ScalarConfig, ScalarMachine};
use psb_sched::{Model, SchedConfig};
use psb_serve::json::Json;
use psb_serve::{api, http, serve, ServeConfig, ServeHandle, SimRequest};
use psb_telemetry::NullTelemetry;
use std::collections::BTreeMap;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The request shapes `repro loadgen` sends: two benchmarks x two
/// models x two input sizes.  At these sizes transport, queueing and the
/// worker threads, not the simulation, make up most of a request's time.
const POOL_BENCHES: [&str; 2] = ["grep", "li"];
const POOL_MODELS: [Model; 2] = [Model::RegionPred, Model::Trace];
const POOL_SIZES: [usize; 2] = [96, 160];

/// Offered rate of the fixed-rate phase per connection.  Each warm
/// response takes ~44 ms today (its body waits on Nagle and the client's
/// delayed ACK), so a connection is busy about two thirds of the time
/// and no backlog builds.
const RATE_PER_CONN: f64 = 15.0;

/// Every `COLD_EVERY`-th request is a cold shape (fresh seeds, so a
/// compile miss and a store save).  One in ten is the most cold
/// traffic the repository's serve smoke test accepts: it requires a
/// cache hit rate of at least 90% from `repro loadgen`.
const COLD_EVERY: usize = 10;

/// Latency limit on the p99 of a rate step, in seconds.
const LATENCY_LIMIT: f64 = 0.2;

/// Fractions of the measured closed-loop capacity tried as open-loop
/// rates, highest first; the first step that meets the limit with no
/// growing backlog sets `max_rate_rps`.
const LADDER: [f64; 6] = [0.95, 0.85, 0.75, 0.65, 0.5, 0.35];

/// Set-up repetitions (server start, connect, warm the pool).
const SETUP_REPS: usize = 3;

/// One request shape: a benchmark, a model and an evaluation seed.
#[derive(Clone, PartialEq, Eq, Debug)]
struct Shape {
    bench: &'static str,
    model: Model,
    size: usize,
    train_seed: u64,
    eval_seed: u64,
}

impl Shape {
    fn key(&self) -> (&'static str, &'static str, usize, u64, u64) {
        let s = self;
        (s.bench, s.model.name(), s.size, s.train_seed, s.eval_seed)
    }
}

impl Ord for Shape {
    fn cmp(&self, other: &Shape) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

impl PartialOrd for Shape {
    fn partial_cmp(&self, other: &Shape) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

struct Arrival {
    due: f64,
    shape: Shape,
    cold: bool,
}

#[derive(Clone)]
struct Sample {
    due: f64,
    sent: f64,
    free: f64,
    done: f64,
    cold: bool,
    ok: bool,
    shape: Shape,
    reply: Option<(u64, u64)>,
    error: Option<String>,
}

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { stream, reader })
    }

    /// Sends one request in a single write and reads the response.
    fn request(
        &mut self,
        method: &str,
        target: &str,
        body: &[u8],
    ) -> Result<(u16, Vec<u8>), String> {
        let mut buf = Vec::with_capacity(body.len() + 96);
        http::write_request(&mut buf, method, target, body).map_err(|e| e.to_string())?;
        delay_acks(&self.stream);
        self.stream.write_all(&buf).map_err(|e| e.to_string())?;
        let resp = http::read_response(&mut self.reader).map_err(|e| e.to_string())?;
        Ok((resp.status, resp.body))
    }
}

/// Puts the socket's ACKs in Linux's interactive (delayed) mode, which
/// the kernel enters by itself for a client that sends each request soon
/// after the last response, and leaves again whenever a delayed ACK
/// times out.  Set before every request, it makes every response meet the
/// server's Nagle stall on every run, rather than on some runs only: the
/// stall stays the server's, since a response sent in one write does not
/// wait on the client's ACK.
#[cfg(target_os = "linux")]
fn delay_acks(stream: &TcpStream) {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn setsockopt(
            fd: i32,
            level: i32,
            name: i32,
            value: *const std::ffi::c_void,
            len: u32,
        ) -> i32;
    }
    const IPPROTO_TCP: i32 = 6;
    const TCP_QUICKACK: i32 = 12;
    let off: i32 = 0;
    // SAFETY: the descriptor is this live socket's, and the value points
    // to an `i32` of the length passed.
    unsafe {
        setsockopt(
            stream.as_raw_fd(),
            IPPROTO_TCP,
            TCP_QUICKACK,
            (&off as *const i32).cast(),
            4,
        );
    }
}

#[cfg(not(target_os = "linux"))]
fn delay_acks(_: &TcpStream) {}

pub struct ServeOpen {
    seed: u64,
    pool: Vec<Shape>,
    server: Option<ServeHandle>,
    clients: Vec<Client>,
    store_root: PathBuf,
    conns: usize,
    cold_count: u64,
}

fn body(s: &Shape) -> Vec<u8> {
    format!(
        "{{\"workload\":\"{}\",\"models\":[\"{}\"],\"size\":{},\"train_seed\":{},\"eval_seed\":{}}}",
        s.bench,
        s.model.name(),
        s.size,
        s.train_seed,
        s.eval_seed
    )
    .into_bytes()
}

/// `(vliw_cycles, scalar_cycles)` of a 200 `/run` response.
fn parse_reply(body: &[u8]) -> Option<(u64, u64)> {
    let v = Json::parse(std::str::from_utf8(body).ok()?).ok()?;
    let scalar = v.get("scalar_cycles")?.as_i64()?;
    let models = v.get("models")?.as_array()?;
    let vliw = models.first()?.get("vliw_cycles")?.as_i64()?;
    Some((u64::try_from(vliw).ok()?, u64::try_from(scalar).ok()?))
}

pub fn serve_open(ctx: &Ctx, tr: &Tracer, out: &mut Outcome) -> Result<ServeOpen, String> {
    let (train_seed, eval_seed) = seeds(ctx.seed);
    // Two connections, or one on a single core: the fixed rate is set per
    // connection, so the regime it measures does not depend on the host.
    let conns = std::thread::available_parallelism()
        .map_or(2, |n| n.get())
        .min(2);
    let mut pool = Vec::new();
    for bench in POOL_BENCHES {
        for model in POOL_MODELS {
            for size in POOL_SIZES {
                pool.push(Shape {
                    bench,
                    model,
                    size,
                    train_seed,
                    eval_seed,
                });
            }
        }
    }
    let mut s = ServeOpen {
        seed: ctx.seed,
        pool,
        server: None,
        clients: Vec::new(),
        store_root: ctx.scratch.join("serve-store"),
        conns,
        cold_count: 0,
    };
    out.lanes = conns;
    for _ in 0..SETUP_REPS {
        s.stop();
        let start = Instant::now();
        tr.span("serve.start", || s.start())?;
        let warm: Vec<Arrival> = s
            .pool
            .iter()
            .map(|shape| Arrival {
                due: 0.0,
                shape: shape.clone(),
                cold: false,
            })
            .collect();
        let samples = s.drive(&warm, tr, None);
        out.setup_s.push(start.elapsed().as_secs_f64());
        if let Some(bad) = samples.iter().find(|x| !x.ok) {
            return Err(format!(
                "warming {}/{}: {}",
                bad.shape.bench,
                bad.shape.model,
                bad.error.clone().unwrap_or_default()
            ));
        }
    }
    out.notes.push(format!(
        "inputs: warm pool grep/li x region-pred/trace x size 96/160 (the repro loadgen shapes), 1 in {COLD_EVERY} requests a cold shape with fresh train and eval seeds, held-out train_seed={train_seed} eval_seed={eval_seed}; {conns} keep-alive connections, server jobs={conns}; memory perfect"
    ));
    Ok(s)
}

impl ServeOpen {
    fn start(&mut self) -> Result<(), String> {
        let _ = std::fs::remove_dir_all(&self.store_root);
        let handle = serve(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            jobs: self.conns,
            store: Some(self.store_root.clone()),
            ..ServeConfig::default()
        })?;
        let addr = handle.addr();
        self.server = Some(handle);
        self.clients = (0..self.conns)
            .map(|_| Client::connect(addr))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("connect {addr}: {e}"))?;
        Ok(())
    }

    /// Closes the load connections and stops the server, joining every
    /// thread it started.
    pub fn stop(&mut self) {
        self.clients.clear();
        if let Some(h) = self.server.take() {
            h.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.store_root);
    }

    /// A seeded open-loop schedule at `rate` for `seconds`.  Gaps are
    /// jittered by up to 10% around the mean.  Every `COLD_EVERY`-th
    /// request is a cold variant of a pool shape with fresh seeds; the
    /// rest are the pool shapes themselves.  Warm and cold requests each
    /// walk the pool in a seeded order, so every seed offers the same mix
    /// of benchmarks, models and sizes in a different order.
    fn schedule(&mut self, rate: f64, seconds: f64, stream: u64) -> Vec<Arrival> {
        let mut rng = Rng::new(held_out(self.seed, 100 + stream));
        let n = self.pool.len();
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            perm.swap(i, rng.below(i + 1));
        }
        let (mut t, mut k) = (0.0, 0);
        let mut out = Vec::new();
        loop {
            t += (0.9 + 0.2 * rng.unit()) / rate;
            if t >= seconds {
                return out;
            }
            let cold = k % COLD_EVERY == COLD_EVERY - 1;
            let shape = if cold {
                // A fresh training input too, so the run's simulated
                // figures average over many profiles, not one.
                let c = self.cold_count;
                self.cold_count += 1;
                Shape {
                    train_seed: held_out(self.seed, 2_000_001 + c),
                    eval_seed: held_out(self.seed, 1_000_001 + c),
                    ..self.pool[perm[c as usize % n]].clone()
                }
            } else {
                self.pool[perm[k % n]].clone()
            };
            out.push(Arrival {
                due: t,
                shape,
                cold,
            });
            k += 1;
        }
    }

    /// Sends `arrivals` open-loop over the keep-alive connections; with
    /// `closed_for` set, instead sends warm shapes back to back for that
    /// long.  Returns one sample per request, in send order.
    fn drive(&mut self, arrivals: &[Arrival], tr: &Tracer, closed_for: Option<f64>) -> Vec<Sample> {
        let next = AtomicUsize::new(0);
        let samples = Mutex::new(Vec::with_capacity(arrivals.len()));
        let pool = &self.pool;
        let root = tr.current();
        let start = Instant::now();
        std::thread::scope(|scope| {
            for client in self.clients.iter_mut() {
                let (next, samples) = (&next, &samples);
                // A client span covers the thread's whole life, so its
                // idle time between requests is the generator's.
                scope.spawn(move || {
                    tr.span_under(root, "bench.client", || loop {
                        let free = start.elapsed().as_secs_f64();
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let (due, shape, cold) = match closed_for {
                            Some(limit) if free < limit => {
                                (free, pool[i % pool.len()].clone(), false)
                            }
                            Some(_) => return,
                            None => match arrivals.get(i) {
                                Some(a) => (a.due, a.shape.clone(), a.cold),
                                None => return,
                            },
                        };
                        let wait = due - start.elapsed().as_secs_f64();
                        if wait > 0.0 {
                            std::thread::sleep(Duration::from_secs_f64(wait));
                        }
                        let sent = start.elapsed().as_secs_f64();
                        let res = tr.span("serve.request", || {
                            client.request("POST", "/run", &body(&shape))
                        });
                        let done = start.elapsed().as_secs_f64();
                        let (ok, reply, error) = match res {
                            Ok((200, b)) => match parse_reply(&b) {
                                Some(r) => (true, Some(r), None),
                                None => (false, None, Some("unparsable 200 response".to_string())),
                            },
                            Ok((code, b)) => (
                                false,
                                None,
                                Some(format!("status {code}: {}", String::from_utf8_lossy(&b))),
                            ),
                            Err(e) => (false, None, Some(e)),
                        };
                        samples
                            .lock()
                            .expect("sample buffer poisoned")
                            .push(Sample {
                                due,
                                sent,
                                free,
                                done,
                                cold,
                                ok,
                                shape,
                                reply,
                                error,
                            });
                    })
                });
            }
        });
        let mut v = samples.into_inner().expect("sample buffer poisoned");
        v.sort_by(|a, b| a.sent.total_cmp(&b.sent));
        v
    }

    /// The fixed-rate phase: `seconds` of open-loop load at
    /// `RATE_PER_CONN` per connection.
    fn fixed(&mut self, tr: &Tracer, seconds: f64, stream: u64) -> Phase {
        let rate = RATE_PER_CONN * self.conns as f64;
        let arrivals = self.schedule(rate, seconds, stream);
        let start = Instant::now();
        let samples = self.drive(&arrivals, tr, None);
        Phase {
            wall_s: start.elapsed().as_secs_f64(),
            samples,
        }
    }

    /// Closed-loop probe: warm shapes back to back on every connection
    /// for `seconds`.  Returns the capacity in requests per second and the
    /// samples, and records the median back-to-back latency.
    fn probe(&mut self, tr: &Tracer, seconds: f64, out: &mut Outcome) -> (f64, Vec<Sample>) {
        let probe = self.drive(&[], tr, Some(seconds));
        let span = probe.iter().map(|s| s.done).fold(0.0, f64::max);
        let back_to_back: Vec<f64> = probe.iter().map(|s| s.done - s.sent).collect();
        out.layer
            .insert("serve.closed_loop_ms", median(&back_to_back) * 1e3);
        (probe.len() as f64 / span.max(1e-9), probe)
    }

    /// The open-loop rate ladder below `capacity`.  Returns the highest
    /// passing rate and every sample sent.
    fn ladder(&mut self, tr: &Tracer, capacity: f64, step_s: f64) -> (f64, Vec<Sample>) {
        let mut all = Vec::new();
        for (k, f) in LADDER.iter().enumerate() {
            let rate = f * capacity;
            let arrivals = self.schedule(rate, step_s, 10 + k as u64);
            let samples = self.drive(&arrivals, tr, None);
            let pass = step_passes(&samples);
            all.extend(samples);
            if pass {
                return (rate, all);
            }
        }
        (0.0, all)
    }

    /// Server-side counters scraped from `/metrics` (after the load
    /// connections close, so a worker is free to answer).
    fn scrape(&mut self) -> BTreeMap<String, f64> {
        self.clients.clear();
        let mut out = BTreeMap::new();
        let Some(addr) = self.server.as_ref().map(ServeHandle::addr) else {
            return out;
        };
        let Ok(mut c) = Client::connect(addr) else {
            return out;
        };
        let Ok((200, b)) = c.request("GET", "/metrics", b"") else {
            return out;
        };
        let Some(v) = std::str::from_utf8(&b)
            .ok()
            .and_then(|t| Json::parse(t).ok())
        else {
            return out;
        };
        for c in v.get("counters").and_then(Json::as_array).unwrap_or(&[]) {
            if let (Some(n), Some(x)) = (
                c.get("name").and_then(Json::as_str),
                c.get("value").and_then(Json::as_f64),
            ) {
                out.insert(n.to_string(), x);
            }
        }
        out
    }

    /// The serve-side service time of the same request sequence: each
    /// request replayed through `psb_serve::api::handle_run` against a
    /// cache and store warmed like the server's.
    fn handle_times(&self, samples: &[Sample], conns: usize) -> Result<Vec<f64>, String> {
        let root = self.store_root.with_extension("replay");
        let _ = std::fs::remove_dir_all(&root);
        let store = DiskStore::open(&root).map_err(|e| e.to_string())?;
        let cache = ArtifactCache::new();
        let req = |s: &Shape| SimRequest::from_body(&body(s)).map_err(|e| e.message().to_string());
        for s in &self.pool {
            api::handle_run(&req(s)?, &cache, Some(&store), None, conns, &NullTelemetry)
                .map_err(|e| e.message().to_string())?;
        }
        let mut times = Vec::with_capacity(samples.len());
        for s in samples {
            let r = req(&s.shape)?;
            let start = Instant::now();
            api::handle_run(&r, &cache, Some(&store), None, conns, &NullTelemetry)
                .map_err(|e| e.message().to_string())?;
            times.push(start.elapsed().as_secs_f64());
        }
        drop(store);
        let _ = std::fs::remove_dir_all(&root);
        Ok(times)
    }

    /// Checks every distinct shape the server answered against the
    /// benchmark's own golden-checked run of the same inputs; returns the
    /// reference result per shape.
    fn verify(&self, samples: &[Sample], out: &mut Outcome) -> BTreeMap<Shape, (u64, VliwResult)> {
        let mut refs: BTreeMap<Shape, (u64, VliwResult)> = BTreeMap::new();
        let cache = ArtifactCache::new();
        for s in samples {
            if !refs.contains_key(&s.shape) {
                match reference(&s.shape, &cache) {
                    Ok(r) => {
                        refs.insert(s.shape.clone(), r);
                    }
                    Err(e) => {
                        out.fail(format!("{}/{}: {e}", s.shape.bench, s.shape.model));
                        continue;
                    }
                }
            }
            let (scalar, res) = &refs[&s.shape];
            if s.ok && s.reply != Some((res.cycles, *scalar)) {
                out.fail(format!(
                    "{}/{} seed {}: served (vliw, scalar) cycles {:?} differ from the reference ({}, {scalar})",
                    s.shape.bench, s.shape.model, s.shape.eval_seed, s.reply, res.cycles
                ));
            }
        }
        refs
    }
}

impl Drop for ServeOpen {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The benchmark's own run of a shape: golden scalar run, compile,
/// simulation and the golden cross-check.
fn reference(s: &Shape, cache: &ArtifactCache) -> Result<(u64, VliwResult), String> {
    let gen = |seed| {
        psb_workloads::by_name(s.bench, seed, s.size)
            .expect("every listed benchmark exists")
            .program
    };
    let (train, eval) = (gen(s.train_seed), gen(s.eval_seed));
    let gold = ScalarMachine::new(&eval, ScalarConfig::default())
        .run()
        .map_err(|e| format!("scalar golden run failed: {e}"))?;
    let req = CompileRequest {
        program: &eval,
        profile: ProfileSource::Train {
            program: &train,
            config: ScalarConfig::default(),
        },
        sched: SchedConfig::new(s.model),
    };
    let art = compile(&req, cache).map_err(|e| format!("compile failed: {e}"))?;
    let res = art
        .run(MachineConfig::default())
        .map_err(|e| format!("machine error: {e}"))?;
    if res.observable(&eval.live_out) != gold.observable(&eval.live_out) {
        return Err("diverged from the scalar golden model".to_string());
    }
    Ok((gold.cycles, res))
}

/// A rate step passes when its p99 latency (from due time) meets the
/// limit, every request succeeded, and the backlog did not grow: the
/// median send lateness of the step's last third exceeds that of its
/// first third by at most half the median latency.
fn step_passes(samples: &[Sample]) -> bool {
    if samples.is_empty() || samples.iter().any(|s| !s.ok) {
        return false;
    }
    let lat: Vec<f64> = samples.iter().map(|s| s.done - s.due).collect();
    let mut by_due = samples.to_vec();
    by_due.sort_by(|a, b| a.due.total_cmp(&b.due));
    let third = (by_due.len() / 3).max(1);
    let late = |xs: &[Sample]| median(&xs.iter().map(|s| s.sent - s.due).collect::<Vec<_>>());
    let growth = late(&by_due[by_due.len() - third..]) - late(&by_due[..third]);
    percentile(&lat, 0.99) <= LATENCY_LIMIT && growth <= 0.5 * median(&lat)
}

/// One open-loop phase's samples and wall time.
struct Phase {
    wall_s: f64,
    samples: Vec<Sample>,
}

impl Phase {
    fn latencies(&self) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.ok)
            .map(|s| s.done - s.due)
            .collect()
    }

    fn cold_latencies(&self) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.ok && s.cold)
            .map(|s| s.done - s.due)
            .collect()
    }

    /// Generator lateness: how long after the later of its due time and
    /// its connection coming free each request was sent.
    fn gen_lag(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|s| s.sent - s.due.max(s.free))
            .collect()
    }

    /// Most requests due but not yet sent at any one time.
    fn backlog_max(&self) -> usize {
        let mut events: Vec<(f64, i64)> = Vec::new();
        for s in &self.samples {
            if s.sent > s.due {
                events.push((s.due, 1));
                events.push((s.sent, -1));
            }
        }
        events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let (mut cur, mut max) = (0i64, 0i64);
        for (_, d) in events {
            cur += d;
            max = max.max(cur);
        }
        max as usize
    }

    fn samples(&self) -> &[Sample] {
        &self.samples
    }
}

/// Runs the whole workload: the closed-loop probe, then the fixed-rate
/// phase and the rate ladder (untraced), or an untraced and a traced
/// fixed-rate phase of the same length and the `handle_run` replay
/// (traced).
pub fn run(ctx: &Ctx, s: &mut ServeOpen, tr: &Tracer, out: &mut Outcome) {
    let mut checked: Vec<Sample> = Vec::new();
    let off = Tracer::new(false);
    // The throughput figures are the server's: what the closed-loop probe
    // completed per second, and the ops those requests simulated.
    let (capacity, probe) = s.probe(&off, (ctx.seconds * 0.1).max(1.0), out);
    count(out, &probe);
    out.wall_s = probe.iter().map(|x| x.done).fold(0.0, f64::max);
    checked.extend(probe.iter().cloned());
    let phase = if ctx.trace {
        let half = (ctx.seconds * 0.5).max(1.0);
        let untraced = s.fixed(&off, half, 1);
        checked.extend(untraced.samples().iter().cloned());
        count(out, untraced.samples());
        let traced = tr.span("bench", || s.fixed(tr, half, 2));
        out.layer.insert("trace.wall_untraced_s", untraced.wall_s);
        out.layer.insert("trace.wall_traced_s", traced.wall_s);
        traced
    } else {
        s.fixed(&off, (ctx.seconds * 0.7).max(1.0), 1)
    };
    count(out, phase.samples());
    out.peak_rss_mb = Some(crate::stats::peak_rss_mb());
    out.latency_s = phase.latencies();
    out.cold_latency_s = phase.cold_latencies();
    checked.extend(phase.samples().iter().cloned());
    let lag = phase.gen_lag();
    out.layer
        .insert("serve.gen_lag_ms", percentile(&lag, 0.99) * 1e3);
    out.layer
        .insert("serve.queue_depth_max", phase.backlog_max() as f64);

    let step_s = (ctx.seconds * 0.06).max(0.5);
    if ctx.trace {
        let lat = phase.latencies();
        match s.handle_times(phase.samples(), s.conns) {
            Ok(h) => {
                let (l, h) = (median(&lat), median(&h));
                out.layer.insert("serve.latency_ms", l * 1e3);
                out.layer.insert("serve.handle_ms", h * 1e3);
                out.layer.insert("serve.wait_ms", (l - h) * 1e3);
            }
            Err(e) => out.fail(format!("handle_run replay: {e}")),
        }
    } else {
        let (rate, ladder) = s.ladder(&off, capacity, step_s);
        out.max_rate = rate;
        count(out, &ladder);
        checked.extend(ladder);
    }

    let m = s.scrape();
    let get = |k: &str| m.get(k).copied().unwrap_or(0.0);
    let (mem, disk, comp) = (
        get("serve.cache.memory_hits"),
        get("serve.cache.disk_hits"),
        get("serve.cache.compiles"),
    );
    out.layer.insert("serve.cache_memory_hits", mem);
    out.layer.insert("serve.cache_disk_hits", disk);
    out.layer.insert("serve.cache_compiles", comp);
    out.layer.insert("compile.calls", mem + disk + comp);
    out.layer
        .insert("compile.hit_ratio", ratio(mem + disk, mem + disk + comp));
    out.layer
        .insert("store.hit_ratio", ratio(disk, disk + comp));
    s.stop();

    // Correctness: every answered shape against the benchmark's own run.
    let refs = s.verify(&checked, out);
    let mut work = Counters::default();
    for x in probe.iter().filter(|x| x.ok) {
        if let Some((_, r)) = refs.get(&x.shape) {
            work.add_run(r);
        }
    }
    out.work = work;
    // Distinct points for the digest and the speedups: the warm pool, then
    // the fixed-rate phase's cold shapes in schedule order.
    let mut seen = std::collections::BTreeSet::new();
    let shapes = s.pool.iter().cloned().chain(
        phase
            .samples()
            .iter()
            .filter(|x| x.cold)
            .map(|x| x.shape.clone()),
    );
    for shape in shapes {
        if !seen.insert(shape.clone()) {
            continue;
        }
        if let Some((scalar, res)) = refs
            .get(&shape)
            .cloned()
            .or_else(|| reference(&shape, &ArtifactCache::new()).ok())
        {
            out.sim.push(SimPoint {
                program: shape.bench.to_string(),
                model: shape.model,
                // Every request runs the paper's base machine, so every
                // distinct answered shape enters the speedup geomeans;
                // with the cold shapes' fresh inputs they average over
                // ~50 programs rather than the pool's 8.
                base: true,
                config: format!("size{}-seed{}", shape.size, shape.eval_seed),
                scalar_cycles: scalar,
                res,
            });
        }
    }
}

fn count(out: &mut Outcome, samples: &[Sample]) {
    for x in samples {
        out.attempted += 1;
        if !x.ok {
            out.fail(x.error.clone().unwrap_or_default());
        }
    }
}

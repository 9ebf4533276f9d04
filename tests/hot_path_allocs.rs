//! The simulated cycle loops allocate nothing per cycle.
//!
//! A counting global allocator records the allocations made by the
//! calling thread.  Each machine is built first (its memory image and
//! register file scale with the input) and only its `run` is counted, at
//! input size N and 4N.  The larger run simulates several times as many
//! cycles; the counts may differ only by a small constant (a few Vec
//! growths whose number is logarithmic in the run length), never in
//! proportion to the cycles.  Own test binary: the allocator is global.

use psb::compile::{compile_fresh, CompileRequest, ProfileSource};
use psb::core::{EventLog, MachineConfig, ShadowMode, VliwMachine};
use psb::scalar::{ScalarConfig, ScalarMachine};
use psb::sched::{Model, SchedConfig};
use psb::workloads::by_name;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the current thread makes inside `f`, with `f`'s result.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

const SIZE: usize = 1024;
/// Allowed difference between the 4N and N counts.
const SLACK: u64 = 16;

fn scalar_config() -> ScalarConfig {
    ScalarConfig {
        record_branch_trace: false,
        ..ScalarConfig::default()
    }
}

/// `(allocations in run, simulated cycles)` of eqntott `region-pred` at
/// input size `n` under `mode`.
fn vliw_run(n: usize, mode: ShadowMode) -> (u64, u64) {
    let train = by_name("eqntott", 11, n).unwrap();
    let eval = by_name("eqntott", 1234, n).unwrap();
    let mut sched = SchedConfig::new(Model::RegionPred);
    sched.single_shadow = mode == ShadowMode::Single;
    let art = compile_fresh(&CompileRequest {
        program: &eval.program,
        profile: ProfileSource::Train {
            program: &train.program,
            config: scalar_config(),
        },
        sched,
    })
    .unwrap();
    let cfg = MachineConfig {
        shadow_mode: mode,
        ..MachineConfig::default()
    };
    let sink = EventLog::new(cfg.record_events);
    let machine =
        VliwMachine::with_sink_decoded(&art.program, Arc::clone(&art.decoded), cfg, sink).unwrap();
    let (allocs, res) = counted(|| machine.run());
    let res = res.unwrap();
    assert!(res.stats.commits > 0, "region-pred must buffer and commit");
    (allocs, res.cycles)
}

fn scalar_run(n: usize) -> (u64, u64) {
    let w = by_name("eqntott", 1234, n).unwrap();
    let machine = ScalarMachine::new(&w.program, scalar_config());
    let (allocs, res) = counted(|| machine.run());
    (allocs, res.unwrap().cycles)
}

fn assert_flat(what: &str, run: impl Fn(usize) -> (u64, u64)) {
    let (small, small_cycles) = run(SIZE);
    let (large, large_cycles) = run(4 * SIZE);
    assert!(
        large_cycles >= 3 * small_cycles,
        "{what}: 4x input must simulate far more cycles ({small_cycles} -> {large_cycles})"
    );
    assert!(
        large <= small + SLACK,
        "{what}: allocations grow with simulated cycles: {small} allocations over \
         {small_cycles} cycles, {large} over {large_cycles}"
    );
}

#[test]
fn vliw_single_shadow_run_does_not_allocate_per_cycle() {
    assert_flat("region-pred/single", |n| vliw_run(n, ShadowMode::Single));
}

#[test]
fn vliw_infinite_shadow_run_does_not_allocate_per_cycle() {
    assert_flat("region-pred/infinite", |n| {
        vliw_run(n, ShadowMode::Infinite)
    });
}

#[test]
fn scalar_run_does_not_allocate_per_cycle() {
    assert_flat("scalar", scalar_run);
}

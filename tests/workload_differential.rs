//! Cross-crate integration: every scheduling model, over every benchmark
//! kernel, must reproduce the scalar golden model's observable state —
//! with separate training and evaluation inputs, on several machine
//! shapes.

use psb::compile::{compile_fresh, CompileRequest, ProfileSource};
use psb::core::{MachineConfig, ShadowMode};
use psb::isa::Resources;
use psb::scalar::{ScalarConfig, ScalarMachine};
use psb::sched::{Model, SchedConfig};
use psb::workloads::{all_workloads_sized, by_name};

const SIZE: usize = 256;
const TRAIN_SEED: u64 = 5;
const EVAL_SEED: u64 = 99;

fn check(name: &str, sched_cfg: &SchedConfig, machine_cfg: &MachineConfig) {
    check_inputs(name, (TRAIN_SEED, EVAL_SEED, SIZE), sched_cfg, machine_cfg);
}

/// [`check`] with explicit `(train seed, eval seed, size)` inputs.
fn check_inputs(
    name: &str,
    (train_seed, eval_seed, size): (u64, u64, usize),
    sched_cfg: &SchedConfig,
    machine_cfg: &MachineConfig,
) {
    let train = by_name(name, train_seed, size).expect("known workload");
    let eval = by_name(name, eval_seed, size).expect("known workload");
    let scalar = ScalarMachine::new(&eval.program, ScalarConfig::default())
        .run()
        .expect("eval run");
    let art = compile_fresh(&CompileRequest {
        program: &eval.program,
        profile: ProfileSource::Train {
            program: &train.program,
            config: ScalarConfig::default(),
        },
        sched: sched_cfg.clone(),
    })
    .unwrap_or_else(|e| panic!("{name}/{}: compile: {e}", sched_cfg.model));
    let res = art
        .run(machine_cfg.clone())
        .unwrap_or_else(|e| panic!("{name}/{}: machine: {e}", sched_cfg.model));
    assert_eq!(
        res.observable(&eval.program.live_out),
        scalar.observable(&eval.program.live_out),
        "{name}/{}: diverged from golden model",
        sched_cfg.model
    );
    assert!(
        res.cycles < scalar.cycles * 2,
        "{name}/{}: pathological slowdown",
        sched_cfg.model
    );
}

#[test]
fn all_models_on_all_benchmarks() {
    for w in all_workloads_sized(EVAL_SEED, SIZE) {
        for model in Model::ALL {
            check(w.name, &SchedConfig::new(model), &MachineConfig::default());
        }
    }
}

#[test]
fn two_issue_machine() {
    let resources = Resources {
        alu: 2,
        branch: 2,
        load: 1,
        store: 1,
    };
    for w in all_workloads_sized(EVAL_SEED, SIZE) {
        for model in [Model::Trace, Model::TracePred, Model::RegionPred] {
            let mut sc = SchedConfig::new(model);
            sc.issue_width = 2;
            sc.resources = resources;
            let mc = MachineConfig {
                issue_width: 2,
                resources,
                ..MachineConfig::default()
            };
            check(w.name, &sc, &mc);
        }
    }
}

#[test]
fn eight_issue_full_machine_with_depth_sweep() {
    for w in all_workloads_sized(EVAL_SEED, SIZE) {
        for depth in [1, 4, 8] {
            let mut sc = SchedConfig::new(Model::RegionPred);
            sc.issue_width = 8;
            sc.resources = Resources::full_issue(8);
            sc.num_conds = 8;
            sc.depth = depth;
            let mut mc = MachineConfig::full_issue(8);
            mc.record_events = false;
            check(w.name, &sc, &mc);
        }
    }
}

#[test]
fn infinite_shadow_ablation() {
    for w in all_workloads_sized(EVAL_SEED, SIZE) {
        let mut sc = SchedConfig::new(Model::RegionPred);
        sc.single_shadow = false;
        let mc = MachineConfig {
            shadow_mode: ShadowMode::Infinite,
            ..MachineConfig::default()
        };
        check(w.name, &sc, &mc);
    }
}

#[test]
fn counter_form_ablation() {
    for w in all_workloads_sized(EVAL_SEED, SIZE) {
        let mut sc = SchedConfig::new(Model::TracePred);
        sc.ordered_cond_sets = true;
        check(w.name, &sc, &MachineConfig::default());
    }
}

/// A region-pred miscompile: grep trained on an input that takes both
/// match flags `f1` and `f2` in one pass, then evaluated on one that
/// takes `f2` alone, once left `matches` (r2) at 0 instead of 1.  The
/// `f2` increment sits in a diamond that merges before the loop exit, and
/// its condition resolved in the exit's own cycle, so the exit squashed
/// the still-buffered write.
#[test]
fn region_pred_grep_exit_below_merged_join() {
    for inputs in [(34, 22, 12), (223_425_023_132_314, 118_483_903_132_931, 96)] {
        check_inputs(
            "grep",
            inputs,
            &SchedConfig::new(Model::RegionPred),
            &MachineConfig::default(),
        );
    }
}

/// The li kernel's unrolled traversal makes the region scheduler hoist a
/// next-cell dereference above the NULL check; the machine must buffer and
/// squash the resulting speculative exception in the final iteration
/// rather than faulting (Section 2.1's motivating case).
#[test]
fn li_speculative_null_dereference_is_squashed() {
    let w = by_name("li", EVAL_SEED, SIZE).unwrap();
    let profile = ScalarMachine::new(&w.program, ScalarConfig::default())
        .run()
        .unwrap()
        .edge_profile;
    let art = compile_fresh(&CompileRequest {
        program: &w.program,
        profile: ProfileSource::Provided(&profile),
        sched: SchedConfig::new(Model::RegionPred),
    })
    .unwrap();
    // The run completes (no fatal fault) even though the hoisted load
    // dereferences NULL speculatively at the end of the list.
    let res = art.run(MachineConfig::default()).unwrap();
    assert_eq!(
        res.recoveries, 0,
        "the squashed exception must never commit"
    );
}

/// Page-fault-style non-fatal exceptions on cold pages exercise the full
/// future-condition recovery path on real kernels.
#[test]
fn fault_recovery_on_benchmarks() {
    for name in ["compress", "grep", "li"] {
        let train = by_name(name, TRAIN_SEED, SIZE).unwrap();
        let eval = by_name(name, EVAL_SEED, SIZE).unwrap();
        let faults: std::collections::BTreeSet<i64> = (16..80).step_by(7).collect();
        let scfg = ScalarConfig {
            fault_once_addrs: faults.clone(),
            ..ScalarConfig::default()
        };
        let scalar = ScalarMachine::new(&eval.program, scfg).run().unwrap();
        let art = compile_fresh(&CompileRequest {
            program: &eval.program,
            profile: ProfileSource::Train {
                program: &train.program,
                config: ScalarConfig::default(),
            },
            sched: SchedConfig::new(Model::RegionPred),
        })
        .unwrap();
        let mc = MachineConfig {
            fault_once_addrs: faults,
            ..MachineConfig::default()
        };
        let res = art.run(mc).unwrap();
        assert_eq!(
            res.observable(&eval.program.live_out),
            scalar.observable(&eval.program.live_out),
            "{name}: fault recovery diverged"
        );
    }
}

/// The workloads round-trip through the assembly format, and the parsed
/// copy behaves identically.
#[test]
fn workloads_roundtrip_through_asm() {
    for w in all_workloads_sized(EVAL_SEED, 128) {
        let text = w.program.to_asm();
        let parsed = psb::isa::parse_program(&text)
            .unwrap_or_else(|e| panic!("{}: reparse failed: {e}", w.name));
        let a = ScalarMachine::new(&w.program, ScalarConfig::default())
            .run()
            .unwrap();
        let b = ScalarMachine::new(&parsed, ScalarConfig::default())
            .run()
            .unwrap();
        assert_eq!(a.cycles, b.cycles, "{}", w.name);
        assert_eq!(
            a.observable(&w.program.live_out),
            b.observable(&parsed.live_out),
            "{}",
            w.name
        );
    }
}

/// Unrolling workloads preserves semantics end to end (scalar and
/// scheduled execution).
#[test]
fn unrolled_workloads_match_golden_model() {
    for name in ["grep", "espresso", "li"] {
        let train = by_name(name, TRAIN_SEED, SIZE).unwrap();
        let eval = by_name(name, EVAL_SEED, SIZE).unwrap();
        let train_u = psb::ir::unroll_loops(&train.program, 3);
        let eval_u = psb::ir::unroll_loops(&eval.program, 3);
        let profile = ScalarMachine::new(&train_u, ScalarConfig::default())
            .run()
            .unwrap()
            .edge_profile;
        let scalar = ScalarMachine::new(&eval_u, ScalarConfig::default())
            .run()
            .unwrap();
        // Unrolling must not change the observable result.
        let orig = ScalarMachine::new(&eval.program, ScalarConfig::default())
            .run()
            .unwrap();
        assert_eq!(
            scalar.observable(&eval_u.live_out),
            orig.observable(&eval.program.live_out),
            "{name}: unrolling changed semantics"
        );
        let mut sc = SchedConfig::new(Model::RegionPred);
        sc.num_conds = 8;
        sc.depth = 8;
        sc.max_blocks = 32;
        let art = compile_fresh(&CompileRequest {
            program: &eval_u,
            profile: ProfileSource::Provided(&profile),
            sched: sc,
        })
        .unwrap();
        let mut mc = MachineConfig::full_issue(8);
        mc.issue_width = 8;
        let res = art.run(mc).unwrap();
        assert_eq!(
            res.observable(&eval_u.live_out),
            scalar.observable(&eval_u.live_out),
            "{name}: unrolled schedule diverged"
        );
    }
}

/// Event logs of full workload runs audit clean: every speculative write
/// resolves exactly once, nothing leaks across regions, and recovery
/// narratives are well-formed.
#[test]
fn event_logs_audit_clean() {
    for w in all_workloads_sized(EVAL_SEED, 128) {
        let profile = ScalarMachine::new(&w.program, ScalarConfig::default())
            .run()
            .unwrap()
            .edge_profile;
        let art = compile_fresh(&CompileRequest {
            program: &w.program,
            profile: ProfileSource::Provided(&profile),
            sched: SchedConfig::new(Model::RegionPred),
        })
        .unwrap();
        let res = art.run(MachineConfig::default().with_events()).unwrap();
        let violations = psb::core::audit_events(&res.events);
        assert!(
            violations.is_empty(),
            "{}: {:?}",
            w.name,
            violations.first()
        );
    }
}

/// A recovery-bearing run also audits clean.
#[test]
fn recovery_event_logs_audit_clean() {
    let w = by_name("compress", EVAL_SEED, SIZE).unwrap();
    let faults: std::collections::BTreeSet<i64> = (16..200).step_by(5).collect();
    let profile = ScalarMachine::new(&w.program, ScalarConfig::default())
        .run()
        .unwrap()
        .edge_profile;
    let art = compile_fresh(&CompileRequest {
        program: &w.program,
        profile: ProfileSource::Provided(&profile),
        sched: SchedConfig::new(Model::RegionPred),
    })
    .unwrap();
    let mc = MachineConfig {
        fault_once_addrs: faults,
        record_events: true,
        ..MachineConfig::default()
    };
    let res = art.run(mc).unwrap();
    assert!(res.recoveries > 0, "the fault set must exercise recovery");
    let violations = psb::core::audit_events(&res.events);
    assert!(violations.is_empty(), "{:?}", violations.first());
}

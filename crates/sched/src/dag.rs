//! Dependence-DAG construction over a scope's ops, parameterised by a
//! speculation policy.
//!
//! Edges encode both data dependences and each model's *speculation
//! constraints*:
//!
//! * register RAW follows the scope tree (the producer is the last
//!   definition on the reader's ancestor chain) and decides per-source
//!   shadow bits for the buffering styles;
//! * WAR/WAW edges order writes, with extra *resolution edges* (from the
//!   condition-setters of the earlier value's predicate) that serialise
//!   conflicting speculative writes under the single-shadow register file
//!   — the constraint the infinite-shadow ablation removes;
//! * memory edges use the aliasing tags and skip pairs on disjoint paths;
//! * control edges implement the models: *pinning* (no speculation),
//!   *squash windows* (the predicate must resolve before writeback — the
//!   speculative state lives only in the pipeline) and *buffered depth*
//!   (up to `depth` conditions may still be unresolved at issue,
//!   Figure 8's parameter);
//! * every control transfer waits for its predicate's setters, and no
//!   operation that might be needed on an exit path may be scheduled after
//!   that exit, nor may the conditions its predicate reads resolve after
//!   the cycle before it (the exit squashes whatever is still buffered).

use crate::ops::SchedOp;
use psb_isa::{CondReg, Op, Predicate, Reg, SlotOp, Src};
use std::collections::HashMap;

/// Unsafe-op hoisting discipline.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Hoist {
    /// Unsafe ops never move above an unresolved branch (global model).
    No,
    /// Unsafe ops may be in flight across a branch but must resolve before
    /// writeback (pipeline squashing).
    Window,
    /// Unsafe results are buffered with their predicate (boosting and
    /// predicating).
    Buffered,
}

/// A model's speculation policy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Policy {
    /// Linear (compare-and-branch) or predicated lowering.
    pub linear: bool,
    /// Unsafe-op discipline.
    pub hoist: Hoist,
    /// Maximum branches/conditions an op may pass unresolved.
    pub depth: usize,
    /// Safe (and all predicated) ops are also window-constrained — the
    /// region *scheduling* model, which has squashing hardware only.
    pub window_all: bool,
    /// The register file has a single shadow entry per register, so
    /// conflicting speculative writes must be serialised.
    pub single_shadow: bool,
    /// Counter-form predicate ablation (Section 4.2.1): condition-set
    /// instructions must execute in program order because a counter cannot
    /// represent *which* condition was set.  The paper's vector form
    /// allows reordering; enabling this models the counter alternative.
    pub ordered_cond_sets: bool,
}

/// The built DAG: forward edges with latencies, plus the (possibly
/// shadow-bit-rewritten) ops.
#[derive(Clone, Debug)]
pub struct Dag {
    /// `succs[i]` = `(j, latency)`: op `j` may issue no earlier than
    /// `cycle(i) + latency`.
    pub succs: Vec<Vec<(usize, u64)>>,
}

/// Builds the DAG for `ops`, setting shadow bits on sources read from the
/// speculative state.
pub fn build_dag(ops: &mut [SchedOp], policy: &Policy) -> Dag {
    let n = ops.len();
    let mut succs: Vec<Vec<(usize, u64)>> = vec![Vec::new(); n];
    let add = |succs: &mut Vec<Vec<(usize, u64)>>, from: usize, to: usize, lat: u64| {
        debug_assert!(from < to, "DAG edges must be forward ({from} -> {to})");
        succs[from].push((to, lat));
    };

    // Condition setters (condition-set ops or condition-writing
    // compare-and-branch), and control ops in program order.
    let mut setter: HashMap<CondReg, usize> = HashMap::new();
    let mut controls: Vec<usize> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        if let Some(c) = op.sets_cond() {
            setter.insert(c, i);
        }
        if op.is_control() {
            controls.push(i);
        }
    }
    let resolve = |succs: &mut Vec<Vec<(usize, u64)>>, pred: &Predicate, to: usize, lat: u64| {
        for (c, _) in pred.terms() {
            if let Some(&s) = setter.get(&c) {
                if s < to {
                    succs[s].push((to, lat));
                }
            }
        }
    };

    // Per-register tracking: definitions (op, node) and readers since the
    // last definition.
    let mut defs: HashMap<Reg, Vec<usize>> = HashMap::new();
    let mut readers: HashMap<Reg, Vec<usize>> = HashMap::new();
    let mut mem_ops: Vec<usize> = Vec::new();

    for j in 0..n {
        let op = ops[j].clone();

        // --- Register RAW: producer = last def on j's ancestor chain. ---
        let mut shadow_fixes: Vec<(usize, bool)> = Vec::new(); // (src position, shadow)
        for (src_pos, src) in op.slot_op.srcs().iter().enumerate() {
            let Some(r) = src.as_reg() else { continue };
            if r.is_zero() {
                continue;
            }
            readers.entry(r).or_default().push(j);
            // All earlier defs on compatible (non-disjoint) paths; the
            // last one is the producer when it dominates the reader.
            let compatible: Vec<usize> = defs
                .get(&r)
                .map(|v| {
                    v.iter()
                        .copied()
                        .filter(|&d| !ops[d].home.disjoint(&op.home))
                        .collect()
                })
                .unwrap_or_default();
            let Some(&p) = compatible.last() else {
                continue;
            };
            if op.home.implies(&ops[p].home) {
                add(&mut succs, p, j, ops[p].latency);
                // Shadow bit: read the speculative state when the
                // producer's result is buffered there.
                if !ops[p].pred.is_always() {
                    let weak_reader = op.is_control() || op.is_setcond();
                    let multiple_spec_writers = defs[&r]
                        .iter()
                        .filter(|&&d| !ops[d].pred.is_always() && ops[d].pred != ops[p].pred)
                        .count()
                        > 0;
                    if weak_reader && !policy.single_shadow && multiple_spec_writers {
                        // With unbounded shadow slots an `alw` reader
                        // cannot disambiguate by predicate: wait for
                        // resolution and read the sequential state.
                        resolve(&mut succs, &ops[p].pred.clone(), j, 1);
                    } else {
                        shadow_fixes.push((src_pos, true));
                    }
                }
            } else {
                // Commit dependence (Section 4.2.2): the reader sits at a
                // join below defs it does not post-dominate, so it cannot
                // know whether to fetch the speculative or the sequential
                // state; it must wait until every candidate producer
                // commits or squashes, then read the sequential storage.
                for &d in &compatible {
                    add(&mut succs, d, j, ops[d].latency);
                    let dp = ops[d].pred;
                    if !dp.is_always() {
                        resolve(&mut succs, &dp, j, 1);
                    }
                }
            }
        }
        if !shadow_fixes.is_empty() {
            set_shadow_bits(&mut ops[j].slot_op, &shadow_fixes);
        }

        // --- WAR / WAW on j's definition. ---
        if let Some(rd) = def_reg_of(&op.slot_op) {
            if let Some(rs) = readers.get(&rd) {
                for &r_i in rs {
                    if r_i == j || ops[r_i].home.disjoint(&op.home) {
                        continue;
                    }
                    // Anti dependence: the read happens at issue, the write
                    // at end of cycle, so the same cycle is fine.
                    add(&mut succs, r_i, j, 0);
                    // Recovery safety: a speculative reader may re-execute
                    // during recovery and must still find its operand.
                    let rp = ops[r_i].pred;
                    if !rp.is_always() && !op.pred.implies(&rp) && !op.pred.disjoint(&rp) {
                        resolve(&mut succs, &rp, j, 1);
                    }
                }
            }
            if let Some(ds) = defs.get(&rd) {
                for &d in ds.iter() {
                    let dp = ops[d].pred;
                    if ops[d].home.disjoint(&op.home) {
                        // Parallel-path writers share no execution, but
                        // under a single shadow register their buffered
                        // values would collide.
                        if policy.single_shadow && !dp.is_always() && !op.pred.is_always() {
                            resolve(&mut succs, &dp, j, 1);
                        }
                        continue;
                    }
                    add(&mut succs, d, j, 1);
                    if policy.single_shadow && !dp.is_always() && dp != op.pred {
                        resolve(&mut succs, &dp, j, 1);
                    }
                }
            }
            defs.entry(rd).or_default().push(j);
            // Readers are never cleared: a definition on one path must not
            // hide readers on parallel paths from later writers (WAR edges
            // to already-ordered readers are redundant but harmless).
        }

        // --- Memory dependences. ---
        // `mem_tag()` is `Some` exactly when `is_mem()`, but the type
        // system does not guarantee it, and a panic here would abort the
        // differential fuzz harness mid-shrink.  Route through the checked
        // accessor so a malformed op degrades to "no ordering edge"
        // (caught downstream by the machine's validation) instead.
        if let SlotOp::Op(mop) = op.slot_op {
            if let Some(tag) = mop.mem_tag() {
                let j_store = matches!(mop, Op::Store { .. });
                for &i in &mem_ops {
                    let SlotOp::Op(iop) = ops[i].slot_op else {
                        continue;
                    };
                    let Some(itag) = iop.mem_tag() else {
                        debug_assert!(false, "mem_ops holds a non-memory op");
                        continue;
                    };
                    if !itag.may_alias(tag) || ops[i].home.disjoint(&op.home) {
                        continue;
                    }
                    let i_store = matches!(iop, Op::Store { .. });
                    match (i_store, j_store) {
                        (true, false) => add(&mut succs, i, j, 1), // RAW
                        (false, true) => add(&mut succs, i, j, 0), // WAR
                        (true, true) => add(&mut succs, i, j, 1),  // WAW
                        (false, false) => {}
                    }
                }
                mem_ops.push(j);
            }
        }

        // --- Control constraints. ---
        if op.is_control() {
            // A transfer's predicate must be specified at issue.
            resolve(&mut succs, &op.pred.clone(), j, 1);
            if let Some(a) = op.after {
                add(&mut succs, a, j, 1);
            }
        } else if !op.is_setcond() && !matches!(op.slot_op, SlotOp::Op(Op::Nop)) {
            let pred_setters: Vec<usize> = op
                .pred
                .terms()
                .filter_map(|(c, _)| setter.get(&c).copied())
                .filter(|&s| s < j)
                .collect();
            if policy.linear {
                let before: &[usize] = &controls[..controls.iter().take_while(|&&c| c < j).count()];
                let branches: Vec<usize> = before
                    .iter()
                    .copied()
                    .filter(|&c| matches!(ops[c].slot_op, SlotOp::CmpBr { .. }))
                    .collect();
                match policy.hoist {
                    Hoist::Buffered => {
                        // Boosting: pass up to `depth` branches buffered.
                        let keep = branches.len().saturating_sub(policy.depth);
                        for &b in &branches[..keep] {
                            add(&mut succs, b, j, 1);
                        }
                    }
                    Hoist::No | Hoist::Window => {
                        if op.pinned || (op.is_unsafe() && policy.hoist == Hoist::No) {
                            for &b in &branches {
                                add(&mut succs, b, j, 1);
                            }
                        } else if op.is_unsafe() {
                            // Window: resolve before writeback; only
                            // `depth` branches may be within the window.
                            let keep = branches.len().saturating_sub(policy.depth);
                            for (k, &b) in branches.iter().enumerate() {
                                let lat = if k < keep {
                                    1
                                } else {
                                    2u64.saturating_sub(op.latency)
                                };
                                add(&mut succs, b, j, lat);
                            }
                        }
                        // Safe renamed ops move freely.
                    }
                }
            } else {
                // Predicated styles.
                if policy.window_all {
                    let lat = 2u64.saturating_sub(op.latency);
                    for &s in &pred_setters {
                        add(&mut succs, s, j, lat);
                    }
                } else {
                    let keep = pred_setters.len().saturating_sub(policy.depth);
                    for &s in &pred_setters[..keep] {
                        add(&mut succs, s, j, 1);
                    }
                }
            }
        }
    }

    // Counter-form predicates: condition-sets execute strictly in order.
    if policy.ordered_cond_sets {
        let setcond_ops: Vec<usize> = (0..n).filter(|&i| ops[i].is_setcond()).collect();
        for w in setcond_ops.windows(2) {
            add(&mut succs, w[0], w[1], 1);
        }
    }

    // --- Exit barriers. ---
    // Linear control transfers are strictly ordered among themselves; any
    // op that might still be needed when an exit fires must not be
    // scheduled after it.
    if policy.linear {
        for w in controls.windows(2) {
            add(&mut succs, w[0], w[1], 1);
        }
    }
    for &x in &controls {
        let Some(exit_cond) = ops[x].exit_cond.clone() else {
            continue;
        };
        for (y, op) in ops.iter().enumerate() {
            if y == x
                || op.is_control()
                || op.is_setcond()
                || matches!(op.slot_op, SlotOp::Op(Op::Nop))
            {
                continue;
            }
            if !op.home.disjoint(&exit_cond) && y < x {
                add(&mut succs, y, x, 0);
                // A result still buffered when the exit fires is squashed
                // with the rest of the region's speculative state, so
                // every condition its predicate reads must be specified
                // before the exit issues.  The exit already waits for its
                // own predicate's setters; ops in the arms of a merged
                // join also read the arm condition, which the exit does
                // not.
                if op.pred.cond_mask() & !ops[x].pred.cond_mask() != 0 {
                    resolve(&mut succs, &op.pred, x, 1);
                }
            }
        }
    }

    Dag { succs }
}

fn def_reg_of(s: &SlotOp) -> Option<Reg> {
    match s {
        SlotOp::Op(op) => op.def_reg(),
        _ => None,
    }
}

fn set_shadow_bits(slot: &mut SlotOp, fixes: &[(usize, bool)]) {
    let mut pos = 0usize;
    let mut fix = |s: Src| -> Src {
        let out = if fixes.iter().any(|&(p, sh)| p == pos && sh) {
            s.with_shadow(true)
        } else {
            s
        };
        pos += 1;
        out
    };
    match slot {
        SlotOp::Op(op) => *op = op.map_srcs(&mut fix),
        SlotOp::CmpBr { a, b, .. } => {
            *a = fix(*a);
            *b = fix(*b);
        }
        SlotOp::Jump { .. } | SlotOp::Halt => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pathcond::PathCond;
    use psb_isa::{AluOp, CmpOp, MemTag, Predicate};

    fn alw_op(slot: SlotOp, node: usize, level: usize) -> SchedOp {
        sched_op(slot, Predicate::always(), PathCond::root(), node, level)
    }

    fn sched_op(
        slot: SlotOp,
        pred: Predicate,
        home: PathCond,
        node: usize,
        level: usize,
    ) -> SchedOp {
        let latency = match slot {
            SlotOp::Op(Op::Load { .. }) => 2,
            _ => 1,
        };
        SchedOp {
            slot_op: slot,
            pred,
            home,
            exit_cond: None,
            node,
            level,
            exit_target: None,
            after: None,
            latency,
            pinned: false,
            prob: 1.0,
        }
    }

    fn r(i: usize) -> Reg {
        Reg::new(i)
    }

    fn policy() -> Policy {
        Policy {
            linear: false,
            hoist: Hoist::Buffered,
            depth: 4,
            window_all: false,
            single_shadow: true,
            ordered_cond_sets: false,
        }
    }

    fn edges_of(dag: &Dag, from: usize) -> Vec<(usize, u64)> {
        dag.succs[from].clone()
    }

    #[test]
    fn raw_edge_with_latency() {
        let mut ops = vec![
            alw_op(
                SlotOp::Op(Op::Load {
                    rd: r(1),
                    base: Src::imm(4),
                    offset: 0,
                    tag: MemTag::ANY,
                }),
                0,
                0,
            ),
            alw_op(
                SlotOp::Op(Op::Alu {
                    op: AluOp::Add,
                    rd: r(2),
                    a: Src::reg(r(1)),
                    b: Src::imm(1),
                }),
                0,
                0,
            ),
        ];
        let dag = build_dag(&mut ops, &policy());
        assert!(
            edges_of(&dag, 0).contains(&(1, 2)),
            "load latency 2 on RAW edge"
        );
    }

    #[test]
    fn raw_skips_disjoint_paths() {
        // Producer on path (0,true), reader on (0,false): no edge.
        let p_home = PathCond::root().extend(0, true);
        let q_home = PathCond::root().extend(0, false);
        let mut ops = vec![
            sched_op(
                SlotOp::Op(Op::Copy {
                    rd: r(1),
                    src: Src::imm(1),
                }),
                Predicate::always().and_pos(psb_isa::CondReg::new(0)),
                p_home,
                1,
                1,
            ),
            sched_op(
                SlotOp::Op(Op::Alu {
                    op: AluOp::Add,
                    rd: r(2),
                    a: Src::reg(r(1)),
                    b: Src::imm(1),
                }),
                Predicate::always().and_neg(psb_isa::CondReg::new(0)),
                q_home,
                2,
                1,
            ),
        ];
        let dag = build_dag(&mut ops, &policy());
        assert!(
            !dag.succs[0].iter().any(|&(t, _)| t == 1),
            "disjoint paths share no RAW"
        );
    }

    #[test]
    fn shadow_bit_set_for_speculative_producer() {
        let c0 = psb_isa::CondReg::new(0);
        let home = PathCond::root().extend(0, true);
        let mut ops = vec![
            sched_op(
                SlotOp::Op(Op::Copy {
                    rd: r(1),
                    src: Src::imm(1),
                }),
                Predicate::always().and_pos(c0),
                home.clone(),
                1,
                1,
            ),
            sched_op(
                SlotOp::Op(Op::Alu {
                    op: AluOp::Add,
                    rd: r(2),
                    a: Src::reg(r(1)),
                    b: Src::imm(1),
                }),
                Predicate::always().and_pos(c0),
                home,
                1,
                1,
            ),
        ];
        build_dag(&mut ops, &policy());
        if let SlotOp::Op(Op::Alu { a, .. }) = ops[1].slot_op {
            assert_eq!(a, Src::shadow(r(1)));
        } else {
            panic!("unexpected op");
        }
    }

    #[test]
    fn single_shadow_serialises_parallel_writers() {
        let c0 = psb_isa::CondReg::new(0);
        let setc = alw_op(
            SlotOp::Op(Op::SetCond {
                c: c0,
                cmp: CmpOp::Lt,
                a: Src::imm(0),
                b: Src::imm(1),
            }),
            0,
            0,
        );
        let w1 = sched_op(
            SlotOp::Op(Op::Copy {
                rd: r(1),
                src: Src::imm(1),
            }),
            Predicate::always().and_pos(c0),
            PathCond::root().extend(0, true),
            1,
            1,
        );
        let w2 = sched_op(
            SlotOp::Op(Op::Copy {
                rd: r(1),
                src: Src::imm(2),
            }),
            Predicate::always().and_neg(c0),
            PathCond::root().extend(0, false),
            2,
            1,
        );
        let mut ops = vec![setc.clone(), w1.clone(), w2.clone()];
        let dag = build_dag(&mut ops, &policy());
        // The second writer must wait for the first predicate's setter.
        assert!(dag.succs[0].iter().any(|&(t, l)| t == 2 && l == 1));

        // Infinite shadow mode drops the constraint.
        let mut ops2 = vec![setc, w1, w2];
        let mut p = policy();
        p.single_shadow = false;
        let dag2 = build_dag(&mut ops2, &p);
        assert!(!dag2.succs[0].iter().any(|&(t, _)| t == 2));
    }

    #[test]
    fn control_transfer_waits_for_resolution() {
        let c0 = psb_isa::CondReg::new(0);
        let mut ops = vec![
            alw_op(
                SlotOp::Op(Op::SetCond {
                    c: c0,
                    cmp: CmpOp::Lt,
                    a: Src::imm(0),
                    b: Src::imm(1),
                }),
                0,
                0,
            ),
            sched_op(
                SlotOp::Jump { target: 0 },
                Predicate::always().and_pos(c0),
                PathCond::root(),
                0,
                0,
            ),
        ];
        let dag = build_dag(&mut ops, &policy());
        assert!(dag.succs[0].contains(&(1, 1)));
    }

    #[test]
    fn depth_limits_speculation() {
        // Two setters; depth 1: the op must wait for the first setter.
        let c0 = psb_isa::CondReg::new(0);
        let c1 = psb_isa::CondReg::new(1);
        let mk_set = |c, node| {
            alw_op(
                SlotOp::Op(Op::SetCond {
                    c,
                    cmp: CmpOp::Lt,
                    a: Src::imm(0),
                    b: Src::imm(1),
                }),
                node,
                node,
            )
        };
        let deep = sched_op(
            SlotOp::Op(Op::Copy {
                rd: r(1),
                src: Src::imm(1),
            }),
            Predicate::always().and_pos(c0).and_pos(c1),
            PathCond::root().extend(0, true).extend(1, true),
            2,
            2,
        );
        let mut ops = vec![mk_set(c0, 0), mk_set(c1, 1), deep.clone()];
        let mut p = policy();
        p.depth = 1;
        let dag = build_dag(&mut ops, &p);
        assert!(dag.succs[0].iter().any(|&(t, l)| t == 2 && l == 1));
        assert!(!dag.succs[1].iter().any(|&(t, _)| t == 2));

        // Depth 2: unconstrained.
        let mut ops2 = vec![mk_set(c0, 0), mk_set(c1, 1), deep];
        p.depth = 2;
        let dag2 = build_dag(&mut ops2, &p);
        assert!(!dag2.succs[0].iter().any(|&(t, _)| t == 2));
    }

    #[test]
    fn window_constrains_writeback() {
        // window_all: a 1-cycle op waits a full cycle after its setter; a
        // load may issue the same cycle.
        let c0 = psb_isa::CondReg::new(0);
        let set = alw_op(
            SlotOp::Op(Op::SetCond {
                c: c0,
                cmp: CmpOp::Lt,
                a: Src::imm(0),
                b: Src::imm(1),
            }),
            0,
            0,
        );
        let alu = sched_op(
            SlotOp::Op(Op::Copy {
                rd: r(1),
                src: Src::imm(1),
            }),
            Predicate::always().and_pos(c0),
            PathCond::root().extend(0, true),
            1,
            1,
        );
        let load = sched_op(
            SlotOp::Op(Op::Load {
                rd: r(2),
                base: Src::imm(4),
                offset: 0,
                tag: MemTag::ANY,
            }),
            Predicate::always().and_pos(c0),
            PathCond::root().extend(0, true),
            1,
            1,
        );
        let mut ops = vec![set, alu, load];
        let mut p = policy();
        p.window_all = true;
        let dag = build_dag(&mut ops, &p);
        assert!(dag.succs[0].contains(&(1, 1)), "ALU waits for resolution");
        assert!(
            dag.succs[0].contains(&(2, 0)),
            "load window allows same-cycle issue"
        );
    }

    #[test]
    fn exit_barrier_orders_ancestor_ops() {
        let c0 = psb_isa::CondReg::new(0);
        let mut ops = vec![
            alw_op(
                SlotOp::Op(Op::Copy {
                    rd: r(1),
                    src: Src::imm(1),
                }),
                0,
                0,
            ),
            alw_op(
                SlotOp::Op(Op::SetCond {
                    c: c0,
                    cmp: CmpOp::Lt,
                    a: Src::imm(0),
                    b: Src::imm(1),
                }),
                0,
                0,
            ),
            {
                let mut j = sched_op(
                    SlotOp::Jump { target: 0 },
                    Predicate::always().and_pos(c0),
                    PathCond::root(),
                    0,
                    0,
                );
                j.exit_cond = Some(PathCond::root().extend(0, true));
                j
            },
        ];
        let dag = build_dag(&mut ops, &policy());
        // The copy (home = root, not disjoint with the exit) must complete
        // before the exit.
        assert!(dag.succs[0].contains(&(2, 0)));
    }

    #[test]
    fn exit_below_a_merged_join_waits_for_the_arm_conditions() {
        // c0 splits a diamond whose arm writes r1; the arms merge and the
        // join exits unconditionally.  The arm's buffered write must
        // commit before the exit squashes it, so c0's setter must
        // precede the exit by a cycle even though the exit never reads c0.
        let c0 = psb_isa::CondReg::new(0);
        let mut ops = vec![
            alw_op(
                SlotOp::Op(Op::SetCond {
                    c: c0,
                    cmp: CmpOp::Lt,
                    a: Src::imm(0),
                    b: Src::imm(1),
                }),
                0,
                0,
            ),
            sched_op(
                SlotOp::Op(Op::Copy {
                    rd: r(1),
                    src: Src::imm(1),
                }),
                Predicate::always().and_pos(c0),
                PathCond::root().extend(0, true),
                1,
                1,
            ),
            {
                let mut j = alw_op(SlotOp::Jump { target: 0 }, 2, 1);
                j.exit_cond = Some(PathCond::root());
                j
            },
        ];
        let dag = build_dag(&mut ops, &policy());
        assert!(dag.succs[1].contains(&(2, 0)), "arm op before the exit");
        assert!(
            dag.succs[0].contains(&(2, 1)),
            "arm condition resolved first"
        );
    }

    #[test]
    fn memory_edges_respect_tags_and_paths() {
        let st = |tag| {
            alw_op(
                SlotOp::Op(Op::Store {
                    base: Src::imm(4),
                    offset: 0,
                    value: Src::imm(1),
                    tag,
                }),
                0,
                0,
            )
        };
        let ld = |tag| {
            alw_op(
                SlotOp::Op(Op::Load {
                    rd: r(1),
                    base: Src::imm(4),
                    offset: 0,
                    tag,
                }),
                0,
                0,
            )
        };
        let mut ops = vec![st(MemTag(1)), ld(MemTag(1)), ld(MemTag(2))];
        let dag = build_dag(&mut ops, &policy());
        assert!(dag.succs[0].contains(&(1, 1)), "aliasing RAW");
        assert!(
            !dag.succs[0].iter().any(|&(t, _)| t == 2),
            "different tags independent"
        );
    }
}

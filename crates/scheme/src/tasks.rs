//! Shared task primitives: stamped operand reads and instruction
//! evaluation.
//!
//! Every read of a program variable validates the replica stamp against the
//! static last-write table; a mismatch means a tardy processor's stale
//! write masked the value in that replica, and the reader falls through to
//! the next replica (README.md, "Design notes: replicated program
//! variables"). Total failures are counted — they are
//! the quantity the K-ablation (E11) studies, and the verifier treats any
//! propagated corruption as a violation.

use std::cell::RefCell;
use std::rc::Rc;

use apex_pram::{Instr, LastWriteTable, Op, Operand, Value};
use apex_sim::{Ctx, Stamped};

use crate::map::SchemeMap;

/// Counters shared by all processors of a scheme run (instrumentation).
#[derive(Debug, Default)]
pub struct SchemeEvents {
    /// Operand reads where no replica carried the expected stamp.
    pub operand_read_failures: u64,
    /// Copy tasks that found no agreed value and aborted (tardy-safe path).
    pub aborted_copies: u64,
    /// Completed copy-task writes.
    pub copy_writes: u64,
    /// Instruction evaluations performed (redundancy measure).
    pub evals: u64,
}

/// Shared handle to [`SchemeEvents`].
pub type EventsHandle = Rc<RefCell<SchemeEvents>>;

/// Fresh counters.
pub fn new_events() -> EventsHandle {
    Rc::new(RefCell::new(SchemeEvents::default()))
}

/// Read one operand of an instruction executing at `step`.
///
/// Variables are fetched replica by replica until a stamp matches the
/// last-write table; on total failure the last replica's value is used
/// best-effort and the failure is counted. Constants cost nothing (they
/// live in the instruction word).
///
/// Cost: ≤ `K` reads.
pub async fn read_operand(
    ctx: &Ctx,
    map: &SchemeMap,
    lw: &LastWriteTable,
    operand: &Operand,
    step: u64,
    events: &EventsHandle,
) -> Value {
    match operand {
        Operand::Const(c) => *c,
        Operand::Var(var) => {
            let expect = lw.expected_stamp(*var, step);
            let mut last = 0;
            for r in 0..map.k {
                let cell = ctx.read(map.var_addr(*var, r)).await;
                last = cell.value;
                if cell.stamp == expect {
                    return cell.value;
                }
            }
            events.borrow_mut().operand_read_failures += 1;
            last
        }
    }
}

/// Evaluate `instr` (thread `i`'s instruction of `step`) as the executing
/// processor: read both operands, then perform the basic computation —
/// deterministic ops cost one compute, nondeterministic ops one draw from
/// the private random source.
///
/// Cost: ≤ `2K + 1` ops; [`eval_cost`] is the budget the agreement cycle
/// must reserve.
pub async fn eval_instr(
    ctx: &Ctx,
    map: &SchemeMap,
    lw: &LastWriteTable,
    instr: &Instr,
    step: u64,
    events: &EventsHandle,
) -> Value {
    let x = read_operand(ctx, map, lw, &instr.a, step, events).await;
    let y = read_operand(ctx, map, lw, &instr.b, step, events).await;
    events.borrow_mut().evals += 1;
    match instr.op {
        Op::RandBit => ctx.rand_below(2).await,
        Op::RandBelow => ctx.rand_below(x.max(1)).await,
        op => {
            ctx.compute().await;
            // Deterministic ops ignore the RNG; a throwaway suffices.
            let mut dummy = rand::rngs::mock::StepRng::new(0, 0);
            op.eval(x, y, &mut dummy)
        }
    }
}

/// Worst-case ops charged by [`eval_instr`] with replication factor `k`.
pub fn eval_cost(k: usize) -> u64 {
    2 * k as u64 + 1
}

/// A Copy-subphase task for step π: pick a random `(thread, replica)`,
/// fetch the agreed `NewVal[thread]`, and write one replica of the
/// destination variable, stamped `π+1`.
///
/// `fetch(i)` abstracts where `NewVal[i]` lives: the bin array
/// (nondeterministic scheme) or the single-cell array (deterministic
/// baseline). A fetch returning `None` — the stamp filter found nothing,
/// e.g. because this processor is tardy and the structure has been reused —
/// aborts the task *without writing*: a slow copier that has not yet loaded
/// a value can never corrupt a later step (the only residual hazard is
/// sleeping between fetch and write, which replication covers).
pub async fn copy_task<F, Fut>(
    ctx: &Ctx,
    map: &SchemeMap,
    program: &apex_pram::Program,
    step: u64,
    events: &EventsHandle,
    fetch: F,
) where
    F: FnOnce(usize) -> Fut,
    Fut: std::future::Future<Output = Option<Value>>,
{
    let n = program.n_threads as u64;
    let i = ctx.rand_below(n).await as usize;
    let r = ctx.rand_below(map.k as u64).await as usize;
    let Some(instr) = program.instr(step as usize, i) else {
        return; // idle thread: nothing to copy
    };
    let dst = instr.dst;
    match fetch(i).await {
        Some(v) => {
            ctx.write(map.var_addr(dst, r), Stamped::new(v, step + 1))
                .await;
            events.borrow_mut().copy_writes += 1;
        }
        None => {
            events.borrow_mut().aborted_copies += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apex_core::AgreementConfig;
    use apex_pram::library::tree_reduce;
    use apex_pram::ProgramBuilder;
    use apex_sim::{MachineBuilder, RegionAllocator};
    use std::cell::Cell;

    fn setup(program: &apex_pram::Program, k: usize) -> (SchemeMap, LastWriteTable, usize) {
        let cfg = AgreementConfig::for_n(program.n_threads, eval_cost(k));
        let mut alloc = RegionAllocator::new();
        let map = SchemeMap::new(&mut alloc, &cfg, program, crate::map::ReplicaK(k), false);
        (map, program.last_write_table(), alloc.total())
    }

    fn two_var_program() -> apex_pram::Program {
        let mut b = ProgramBuilder::new("p", 2);
        let v = b.alloc_init(&[11, 22]);
        let o = b.alloc(2, 0);
        b.step()
            .emit(
                0,
                o.at(0),
                Op::Add,
                Operand::Var(v.at(0)),
                Operand::Const(1),
            )
            .emit(
                1,
                o.at(1),
                Op::Mov,
                Operand::Var(v.at(1)),
                Operand::Const(0),
            );
        b.build()
    }

    #[test]
    fn operand_read_prefers_matching_stamp() {
        let p = two_var_program();
        let (map, lw, mem) = setup(&p, 2);
        let events = new_events();
        let ev2 = events.clone();
        let got = Rc::new(Cell::new(0u64));
        let got2 = got.clone();
        let mut m = MachineBuilder::new(1, mem).build(move |ctx| {
            let events = ev2.clone();
            let got = got2.clone();
            let lw = lw.clone();
            async move {
                let v = read_operand(&ctx, &map, &lw, &Operand::Var(0), 0, &events).await;
                got.set(v);
            }
        });
        // Replica 0 corrupted (stale stamp), replica 1 holds the value with
        // the initial stamp 0 that step 0 expects.
        m.poke(map.var_addr(0, 0), Stamped::new(999, 77));
        m.poke(map.var_addr(0, 1), Stamped::new(11, 0));
        m.run_to_completion(100).unwrap();
        assert_eq!(got.get(), 11);
        assert_eq!(events.borrow().operand_read_failures, 0);
    }

    #[test]
    fn total_replica_corruption_is_counted() {
        let p = two_var_program();
        let (map, lw, mem) = setup(&p, 2);
        let events = new_events();
        let ev2 = events.clone();
        let mut m = MachineBuilder::new(1, mem).build(move |ctx| {
            let events = ev2.clone();
            let lw = lw.clone();
            async move {
                let _ = read_operand(&ctx, &map, &lw, &Operand::Var(0), 0, &events).await;
            }
        });
        m.poke(map.var_addr(0, 0), Stamped::new(1, 77));
        m.poke(map.var_addr(0, 1), Stamped::new(2, 88));
        m.run_to_completion(100).unwrap();
        assert_eq!(events.borrow().operand_read_failures, 1);
    }

    #[test]
    fn const_operands_cost_nothing() {
        let p = two_var_program();
        let (map, lw, mem) = setup(&p, 2);
        let events = new_events();
        let ev2 = events.clone();
        let mut m = MachineBuilder::new(1, mem).build(move |ctx| {
            let events = ev2.clone();
            let lw = lw.clone();
            async move {
                let before = ctx.ops();
                let v = read_operand(&ctx, &map, &lw, &Operand::Const(42), 3, &events).await;
                assert_eq!(v, 42);
                assert_eq!(ctx.ops(), before);
            }
        });
        m.run_to_completion(100).unwrap();
    }

    #[test]
    fn eval_respects_budget_and_computes() {
        let p = two_var_program();
        let (map, lw, mem) = setup(&p, 2);
        let events = new_events();
        let ev2 = events.clone();
        let instr = *p.instr(0, 0).unwrap();
        let mut m = MachineBuilder::new(1, mem).build(move |ctx| {
            let events = ev2.clone();
            let lw = lw.clone();
            async move {
                let before = ctx.ops();
                let v = eval_instr(&ctx, &map, &lw, &instr, 0, &events).await;
                assert!(ctx.ops() - before <= eval_cost(2));
                assert_eq!(v, 12, "11 + 1");
            }
        });
        // Initial values live in replica 0 with stamp 0 (poked by harness
        // in real runs; here by hand).
        m.poke(map.var_addr(0, 0), Stamped::new(11, 0));
        m.run_to_completion(100).unwrap();
        assert_eq!(events.borrow().evals, 1);
    }

    #[test]
    fn copy_task_aborts_without_value_and_writes_with_one() {
        let built = tree_reduce(Op::Add, &[1, 2, 3, 4]);
        let p = Rc::new(built.program);
        let (map, _lw, mem) = setup(&p, 2);
        let events = new_events();
        let ev2 = events.clone();
        let p2 = p.clone();
        let mut m = MachineBuilder::new(1, mem).seed(5).build(move |ctx| {
            let events = ev2.clone();
            let p = p2.clone();
            async move {
                // First: fetches yielding None → aborts, never writes.
                // (Tasks landing on idle threads return without counting.)
                for _ in 0..16 {
                    copy_task(&ctx, &map, &p, 0, &events, |_i| async { None }).await;
                }
                assert!(events.borrow().aborted_copies >= 1);
                assert_eq!(events.borrow().copy_writes, 0);
                // Then: many tasks with a value → writes land.
                for _ in 0..64 {
                    copy_task(&ctx, &map, &p, 0, &events, |_i| async { Some(7) }).await;
                }
            }
        });
        m.run_to_completion(10_000).unwrap();
        assert!(events.borrow().copy_writes > 0);
        // Every written replica carries step 0's stamp (= 1) and value 7.
        m.with_mem(|mm| {
            let mut found = 0;
            for v in 0..map.n_vars {
                for r in 0..map.k {
                    let c = mm.peek(map.var_addr(v, r));
                    if c.stamp == 1 {
                        assert_eq!(c.value, 7);
                        found += 1;
                    }
                }
            }
            assert!(found > 0);
        });
    }
}

//! The whole-program dataflow engine.
//!
//! Flow-sensitive within functions, context-insensitive across them (the
//! paper's §3.1 explains that this context insensitivity is exactly why
//! the source-level inliner matters: inlining a check gives its operands
//! call-site-specific values). Globals are handled with the TinyOS
//! concurrency model in mind:
//!
//! * a global never touched by interrupt-reachable code is refined
//!   flow-sensitively,
//! * a global touched by interrupt code is only refined *inside an
//!   `atomic` section* (handlers cannot interleave there) — this is the
//!   concurrency awareness §2.1 describes,
//! * address-taken globals are never refined (stores through pointers).
//!
//! The engine runs in two phases: a fixpoint **analysis** that stabilizes
//! per-function entry values, return summaries, and whole-program global
//! values; then a **transform** pass that folds constant expressions and
//! branches and deletes checks the analysis proves redundant.
//!
//! # Summary widening and narrowing
//!
//! The analysis runs to a real fixpoint; no round count cuts it off.
//! Loop heads widen inside a walk (from a loop's second round), and the
//! interprocedural summaries — each global's whole-program value, each
//! function's entry slots and its return summary — widen across walks:
//! from round [`WIDEN_ROUND`] on, a summary that grows is joined through
//! [`AVal::widen`] at the declared integer kind of the global, parameter
//! or return type, so a bound that is still moving jumps to the kind's
//! extreme instead of creeping one step per round. (A counter
//! incremented once per call would otherwise read `[0,1]`, `[0,2]`, …
//! for as many rounds as its type has values.) Every summary can thus
//! grow only a bounded number of times, and the rounds end with nothing
//! changed.
//!
//! Widening overshoots: a counter stored as `(c + 1) % 8` widens to its
//! type's full range. So once the rounds settle, one narrowing round
//! recomputes every summary a widening took past the plain join, from
//! walks of the functions that feed it under the settled summaries (the
//! counter reads `[0,7]` again), and further rounds confirm that the
//! narrowed summaries are still stable. The transform therefore folds on
//! facts that hold for every execution. [`MAX_ROUNDS`] stays only as a
//! backstop that tests show is never reached.
//!
//! # Fault-hardened check elimination
//!
//! Check *removal* answers to a stricter standard than ordinary dataflow
//! soundness. An interval proof that an index global stays in `0..N`
//! holds for every uncorrupted execution — but the checks exist to catch
//! *corrupted* ones: a bit flip in a RAM cell produces any value the
//! cell's type can represent, invariants be damned. Deleting a check on
//! the strength of such an invariant silently deletes the program's
//! fault coverage (the fault-injection campaign measures exactly this
//! collapse).
//!
//! The engine therefore keeps a second, *hardened* value for every
//! local: the value the expression would have if every load from a
//! RAM-resident mutable global returned the global's full type range
//! (ROM-resident `const` globals are immune and keep their precise
//! value; locals live in the stack region outside the static-data fault
//! window and stay precise, including refinements earned from checks
//! and branches that the running code actually executed). A check is
//! removed only when it passes in **both** worlds — i.e. when the
//! interval proof covers the entire fault-reachable value set, such as
//! a `u8` index into a 256-element array or an index reduced by
//! `% N` between the load and the access. Constant and branch folding
//! keep using the ordinary (uncorrupted-semantics) values: folding can
//! mask a fault but never removes a trap.
//!
//! `harden: false` (the spec language's `cxprop(noharden)`) restores the
//! classical policy, which is how the campaign harness demonstrates the
//! coverage collapse on demand.

use tcil::ir::*;
use tcil::types::{size_of, IntKind, Type};
use tcil::visit;
use tcil::Program;

use crate::aval::{addr_of_value, APtr, AVal, Tri};
use crate::ival::Ival;

/// Backstop on analysis rounds. Summary widening makes every analysis
/// converge before it, narrowing round included; [`Engine::rounds`]
/// reports how many were needed.
pub const MAX_ROUNDS: usize = 12;

/// The first analysis round (counting from 0) in which growing
/// interprocedural summaries widen instead of joining. The early rounds
/// join, so values that settle after a step or two (flags, constants
/// stored once) keep their exact range.
pub const WIDEN_ROUND: usize = 2;

/// [`Engine::slot`] of a global the walked function never mentions.
const UNTRACKED: u32 = u32::MAX;

/// The interprocedural summaries a narrowing round recomputes.
struct Facts {
    wpv: Vec<AVal>,
    entry: Vec<Option<Vec<AVal>>>,
    entry_hard: Vec<Option<Vec<AVal>>>,
    retv: Vec<AVal>,
    retv_hard: Vec<AVal>,
}

/// A summary that a widening took past the plain join.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Widened {
    /// The whole-program value of a global.
    Global(usize),
    /// A function's entry slots (both worlds).
    Entry(usize),
    /// A function's return summary (both worlds).
    Return(usize),
}

/// How [`grow`] changed a summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Grew {
    /// Already covered.
    No,
    /// Grew to the join.
    Joined,
    /// Widened past the join.
    Widened,
}

/// Grows summary `slot` to cover `v`; with `widen`, a bound that moves
/// goes to `kind`'s extreme (see the module docs).
fn grow(slot: &mut AVal, v: AVal, widen: bool, kind: IntKind) -> Grew {
    let j = slot.join(v);
    if j == *slot {
        return Grew::No;
    }
    *slot = if widen { slot.widen(j, kind) } else { j };
    if *slot == j {
        Grew::Joined
    } else {
        Grew::Widened
    }
}

/// The order analysis rounds walk functions in: a reverse postorder of
/// the call graph from `roots`, so callers come before callees and an
/// entry summary reaches a whole call chain in one round, then every
/// function no root reaches.
fn walk_order(roots: &[usize], callees: &[Vec<u32>]) -> Vec<usize> {
    let mut seen = vec![false; callees.len()];
    let mut post = Vec::with_capacity(callees.len());
    for &r in roots {
        if std::mem::replace(&mut seen[r], true) {
            continue;
        }
        // (function, index of its next callee to visit)
        let mut stack = vec![(r, 0)];
        while let Some((f, k)) = stack.pop() {
            match callees[f].get(k) {
                Some(&c) => {
                    stack.push((f, k + 1));
                    if !std::mem::replace(&mut seen[c as usize], true) {
                        stack.push((c as usize, 0));
                    }
                }
                None => post.push(f),
            }
        }
    }
    post.reverse();
    post.extend((0..callees.len()).filter(|&i| !seen[i]));
    post
}

/// The integer kind widening uses for a value of type `ty`.
fn widen_kind(ty: &Type) -> IntKind {
    ty.as_int().unwrap_or(IntKind::I32)
}

/// Which abstract integer domain the engine plugs in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DomainKind {
    /// Flat constant lattice (cXprop's cheapest domain).
    Constants,
    /// Full interval domain.
    #[default]
    Intervals,
}

/// What the transform phase changed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Checks proven redundant and removed.
    pub checks_removed: usize,
    /// Branches with decided conditions folded.
    pub branches_folded: usize,
    /// Expressions replaced by constants.
    pub consts_folded: usize,
}

/// Pre-computed program facts.
#[derive(Debug, Clone, Default)]
pub struct Summaries {
    /// `writes[f][g]`: function `f` (transitively) writes global `g`.
    pub writes: Vec<Vec<bool>>,
    /// Function (transitively) stores through a pointer.
    pub indirect_writes: Vec<bool>,
    /// Global has its address taken somewhere.
    pub addr_taken: Vec<bool>,
    /// Global is accessed by interrupt-reachable code.
    pub async_touched: Vec<bool>,
    /// Function reachable from any root.
    pub reachable: Vec<bool>,
    /// `mentions[f][g]`: function `f`'s body mentions global `g` directly
    /// (load, store, or address-of — anywhere, including check operands
    /// and place subscripts). A walk of `f` tracks flow values for
    /// exactly these globals.
    pub mentions: Vec<Vec<bool>>,
    /// `reads[f][g]`: `f`'s body loads `g` or takes its address. The
    /// sparse engine's dependency edges: a walk of `f` depends on the
    /// whole-program value of `g` only if it reads `g`.
    pub reads: Vec<Vec<bool>>,
    /// Direct callees per function, in call-site order (duplicates kept).
    pub callees: Vec<Vec<u32>>,
}

/// Computes [`Summaries`] for `program`.
pub fn summarize(program: &Program) -> Summaries {
    let nf = program.functions.len();
    let ng = program.globals.len();
    let mut s = Summaries {
        writes: vec![vec![false; ng]; nf],
        indirect_writes: vec![false; nf],
        addr_taken: vec![false; ng],
        async_touched: vec![false; ng],
        reachable: vec![false; nf],
        mentions: vec![vec![false; ng]; nf],
        reads: vec![vec![false; ng]; nf],
        callees: vec![Vec::new(); nf],
    };
    for (fi, f) in program.functions.iter().enumerate() {
        visit::walk_stmts(&f.body, &mut |st| {
            let mut dest = |p: &Place| {
                match &p.base {
                    PlaceBase::Global(g) => {
                        s.writes[fi][g.0 as usize] = true;
                        s.mentions[fi][g.0 as usize] = true;
                    }
                    PlaceBase::Deref(_) => s.indirect_writes[fi] = true,
                    _ => {}
                };
            };
            match st {
                Stmt::Assign(p, _) => dest(p),
                Stmt::Call { dst, func, .. } => {
                    s.callees[fi].push(func.0);
                    if let Some(p) = dst {
                        dest(p);
                    }
                }
                Stmt::BuiltinCall { dst: Some(p), .. } => dest(p),
                _ => {}
            }
            visit::stmt_exprs(st, &mut |e| {
                visit::walk_expr(e, &mut |x| {
                    if let ExprKind::Load(p) | ExprKind::AddrOf(p) = &x.kind {
                        if let PlaceBase::Global(g) = &p.base {
                            s.mentions[fi][g.0 as usize] = true;
                            s.reads[fi][g.0 as usize] = true;
                            if matches!(x.kind, ExprKind::AddrOf(_)) {
                                s.addr_taken[g.0 as usize] = true;
                            }
                        }
                    }
                });
            });
        });
    }
    // Take the callee lists out so the closure below can mutate the
    // other summary fields; restored before returning.
    let callees = std::mem::take(&mut s.callees);
    // Transitive closure of writes / indirect writes.
    loop {
        let mut changed = false;
        for (fi, fi_callees) in callees.iter().enumerate() {
            for &c in fi_callees {
                let c = c as usize;
                if s.indirect_writes[c] && !s.indirect_writes[fi] {
                    s.indirect_writes[fi] = true;
                    changed = true;
                }
                for g in 0..ng {
                    if s.writes[c][g] && !s.writes[fi][g] {
                        s.writes[fi][g] = true;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    // Reachability and async context.
    let mut async_fn = vec![false; nf];
    let roots: Vec<u32> = program
        .entry
        .iter()
        .map(|f| f.0)
        .chain(
            program
                .functions
                .iter()
                .enumerate()
                .filter_map(|(i, f)| f.interrupt.map(|_| i as u32)),
        )
        .collect();
    let mut work = roots.clone();
    while let Some(f) = work.pop() {
        if std::mem::replace(&mut s.reachable[f as usize], true) {
            continue;
        }
        work.extend(callees[f as usize].iter().copied());
    }
    let mut work: Vec<u32> = program
        .functions
        .iter()
        .enumerate()
        .filter(|(_, f)| f.interrupt.is_some())
        .map(|(i, _)| i as u32)
        .collect();
    while let Some(f) = work.pop() {
        if std::mem::replace(&mut async_fn[f as usize], true) {
            continue;
        }
        work.extend(callees[f as usize].iter().copied());
    }
    // Globals touched by async code.
    for (fi, f) in program.functions.iter().enumerate() {
        if !async_fn[fi] {
            continue;
        }
        visit::walk_stmts(&f.body, &mut |st| {
            let mut touch = |p: &Place| {
                if let PlaceBase::Global(g) = &p.base {
                    s.async_touched[g.0 as usize] = true;
                }
            };
            match st {
                Stmt::Assign(p, _) => touch(p),
                Stmt::Call { dst: Some(p), .. } | Stmt::BuiltinCall { dst: Some(p), .. } => {
                    touch(p)
                }
                _ => {}
            }
            visit::stmt_exprs(st, &mut |e| {
                visit::walk_expr(e, &mut |x| {
                    if let ExprKind::Load(p) | ExprKind::AddrOf(p) = &x.kind {
                        if let PlaceBase::Global(g) = &p.base {
                            s.async_touched[g.0 as usize] = true;
                        }
                    }
                });
            });
        });
    }
    s.callees = callees;
    s
}

/// The flow environment at a program point.
///
/// `hard_locals` is the fault-hardened shadow of `locals`: the value
/// each local would hold if every global it was computed from had been
/// corrupted to an arbitrary value of its type (see the module docs).
/// Globals need no shadow — their hardened value is always their type's
/// top, by definition of the fault model.
///
/// `globals` holds flow values only for the globals the walked function
/// mentions (one slot each, in ascending global order): the walk never
/// reads any other, so copies and joins skip them.
#[derive(Debug, Clone, PartialEq)]
pub struct Env {
    locals: Vec<AVal>,
    hard_locals: Vec<AVal>,
    globals: Vec<AVal>,
    reachable: bool,
}

impl Env {
    fn join_from(&mut self, other: &Env) -> bool {
        if !other.reachable {
            return false;
        }
        if !self.reachable {
            *self = other.clone();
            return true;
        }
        let mut changed = false;
        for (a, b) in self
            .locals
            .iter_mut()
            .chain(self.hard_locals.iter_mut())
            .zip(other.locals.iter().chain(&other.hard_locals))
        {
            let j = a.join(*b);
            if j != *a {
                *a = j;
                changed = true;
            }
        }
        for (a, b) in self.globals.iter_mut().zip(&other.globals) {
            let j = a.join(*b);
            if j != *a {
                *a = j;
                changed = true;
            }
        }
        changed
    }
}

/// The analysis engine.
pub struct Engine {
    /// Chosen integer domain.
    pub domain: DomainKind,
    /// Fault-hardened check elimination (see the module docs). When
    /// false, checks are removed on uncorrupted-semantics proofs alone —
    /// the classical (pre-fix) policy.
    pub harden: bool,
    /// Program facts.
    pub sums: Summaries,
    /// Whole-program abstract value of each global.
    pub wpv: Vec<AVal>,
    /// Join of argument values at every call site, per function.
    pub entry: Vec<Option<Vec<AVal>>>,
    /// Fault-hardened twin of [`Engine::entry`].
    pub entry_hard: Vec<Option<Vec<AVal>>>,
    /// Return-value summaries.
    pub retv: Vec<AVal>,
    /// Fault-hardened twin of [`Engine::retv`].
    pub retv_hard: Vec<AVal>,
    /// Analysis rounds run; below [`MAX_ROUNDS`] whenever the analysis
    /// converged.
    pub rounds: usize,
    changed: bool,
    /// Whether summary joins widen this round (`rounds >= WIDEN_ROUND`).
    widen: bool,
    /// Summaries a widening took past the plain join: the ones narrowing
    /// rounds recompute.
    widened: Vec<Widened>,
    /// Each global's value before any store: its static initializer.
    init: Vec<AVal>,
    /// During a narrowing round, the summaries being recomputed (walks
    /// read the current ones and publish here instead).
    next: Option<Facts>,
    /// `gdeps[g]`: functions whose walk reads global `g` — the ones a
    /// change to `wpv[g]` can re-derive facts in.
    gdeps: Vec<Vec<u32>>,
    /// `tracked[f]`: the globals `f` mentions, ascending — the slots of
    /// [`Env::globals`] in a walk of `f`.
    tracked: Vec<Vec<u32>>,
    /// During a walk, each tracked global's slot in [`Env::globals`]
    /// ([`UNTRACKED`] for every other global).
    slot: Vec<u32>,
    /// The order a round walks functions in (see [`walk_order`]).
    order: Vec<usize>,
    /// Call-graph inverse: `callers[f]` = functions with a call to `f`
    /// (deduplicated), dirtied when `f`'s return summary grows.
    callers: Vec<Vec<u32>>,
    /// The sparse worklist: functions whose analysis inputs (entry
    /// values, mentioned globals, callee return summaries) changed since
    /// their last walk. A function whose inputs are unchanged re-derives
    /// exactly the same joins (the walk is idempotent), so clean
    /// functions are skipped without changing any result.
    dirty: Vec<bool>,
}

impl Engine {
    /// Runs the fixpoint analysis over `program` with fault-hardened
    /// check elimination (the default policy).
    ///
    /// Takes `&mut` only to borrow the function bodies in place (they
    /// are moved out and restored, never cloned); the program is
    /// unchanged when this returns.
    pub fn analyze(program: &mut Program, domain: DomainKind) -> Engine {
        Self::analyze_opts(program, domain, true)
    }

    /// [`Engine::analyze`] with the hardening policy explicit.
    pub fn analyze_opts(program: &mut Program, domain: DomainKind, harden: bool) -> Engine {
        let sums = summarize(program);
        let ng = program.globals.len();
        let nf = program.functions.len();
        let mut wpv = Vec::with_capacity(ng);
        for (gi, g) in program.globals.iter().enumerate() {
            let v = if sums.addr_taken[gi] {
                AVal::top_for(&g.ty)
            } else {
                match (&g.ty, &g.init) {
                    (Type::Int(k), Init::Zero) => AVal::Int(Ival::const_(0)).normed(domain, *k),
                    (Type::Int(k), Init::Int(v)) => {
                        AVal::Int(Ival::const_(k.wrap(*v))).normed(domain, *k)
                    }
                    (Type::Ptr(..), Init::Zero | Init::Int(_)) => AVal::Ptr(APtr::null()),
                    _ => AVal::top_for(&g.ty),
                }
            };
            wpv.push(v);
        }
        // Dependency edges for the sparse worklist: which functions a
        // changed global summary or return summary can affect.
        let mut gdeps: Vec<Vec<u32>> = vec![Vec::new(); ng];
        for (fi, row) in sums.reads.iter().enumerate() {
            for (gi, &m) in row.iter().enumerate() {
                if m {
                    gdeps[gi].push(fi as u32);
                }
            }
        }
        let tracked: Vec<Vec<u32>> = sums
            .mentions
            .iter()
            .map(|row| (0..ng as u32).filter(|&g| row[g as usize]).collect())
            .collect();
        let mut callers: Vec<Vec<u32>> = vec![Vec::new(); nf];
        for (fi, callees) in sums.callees.iter().enumerate() {
            for &c in callees {
                let row = &mut callers[c as usize];
                if row.last() != Some(&(fi as u32)) && !row.contains(&(fi as u32)) {
                    row.push(fi as u32);
                }
            }
        }
        let roots: Vec<usize> = (0..nf)
            .filter(|&i| {
                program.entry == Some(FuncId(i as u32)) || program.functions[i].interrupt.is_some()
            })
            .collect();
        let order = walk_order(&roots, &sums.callees);
        let mut eng = Engine {
            domain,
            harden,
            sums,
            init: wpv.clone(),
            wpv,
            entry: vec![None; nf],
            entry_hard: vec![None; nf],
            retv: vec![AVal::Bot; nf],
            retv_hard: vec![AVal::Bot; nf],
            rounds: 0,
            changed: true,
            widen: false,
            widened: Vec::new(),
            next: None,
            gdeps,
            tracked,
            slot: vec![UNTRACKED; ng],
            order,
            callers,
            // Everyone starts dirty: round 1 walks every live function,
            // exactly like the dense engine did.
            dirty: vec![true; nf],
        };
        // Roots have no parameters.
        for &r in &roots {
            eng.entry[r] = Some(vec![]);
            eng.entry_hard[r] = Some(vec![]);
        }
        // Move the bodies out of the program so the walker can borrow
        // the rest of it as context — no per-round (or any) body clones.
        let mut bodies: Vec<Block> = program
            .functions
            .iter_mut()
            .map(|f| std::mem::take(&mut f.body))
            .collect();
        eng.ascend(program, &mut bodies);
        // A post-fixpoint that widening overshot: narrow it once, then
        // let the ascending rounds confirm that the narrowed summaries
        // are still a post-fixpoint (they re-walk every function whose
        // inputs shrank).
        if !eng.changed && !eng.widened.is_empty() {
            eng.rounds += 1;
            eng.changed = eng.narrow(program, &mut bodies);
            eng.ascend(program, &mut bodies);
        }
        for (f, body) in program.functions.iter_mut().zip(bodies) {
            f.body = body;
        }
        eng
    }

    /// Ascending rounds until nothing changes. `dirty` only filters
    /// *within* a round: a clean function's inputs — its entry values,
    /// the globals it reads, its callees' return summaries — are
    /// unchanged since its last walk, and a walk over unchanged inputs
    /// re-derives exactly the joins (or widenings) it already published —
    /// both are idempotent on a value already covered — so skipping it
    /// cannot alter any summary or the round count.
    fn ascend(&mut self, program: &Program, bodies: &mut [Block]) {
        while self.changed && self.rounds < MAX_ROUNDS {
            self.changed = false;
            if !self.dirty.contains(&true) {
                // Nothing to re-walk: the summaries are already stable.
                break;
            }
            self.widen = self.rounds >= WIDEN_ROUND;
            self.rounds += 1;
            for i in 0..self.order.len() {
                let fi = self.order[i];
                if !self.dirty[fi] {
                    continue;
                }
                self.dirty[fi] = false;
                if !self.sums.reachable[fi] || self.entry[fi].is_none() {
                    continue;
                }
                self.walk_function(
                    program,
                    fi,
                    &mut bodies[fi],
                    false,
                    &mut EngineStats::default(),
                );
            }
        }
    }

    /// One narrowing round. Every summary a widening overshot is
    /// recomputed from scratch — a global from its initializer, entry
    /// slots and returns from bottom — by walking the functions that
    /// contribute to it under the current summaries; every other summary
    /// keeps its value, which the same walks already cover. Starting
    /// from a post-fixpoint, the result is still sound and drops what
    /// widening overshot: a counter stored as `(c + 1) % 8` and widened
    /// to its type's range reads `[0,7]` again. Functions whose inputs
    /// shrank are marked dirty for the confirming ascending rounds.
    /// Returns whether any summary changed.
    fn narrow(&mut self, program: &Program, bodies: &mut [Block]) -> bool {
        let mut next = Facts {
            wpv: self.wpv.clone(),
            entry: self.entry.clone(),
            entry_hard: self.entry_hard.clone(),
            retv: self.retv.clone(),
            retv_hard: self.retv_hard.clone(),
        };
        let mut walk = vec![false; bodies.len()];
        self.widened.sort_unstable();
        self.widened.dedup();
        for &w in &self.widened {
            match w {
                Widened::Global(gi) => {
                    next.wpv[gi] = self.init[gi];
                    // A function that stores `gi` both mentions and
                    // writes it.
                    for (fi, row) in self.sums.mentions.iter().enumerate() {
                        walk[fi] |= row[gi] && self.sums.writes[fi][gi];
                    }
                }
                Widened::Entry(fi) => {
                    for slots in [&mut next.entry[fi], &mut next.entry_hard[fi]] {
                        slots.iter_mut().for_each(|s| s.fill(AVal::Bot));
                    }
                    for &f in &self.callers[fi] {
                        walk[f as usize] = true;
                    }
                }
                Widened::Return(fi) => {
                    next.retv[fi] = AVal::Bot;
                    next.retv_hard[fi] = AVal::Bot;
                    walk[fi] = true;
                }
            }
        }
        self.next = Some(next);
        for (fi, body) in bodies.iter_mut().enumerate() {
            if walk[fi] && self.sums.reachable[fi] && self.entry[fi].is_some() {
                self.walk_function(program, fi, body, false, &mut EngineStats::default());
            }
        }
        let next = self.next.take().expect("set above");
        let mut changed = false;
        for gi in 0..next.wpv.len() {
            if next.wpv[gi] != self.wpv[gi] {
                self.mark_global_deps(gi);
                changed = true;
            }
        }
        for fi in 0..next.retv.len() {
            if next.entry[fi] != self.entry[fi] || next.entry_hard[fi] != self.entry_hard[fi] {
                self.dirty[fi] = true;
                changed = true;
            }
            if next.retv[fi] != self.retv[fi] || next.retv_hard[fi] != self.retv_hard[fi] {
                self.mark_callers(fi);
                changed = true;
            }
        }
        self.wpv = next.wpv;
        self.entry = next.entry;
        self.entry_hard = next.entry_hard;
        self.retv = next.retv;
        self.retv_hard = next.retv_hard;
        changed
    }

    /// Records how summary `what` grew; returns whether it changed.
    fn note(&mut self, grew: Grew, what: Widened) -> bool {
        if grew == Grew::Widened {
            self.widened.push(what);
        }
        grew != Grew::No
    }

    /// Publishes a store of `v` to global `gi` into its whole-program
    /// value.
    fn publish_store(&mut self, gi: usize, v: AVal, kind: IntKind) {
        if let Some(next) = &mut self.next {
            next.wpv[gi] = next.wpv[gi].join(v);
            return;
        }
        let grew = grow(&mut self.wpv[gi], v, self.widen, kind);
        if self.note(grew, Widened::Global(gi)) {
            self.changed = true;
            // A wider summary can re-derive facts in any function that
            // reads this global.
            self.mark_global_deps(gi);
        }
    }

    /// Publishes one call site's argument values (both worlds) into
    /// `callee`'s entry slots.
    fn publish_call(&mut self, callee: usize, f: &Function, vals: &[AVal], vals_hard: &[AVal]) {
        let widen = self.widen && self.next.is_none();
        let (entry, entry_hard) = match &mut self.next {
            Some(next) => (&mut next.entry[callee], &mut next.entry_hard[callee]),
            None => (&mut self.entry[callee], &mut self.entry_hard[callee]),
        };
        // First call site discovered for this callee: it needs a walk
        // even if every slot join below is a no-op (a 0-param callee has
        // no slots at all), so discovery counts as a change.
        let created = entry.is_none();
        let mut grew = Grew::No;
        for (slots, vals) in [(entry, vals), (entry_hard, vals_hard)] {
            let slots = slots.get_or_insert_with(|| vec![AVal::Bot; f.params as usize]);
            for ((slot, v), l) in slots.iter_mut().zip(vals).zip(&f.locals) {
                grew = grew.max(grow(slot, *v, widen, widen_kind(&l.ty)));
            }
        }
        if self.next.is_some() {
            return;
        }
        if self.note(grew, Widened::Entry(callee)) || created {
            self.changed = true;
            self.dirty[callee] = true;
        }
    }

    /// Publishes a `return` of `v` (hardened twin `vh`) from `fi`.
    fn publish_return(&mut self, fi: usize, v: AVal, vh: AVal, kind: IntKind) {
        if let Some(next) = &mut self.next {
            next.retv[fi] = next.retv[fi].join(v);
            next.retv_hard[fi] = next.retv_hard[fi].join(vh);
            return;
        }
        let grew = grow(&mut self.retv[fi], v, self.widen, kind).max(grow(
            &mut self.retv_hard[fi],
            vh,
            self.widen,
            kind,
        ));
        if self.note(grew, Widened::Return(fi)) {
            self.changed = true;
            // A wider return summary feeds back into every call site.
            self.mark_callers(fi);
        }
    }

    /// Re-queues every function that reads global `gi` (its walk can
    /// derive different facts once `wpv[gi]` changes).
    fn mark_global_deps(&mut self, gi: usize) {
        for i in 0..self.gdeps[gi].len() {
            let f = self.gdeps[gi][i] as usize;
            self.dirty[f] = true;
        }
    }

    /// Re-queues every caller of `fi` (their call sites read its return
    /// summary).
    fn mark_callers(&mut self, fi: usize) {
        for i in 0..self.callers[fi].len() {
            let f = self.callers[fi][i] as usize;
            self.dirty[f] = true;
        }
    }

    /// Applies the analysis results: folds constants and branches, deletes
    /// proven checks. Returns what changed.
    pub fn transform(&mut self, program: &mut Program) -> EngineStats {
        let mut stats = EngineStats::default();
        // The walker reads only body-independent context (locals, globals,
        // structs, strings) from the program, so moving every body out at
        // once avoids the whole-program snapshot clone.
        let mut bodies: Vec<Block> = program
            .functions
            .iter_mut()
            .map(|f| std::mem::take(&mut f.body))
            .collect();
        for (fi, body) in bodies.iter_mut().enumerate() {
            if !self.sums.reachable[fi] || self.entry[fi].is_none() {
                continue;
            }
            self.walk_function(program, fi, body, true, &mut stats);
        }
        for (f, body) in program.functions.iter_mut().zip(bodies) {
            f.body = body;
        }
        for f in &mut program.functions {
            visit::sweep_nops(&mut f.body);
        }
        stats
    }

    fn entry_env(&self, program: &Program, fi: usize) -> Env {
        let f = &program.functions[fi];
        let mut locals: Vec<AVal> = f.locals.iter().map(|l| AVal::top_for(&l.ty)).collect();
        let mut hard_locals = locals.clone();
        if let Some(params) = &self.entry[fi] {
            for (i, v) in params.iter().enumerate() {
                if i < locals.len() {
                    locals[i] = *v;
                }
            }
        }
        if let Some(params) = &self.entry_hard[fi] {
            for (i, v) in params.iter().enumerate() {
                if i < hard_locals.len() {
                    hard_locals[i] = *v;
                }
            }
        }
        Env {
            locals,
            hard_locals,
            globals: self.tracked[fi]
                .iter()
                .map(|&g| self.wpv[g as usize])
                .collect(),
            reachable: true,
        }
    }

    fn walk_function(
        &mut self,
        program: &Program,
        fi: usize,
        body: &mut Block,
        transform: bool,
        stats: &mut EngineStats,
    ) {
        let mut env = self.entry_env(program, fi);
        for (s, &g) in self.tracked[fi].iter().enumerate() {
            self.slot[g as usize] = s as u32;
        }
        let mut w = Walker {
            eng: self,
            prog: program,
            fidx: fi,
            atomic: 0,
            transform,
            loop_breaks: Vec::new(),
        };
        w.walk_block(body, &mut env, stats);
        for &g in &self.tracked[fi] {
            self.slot[g as usize] = UNTRACKED;
        }
    }
}

trait Normed {
    fn normed(self, domain: DomainKind, kind: IntKind) -> Self;
}

impl Normed for AVal {
    /// In the constants domain, non-singleton intervals collapse to top.
    fn normed(self, domain: DomainKind, kind: IntKind) -> AVal {
        match (domain, self) {
            (DomainKind::Constants, AVal::Int(i)) => {
                if i.as_const().is_some() {
                    self
                } else {
                    AVal::Int(Ival::top(kind))
                }
            }
            _ => self,
        }
    }
}

struct Walker<'a> {
    eng: &'a mut Engine,
    prog: &'a Program,
    fidx: usize,
    atomic: u32,
    transform: bool,
    loop_breaks: Vec<Vec<Env>>,
}

impl Walker<'_> {
    fn func(&self) -> &Function {
        &self.prog.functions[self.fidx]
    }

    /// Global `g`'s slot in [`Env::globals`], if the walked function
    /// mentions it.
    fn slot(&self, g: usize) -> Option<usize> {
        let s = self.eng.slot[g];
        (s != UNTRACKED).then_some(s as usize)
    }

    /// Resets the flow value of every tracked global that `pick` selects
    /// to its whole-program value.
    fn refresh(&self, env: &mut Env, pick: impl Fn(usize) -> bool) {
        for (v, &g) in env.globals.iter_mut().zip(&self.eng.tracked[self.fidx]) {
            if pick(g as usize) {
                *v = self.eng.wpv[g as usize];
            }
        }
    }

    /// Whether loads of global `g` may use the flow-sensitive value.
    fn refinable(&self, g: usize) -> bool {
        if self.eng.sums.addr_taken[g] {
            return false;
        }
        if !self.eng.sums.async_touched[g] {
            return true;
        }
        // Async-touched globals: only inside atomic sections, and always
        // within interrupt handlers themselves (nothing preempts them).
        self.atomic > 0 || self.func().interrupt.is_some()
    }

    // ----- evaluation -----

    /// Evaluates `e` under uncorrupted program semantics.
    fn eval(&self, e: &Expr, env: &Env) -> AVal {
        self.eval_in(e, env, false)
    }

    /// Evaluates `e`; with `hard` set, under the fault model — loads of
    /// RAM-resident mutable globals return the global's full type range
    /// and locals read their hardened shadow values. With `hard` unset
    /// (or hardening disabled engine-wide) this is the ordinary
    /// evaluation.
    fn eval_in(&self, e: &Expr, env: &Env, hard: bool) -> AVal {
        let hard = hard && self.eng.harden;
        let v = match &e.kind {
            ExprKind::Const(c) => match &e.ty {
                Type::Ptr(..) if *c == 0 => AVal::Ptr(APtr::null()),
                Type::Int(_) => AVal::Int(Ival::const_(*c)),
                _ => AVal::Top,
            },
            ExprKind::Str(id) => {
                let len = self.prog.strings.get(*id).len() as i64;
                AVal::Ptr(APtr::object(Ival::const_(len + 1), Ival::const_(0)))
            }
            ExprKind::SizeOf(t) => AVal::Int(Ival::const_(size_of(t, &self.prog.structs) as i64)),
            ExprKind::Load(p) => self.eval_place(p, env, hard),
            ExprKind::AddrOf(p) => AVal::Ptr(addr_of_value(
                p,
                |pl| self.place_ty(pl),
                &self.prog.structs,
                |i| match self.eval_in(i, env, hard) {
                    AVal::Int(iv) => iv,
                    _ => Ival::any(),
                },
            )),
            ExprKind::MakeFat { val, .. } => self.eval_in(val, env, hard),
            ExprKind::Unary(op, a) => match self.eval_in(a, env, hard) {
                AVal::Int(i) => {
                    let k = a.ty.as_int().unwrap_or(IntKind::U16);
                    AVal::Int(Ival::unop(*op, i, k))
                }
                AVal::Ptr(p) if *op == UnOp::Not => match p.null {
                    Tri::Yes => AVal::Int(Ival::const_(1)),
                    Tri::No => AVal::Int(Ival::const_(0)),
                    Tri::Maybe => AVal::Int(Ival::Range(0, 1)),
                },
                _ => AVal::top_for(&e.ty),
            },
            ExprKind::Binary(op, a, b) => self.eval_binary(*op, a, b, env, &e.ty, hard),
            ExprKind::Cast(a) => match (self.eval_in(a, env, hard), e.ty.as_int()) {
                (AVal::Int(i), Some(k)) => AVal::Int(i.cast(k)),
                (v @ AVal::Ptr(_), None) if e.ty.is_ptr() => v,
                _ => AVal::top_for(&e.ty),
            },
        };
        match e.ty.as_int() {
            Some(k) => v.normed(self.eng.domain, k),
            None => v,
        }
    }

    fn eval_binary(&self, op: BinOp, a: &Expr, b: &Expr, env: &Env, ty: &Type, hard: bool) -> AVal {
        let va = self.eval_in(a, env, hard);
        let vb = self.eval_in(b, env, hard);
        match op {
            BinOp::PtrAdd | BinOp::PtrSub => {
                let elem = match &a.ty {
                    Type::Ptr(t, _) => size_of(t, &self.prog.structs) as i64,
                    _ => 1,
                };
                let (AVal::Ptr(p), AVal::Int(i)) = (va, vb) else {
                    return AVal::Ptr(APtr::top());
                };
                let mut delta = Ival::binop(BinOp::Mul, i, Ival::const_(elem), IntKind::I32);
                if op == BinOp::PtrSub {
                    delta = Ival::unop(UnOp::Neg, delta, IntKind::I32);
                }
                AVal::Ptr(p.advance(delta))
            }
            BinOp::Eq | BinOp::Ne if a.ty.is_ptr() || b.ty.is_ptr() => {
                let decided = match (va.as_ptr().map(|p| p.null), vb.as_ptr().map(|p| p.null)) {
                    (Some(Tri::Yes), Some(Tri::Yes)) => Some(true),
                    (Some(Tri::Yes), Some(Tri::No)) | (Some(Tri::No), Some(Tri::Yes)) => {
                        Some(false)
                    }
                    _ => None,
                };
                match decided {
                    Some(eq) => {
                        let t = if op == BinOp::Eq { eq } else { !eq };
                        AVal::Int(Ival::const_(t as i64))
                    }
                    None => AVal::Int(Ival::Range(0, 1)),
                }
            }
            _ => {
                let (AVal::Int(ia), AVal::Int(ib)) = (va, vb) else {
                    return AVal::top_for(ty);
                };
                let k =
                    a.ty.as_int()
                        .or_else(|| b.ty.as_int())
                        .unwrap_or(IntKind::U16);
                AVal::Int(Ival::binop(op, ia, ib, k))
            }
        }
    }

    fn eval_place(&self, p: &Place, env: &Env, hard: bool) -> AVal {
        if !p.elems.is_empty() {
            return AVal::top_for(&p.ty);
        }
        match &p.base {
            PlaceBase::Local(id) => {
                if hard {
                    env.hard_locals[id.0 as usize]
                } else {
                    env.locals[id.0 as usize]
                }
            }
            PlaceBase::Global(g) => {
                let gi = g.0 as usize;
                if hard && !self.prog.globals[gi].is_const {
                    // A RAM cell under the fault model: any value of its
                    // type (`const` globals live in ROM and are immune).
                    return AVal::top_for(&p.ty);
                }
                match self.slot(gi) {
                    Some(s) if self.refinable(gi) => env.globals[s],
                    _ => self.eng.wpv[gi],
                }
            }
            PlaceBase::Deref(_) => AVal::top_for(&p.ty),
        }
    }

    fn place_ty(&self, p: &Place) -> Type {
        let mut ty = match &p.base {
            PlaceBase::Local(id) => self.func().locals[id.0 as usize].ty.clone(),
            PlaceBase::Global(g) => self.prog.globals[g.0 as usize].ty.clone(),
            PlaceBase::Deref(e) => match &e.ty {
                Type::Ptr(t, _) => (**t).clone(),
                _ => Type::u8(),
            },
        };
        for el in &p.elems {
            match el {
                PlaceElem::Field { sid, idx } => {
                    ty = self.prog.structs[sid.0 as usize].fields[*idx as usize]
                        .ty
                        .clone();
                }
                PlaceElem::Index(_) => {
                    if let Type::Array(t, _) = ty {
                        ty = *t;
                    }
                }
            }
        }
        ty
    }

    // ----- assignment effects -----

    fn assign_place(&mut self, p: &Place, v: AVal, v_hard: AVal, env: &mut Env) {
        if !p.elems.is_empty() {
            // Field/array stores: field-insensitive; nothing tracked, but a
            // store through a pointer may hit address-taken globals (their
            // wpv is already Top).
            return;
        }
        match &p.base {
            PlaceBase::Local(id) => {
                env.locals[id.0 as usize] = v;
                env.hard_locals[id.0 as usize] = v_hard;
            }
            PlaceBase::Global(g) => {
                let gi = g.0 as usize;
                if let Some(s) = self.slot(gi) {
                    env.globals[s] = v;
                }
                // Every store contributes to the whole-program value.
                let kind = widen_kind(&self.prog.globals[gi].ty);
                self.eng.publish_store(gi, v, kind);
            }
            PlaceBase::Deref(_) => {}
        }
    }

    // ----- statements -----

    fn fold_expr_to_const(&mut self, e: &mut Expr, env: &Env, stats: &mut EngineStats) {
        if !self.transform {
            return;
        }
        if e.as_const().is_some() || !e.ty.is_int() {
            return;
        }
        // Loads of named variables are usually cheaper than wide constants;
        // still fold (the backend folds sizes anyway and DCE benefits).
        if let Some(c) = self.eval(e, env).as_const() {
            let k = e.ty.as_int().unwrap_or(IntKind::U16);
            *e = Expr::const_int(c, k);
            stats.consts_folded += 1;
        }
    }

    fn walk_block(&mut self, b: &mut Block, env: &mut Env, stats: &mut EngineStats) {
        for s in b.iter_mut() {
            if !env.reachable {
                if self.transform {
                    *s = Stmt::Nop;
                }
                continue;
            }
            self.walk_stmt(s, env, stats);
        }
    }

    fn walk_stmt(&mut self, s: &mut Stmt, env: &mut Env, stats: &mut EngineStats) {
        match s {
            Stmt::Assign(place, e) => {
                let v = self.eval(e, env);
                self.fold_expr_to_const(e, env, stats);
                // Hardened value after folding: a folded constant no
                // longer reads RAM, so it is fault-immune by construction.
                // (With hardening off the twin equals `v`; skip the
                // second evaluation.)
                let vh = if self.eng.harden {
                    self.eval_in(e, env, true)
                } else {
                    v
                };
                self.assign_place(place, v, vh, env);
            }
            Stmt::Call { dst, func, args } => {
                let callee = func.0 as usize;
                let vals: Vec<AVal> = args.iter().map(|a| self.eval(a, env)).collect();
                for a in args.iter_mut() {
                    self.fold_expr_to_const(a, env, stats);
                }
                let vals_hard: Vec<AVal> = if self.eng.harden {
                    args.iter().map(|a| self.eval_in(a, env, true)).collect()
                } else {
                    vals.clone()
                };
                // Join into the callee's entry summaries (both worlds).
                let callee_fn = &self.prog.functions[callee];
                self.eng.publish_call(callee, callee_fn, &vals, &vals_hard);
                // Havoc the tracked globals the callee writes.
                self.refresh(env, |g| self.eng.sums.writes[callee][g]);
                if let Some(d) = dst {
                    let rv = self.eng.retv[callee];
                    let rvh = self.eng.retv_hard[callee];
                    self.assign_place(d, rv, rvh, env);
                }
            }
            Stmt::BuiltinCall { dst, args, .. } => {
                for a in args.iter_mut() {
                    self.fold_expr_to_const(a, env, stats);
                }
                if let Some(d) = dst {
                    let top = AVal::top_for(&d.ty);
                    self.assign_place(d, top, top, env);
                }
            }
            Stmt::If { cond, then_, else_ } => {
                let cv = self.eval(cond, env).truth();
                if let Some(t) = cv {
                    if self.transform {
                        let taken = if t {
                            std::mem::take(then_)
                        } else {
                            std::mem::take(else_)
                        };
                        stats.branches_folded += 1;
                        *s = Stmt::Block(taken);
                        // Re-walk the surviving branch.
                        self.walk_stmt(s, env, stats);
                        return;
                    }
                    // Analysis: only the taken branch contributes.
                    let b = if t { then_ } else { else_ };
                    self.walk_block(b, env, stats);
                    return;
                }
                // The else branch walks `env` itself; joins commute.
                let mut env_t = env.clone();
                self.refine_cond(cond, true, &mut env_t);
                self.refine_cond(cond, false, env);
                self.walk_block(then_, &mut env_t, stats);
                self.walk_block(else_, env, stats);
                if env.reachable {
                    env.join_from(&env_t);
                } else {
                    *env = env_t;
                }
            }
            Stmt::While { cond, body } => {
                self.walk_while(cond, body, env, stats);
            }
            Stmt::Return(e) => {
                if let Some(e) = e {
                    let v = self.eval(e, env);
                    self.fold_expr_to_const(e, env, stats);
                    let vh = if self.eng.harden {
                        self.eval_in(e, env, true)
                    } else {
                        v
                    };
                    let kind = widen_kind(&self.func().ret);
                    self.eng.publish_return(self.fidx, v, vh, kind);
                }
                env.reachable = false;
            }
            Stmt::Break | Stmt::Continue => {
                if matches!(s, Stmt::Break) {
                    if let Some(breaks) = self.loop_breaks.last_mut() {
                        breaks.push(env.clone());
                    }
                }
                // Continue: conservatively handled by the loop fixpoint
                // (the loop head env already joins every iteration state).
                env.reachable = false;
            }
            Stmt::Atomic { body, .. } => {
                self.atomic += 1;
                // Fresh observation point for async-touched globals.
                self.refresh(env, |g| self.eng.sums.async_touched[g]);
                self.walk_block(body, env, stats);
                self.atomic -= 1;
                self.refresh(env, |g| self.eng.sums.async_touched[g]);
            }
            Stmt::Block(b) => self.walk_block(b, env, stats),
            Stmt::Check(c) => {
                // Removal demands the proof in both worlds: the ordinary
                // one *and* the fault-hardened one, where every mutable
                // RAM global holds an arbitrary value of its type. A
                // check provable only from uncorrupted-run invariants is
                // exactly the fault coverage the cured build exists for.
                let passes = self.check_passes(c, env, false);
                if passes && (!self.eng.harden || self.check_passes(c, env, true)) {
                    if self.transform {
                        stats.checks_removed += 1;
                        *s = Stmt::Nop;
                    }
                } else {
                    // Execution continues only if the check passed:
                    // refine (the hardened shadow too — the running code
                    // really did pass this check).
                    self.refine_check(c, env);
                }
            }
            Stmt::Nop => {}
        }
    }

    fn walk_while(
        &mut self,
        cond: &mut Expr,
        body: &mut Block,
        env: &mut Env,
        stats: &mut EngineStats,
    ) {
        // Fixpoint over the loop head, with analysis semantics even in
        // transform mode: with transforms disabled a walk never mutates
        // the body, so the fixpoint walks it in place.
        let transform = std::mem::replace(&mut self.transform, false);
        let mut head = env.clone();
        for round in 0..4 {
            let mut iter_env = head.clone();
            self.refine_cond(cond, true, &mut iter_env);
            self.loop_breaks.push(Vec::new());
            self.walk_block(body, &mut iter_env, &mut EngineStats::default());
            self.loop_breaks.pop();
            // Widen from the second round on to guarantee termination.
            if !iter_env.reachable || !self.join_head(&mut head, &iter_env, round >= 1) {
                break;
            }
        }
        self.transform = transform;
        // Decided loop condition?
        let entry_truth = self.eval(cond, &head).truth();
        if self.transform
            && entry_truth == Some(false)
            && self.eval(cond, env).truth() == Some(false)
        {
            // Loop never runs at all.
            stats.branches_folded += 1;
            self.refine_cond(cond, false, env);
            cond.kind = ExprKind::Const(0);
            body.clear();
            return;
        }
        // Final pass over the body with the stable invariant (transforming
        // if enabled).
        let mut body_env = head.clone();
        self.refine_cond(cond, true, &mut body_env);
        self.loop_breaks.push(Vec::new());
        self.walk_block(body, &mut body_env, stats);
        let breaks = self.loop_breaks.pop().unwrap_or_default();
        // Exit env: head refined by !cond, joined with break states.
        let mut exit = head;
        self.refine_cond(cond, false, &mut exit);
        let cond_can_be_false = self.eval(cond, &exit).truth() != Some(true);
        if !cond_can_be_false && breaks.is_empty() {
            // while(1) with no breaks: nothing after the loop runs.
            exit.reachable = false;
        }
        for b in &breaks {
            exit.join_from(b);
        }
        *env = exit;
    }

    /// Joins `next` into the reachable loop head `head` in place, with
    /// `widen` widening every cell that grows at its declared kind.
    /// Returns whether the head changed.
    fn join_head(&self, head: &mut Env, next: &Env, widen: bool) -> bool {
        let locals = self.func().locals.iter().map(|l| &l.ty);
        let globals = self.eng.tracked[self.fidx]
            .iter()
            .map(|&g| &self.prog.globals[g as usize].ty);
        let types = locals.clone().chain(locals).chain(globals);
        let cells = head
            .locals
            .iter_mut()
            .chain(&mut head.hard_locals)
            .chain(&mut head.globals);
        let nexts = next
            .locals
            .iter()
            .chain(&next.hard_locals)
            .chain(&next.globals);
        let mut changed = false;
        for ((cell, &v), ty) in cells.zip(nexts).zip(types) {
            changed |= grow(cell, v, widen, widen_kind(ty)) != Grew::No;
        }
        changed
    }

    // ----- refinement -----

    fn refine_cond(&self, cond: &Expr, taken: bool, env: &mut Env) {
        match &cond.kind {
            ExprKind::Unary(UnOp::Not, inner) => self.refine_cond(inner, !taken, env),
            ExprKind::Binary(op @ (BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le), a, b) => {
                // Pointer null tests.
                if a.ty.is_ptr() || b.ty.is_ptr() {
                    let (ptr_e, other) = if a.ty.is_ptr() { (a, b) } else { (b, a) };
                    if self.eval(other, env).as_const() == Some(0)
                        || matches!(self.eval(other, env), AVal::Ptr(p) if p.null == Tri::Yes)
                    {
                        let nonnull = match (op, taken) {
                            (BinOp::Ne, true) | (BinOp::Eq, false) => Some(true),
                            (BinOp::Eq, true) | (BinOp::Ne, false) => Some(false),
                            _ => None,
                        };
                        if let Some(nn) = nonnull {
                            self.refine_ptr_null(ptr_e, nn, env);
                        }
                    }
                    return;
                }
                // Integer refinement on direct loads. The hardened
                // shadow refines too — the branch really executed on the
                // loaded value — but against the *hardened* bound: a
                // bound read from a corruptible global constrains
                // nothing in the fault world.
                let vb = match self.eval(b, env) {
                    AVal::Int(i) => i,
                    _ => return,
                };
                if let Some((target, AVal::Int(ia))) = self.refinable_load(a, env) {
                    let refined = ia.refine(*op, vb, taken);
                    self.set_refined(target, AVal::Int(refined), env);
                    if let (Some(AVal::Int(ha)), AVal::Int(hb)) =
                        (self.hard_of(target, env), self.eval_in(b, env, true))
                    {
                        self.set_refined_hard(target, AVal::Int(ha.refine(*op, hb, taken)), env);
                    }
                }
                // Symmetric case: const op load — flip the comparison.
                let va = match self.eval(a, env) {
                    AVal::Int(i) => i,
                    _ => return,
                };
                if let Some((target, AVal::Int(ib))) = self.refinable_load(b, env) {
                    let flipped = match op {
                        BinOp::Lt => BinOp::Le, // a < b  ≡  b >= a+1... approximate with >=
                        BinOp::Le => BinOp::Lt,
                        o => *o,
                    };
                    // a OP b refines b via the flipped relation with
                    // inverted taken-ness for orderings.
                    let refine_with = |ib: Ival, va: Ival| match op {
                        BinOp::Eq | BinOp::Ne => ib.refine(*op, va, taken),
                        _ => ib.refine(flipped, va, !taken),
                    };
                    self.set_refined(target, AVal::Int(refine_with(ib, va)), env);
                    if let (Some(AVal::Int(hb)), AVal::Int(ha)) =
                        (self.hard_of(target, env), self.eval_in(a, env, true))
                    {
                        self.set_refined_hard(target, AVal::Int(refine_with(hb, ha)), env);
                    }
                }
            }
            ExprKind::Load(_) => {
                if let Some((target, cur)) = self.refinable_load(cond, env) {
                    match cur {
                        AVal::Int(i) => {
                            let refined = if taken {
                                i // non-zero: can't express holes; keep
                            } else {
                                i.meet(Ival::const_(0))
                            };
                            self.set_refined(target, AVal::Int(refined), env);
                            if !taken {
                                if let Some(AVal::Int(h)) = self.hard_of(target, env) {
                                    self.set_refined_hard(
                                        target,
                                        AVal::Int(h.meet(Ival::const_(0))),
                                        env,
                                    );
                                }
                            }
                        }
                        AVal::Ptr(_) => self.refine_ptr_null(cond, taken, env),
                        _ => {}
                    }
                }
            }
            _ => {}
        }
    }

    /// A load of a refinable location: returns the target and its current
    /// value.
    fn refinable_load(&self, e: &Expr, env: &Env) -> Option<(RefTarget, AVal)> {
        let inner = match &e.kind {
            ExprKind::Cast(a) => a,
            _ => e,
        };
        let ExprKind::Load(p) = &inner.kind else {
            return None;
        };
        if !p.elems.is_empty() {
            return None;
        }
        match &p.base {
            PlaceBase::Local(id) => {
                Some((RefTarget::Local(id.0 as usize), env.locals[id.0 as usize]))
            }
            PlaceBase::Global(g) => {
                let gi = g.0 as usize;
                match self.slot(gi) {
                    Some(s) if self.refinable(gi) => Some((RefTarget::Global(s), env.globals[s])),
                    _ => None,
                }
            }
            PlaceBase::Deref(_) => None,
        }
    }

    fn set_refined(&self, target: RefTarget, v: AVal, env: &mut Env) {
        match target {
            RefTarget::Local(i) => env.locals[i] = v,
            RefTarget::Global(i) => env.globals[i] = v,
        }
    }

    /// The fault-hardened shadow of a refinement target, if it has one
    /// (locals only — globals are unconditionally top in the fault
    /// world, so refining them there would be unsound).
    fn hard_of(&self, target: RefTarget, env: &Env) -> Option<AVal> {
        match target {
            RefTarget::Local(i) => Some(env.hard_locals[i]),
            RefTarget::Global(_) => None,
        }
    }

    fn set_refined_hard(&self, target: RefTarget, v: AVal, env: &mut Env) {
        if let RefTarget::Local(i) = target {
            env.hard_locals[i] = v;
        }
    }

    fn refine_ptr_null(&self, e: &Expr, nonnull: bool, env: &mut Env) {
        if let Some((target, AVal::Ptr(mut p))) = self.refinable_load(e, env) {
            p.null = if nonnull { Tri::No } else { Tri::Yes };
            self.set_refined(target, AVal::Ptr(p), env);
            if let Some(AVal::Ptr(mut h)) = self.hard_of(target, env) {
                h.null = if nonnull { Tri::No } else { Tri::Yes };
                self.set_refined_hard(target, AVal::Ptr(h), env);
            }
        }
    }

    // ----- checks -----

    /// Whether `c` provably passes; with `hard`, under the fault model
    /// (see [`Walker::eval_in`]).
    fn check_passes(&self, c: &Check, env: &Env, hard: bool) -> bool {
        match &c.kind {
            CheckKind::NonNull(e) => {
                matches!(self.eval_in(e, env, hard), AVal::Ptr(p) if p.null == Tri::No)
            }
            CheckKind::Upper { ptr, len } => match self.eval_in(ptr, env, hard) {
                AVal::Ptr(p) => {
                    p.null == Tri::No
                        && matches!(p.room.bounds(), Some((lo, _)) if lo >= *len as i64)
                }
                _ => false,
            },
            CheckKind::Bounds { ptr, len } => match self.eval_in(ptr, env, hard) {
                AVal::Ptr(p) => {
                    p.null == Tri::No
                        && matches!(p.room.bounds(), Some((lo, _)) if lo >= *len as i64)
                        && matches!(p.back.bounds(), Some((lo, _)) if lo >= 0)
                }
                _ => false,
            },
            CheckKind::IndexBound { idx, n } => match self.eval_in(idx, env, hard) {
                AVal::Int(i) => {
                    matches!(i.bounds(), Some((lo, hi)) if lo >= 0 && hi < *n as i64)
                }
                _ => false,
            },
        }
    }

    /// After a passing check, execution is conditioned on its truth —
    /// in both worlds: whatever may have been corrupted beforehand, the
    /// value the surviving check just tested satisfied it.
    fn refine_check(&self, c: &Check, env: &mut Env) {
        let (ptr_expr, need_room, need_back) = match &c.kind {
            CheckKind::NonNull(e) => (e, None, false),
            CheckKind::Upper { ptr, len } => (ptr, Some(*len), false),
            CheckKind::Bounds { ptr, len } => (ptr, Some(*len), true),
            CheckKind::IndexBound { idx, n } => {
                if let Some((target, AVal::Int(i))) = self.refinable_load(idx, env) {
                    let range = Ival::Range(0, *n as i64 - 1);
                    self.set_refined(target, AVal::Int(i.meet(range)), env);
                    if let Some(AVal::Int(h)) = self.hard_of(target, env) {
                        self.set_refined_hard(target, AVal::Int(h.meet(range)), env);
                    }
                }
                return;
            }
        };
        if let Some((target, AVal::Ptr(mut p))) = self.refinable_load(ptr_expr, env) {
            let strengthen = |p: &mut APtr| {
                p.null = Tri::No;
                if let Some(len) = need_room {
                    p.room = p.room.meet(Ival::Range(len as i64, i64::MAX / 4));
                }
                if need_back {
                    p.back = p.back.meet(Ival::Range(0, i64::MAX / 4));
                }
            };
            strengthen(&mut p);
            self.set_refined(target, AVal::Ptr(p), env);
            if let Some(AVal::Ptr(mut h)) = self.hard_of(target, env) {
                strengthen(&mut h);
                self.set_refined_hard(target, AVal::Ptr(h), env);
            }
        }
    }
}

#[derive(Clone, Copy)]
enum RefTarget {
    Local(usize),
    /// A slot of [`Env::globals`].
    Global(usize),
}

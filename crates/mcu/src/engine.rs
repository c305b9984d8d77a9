//! Execution-engine selection and the block translation engine.
//!
//! The machine has two engines producing **byte-identical** observables
//! (`cycles`, `awake_cycles`, `instr_count`, RAM, UART/radio traces,
//! faults, torn-watch counters):
//!
//! * [`Engine::Interp`] — the faithful per-instruction interpreter
//!   (`deliver events → maybe dispatch IRQ → step`, one instruction at a
//!   time);
//! * [`Engine::Bt`] — the block translation engine: executes predecoded
//!   basic blocks (see [`crate::bbcache`]) in a chained fast loop, and
//!   re-enters the faithful path at every observable boundary.
//!
//! # Why the fast loop is safe
//!
//! The interpreter's per-instruction prologue (deliver due events, maybe
//! dispatch an interrupt) is provably a no-op for every instruction of a
//! block the engine enters, because entry requires:
//!
//! * `cycles + block.cost < min(until, next event time)` — so no device
//!   event becomes due anywhere inside the block (events are only
//!   scheduled by MMIO writes, which abort the fast loop via
//!   `mmio_sync`, re-deriving the horizon);
//! * no pending enabled interrupt — and nothing inside a block can open
//!   an interrupt window: every instruction that can *enable* interrupts
//!   (`IrqEnable`, `IrqRestore`, `Ret`/`Reti`) terminates its block;
//! * evaluation-stack depth ≥ `block.stack_in` — so no mid-block
//!   underflow fault can occur.
//!
//! Anything the fast loop cannot prove safe (mid-block entry pcs after a
//! resync, blocks crossing the horizon, shallow stacks, `pc` past the
//! end of a function) falls back to the interpreter's own
//! [`Machine::step`], one instruction at a time, until a block boundary
//! is reached again. Torn-update watchpoints (armed via
//! [`Machine::arm_torn_watch`]) force every 16-bit and fat-pointer
//! access through the interpreter's counting `load_mem`/`store_mem`
//! path, so watch counters advance identically under both engines.
//!
//! # One definition of the semantics
//!
//! Admitted blocks run in one of two loops: the *pure* loop (no op can
//! fault or reach a device, no torn watch armed, frame window proven
//! writable) accounts a whole block at once; the *checked* loop
//! accounts op by op and flushes its counters before anything
//! observable. Both call one op body, `Machine::exec_op`, instantiated
//! with `TORN = false` and `TORN = true`; the checked loop has its own
//! arms only for frame and dynamic accesses, `Slow`, `Call` and `Term`.
//! The ALU, `pop`, the unary and fat-pointer helpers, raw RAM access
//! and the memory map (`MemMap`) live in [`crate::machine`] and serve
//! the interpreter too. What this module adds over the interpreter is
//! batching, the fused ops' dispatch and the horizon logic.

use std::cmp::Reverse;
use std::sync::Arc;
use std::sync::OnceLock;

use crate::bbcache::{BlockCache, OpKind};
use crate::isa::{fat_bytes, fat_pack, fat_unpack, Width};
use crate::machine::{alu_nodiv, Machine, RunState};

/// Which execution engine [`Machine::run`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The faithful per-instruction interpreter (the default).
    Interp,
    /// The basic-block translation engine (`STOS_ENGINE=bt`).
    Bt,
}

/// Process-global engine override: `u8::MAX` = unset (use the
/// environment), otherwise an [`Engine`] discriminant. Lets in-process
/// cross-engine tests and harnesses flip the default engine without
/// re-execing, which `STOS_ENGINE`'s once-per-process read cannot.
static OVERRIDE: std::sync::atomic::AtomicU8 = std::sync::atomic::AtomicU8::new(u8::MAX);

impl Engine {
    /// The engine selected by [`Engine::set_global_override`] if one is
    /// set, else by the `STOS_ENGINE` environment variable
    /// (`interp` | `bt`), read once per process. An absent or empty
    /// value selects the interpreter.
    ///
    /// # Panics
    ///
    /// Panics, naming the accepted spellings, on any other value: a
    /// typo must not silently measure the wrong engine.
    pub fn from_env() -> Engine {
        match OVERRIDE.load(std::sync::atomic::Ordering::Relaxed) {
            0 => return Engine::Interp,
            1 => return Engine::Bt,
            _ => {}
        }
        static ENGINE: OnceLock<Engine> = OnceLock::new();
        *ENGINE.get_or_init(|| match std::env::var_os("STOS_ENGINE") {
            Some(v) if !v.is_empty() => {
                Engine::parse(&v.to_string_lossy()).unwrap_or_else(|e| panic!("STOS_ENGINE: {e}"))
            }
            _ => Engine::Interp,
        })
    }

    /// Parses a knob spelling: `interp` or `bt`, exactly.
    ///
    /// # Errors
    ///
    /// Names the value and the accepted spellings on anything else.
    pub fn parse(s: &str) -> Result<Engine, String> {
        [Engine::Interp, Engine::Bt]
            .into_iter()
            .find(|e| e.name() == s)
            .ok_or_else(|| format!("unknown engine `{s}` (expected `interp` or `bt`)"))
    }

    /// Sets (or, with `None`, clears) the process-global engine
    /// override consulted by [`Engine::from_env`]. Intended for tests
    /// that compare whole campaign runs across engines in one process.
    pub fn set_global_override(engine: Option<Engine>) {
        let v = match engine {
            None => u8::MAX,
            Some(Engine::Interp) => 0,
            Some(Engine::Bt) => 1,
        };
        OVERRIDE.store(v, std::sync::atomic::Ordering::Relaxed);
    }

    /// The knob spelling of this engine (`"interp"` / `"bt"`).
    pub fn name(self) -> &'static str {
        match self {
            Engine::Interp => "interp",
            Engine::Bt => "bt",
        }
    }
}

impl Machine {
    /// The block-translation run loop: identical outer structure to the
    /// interpreter loop, with a chained block executor where the
    /// interpreter single-steps.
    pub(crate) fn run_bt(&mut self, until: u64) -> RunState {
        let cache = match &self.bbcache {
            Some(c) => Arc::clone(c),
            None => {
                let c = Arc::new(BlockCache::build(&self.img));
                self.bbcache = Some(Arc::clone(&c));
                c
            }
        };
        while self.cycles < until {
            match self.state {
                RunState::Running => {
                    self.deliver_due_events();
                    if self.maybe_dispatch_irq() {
                        continue;
                    }
                    if !self.run_blocks(&cache, until) {
                        // No block was provably safe (mid-block pc,
                        // horizon too close, shallow stack, pc past
                        // end): take one faithful step.
                        self.step();
                    }
                }
                RunState::Sleeping => self.sleep_pump(until),
                RunState::Halted | RunState::Faulted => break,
            }
        }
        self.state
    }

    /// Executes whole basic blocks back-to-back while each next block
    /// provably contains no observable boundary. Returns whether at
    /// least one block ran.
    ///
    /// The counters (`cycles`, `awake_cycles`, `instr_count`, `pc`,
    /// `cur_func`) accumulate in locals that survive *across* chained
    /// blocks — branch terminators never touch the machine — and flush
    /// only around ops that can observe them or exit the fast path
    /// (fault, MMIO, call/return, interpreter fallback). Every flush
    /// happens *before* the op body runs, so fault sites and device
    /// accesses always see exact interpreter-identical counters.
    fn run_blocks(&mut self, cache: &BlockCache, until: u64) -> bool {
        let mut horizon = self.next_horizon(until);
        let mut progressed = false;
        let mut cycles = self.cycles;
        let mut awake = self.awake_cycles;
        let mut instrs = self.instr_count;
        let mut pc = self.pc;
        let mut cur_func = self.cur_func;
        // Locals -> machine (before any op that can fault, reach a
        // device, or leave the fast path).
        macro_rules! sync_out {
            () => {
                self.cycles = cycles;
                self.awake_cycles = awake;
                self.instr_count = instrs;
                self.pc = pc;
            };
        }
        // Machine -> locals (after an op that legitimately moved
        // control: call, return, interpreter-executed terminator).
        macro_rules! sync_in {
            () => {
                cycles = self.cycles;
                awake = self.awake_cycles;
                instrs = self.instr_count;
                pc = self.pc;
                cur_func = self.cur_func;
            };
        }
        // After the interpreter ran an op of the checked loop: stop on
        // a fault, halt or sleep; after a device write, re-derive the
        // horizon and leave the block, so the chain re-enters at `pc`
        // (the faithful single-step takes a mid-block pc).
        macro_rules! settle {
            () => {
                if self.state != RunState::Running {
                    return progressed;
                }
                if self.mmio_sync {
                    self.mmio_sync = false;
                    horizon = self.next_horizon(until);
                    break;
                }
            };
        }
        // A frame or dynamic access: direct when the memory map proves
        // the range plain RAM and no torn watch counts it, else through
        // the interpreter's memory path with the counters flushed.
        macro_rules! load {
            ($addr:expr, $width:expr, $signed:expr) => {{
                let (addr, width, signed) = ($addr, $width, $signed);
                if self.map.readable(addr, width.bytes()) && !self.torn_guard(width) {
                    let v = self.ram_read(addr, width, signed);
                    self.eval.push(v);
                } else {
                    sync_out!();
                    if let Some(v) = self.load_mem(addr, width, signed) {
                        self.eval.push(v);
                    }
                    if self.state != RunState::Running {
                        return progressed;
                    }
                }
            }};
        }
        macro_rules! store {
            ($addr:expr, $v:expr, $width:expr) => {{
                let (addr, v, width) = ($addr, $v, $width);
                if self.map.writable(addr, width.bytes()) && !self.torn_guard(width) {
                    self.ram_write(addr, v, width);
                } else {
                    sync_out!();
                    self.store_mem(addr, v, width);
                    settle!();
                }
            }};
        }
        macro_rules! fat_load {
            ($addr:expr, $seq:expr) => {{
                let (addr, seq) = ($addr, $seq);
                if self.torn_watch.is_none() && self.map.readable(addr, fat_bytes(seq) as u32) {
                    self.fat_read_direct(addr, seq);
                } else {
                    sync_out!();
                    self.fat_load(addr, seq);
                    if self.state != RunState::Running {
                        return progressed;
                    }
                }
            }};
        }
        macro_rules! fat_store {
            ($addr:expr, $cell:expr, $seq:expr) => {{
                let (addr, cell, seq) = ($addr, $cell, $seq);
                if self.torn_watch.is_none() && self.map.writable(addr, fat_bytes(seq) as u32) {
                    self.fat_write_direct(addr, cell, seq);
                } else {
                    sync_out!();
                    self.fat_store(addr, cell, seq);
                    settle!();
                }
            }};
        }
        'chain: loop {
            // An enabled pending interrupt must be dispatched by the
            // faithful outer loop before the next instruction.
            if self.pending != 0 && self.irq_enabled {
                break;
            }
            let Some(block) = cache.lookup(cur_func, pc) else {
                break;
            };
            if cycles + block.cost >= horizon || (self.eval.len() as u32) < block.stack_in {
                break;
            }
            progressed = true;
            // Pure blocks (statically infallible, device-free, no torn
            // watchpoint armed, frame window proven writable) take the
            // lean path: whole-block counter accounting and a dispatch
            // loop with no per-op flush/exit machinery — nothing inside
            // can fault, reach a device, or observe the counters.
            if block.pure
                && self.torn_watch.is_none()
                && (block.local_span == 0 || self.map.writable(self.fp, block.local_span))
            {
                'pure: loop {
                    cycles += block.cost;
                    awake += block.cost;
                    instrs += block.n_instrs as u64;
                    let mut next = pc + block.n_instrs;
                    for op in block.ops.iter() {
                        self.exec_op::<false>(&op.kind, &mut next);
                    }
                    // Self-loop — the dominant tight-loop shape: the
                    // terminator re-enters this very block, so skip the
                    // lookup/pureness pointer chase and re-run the
                    // already-resolved ops, re-checking only what can
                    // have changed (IRQ window, horizon, stack depth;
                    // `fp`, the torn watch, and the block itself
                    // cannot change inside a pure block).
                    if next == pc
                        && !(self.pending != 0 && self.irq_enabled)
                        && cycles + block.cost < horizon
                        && (self.eval.len() as u32) >= block.stack_in
                    {
                        continue 'pure;
                    }
                    pc = next;
                    continue 'chain;
                }
            }
            for op in block.ops.iter() {
                cycles += op.cost as u64;
                awake += op.cost as u64;
                instrs += op.n as u64;
                pc += op.n as u32;
                // Only ops that can fault, reach a device or leave the
                // fast path have arms here; every other op runs the one
                // shared body. A terminator is the block's last op, so
                // falling out of this loop re-enters the chain at `pc`.
                match op.kind {
                    OpKind::LdL { off, width, signed } => {
                        load!(self.fp.wrapping_add(off), width, signed)
                    }
                    OpKind::StL { off, width } => {
                        let v = self.pop();
                        store!(self.fp.wrapping_add(off), v, width)
                    }
                    OpKind::LdDyn { width, signed } => load!(self.pop() as u16, width, signed),
                    OpKind::StDyn { width } => {
                        let addr = self.pop() as u16;
                        store!(addr, self.pop(), width)
                    }
                    OpKind::LdLF { off, seq } => fat_load!(self.fp.wrapping_add(off), seq),
                    OpKind::StLF { off, seq } => {
                        let cell = self.pop();
                        fat_store!(self.fp.wrapping_add(off), cell, seq)
                    }
                    OpKind::LdFDyn { seq } => fat_load!(self.pop() as u16, seq),
                    OpKind::StFDyn { seq } => {
                        let addr = self.pop() as u16;
                        fat_store!(addr, self.pop(), seq)
                    }
                    OpKind::Slow(ins) => {
                        sync_out!();
                        self.exec(&ins);
                        settle!();
                    }
                    OpKind::Call(func) => {
                        sync_out!();
                        self.do_call(func, false);
                        if self.state != RunState::Running {
                            return progressed;
                        }
                        sync_in!();
                    }
                    OpKind::Term(ins) => {
                        sync_out!();
                        self.exec(&ins);
                        if self.state != RunState::Running {
                            return progressed;
                        }
                        if self.mmio_sync {
                            self.mmio_sync = false;
                            horizon = self.next_horizon(until);
                        }
                        sync_in!();
                    }
                    _ => self.exec_op::<true>(&op.kind, &mut pc),
                }
            }
            // Fallthrough into the next leader: `pc` already advanced.
        }
        sync_out!();
        progressed
    }

    /// The one body of every op that can neither fault, reach a device
    /// nor leave the fast path, shared by both block loops. A taken
    /// branch sets `next` to its target.
    ///
    /// `TORN = false` is the pure loop's instantiation: no torn watch is
    /// armed and the frame window is proven writable, so every access
    /// is a direct RAM access. `TORN = true` is the checked loop's: a
    /// 16-bit or fat-pointer global access takes the interpreter's
    /// counting path while a torn watch is armed. The checked loop
    /// keeps its own arms for frame accesses, so the frame arms here
    /// serve the pure loop only. Takes the op by reference: a by-value
    /// `OpKind` copy per dispatch costs the kernels about a fifth of
    /// their speed.
    #[inline(always)]
    fn exec_op<const TORN: bool>(&mut self, kind: &OpKind, next: &mut u32) {
        match *kind {
            OpKind::PushI(v) => self.eval.push(v),
            OpKind::LdG {
                addr,
                width,
                signed,
            } => {
                let v = self.g_load::<TORN>(addr, width, signed);
                self.eval.push(v);
            }
            OpKind::StG { addr, width } => {
                let v = self.pop();
                self.g_store::<TORN>(addr, v, width);
            }
            OpKind::LdL { off, width, signed } => {
                let v = self.ram_read(self.fp.wrapping_add(off), width, signed);
                self.eval.push(v);
            }
            OpKind::StL { off, width } => {
                let v = self.pop();
                self.ram_write(self.fp.wrapping_add(off), v, width);
            }
            OpKind::AddrL { off } => self.eval.push(self.fp.wrapping_add(off) as i64),
            OpKind::Bin { op, width, signed } => {
                let b = self.pop();
                let a = self.pop();
                self.eval.push(alu_nodiv(op, a, b, width, signed));
            }
            OpKind::Un { op, width } => self.un(op, width),
            OpKind::Wrap { width, signed } => {
                let a = self.pop();
                self.eval.push(width.wrap(a, signed));
            }
            OpKind::Pop => {
                self.pop();
            }
            OpKind::Dup => {
                let v = self.pop();
                self.eval.push(v);
                self.eval.push(v);
            }
            OpKind::Nop => {}
            OpKind::IrqSave => {
                self.eval.push(self.irq_enabled as i64);
                self.irq_enabled = false;
            }
            OpKind::IrqDisable => self.irq_enabled = false,
            OpKind::MkFat { seq } => self.mk_fat(seq),
            OpKind::FatVal => self.fat_part(|(v, _, _)| v),
            OpKind::FatEnd => self.fat_part(|(_, _, e)| e),
            OpKind::FatBase => self.fat_part(|(_, b, _)| b),
            OpKind::FatAdd => self.fat_add(),
            OpKind::LdGF { addr, seq } => {
                if TORN && self.torn_watch.is_some() {
                    self.fat_load(addr, seq);
                } else {
                    self.fat_read_direct(addr, seq);
                }
            }
            OpKind::StGF { addr, seq } => {
                let cell = self.pop();
                if TORN && self.torn_watch.is_some() {
                    self.fat_store(addr, cell, seq);
                } else {
                    self.fat_write_direct(addr, cell, seq);
                }
            }
            OpKind::LdLF { off, seq } => self.fat_read_direct(self.fp.wrapping_add(off), seq),
            OpKind::StLF { off, seq } => {
                let cell = self.pop();
                self.fat_write_direct(self.fp.wrapping_add(off), cell, seq);
            }
            OpKind::StGK { addr, width, k } => self.g_store::<TORN>(addr, k, width),
            OpKind::BinK {
                op,
                width,
                signed,
                k,
            } => {
                let a = self.pop();
                self.eval.push(alu_nodiv(op, a, k, width, signed));
            }
            OpKind::RmwGK {
                ld_addr,
                ld_width,
                ld_signed,
                k,
                op,
                width,
                signed,
                st_addr,
                st_width,
            } => {
                let a = self.g_load::<TORN>(ld_addr, ld_width, ld_signed);
                let v = alu_nodiv(op, a, k, width, signed);
                self.g_store::<TORN>(st_addr, v, st_width);
            }
            OpKind::CpGG {
                ld_addr,
                ld_width,
                ld_signed,
                st_addr,
                st_width,
            } => {
                let v = self.g_load::<TORN>(ld_addr, ld_width, ld_signed);
                self.g_store::<TORN>(st_addr, v, st_width);
            }
            OpKind::Jmp(target) => *next = target,
            OpKind::Jz(target) => {
                if self.pop() == 0 {
                    *next = target;
                }
            }
            OpKind::Jnz(target) => {
                if self.pop() != 0 {
                    *next = target;
                }
            }
            OpKind::CmpGKBr {
                addr,
                ld_width,
                ld_signed,
                k,
                op,
                width,
                signed,
                br_if_zero,
                target,
            } => {
                let a = self.g_load::<TORN>(addr, ld_width, ld_signed);
                if (alu_nodiv(op, a, k, width, signed) == 0) == br_if_zero {
                    *next = target;
                }
            }
            OpKind::CmpTopKBr {
                k,
                op,
                width,
                signed,
                br_if_zero,
                target,
            } => {
                // `Dup; PushI; Bin; Jz/Jnz` keeps the original top of
                // stack (the copy got consumed); entry depth >=
                // stack_in guarantees it exists.
                let a = *self.eval.last().expect("stack_in covers CmpTopKBr");
                if (alu_nodiv(op, a, k, width, signed) == 0) == br_if_zero {
                    *next = target;
                }
            }
            OpKind::RmwGKBr { rmw, cmp, reload } => {
                let a = self.g_load::<TORN>(rmw.ld_addr, rmw.ld_width, rmw.ld_signed);
                let v = alu_nodiv(rmw.op, a, rmw.k, rmw.width, rmw.signed);
                self.g_store::<TORN>(rmw.st_addr, v, rmw.st_width);
                // When the compare reloads exactly the bytes the store
                // just wrote, a direct reload re-materialises `v`:
                // direct reads count nothing, so only the checked
                // instantiation (whose reload a torn watch may count)
                // performs it.
                let b = if TORN || reload {
                    self.g_load::<TORN>(cmp.addr, cmp.ld_width, cmp.ld_signed)
                } else {
                    cmp.ld_width.wrap(v, cmp.ld_signed)
                };
                if (alu_nodiv(cmp.op, b, cmp.k, cmp.width, cmp.signed) == 0) == cmp.br_if_zero {
                    *next = cmp.target;
                }
            }
            OpKind::LdDyn { .. }
            | OpKind::StDyn { .. }
            | OpKind::LdFDyn { .. }
            | OpKind::StFDyn { .. }
            | OpKind::Slow(_)
            | OpKind::Call(_)
            | OpKind::Term(_) => unreachable!("the checked loop runs this op itself"),
        }
    }

    /// `min(until, next scheduled event time)`: the fast loop must stop
    /// strictly before this so event delivery stays per-instruction
    /// faithful.
    fn next_horizon(&self, until: u64) -> u64 {
        match self.events.peek() {
            Some(Reverse((t, _))) => (*t).min(until),
            None => until,
        }
    }

    /// Whether a `width` access must detour through the counting
    /// `load_mem`/`store_mem` path because a torn watchpoint is armed
    /// (the watch counts every IRQ-enabled 16-bit access).
    #[inline(always)]
    fn torn_guard(&self, width: Width) -> bool {
        width == Width::W16 && self.torn_watch.is_some()
    }

    /// Statically mapped global load: direct unless the checked
    /// instantiation (`TORN`) finds a torn watchpoint armed for a 16-bit
    /// access.
    #[inline(always)]
    fn g_load<const TORN: bool>(&mut self, addr: u16, width: Width, signed: bool) -> i64 {
        if TORN && self.torn_guard(width) {
            self.load_mem(addr, width, signed)
                .expect("decode proved the global mapped")
        } else {
            self.ram_read(addr, width, signed)
        }
    }

    /// Statically mapped SRAM store (see [`Machine::g_load`]).
    #[inline(always)]
    fn g_store<const TORN: bool>(&mut self, addr: u16, v: i64, width: Width) {
        if TORN && self.torn_guard(width) {
            self.store_mem(addr, v, width);
        } else {
            self.ram_write(addr, v, width);
        }
    }

    /// Direct fat-pointer read (range proved mapped, no torn watch):
    /// mirrors `fat_load` without per-word map checks.
    #[inline(always)]
    fn fat_read_direct(&mut self, addr: u16, seq: bool) {
        let val = self.ram_read(addr, Width::W16, false) as u16;
        let end = self.ram_read(addr.wrapping_add(2), Width::W16, false) as u16;
        let base = if seq {
            self.ram_read(addr.wrapping_add(4), Width::W16, false) as u16
        } else {
            0
        };
        self.eval.push(fat_pack(val, base, end));
    }

    /// Direct fat-pointer write (see [`Machine::fat_read_direct`]).
    #[inline(always)]
    fn fat_write_direct(&mut self, addr: u16, cell: i64, seq: bool) {
        let (v, b, e) = fat_unpack(cell);
        self.ram_write(addr, v as i64, Width::W16);
        self.ram_write(addr.wrapping_add(2), e as i64, Width::W16);
        if seq {
            self.ram_write(addr.wrapping_add(4), b as i64, Width::W16);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::{TIMER0_COMPARE, TIMER0_CTRL, UART_DATA};
    use crate::image::{CodeFunction, Image, Profile};
    use crate::isa::{AluOp, Instr, UnAluOp};
    use crate::machine::{Fault, MemMap};

    fn image_with(code: Vec<Instr>) -> Image {
        let mut img = Image::new(Profile::mica2());
        let mut f = CodeFunction::new("main");
        f.code = code;
        f.frame_size = 16;
        let e = img.add_function(f);
        img.entry = Some(e);
        img
    }

    /// Every observable the repo's harnesses read.
    #[allow(clippy::type_complexity)]
    fn observe(
        m: &Machine,
    ) -> (
        u64,
        u64,
        u64,
        RunState,
        Option<String>,
        Vec<u8>,
        Vec<(u64, u8)>,
        u64,
        Vec<u8>,
    ) {
        (
            m.cycles,
            m.awake_cycles,
            m.instr_count,
            m.state,
            m.fault_message(),
            m.uart_out.clone(),
            m.radio_out.clone(),
            m.devices.leds.transitions,
            m.ram_bytes().to_vec(),
        )
    }

    fn assert_identical(img: &Image, until: u64) {
        let mut a = Machine::new(img);
        a.set_engine(Engine::Interp);
        a.run(until);
        let mut b = Machine::new(img);
        b.set_engine(Engine::Bt);
        b.run(until);
        assert_eq!(observe(&a), observe(&b));
    }

    #[test]
    fn engines_agree_on_timer_interrupt_program() {
        // The machine.rs timer test program: ISR increments a counter,
        // main sleeps in a loop — exercises IRQ dispatch, sleep
        // fast-forward, MMIO stores, fused RMW in the handler.
        let mut img = Image::new(Profile::mica2());
        let mut h = CodeFunction::new("tick");
        h.interrupt = Some(crate::vectors::TIMER0);
        h.code = vec![
            Instr::LdGlobal {
                addr: 0x0200,
                width: Width::W16,
                signed: false,
            },
            Instr::PushI(1),
            Instr::Bin {
                op: AluOp::Add,
                width: Width::W16,
                signed: false,
            },
            Instr::StGlobal {
                addr: 0x0200,
                width: Width::W16,
            },
            Instr::Reti,
        ];
        img.add_function(h);
        let mut main = CodeFunction::new("main");
        main.code = vec![
            Instr::PushI(3),
            Instr::PushI(TIMER0_COMPARE as i64),
            Instr::St { width: Width::W16 },
            Instr::PushI(1),
            Instr::PushI(TIMER0_CTRL as i64),
            Instr::St { width: Width::W16 },
            Instr::IrqEnable,
            Instr::Sleep,
            Instr::Jmp { target: 7 },
        ];
        let e = img.add_function(main);
        img.entry = Some(e);
        assert_identical(&img, 50_000);
    }

    #[test]
    fn engines_agree_on_uart_busy_loop() {
        // Tight compute loop interleaved with MMIO stores (mid-block
        // resync path) and a division (Slow op).
        let img = image_with(vec![
            Instr::PushI(0), // i = 0 on stack
            // loop:
            Instr::Dup,
            Instr::PushI(48),
            Instr::Bin {
                op: AluOp::Add,
                width: Width::W8,
                signed: false,
            },
            Instr::PushI(UART_DATA as i64),
            Instr::St { width: Width::W8 },
            Instr::PushI(1),
            Instr::Bin {
                op: AluOp::Add,
                width: Width::W16,
                signed: false,
            },
            Instr::Dup,
            Instr::PushI(7),
            Instr::Bin {
                op: AluOp::Div,
                width: Width::W16,
                signed: false,
            },
            Instr::Pop,
            Instr::Dup,
            Instr::PushI(200),
            Instr::Bin {
                op: AluOp::Lt,
                width: Width::W16,
                signed: false,
            },
            Instr::Jnz { target: 1 },
            Instr::Halt,
        ]);
        assert_identical(&img, 1_000_000);
    }

    #[test]
    fn engines_agree_on_faulting_program() {
        // Wild store -> MemFault; cycles at the fault must match.
        let img = image_with(vec![
            Instr::PushI(5),
            Instr::PushI(0x0040), // null page
            Instr::St { width: Width::W8 },
            Instr::Halt,
        ]);
        assert_identical(&img, 1_000);
    }

    #[test]
    fn engines_agree_on_torn_watch_counts() {
        let code = vec![
            Instr::IrqEnable,
            Instr::PushI(0),
            // loop: StGlobal W16 to 0x0200, increment, compare, loop
            Instr::PushI(0x1234),
            Instr::StGlobal {
                addr: 0x0200,
                width: Width::W16,
            },
            Instr::PushI(1),
            Instr::Bin {
                op: AluOp::Add,
                width: Width::W16,
                signed: false,
            },
            Instr::Dup,
            Instr::PushI(10),
            Instr::Bin {
                op: AluOp::Lt,
                width: Width::W16,
                signed: false,
            },
            Instr::Jnz { target: 2 },
            Instr::Halt,
        ];
        let img = image_with(code);
        let mut a = Machine::new(&img);
        a.set_engine(Engine::Interp);
        a.arm_torn_watch(0x0200, 4, 0x80, true);
        a.run(10_000);
        let mut b = Machine::new(&img);
        b.set_engine(Engine::Bt);
        b.arm_torn_watch(0x0200, 4, 0x80, true);
        b.run(10_000);
        assert_eq!(observe(&a), observe(&b));
        assert_eq!(a.torn_watch(), b.torn_watch());
        assert!(a.torn_watch().unwrap().fired);
    }

    #[test]
    fn engines_agree_under_run_until_boundaries() {
        // Chopping the run into tiny slices must not change anything:
        // the block engine falls back to single-stepping at every
        // horizon crossing.
        let img = image_with(vec![
            Instr::PushI(0),
            Instr::PushI(1),
            Instr::Bin {
                op: AluOp::Add,
                width: Width::W16,
                signed: false,
            },
            Instr::Dup,
            Instr::PushI(500),
            Instr::Bin {
                op: AluOp::Lt,
                width: Width::W16,
                signed: false,
            },
            Instr::Jnz { target: 1 },
            Instr::StGlobal {
                addr: 0x0200,
                width: Width::W16,
            },
            Instr::Halt,
        ]);
        let mut a = Machine::new(&img);
        a.set_engine(Engine::Interp);
        let mut b = Machine::new(&img);
        b.set_engine(Engine::Bt);
        let mut t = 0;
        while t < 20_000 {
            t += 37;
            a.run(t);
            b.run(t);
            assert_eq!(a.cycles, b.cycles);
            assert_eq!(a.instr_count, b.instr_count);
        }
        assert_eq!(observe(&a), observe(&b));
    }

    #[test]
    fn bad_code_fault_names_function() {
        // Falling off the end of a function reports the function
        // index/name under both engines.
        let img = image_with(vec![Instr::Nop]);
        for engine in [Engine::Interp, Engine::Bt] {
            let mut m = Machine::new(&img);
            m.set_engine(engine);
            m.run(100);
            let msg = m.fault_message().unwrap();
            assert!(
                msg.contains("#0") && msg.contains("main"),
                "{engine:?}: {msg}"
            );
        }
    }

    #[test]
    fn engine_spellings_parse_strictly() {
        for engine in [Engine::Interp, Engine::Bt] {
            assert_eq!(Engine::parse(engine.name()), Ok(engine));
        }
        for bad in ["", "BT", " bt", "interp ", "jit"] {
            let err = Engine::parse(bad).unwrap_err();
            assert!(
                err.contains(&format!("`{bad}`")) && err.contains("`interp` or `bt`"),
                "{bad:?}: {err}"
            );
        }
    }

    /// Index of `kind`'s variant, `RmwGKBr` once per `reload` value.
    /// Exhaustive on purpose: a new `OpKind` variant does not compile
    /// here until the every-op program covers it.
    fn variant(kind: &OpKind) -> usize {
        match kind {
            OpKind::PushI(_) => 0,
            OpKind::LdG { .. } => 1,
            OpKind::StG { .. } => 2,
            OpKind::LdL { .. } => 3,
            OpKind::StL { .. } => 4,
            OpKind::AddrL { .. } => 5,
            OpKind::LdDyn { .. } => 6,
            OpKind::StDyn { .. } => 7,
            OpKind::Bin { .. } => 8,
            OpKind::Un { .. } => 9,
            OpKind::Wrap { .. } => 10,
            OpKind::Pop => 11,
            OpKind::Dup => 12,
            OpKind::Nop => 13,
            OpKind::IrqSave => 14,
            OpKind::IrqDisable => 15,
            OpKind::MkFat { .. } => 16,
            OpKind::FatVal => 17,
            OpKind::FatEnd => 18,
            OpKind::FatBase => 19,
            OpKind::FatAdd => 20,
            OpKind::LdGF { .. } => 21,
            OpKind::StGF { .. } => 22,
            OpKind::LdLF { .. } => 23,
            OpKind::StLF { .. } => 24,
            OpKind::LdFDyn { .. } => 25,
            OpKind::StFDyn { .. } => 26,
            OpKind::StGK { .. } => 27,
            OpKind::BinK { .. } => 28,
            OpKind::RmwGK { .. } => 29,
            OpKind::CpGG { .. } => 30,
            OpKind::Slow(_) => 31,
            OpKind::Jmp(_) => 32,
            OpKind::Jz(_) => 33,
            OpKind::Jnz(_) => 34,
            OpKind::CmpGKBr { .. } => 35,
            OpKind::CmpTopKBr { .. } => 36,
            OpKind::RmwGKBr { reload: false, .. } => 37,
            OpKind::RmwGKBr { reload: true, .. } => 38,
            OpKind::Call(_) => 39,
            OpKind::Term(_) => 40,
        }
    }
    const VARIANTS: usize = 41;

    /// One program whose block cache holds every op variant: a pure
    /// self-looping block of every pure op (frame ops at offsets >= 8),
    /// a checked loop with every dynamic access and a `Slow` division,
    /// then calls, IRQ-flag terminators and the branch shapes.
    fn every_op_image() -> Image {
        use Instr::*;
        use Width::{W16, W8};
        let mut img = Image::new(Profile::mica2());
        let mut callee = CodeFunction::new("callee");
        callee.frame_size = 2;
        callee.params = vec![crate::image::ParamSlot::scalar(0, W16)];
        callee.code = vec![
            LdLocal {
                off: 0,
                width: W16,
                signed: false,
            },
            StGlobal {
                addr: 0x0222,
                width: W16,
            },
            Ret,
        ];
        let callee = img.add_function(callee);
        let ld = |addr, width| LdGlobal {
            addr,
            width,
            signed: false,
        };
        let st = |addr, width| StGlobal { addr, width };
        let bin = |op, width| Bin {
            op,
            width,
            signed: false,
        };
        let mut main = CodeFunction::new("main");
        main.frame_size = 24;
        main.code = vec![
            IrqEnable,
            // 1: the pure loop, six rounds of `g200 += 1`.
            PushI(0x1234),
            Wrap {
                width: W8,
                signed: true,
            },
            Un {
                op: UnAluOp::Neg,
                width: W16,
            },
            Dup,
            ld(0x0206, W16),
            bin(AluOp::Add, W16),
            bin(AluOp::Xor, W16),
            st(0x0206, W16),
            Nop,
            AddrLocal { off: 8 },
            AddrLocal { off: 12 },
            MkFat { seq: false },
            StLocalFat { off: 8, seq: false },
            LdLocalFat { off: 8, seq: false },
            PushI(2),
            FatAdd,
            Dup,
            FatEnd,
            st(0x0208, W16),
            Dup,
            FatBase,
            st(0x020A, W16),
            FatVal,
            st(0x020C, W16),
            PushI(0x0300),
            PushI(0x0302),
            PushI(0x0310),
            MkFat { seq: true },
            StGlobalFat {
                addr: 0x0210,
                seq: true,
            },
            LdGlobalFat {
                addr: 0x0210,
                seq: true,
            },
            FatVal,
            st(0x020E, W16),
            ld(0x0206, W16), // CpGG
            st(0x0212, W16),
            ld(0x0214, W8), // RmwGK
            PushI(3),
            bin(AluOp::Add, W8),
            st(0x0214, W8),
            ld(0x0206, W16),
            PushI(3), // BinK
            bin(AluOp::Shl, W16),
            Un {
                op: UnAluOp::BitNot,
                width: W16,
            },
            st(0x0216, W16),
            PushI(5), // StGK
            st(0x0204, W16),
            ld(0x0206, W16),
            StLocal {
                off: 16,
                width: W16,
            },
            LdLocal {
                off: 16,
                width: W16,
                signed: true,
            },
            st(0x0218, W16),
            ld(0x0200, W16), // RmwGKBr, reload elided
            PushI(1),
            bin(AluOp::Add, W16),
            st(0x0200, W16),
            ld(0x0200, W16),
            PushI(6),
            bin(AluOp::Lt, W16),
            Jnz { target: 1 },
            // 58: the checked loop, four rounds of `g202 += 1`.
            PushI(0x0206),
            Ld {
                width: W16,
                signed: false,
            },
            PushI(0x021A),
            St { width: W16 },
            PushI(0x0210),
            LdFat { seq: true },
            PushI(0x0220),
            StFat { seq: true },
            ld(0x0206, W16),
            PushI(7),
            bin(AluOp::Div, W16),
            st(0x0226, W16),
            ld(0x0202, W16), // RmwGKBr, byte reload
            PushI(1),
            bin(AluOp::Add, W16),
            st(0x0202, W16),
            ld(0x0202, W8),
            PushI(4),
            bin(AluOp::Lt, W8),
            Jnz { target: 58 },
            // 78
            IrqSave,
            IrqDisable,
            IrqRestore,
            PushI(9),
            Call { func: callee },
            ld(0x0206, W16), // CmpGKBr
            PushI(0),
            bin(AluOp::Eq, W16),
            Jz { target: 88 },
            Nop,
            // 88: count 3 down to 0 on the stack.
            PushI(3),
            Dup, // CmpTopKBr
            PushI(0),
            bin(AluOp::Ne, W16),
            Jz { target: 96 },
            PushI(1),
            bin(AluOp::Sub, W16),
            Jmp { target: 89 },
            // 96
            Pop,
            PushI(0),
            Jz { target: 100 },
            Halt,
            PushI(1),
            Jnz { target: 103 },
            Halt,
            Halt,
        ];
        let main = img.add_function(main);
        img.entry = Some(main);
        img
    }

    #[test]
    fn every_op_agrees_across_engines() {
        let img = every_op_image();
        let cache = BlockCache::build(&img);
        let mut seen = [false; VARIANTS];
        for (fi, f) in img.functions.iter().enumerate() {
            for pc in 0..f.code.len() as u32 {
                if let Some(block) = cache.lookup(fi as u32, pc) {
                    for op in block.ops.iter() {
                        seen[variant(&op.kind)] = true;
                    }
                }
            }
        }
        let missing: Vec<usize> = (0..VARIANTS).filter(|&v| !seen[v]).collect();
        assert!(missing.is_empty(), "variants not decoded: {missing:?}");
        let main = img.entry.unwrap();
        let pure_loop = cache.lookup(main, 1).unwrap();
        assert!(pure_loop.pure && pure_loop.local_span > 0);

        // `setup` arms a watch or moves `fp`; both engines get the same.
        let run = |engine, setup: &dyn Fn(&mut Machine)| {
            let mut m = Machine::new(&img);
            m.set_engine(engine);
            setup(&mut m);
            m.run(100_000);
            m
        };
        let agree = |setup: &dyn Fn(&mut Machine)| {
            let (a, b) = (run(Engine::Interp, setup), run(Engine::Bt, setup));
            assert_eq!(observe(&a), observe(&b));
            assert_eq!(a.torn_watch(), b.torn_watch());
            a
        };
        // Unarmed: the pure loop runs the `TORN = false` body.
        let m = agree(&|_| {});
        assert_eq!(m.state, RunState::Halted, "{:?}", m.fault_message());
        assert!(m.map.writable(m.fp, pure_loop.local_span));
        // Armed: every block runs checked, and its 16-bit and fat
        // accesses count through the interpreter's memory path. `nth`
        // runs past each watched word's last access (a watch stops
        // counting once it fires), so a count missed anywhere shows.
        let mut fired = 0;
        for addr in [0x0200, 0x0206, 0x0210, 0x021A] {
            for nth in 1..=48 {
                let m = agree(&|m| m.arm_torn_watch(addr, nth, 0x01, false));
                fired += m.torn_watch().unwrap().fired as u32;
            }
        }
        assert!(fired >= 16, "only {fired} watches fired");
        // `fp` just below SRAM: every frame access lands in SRAM, but the
        // pure loop's frame window is not writable, so it runs checked.
        let m = agree(&|m| m.fp = 0x00F8);
        assert_eq!(m.state, RunState::Halted, "{:?}", m.fault_message());
        assert!(!m.map.writable(0x00F8, pure_loop.local_span));
    }

    #[test]
    fn memory_map_edges_fault_alike_and_match_decode() {
        use Width::{W16, W32, W8};
        #[derive(Clone, Copy, Debug)]
        enum Access {
            Ld(Width),
            St(Width),
            LdFat,
            StFat,
        }
        use Access::*;
        let (mem, ill) = (
            |a| Some(Fault::MemFault(a)),
            |a| Some(Fault::IllegalWrite(a)),
        );
        // Mica2: SRAM is 0x0100..0x1100; flash 0x8000..0xF000; MMIO above.
        let cases: [(u16, Access, Option<Fault>); 30] = [
            (0x00FF, Ld(W8), mem(0x00FF)),
            (0x0100, Ld(W8), None),
            (0x00FF, Ld(W16), mem(0x00FF)),
            (0x10FE, Ld(W16), None),
            (0x10FF, Ld(W16), mem(0x10FF)),
            (0x10FC, Ld(W32), None),
            (0x10FD, Ld(W32), mem(0x10FD)),
            (0x7FFF, Ld(W16), mem(0x7FFF)),
            (0x8000, Ld(W8), None),
            (0xEFFE, Ld(W16), None),
            (0xEFFF, Ld(W16), mem(0xEFFF)),
            (0xEFFD, Ld(W32), mem(0xEFFD)),
            (0xFFFF, Ld(W32), None),
            (0x00FF, St(W8), mem(0x00FF)),
            (0x0100, St(W8), None),
            (0x10FE, St(W16), None),
            (0x10FF, St(W16), mem(0x10FF)),
            (0x10FC, St(W32), None),
            (0x10FD, St(W32), mem(0x10FD)),
            (0x7FFF, St(W16), mem(0x7FFF)),
            (0x8000, St(W8), ill(0x8000)),
            (0xEFFF, St(W16), ill(0xEFFF)),
            (0xFFFF, St(W32), None),
            (0x10FA, LdFat, None),
            (0x10FC, LdFat, mem(0x1100)),
            (0xEFFC, LdFat, None),
            (0xFFFC, LdFat, mem(0x0000)),
            (0x10FA, StFat, None),
            (0x10FC, StFat, mem(0x1100)),
            (0xFFFC, StFat, mem(0x0000)),
        ];
        for (addr, access, want) in cases {
            let (len, write) = match access {
                Ld(w) => (w.bytes(), false),
                St(w) => (w.bytes(), true),
                LdFat => (fat_bytes(true) as u32, false),
                StFat => (fat_bytes(true) as u32, true),
            };
            let a = addr as i64;
            let cell = fat_pack(0x0101, 0x0102, 0x0103);
            let (global, dynamic, local) = match access {
                Ld(width) => (
                    vec![
                        Instr::LdGlobal {
                            addr,
                            width,
                            signed: false,
                        },
                        Instr::Pop,
                    ],
                    vec![
                        Instr::PushI(a),
                        Instr::Ld {
                            width,
                            signed: false,
                        },
                        Instr::Pop,
                    ],
                    vec![
                        Instr::LdLocal {
                            off: 0,
                            width,
                            signed: false,
                        },
                        Instr::Pop,
                    ],
                ),
                St(width) => (
                    vec![Instr::PushI(0x5A), Instr::StGlobal { addr, width }],
                    vec![Instr::PushI(0x5A), Instr::PushI(a), Instr::St { width }],
                    vec![Instr::PushI(0x5A), Instr::StLocal { off: 0, width }],
                ),
                LdFat => (
                    vec![Instr::LdGlobalFat { addr, seq: true }, Instr::Pop],
                    vec![Instr::PushI(a), Instr::LdFat { seq: true }, Instr::Pop],
                    vec![Instr::LdLocalFat { off: 0, seq: true }, Instr::Pop],
                ),
                StFat => (
                    vec![Instr::PushI(cell), Instr::StGlobalFat { addr, seq: true }],
                    vec![
                        Instr::PushI(cell),
                        Instr::PushI(a),
                        Instr::StFat { seq: true },
                    ],
                    vec![Instr::PushI(cell), Instr::StLocalFat { off: 0, seq: true }],
                ),
            };
            for (form, mut code) in [("global", global), ("dynamic", dynamic), ("local", local)] {
                code.push(Instr::Halt);
                let img = image_with(code);
                for engine in [Engine::Interp, Engine::Bt] {
                    let mut m = Machine::new(&img);
                    m.set_engine(engine);
                    if form == "local" {
                        m.fp = addr;
                    }
                    m.run(1_000);
                    assert_eq!(
                        m.fault, want,
                        "{form} {access:?} at {addr:#06x} under {engine:?}"
                    );
                }
                if form == "global" {
                    // The decoder keeps a direct op exactly where the
                    // runtime predicate holds; a direct op never faults,
                    // and a scalar access leaves the direct path only
                    // to fault or to reach MMIO.
                    let map = MemMap::new(&img.profile);
                    let direct = if write {
                        map.writable(addr, len)
                    } else {
                        map.readable(addr, len)
                    };
                    let block = BlockCache::build(&img);
                    let block = block.lookup(0, 0).unwrap();
                    let slow = block.ops.iter().any(|o| matches!(o.kind, OpKind::Slow(_)));
                    assert_eq!(!slow, direct, "decode of {access:?} at {addr:#06x}");
                    assert!(!direct || want.is_none());
                    if let Ld(_) | St(_) = access {
                        assert_eq!(direct, want.is_none() && addr < crate::devices::MMIO_BASE);
                    }
                }
            }
        }
    }
}

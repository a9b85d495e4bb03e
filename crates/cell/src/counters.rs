//! Cycle accounting by operation class.
//!
//! The paper's Figure 5 attributes SPE cycles to six operation types:
//! floating point, integer, branch, stack, local memory and main memory.
//! Every retired machine operation in the simulator charges its cycles
//! to exactly one class through a [`CycleBreakdown`].

use std::fmt;
use std::ops::{Add, AddAssign};

/// The Figure 5 operation classes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum OpClass {
    /// Floating-point arithmetic (f32 and f64).
    FloatingPoint,
    /// Integer/long arithmetic, conversions and comparisons.
    Integer,
    /// Control transfer.
    Branch,
    /// Operand-stack and local-variable traffic (the baseline compiler
    /// keeps the expression stack in the frame, as JikesRVM's does).
    Stack,
    /// Accesses served from SPE local memory: software-cache hits,
    /// TOC/TIB lookups. On the PPE this class also holds L1 hits.
    LocalMemory,
    /// Main-memory traffic: DMA setup/transfer/wait on the SPE, cache
    /// misses on the PPE, and GC/syscall stalls.
    MainMemory,
}

impl OpClass {
    /// All classes, in Figure 5's presentation order.
    pub const ALL: [OpClass; 6] = [
        OpClass::FloatingPoint,
        OpClass::Integer,
        OpClass::Branch,
        OpClass::Stack,
        OpClass::LocalMemory,
        OpClass::MainMemory,
    ];

    /// Stable index for array-backed accounting.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            OpClass::FloatingPoint => 0,
            OpClass::Integer => 1,
            OpClass::Branch => 2,
            OpClass::Stack => 3,
            OpClass::LocalMemory => 4,
            OpClass::MainMemory => 5,
        }
    }

    /// Human-readable label matching the paper's legend.
    pub fn label(self) -> &'static str {
        match self {
            OpClass::FloatingPoint => "Floating Point",
            OpClass::Integer => "Integer",
            OpClass::Branch => "Branch",
            OpClass::Stack => "Stack",
            OpClass::LocalMemory => "Local Memory",
            OpClass::MainMemory => "Main Memory",
        }
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Cycles accumulated per operation class.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct CycleBreakdown {
    cycles: [u64; 6],
    ops: [u64; 6],
}

impl CycleBreakdown {
    /// An empty breakdown.
    pub fn new() -> CycleBreakdown {
        CycleBreakdown::default()
    }

    /// Charge `cycles` (and one retired operation) to a class.
    #[inline]
    pub fn charge(&mut self, class: OpClass, cycles: u64) {
        self.cycles[class.index()] += cycles;
        self.ops[class.index()] += 1;
    }

    /// Charge cycles without counting an operation (e.g. stall time).
    #[inline]
    pub fn charge_stall(&mut self, class: OpClass, cycles: u64) {
        self.cycles[class.index()] += cycles;
    }

    /// Cycles charged to one class.
    #[inline]
    pub fn cycles(&self, class: OpClass) -> u64 {
        self.cycles[class.index()]
    }

    /// Operations retired in one class.
    #[inline]
    pub fn ops(&self, class: OpClass) -> u64 {
        self.ops[class.index()]
    }

    /// Total cycles across all classes.
    pub fn total_cycles(&self) -> u64 {
        self.cycles.iter().sum()
    }

    /// Total retired operations.
    pub fn total_ops(&self) -> u64 {
        self.ops.iter().sum()
    }

    /// Fraction of cycles in a class (0 when nothing is charged yet).
    pub fn fraction(&self, class: OpClass) -> f64 {
        let total = self.total_cycles();
        if total == 0 {
            0.0
        } else {
            self.cycles(class) as f64 / total as f64
        }
    }

    /// Render the Figure 5-style percentage row.
    pub fn percentages(&self) -> [f64; 6] {
        let mut out = [0.0; 6];
        for c in OpClass::ALL {
            out[c.index()] = self.fraction(c) * 100.0;
        }
        out
    }

    /// Raw per-class arrays (cycles, ops) in [`OpClass::index`] order.
    /// Snapshot support: pairs with [`CycleBreakdown::from_raw`].
    pub fn to_raw(self) -> ([u64; 6], [u64; 6]) {
        (self.cycles, self.ops)
    }

    /// Rebuild a breakdown from the arrays captured by
    /// [`CycleBreakdown::to_raw`].
    pub fn from_raw(cycles: [u64; 6], ops: [u64; 6]) -> CycleBreakdown {
        CycleBreakdown { cycles, ops }
    }

    /// Snapshot this breakdown into a metrics registry under
    /// `<prefix>.cycles.<class>` / `<prefix>.ops.<class>` counters, the
    /// shared counting substrate the trace exporters render.
    pub fn fill_metrics(&self, prefix: &str, reg: &mut hera_trace::MetricsRegistry) {
        for c in OpClass::ALL {
            let slug = match c {
                OpClass::FloatingPoint => "fp",
                OpClass::Integer => "int",
                OpClass::Branch => "branch",
                OpClass::Stack => "stack",
                OpClass::LocalMemory => "local_mem",
                OpClass::MainMemory => "main_mem",
            };
            reg.set(&format!("{prefix}.cycles.{slug}"), self.cycles(c));
            reg.set(&format!("{prefix}.ops.{slug}"), self.ops(c));
        }
    }
}

impl Add for CycleBreakdown {
    type Output = CycleBreakdown;

    fn add(mut self, rhs: CycleBreakdown) -> CycleBreakdown {
        self += rhs;
        self
    }
}

impl AddAssign for CycleBreakdown {
    fn add_assign(&mut self, rhs: CycleBreakdown) {
        for i in 0..6 {
            self.cycles[i] += rhs.cycles[i];
            self.ops[i] += rhs.ops[i];
        }
    }
}

/// Charges one core accumulates over a straight-line run of guest ops
/// before they reach its clock: the interpreter's hot tier adds into
/// this and the machine applies it in one step
/// ([`CellMachine::run_open`](crate::CellMachine::run_open) /
/// [`CellMachine::run_settle`](crate::CellMachine::run_settle)).
///
/// Between two settles nothing else may read or move the core's clock,
/// its breakdown or its profiler lane; an event is stamped with the clock
/// plus the run's total
/// ([`CellMachine::run_emit`](crate::CellMachine::run_emit)), which is
/// the clock per-op charging would show. The straggler stretch stays exact
/// through `mult` and `horizon`: every charge is multiplied by `mult`,
/// and the run asks to be settled ([`ChargeRun::due`]) once it holds
/// `horizon` cycles — the point at which the next charge's clock would
/// have reached the slowdown's onset and `mult` has to change.
#[derive(Clone, Debug)]
pub struct ChargeRun {
    /// The core being charged.
    pub(crate) core: crate::CoreId,
    /// Its index (0 = PPE, 1+n = SPE n).
    pub(crate) lane: usize,
    /// Stretched cycles accumulated since the last settle.
    pub(crate) total: u64,
    /// Charges accumulated since the last settle.
    pub(crate) charges: u64,
    /// The same cycles and charges, by class.
    pub(crate) delta: CycleBreakdown,
    /// 1, or the slowdown factor once the core's clock is past onset.
    pub(crate) mult: u64,
    /// Cycles left until onset (`u64::MAX` when none is coming).
    pub(crate) horizon: u64,
    /// What charging op by op would have produced (debug builds).
    #[cfg(debug_assertions)]
    pub(crate) shadow: ChargeShadow,
}

/// The per-op charging the run replaces, carried along in debug builds
/// so every settle can check the batched result against it.
#[cfg(debug_assertions)]
#[derive(Clone, Debug)]
pub(crate) struct ChargeShadow {
    pub(crate) clock: u64,
    pub(crate) breakdown: CycleBreakdown,
    pub(crate) pending: hera_trace::CostVec,
    pub(crate) slowdown: Option<(u64, u64)>,
    /// The lane's profiler scope, `None` with profiling off.
    pub(crate) scope: Option<hera_trace::CostClass>,
}

impl ChargeRun {
    /// The core this run charges.
    #[inline]
    pub fn core(&self) -> crate::CoreId {
        self.core
    }

    /// Charge `cycles` (and one retired operation) to `class`; returns
    /// the cycles actually charged, i.e. after the straggler stretch.
    #[inline(always)]
    pub fn charge(&mut self, class: OpClass, cycles: impl Into<u64>) -> u64 {
        let cycles: u64 = cycles.into();
        #[cfg(debug_assertions)]
        {
            let sh = &mut self.shadow;
            let c = match sh.slowdown {
                Some((from, factor)) if sh.clock >= from => cycles.saturating_mul(factor),
                _ => cycles,
            };
            sh.clock += c;
            sh.breakdown.charge(class, c);
            if let Some(scope) = sh.scope {
                sh.pending.add(scope, c);
            }
        }
        let cycles = cycles.saturating_mul(self.mult);
        self.total += cycles;
        self.charges += 1;
        self.delta.charge(class, cycles);
        cycles
    }

    /// Whether the run has to be settled before its next charge.
    #[inline(always)]
    pub fn due(&self) -> bool {
        self.total >= self.horizon
    }
}

impl fmt::Display for CycleBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for class in OpClass::ALL {
            writeln!(
                f,
                "  {:<15} {:>12} cycles ({:>5.1}%)",
                class.label(),
                self.cycles(class),
                self.fraction(class) * 100.0
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_accumulates() {
        let mut b = CycleBreakdown::new();
        b.charge(OpClass::FloatingPoint, 10);
        b.charge(OpClass::FloatingPoint, 5);
        b.charge(OpClass::Branch, 20);
        assert_eq!(b.cycles(OpClass::FloatingPoint), 15);
        assert_eq!(b.ops(OpClass::FloatingPoint), 2);
        assert_eq!(b.total_cycles(), 35);
        assert_eq!(b.total_ops(), 3);
    }

    #[test]
    fn stall_charges_no_op() {
        let mut b = CycleBreakdown::new();
        b.charge_stall(OpClass::MainMemory, 400);
        assert_eq!(b.cycles(OpClass::MainMemory), 400);
        assert_eq!(b.ops(OpClass::MainMemory), 0);
    }

    #[test]
    fn fractions_sum_to_one() {
        let mut b = CycleBreakdown::new();
        for (i, c) in OpClass::ALL.iter().enumerate() {
            b.charge(*c, (i as u64 + 1) * 10);
        }
        let sum: f64 = OpClass::ALL.iter().map(|&c| b.fraction(c)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_breakdown_fraction_is_zero() {
        let b = CycleBreakdown::new();
        assert_eq!(b.fraction(OpClass::Integer), 0.0);
    }

    #[test]
    fn merge_adds_fieldwise() {
        let mut a = CycleBreakdown::new();
        a.charge(OpClass::Stack, 3);
        let mut b = CycleBreakdown::new();
        b.charge(OpClass::Stack, 4);
        b.charge(OpClass::LocalMemory, 1);
        let m = a + b;
        assert_eq!(m.cycles(OpClass::Stack), 7);
        assert_eq!(m.ops(OpClass::Stack), 2);
        assert_eq!(m.cycles(OpClass::LocalMemory), 1);
    }

    #[test]
    fn indices_are_a_permutation() {
        let mut seen = [false; 6];
        for c in OpClass::ALL {
            assert!(!seen[c.index()]);
            seen[c.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}

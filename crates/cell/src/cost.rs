//! Per-core operation cost tables and DMA parameters.
//!
//! These constants encode the *relative* cost structure of the Cell's
//! two core kinds (PPE vs SPE), which is what the paper's comparisons
//! depend on. They were calibrated against the shapes reported in §4
//! (see `EXPERIMENTS.md`); none is a measured hardware number, though
//! the DMA setup cost (≈40 cycles) and local-store latency (3–6 cycles)
//! come straight from the paper's text.

use crate::counters::OpClass;
use crate::machine::CoreKind;

/// Abstract execution operations the per-core compilers charge for.
///
/// The JIT lowers each guest machine op to one of these for costing; the
/// mapping to Figure 5 operation classes is fixed by [`exec_op_class`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ExecOp {
    /// 32/64-bit integer add/sub/logic/shift.
    IntAlu,
    /// Integer multiply.
    IntMul,
    /// Integer divide / remainder.
    IntDiv,
    /// f32 add/sub/neg.
    FloatAdd,
    /// f32 multiply.
    FloatMul,
    /// f32 divide.
    FloatDiv,
    /// f32 square root.
    FloatSqrt,
    /// f64 add/sub/neg.
    DoubleAdd,
    /// f64 multiply.
    DoubleMul,
    /// f64 divide.
    DoubleDiv,
    /// f64 square root.
    DoubleSqrt,
    /// Numeric conversion.
    Convert,
    /// Three-way / fused comparison producing a flag value.
    Compare,
    /// Conditional or unconditional branch, not taken.
    Branch,
    /// Taken branch (SPEs have no branch prediction; taken branches
    /// flush the fetch pipeline).
    BranchTaken,
    /// Operand-stack push/pop/dup/swap and constants.
    StackOp,
    /// Local-variable frame access.
    LocalAccess,
    /// Call linkage: argument shuffling, frame push.
    CallOverhead,
    /// Return linkage: frame pop, result placement.
    ReturnOverhead,
    /// Object/array allocation fast path (bump/free-list in main
    /// memory; the cache-interaction cost is charged separately).
    AllocOverhead,
    /// Monitor acquire/release (atomic main-memory operation).
    MonitorOp,
    /// Null / bounds check sequence.
    Check,
}

/// The Figure 5 class an [`ExecOp`] is charged to.
#[inline]
pub fn exec_op_class(op: ExecOp) -> OpClass {
    use ExecOp::*;
    match op {
        FloatAdd | FloatMul | FloatDiv | FloatSqrt | DoubleAdd | DoubleMul | DoubleDiv
        | DoubleSqrt => OpClass::FloatingPoint,
        IntAlu | IntMul | IntDiv | Convert | Compare | Check => OpClass::Integer,
        Branch | BranchTaken => OpClass::Branch,
        StackOp | LocalAccess | CallOverhead | ReturnOverhead => OpClass::Stack,
        AllocOverhead | MonitorOp => OpClass::MainMemory,
    }
}

/// Cost table for one core kind, in cycles per operation.
#[derive(Clone, Copy, Debug)]
pub struct OpCosts {
    /// Integer ALU ops.
    pub int_alu: u32,
    /// Integer multiply.
    pub int_mul: u32,
    /// Integer divide.
    pub int_div: u32,
    /// f32 add-class.
    pub f32_add: u32,
    /// f32 multiply.
    pub f32_mul: u32,
    /// f32 divide.
    pub f32_div: u32,
    /// f32 sqrt.
    pub f32_sqrt: u32,
    /// f64 add-class.
    pub f64_add: u32,
    /// f64 multiply.
    pub f64_mul: u32,
    /// f64 divide.
    pub f64_div: u32,
    /// f64 sqrt.
    pub f64_sqrt: u32,
    /// Conversions.
    pub convert: u32,
    /// Comparisons.
    pub compare: u32,
    /// Untaken branch.
    pub branch: u32,
    /// Taken branch.
    pub branch_taken: u32,
    /// Stack ops / constants.
    pub stack_op: u32,
    /// Local-variable access.
    pub local_access: u32,
    /// Call linkage.
    pub call: u32,
    /// Return linkage.
    pub ret: u32,
    /// Allocation fast path.
    pub alloc: u32,
    /// Monitor operation.
    pub monitor: u32,
    /// Null/bounds check.
    pub check: u32,
}

impl OpCosts {
    /// Cycles for one op.
    #[inline]
    pub fn get(&self, op: ExecOp) -> u32 {
        use ExecOp::*;
        match op {
            IntAlu => self.int_alu,
            IntMul => self.int_mul,
            IntDiv => self.int_div,
            FloatAdd => self.f32_add,
            FloatMul => self.f32_mul,
            FloatDiv => self.f32_div,
            FloatSqrt => self.f32_sqrt,
            DoubleAdd => self.f64_add,
            DoubleMul => self.f64_mul,
            DoubleDiv => self.f64_div,
            DoubleSqrt => self.f64_sqrt,
            Convert => self.convert,
            Compare => self.compare,
            Branch => self.branch,
            BranchTaken => self.branch_taken,
            StackOp => self.stack_op,
            LocalAccess => self.local_access,
            CallOverhead => self.call,
            ReturnOverhead => self.ret,
            AllocOverhead => self.alloc,
            MonitorOp => self.monitor,
            Check => self.check,
        }
    }

    /// Default PPE table: a balanced in-order core. Floating point is
    /// notably weaker than the SPE's single-precision pipeline, branches
    /// are predicted, and stack traffic hits the L1.
    pub fn ppe_defaults() -> OpCosts {
        OpCosts {
            int_alu: 2,
            int_mul: 6,
            int_div: 24,
            f32_add: 10,
            f32_mul: 10,
            f32_div: 32,
            f32_sqrt: 40,
            f64_add: 8,
            f64_mul: 8,
            f64_div: 40,
            f64_sqrt: 50,
            convert: 4,
            compare: 2,
            branch: 1,
            branch_taken: 2,
            stack_op: 2,
            local_access: 2,
            call: 24,
            ret: 16,
            alloc: 60,
            monitor: 60,
            check: 2,
        }
    }

    /// Default SPE table: excellent single-precision FP, weak double
    /// precision (first-generation Cell SPEs stalled 6+ cycles per f64
    /// op), no integer divide or branch prediction in hardware, fast
    /// local store.
    pub fn spe_defaults() -> OpCosts {
        OpCosts {
            int_alu: 2,
            int_mul: 7,
            int_div: 45,
            f32_add: 2,
            f32_mul: 2,
            f32_div: 13,
            f32_sqrt: 14,
            f64_add: 9,
            f64_mul: 9,
            f64_div: 38,
            f64_sqrt: 48,
            convert: 3,
            compare: 2,
            branch: 1,
            // Taken branches flush the SPE fetch pipeline (~18 cycles),
            // but the compiler inserts branch hints (hbr) on loop
            // back-edges, so the average observed cost is far lower.
            branch_taken: 7,
            stack_op: 2,
            local_access: 3,
            call: 24,
            ret: 18,
            alloc: 90,
            monitor: 140,
            check: 2,
        }
    }
}

/// MFC DMA cost parameters (paper §3.2.1: "about 30-50 cycles, not
/// including the data transfer itself").
#[derive(Clone, Copy, Debug)]
pub struct DmaParams {
    /// Cycles to set up a DMA command on the MFC.
    pub setup_cycles: u32,
    /// First-byte latency to main memory.
    pub latency_cycles: u32,
    /// Aggregate transfer bandwidth of the interconnect, bytes/cycle
    /// (the EIB runs four rings and can carry several transfers at
    /// once; the single-requester rate is lower but queueing is what
    /// the model cares about).
    pub bytes_per_cycle: u32,
    /// Minimum billed transfer size (the MFC moves 128-byte lines).
    pub min_transfer_bytes: u32,
}

impl Default for DmaParams {
    fn default() -> Self {
        DmaParams {
            setup_cycles: 50,
            latency_cycles: 100,
            bytes_per_cycle: 32,
            min_transfer_bytes: 128,
        }
    }
}

impl DmaParams {
    /// Cycles the transfer itself occupies on the shared interface.
    pub fn transfer_cycles(&self, bytes: u32) -> u64 {
        let billed = bytes.max(self.min_transfer_bytes);
        (billed as u64).div_ceil(self.bytes_per_cycle as u64)
    }
}

/// The complete machine cost model.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// PPE operation costs.
    pub ppe: OpCosts,
    /// SPE operation costs.
    pub spe: OpCosts,
    /// DMA parameters (shared by all MFCs).
    pub dma: DmaParams,
    /// Software-cache lookup cost on a hit (hash + two local loads).
    pub cache_hit_cycles: u32,
    /// Code-cache TOC lookup cost (permanently resident table).
    pub toc_lookup_cycles: u32,
    /// Extra cycles for the fast-syscall signal/response round trip
    /// between an SPE and the PPE proxy thread (§3.2.3), excluding the
    /// time the PPE spends executing the call itself.
    pub syscall_signal_cycles: u32,
    /// Cycles the PPE needs per marked object during GC.
    pub gc_mark_cycles_per_object: u32,
    /// Cycles the PPE needs per swept object during GC.
    pub gc_sweep_cycles_per_object: u32,
}

impl CostModel {
    /// Calibrated defaults (see module docs).
    pub fn cell_defaults() -> CostModel {
        CostModel {
            ppe: OpCosts::ppe_defaults(),
            spe: OpCosts::spe_defaults(),
            dma: DmaParams::default(),
            cache_hit_cycles: 6,
            toc_lookup_cycles: 6,
            syscall_signal_cycles: 600,
            gc_mark_cycles_per_object: 40,
            gc_sweep_cycles_per_object: 12,
        }
    }

    /// The operation cost table of a core kind.
    #[inline]
    pub fn costs(&self, kind: CoreKind) -> &OpCosts {
        match kind {
            CoreKind::Ppe => &self.ppe,
            CoreKind::Spe => &self.spe,
        }
    }

    /// Cycles for `op` on a core of `kind`.
    #[inline]
    pub fn cost(&self, kind: CoreKind, op: ExecOp) -> u32 {
        self.costs(kind).get(op)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::cell_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spe_beats_ppe_on_single_precision() {
        let m = CostModel::cell_defaults();
        assert!(m.cost(CoreKind::Spe, ExecOp::FloatMul) < m.cost(CoreKind::Ppe, ExecOp::FloatMul));
        assert!(m.cost(CoreKind::Spe, ExecOp::FloatAdd) < m.cost(CoreKind::Ppe, ExecOp::FloatAdd));
    }

    #[test]
    fn ppe_beats_spe_on_taken_branches_and_divide() {
        let m = CostModel::cell_defaults();
        assert!(
            m.cost(CoreKind::Ppe, ExecOp::BranchTaken) < m.cost(CoreKind::Spe, ExecOp::BranchTaken)
        );
        assert!(m.cost(CoreKind::Ppe, ExecOp::IntDiv) < m.cost(CoreKind::Spe, ExecOp::IntDiv));
    }

    #[test]
    fn every_exec_op_has_cost_and_class() {
        use ExecOp::*;
        let all = [
            IntAlu,
            IntMul,
            IntDiv,
            FloatAdd,
            FloatMul,
            FloatDiv,
            FloatSqrt,
            DoubleAdd,
            DoubleMul,
            DoubleDiv,
            DoubleSqrt,
            Convert,
            Compare,
            Branch,
            BranchTaken,
            StackOp,
            LocalAccess,
            CallOverhead,
            ReturnOverhead,
            AllocOverhead,
            MonitorOp,
            Check,
        ];
        let m = CostModel::cell_defaults();
        for op in all {
            assert!(m.cost(CoreKind::Ppe, op) > 0, "{op:?}");
            assert!(m.cost(CoreKind::Spe, op) > 0, "{op:?}");
            let _ = exec_op_class(op);
        }
    }

    #[test]
    fn class_mapping_matches_figure5_legend() {
        assert_eq!(exec_op_class(ExecOp::FloatMul), OpClass::FloatingPoint);
        assert_eq!(exec_op_class(ExecOp::DoubleSqrt), OpClass::FloatingPoint);
        assert_eq!(exec_op_class(ExecOp::IntAlu), OpClass::Integer);
        assert_eq!(exec_op_class(ExecOp::BranchTaken), OpClass::Branch);
        assert_eq!(exec_op_class(ExecOp::StackOp), OpClass::Stack);
        assert_eq!(exec_op_class(ExecOp::MonitorOp), OpClass::MainMemory);
    }

    #[test]
    fn dma_transfer_rounds_to_min_size() {
        let d = DmaParams::default();
        assert_eq!(d.transfer_cycles(1), 4); // 128 / 32
        assert_eq!(d.transfer_cycles(128), 4);
        assert_eq!(d.transfer_cycles(1024), 32);
        assert_eq!(d.transfer_cycles(160), 5); // ceil(160/32)
    }

    #[test]
    fn dma_setup_in_paper_range() {
        let d = DmaParams::default();
        assert!((30..=50).contains(&d.setup_cycles));
    }
}

//! # hera-prof — per-method virtual-cycle profiler
//!
//! The simulator's cycle accounting ([`CycleBreakdown`] in `hera-cell`)
//! answers *what kind* of cycles a run spent; the trace lanes (`hera-trace`)
//! answer *when*. This crate answers *which method is paying*: it maintains
//! a shadow call stack per guest thread and attributes every charged
//! virtual cycle to the innermost active frame, split by
//! [`CostClass`] (compute, DMA stall, cache fills, JMM barriers, monitor
//! contention, migration, GC pauses, fault retries, syscall proxying).
//!
//! ## Model
//!
//! The profiler is a *consumer* of charges, never a source: the machine
//! mirrors every cycle it charges into per-core pending vectors
//! (`CellMachine::prof_take`), and the runtime drains those vectors at
//! every frame boundary — method entry, method return, thread completion,
//! and quantum begin/end — billing them to the frame that was innermost
//! while they accrued. Because the simulation is sequential, everything
//! charged between two boundaries belongs to the thread the scheduler was
//! running, on whichever cores it touched (a syscall proxied to the PPE
//! bills the causing SPE method in the PPE lane).
//!
//! The shadow stack mirrors exactly the engine's `MethodInvoke` /
//! `MethodReturn` event points, so it survives migrations (which move a
//! frame between cores without invoking anything) and the fail-over drain
//! (which rewrites migration markers but never touches Java frames).
//!
//! Costs aggregate into a call trie whose nodes are call paths and whose
//! values are one [`CostVec`] per core *kind* (PPE / SPE) — the paper's
//! axis of interest. Charges that accrue outside any quantum (thread
//! switches, fail-over salvage) land on the synthetic root, labelled
//! `(runtime)`.
//!
//! ## Invariant
//!
//! No cycle is invented or lost: for each core kind, the sum over all trie
//! nodes and cost classes equals the machine's `CycleBreakdown` total for
//! that kind, cycle for cycle. Integration tests pin this on every
//! workload/topology pair. Profiling never charges virtual cycles, so an
//! enabled profiler cannot perturb simulated time.
//!
//! [`CycleBreakdown`]: https://docs.rs/hera-cell

#![forbid(unsafe_code)]

use hera_trace::{CostClass, CostVec};
use std::collections::BTreeMap;

mod report;

pub use report::{DiffRow, MethodRow};

/// Synthetic method id for the trie root: cycles charged outside any guest
/// frame (scheduler, fail-over salvage, post-run draining).
pub const RUNTIME_METHOD: u32 = u32::MAX;

/// Core kinds a cost can accrue on. Lane 0 of the machine (the PPE) maps
/// to [`KindLane::Ppe`]; every other lane is an SPE.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(usize)]
pub enum KindLane {
    Ppe = 0,
    Spe = 1,
}

impl KindLane {
    pub const COUNT: usize = 2;
    pub const ALL: [KindLane; 2] = [KindLane::Ppe, KindLane::Spe];

    /// Map a machine lane index (0 = PPE, 1+n = SPE n) to its kind.
    pub fn from_machine_lane(lane: usize) -> KindLane {
        if lane == 0 {
            KindLane::Ppe
        } else {
            KindLane::Spe
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            KindLane::Ppe => "ppe",
            KindLane::Spe => "spe",
        }
    }
}

/// One call-trie node: a unique root-to-here call path.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Node {
    method: u32,
    parent: u32,
    /// method id -> child node index; BTreeMap keeps traversal (and every
    /// report) deterministic.
    children: BTreeMap<u32, u32>,
    /// Self cost of this path, per core kind.
    cost: [CostVec; KindLane::COUNT],
}

impl Node {
    fn new(method: u32, parent: u32) -> Node {
        Node {
            method,
            parent,
            children: BTreeMap::new(),
            cost: [CostVec::ZERO; KindLane::COUNT],
        }
    }
}

/// The live profiler: a call trie plus one shadow-stack cursor per thread.
///
/// The cursor is keyed by thread id, not core, so it survives migrations
/// and fail-over unchanged.
#[derive(Clone, Debug, Default)]
pub struct Profiler {
    nodes: Vec<Node>,
    /// thread id -> current trie node (innermost shadow frame).
    current: BTreeMap<u32, u32>,
}

impl Profiler {
    pub fn new() -> Profiler {
        Profiler {
            nodes: vec![Node::new(RUNTIME_METHOD, 0)],
            current: BTreeMap::new(),
        }
    }

    fn cursor(&mut self, tid: u32) -> u32 {
        *self.current.entry(tid).or_insert(0)
    }

    /// Mirror a method invocation: push `method` onto `tid`'s shadow stack.
    pub fn enter(&mut self, tid: u32, method: u32) {
        let cur = self.cursor(tid);
        let idx = match self.nodes[cur as usize].children.get(&method) {
            Some(&i) => i,
            None => {
                let i = self.nodes.len() as u32;
                self.nodes.push(Node::new(method, cur));
                self.nodes[cur as usize].children.insert(method, i);
                i
            }
        };
        self.current.insert(tid, idx);
    }

    /// Mirror a method return: pop `tid`'s shadow stack. Popping at the
    /// root is a no-op (the engine never emits an unmatched return; this
    /// keeps the profiler total-preserving even if it did).
    pub fn leave(&mut self, tid: u32) {
        let cur = self.cursor(tid);
        if cur != 0 {
            let parent = self.nodes[cur as usize].parent;
            self.current.insert(tid, parent);
        }
    }

    /// Unwind `tid`'s shadow stack to the root (thread completion, traps,
    /// stack overflow — any path that discards guest frames wholesale).
    pub fn reset(&mut self, tid: u32) {
        self.current.insert(tid, 0);
    }

    /// Depth of `tid`'s shadow stack (0 = at root). Test/debug aid.
    pub fn depth(&self, tid: u32) -> usize {
        let mut cur = self.current.get(&tid).copied().unwrap_or(0);
        let mut d = 0;
        while cur != 0 {
            cur = self.nodes[cur as usize].parent;
            d += 1;
        }
        d
    }

    /// Bill drained cycles to `tid`'s innermost shadow frame, in the lane
    /// of the core kind they accrued on.
    pub fn bill(&mut self, tid: u32, kind: KindLane, v: &CostVec) {
        let cur = self.cursor(tid);
        self.nodes[cur as usize].cost[kind as usize].merge(v);
    }

    /// Bill drained cycles to the synthetic `(runtime)` root.
    pub fn bill_runtime(&mut self, kind: KindLane, v: &CostVec) {
        self.nodes[0].cost[kind as usize].merge(v);
    }

    /// Freeze into an immutable [`Profile`] for reporting.
    pub fn finish(self) -> Profile {
        Profile { nodes: self.nodes }
    }

    /// Raw trie state for snapshots: every node in index order as
    /// `(method, parent, per-kind raw cost lanes)`, plus the per-thread
    /// cursors sorted by thread id. Children maps are omitted — they are
    /// re-derived from the parent links on restore.
    #[allow(clippy::type_complexity)]
    pub fn export_state(
        &self,
    ) -> (
        Vec<(u32, u32, [[u64; CostClass::COUNT]; KindLane::COUNT])>,
        Vec<(u32, u32)>,
    ) {
        let nodes = self
            .nodes
            .iter()
            .map(|n| (n.method, n.parent, [n.cost[0].0, n.cost[1].0]))
            .collect();
        let current = self.current.iter().map(|(&t, &c)| (t, c)).collect();
        (nodes, current)
    }

    /// Rebuild a profiler from [`Profiler::export_state`] output. Fails
    /// on a missing root or dangling links, so a corrupt snapshot cannot
    /// index out of bounds.
    #[allow(clippy::type_complexity)]
    pub fn from_state(
        nodes: Vec<(u32, u32, [[u64; CostClass::COUNT]; KindLane::COUNT])>,
        current: Vec<(u32, u32)>,
    ) -> Result<Profiler, &'static str> {
        if nodes.is_empty() || nodes[0].0 != RUNTIME_METHOD || nodes[0].1 != 0 {
            return Err("profiler trie missing runtime root");
        }
        let mut built: Vec<Node> = Vec::with_capacity(nodes.len());
        for (i, &(method, parent, cost)) in nodes.iter().enumerate() {
            if i > 0 && parent as usize >= i {
                return Err("profiler trie parent link out of order");
            }
            let mut node = Node::new(method, parent);
            node.cost = [CostVec(cost[0]), CostVec(cost[1])];
            built.push(node);
            if i > 0 {
                built[parent as usize].children.insert(method, i as u32);
            }
        }
        for &(_, cur) in &current {
            if cur as usize >= built.len() {
                return Err("profiler cursor out of range");
            }
        }
        Ok(Profiler {
            nodes: built,
            current: current.into_iter().collect(),
        })
    }
}

/// A frozen profile: the call trie with per-kind, per-class cycle costs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Profile {
    nodes: Vec<Node>,
}

impl Profile {
    /// Total attributed cycles per core kind, summed over every call path
    /// and cost class. Reconciles exactly with the machine's
    /// `CycleBreakdown` totals.
    pub fn totals(&self) -> [CostVec; KindLane::COUNT] {
        let mut t = [CostVec::ZERO; KindLane::COUNT];
        for n in &self.nodes {
            for (acc, cost) in t.iter_mut().zip(&n.cost) {
                acc.merge(cost);
            }
        }
        t
    }

    /// Total attributed cycles for one core kind.
    pub fn total(&self, kind: KindLane) -> CostVec {
        let mut t = CostVec::ZERO;
        for n in &self.nodes {
            t.merge(&n.cost[kind as usize]);
        }
        t
    }

    /// The root-to-node call path as method ids (root excluded for the
    /// root itself).
    fn path(&self, mut idx: usize) -> Vec<u32> {
        let mut p = Vec::new();
        loop {
            p.push(self.nodes[idx].method);
            if idx == 0 {
                break;
            }
            idx = self.nodes[idx].parent as usize;
        }
        p.reverse();
        p
    }

    /// Collapsed-stack flamegraph lines, one lane per core kind:
    /// `kind;(runtime);caller;callee cycles`, lexicographically sorted.
    /// Loadable by standard flamegraph tooling.
    pub fn collapsed(&self, name_of: &dyn Fn(u32) -> String) -> String {
        let mut lines: Vec<String> = Vec::new();
        for (i, n) in self.nodes.iter().enumerate() {
            for kind in KindLane::ALL {
                let cycles = n.cost[kind as usize].total();
                if cycles == 0 {
                    continue;
                }
                let stack: Vec<String> = self.path(i).into_iter().map(name_of).collect();
                lines.push(format!("{};{} {}", kind.label(), stack.join(";"), cycles));
            }
        }
        lines.sort();
        let mut out = lines.join("\n");
        if !out.is_empty() {
            out.push('\n');
        }
        out
    }
}

/// Resolve a method id through a name table, mapping [`RUNTIME_METHOD`] to
/// `(runtime)` and out-of-range ids to `m<id>`.
pub fn method_name(names: &[String], id: u32) -> String {
    if id == RUNTIME_METHOD {
        "(runtime)".to_string()
    } else {
        names
            .get(id as usize)
            .cloned()
            .unwrap_or_else(|| format!("m{id}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hera_trace::CostClass;

    fn v(class: CostClass, cycles: u64) -> CostVec {
        let mut c = CostVec::ZERO;
        c.add(class, cycles);
        c
    }

    #[test]
    fn enter_leave_tracks_depth_and_paths_dedup() {
        let mut p = Profiler::new();
        p.enter(0, 1);
        p.enter(0, 2);
        assert_eq!(p.depth(0), 2);
        p.leave(0);
        p.enter(0, 2); // same path again -> same node
        p.bill(0, KindLane::Spe, &v(CostClass::Compute, 10));
        p.leave(0);
        p.leave(0);
        assert_eq!(p.depth(0), 0);
        p.leave(0); // pop at root is a no-op
        assert_eq!(p.depth(0), 0);
        let prof = p.finish();
        // Root + method 1 + method 2: one node per unique path.
        assert_eq!(prof.nodes.len(), 3);
        assert_eq!(prof.total(KindLane::Spe).total(), 10);
    }

    #[test]
    fn threads_have_independent_shadow_stacks() {
        let mut p = Profiler::new();
        p.enter(0, 1);
        p.enter(1, 5);
        p.bill(0, KindLane::Ppe, &v(CostClass::Compute, 3));
        p.bill(1, KindLane::Spe, &v(CostClass::GcPause, 7));
        p.reset(1);
        assert_eq!(p.depth(0), 1);
        assert_eq!(p.depth(1), 0);
        let prof = p.finish();
        assert_eq!(prof.total(KindLane::Ppe).get(CostClass::Compute), 3);
        assert_eq!(prof.total(KindLane::Spe).get(CostClass::GcPause), 7);
    }

    #[test]
    fn collapsed_output_is_sorted_and_complete() {
        let mut p = Profiler::new();
        p.bill_runtime(KindLane::Ppe, &v(CostClass::Compute, 1));
        p.enter(0, 0);
        p.bill(0, KindLane::Ppe, &v(CostClass::Compute, 100));
        p.enter(0, 1);
        p.bill(0, KindLane::Spe, &v(CostClass::DataCacheFill, 50));
        let prof = p.finish();
        let names = vec!["main".to_string(), "work".to_string()];
        let out = prof.collapsed(&|m| method_name(&names, m));
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(
            lines,
            vec![
                "ppe;(runtime) 1",
                "ppe;(runtime);main 100",
                "spe;(runtime);main;work 50",
            ]
        );
        let mut sorted = lines.clone();
        sorted.sort();
        assert_eq!(lines, sorted);
    }

    #[test]
    fn totals_sum_every_node_and_kind() {
        let mut p = Profiler::new();
        p.enter(0, 0);
        p.bill(0, KindLane::Ppe, &v(CostClass::Compute, 5));
        p.bill(0, KindLane::Spe, &v(CostClass::Migration, 6));
        p.bill_runtime(KindLane::Ppe, &v(CostClass::FaultRetry, 7));
        let prof = p.finish();
        let t = prof.totals();
        assert_eq!(t[KindLane::Ppe as usize].total(), 12);
        assert_eq!(t[KindLane::Spe as usize].total(), 6);
    }
}

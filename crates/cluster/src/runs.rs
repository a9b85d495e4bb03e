//! The experiment's table of VM re-executions.
//!
//! A crash or a live migration re-executes its job for real up to the
//! crash (the *doomed run*), and every resume adopts a snapshot and runs
//! it to the end (the *adoption run*) to prove the resume correct. The
//! replays of one trace ask for these runs on identical inputs: each
//! policy of the default experiment re-runs the same crash, and each
//! matrix row the same adoptions. So each run is keyed by everything it
//! reads and executes once per experiment, on whichever replay asks first;
//! a replay that asks for a run another is executing waits for it.
//!
//! A run reads its class's program and its key, nothing else: the value is
//! a pure function of the key, so which thread fills an entry, and when,
//! changes no byte of any report. `run_experiment` and `run_matrix` build
//! the table and drop it when they return, so every call does the same
//! work.

use crate::fleet::{completed, vm_err, ClassProfile};
use crate::kernel::Resume;
use crate::ClusterError;
use hera_core::{HeraJvm, RunEnd, RunOutcome, VmConfig};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// A `VmConfig` compared by its derived `Debug` rendering, which shows
/// every field: shape, heap, checkpoint cadence, and the whole fault plan
/// with its machine crash.
#[derive(Clone)]
pub(crate) struct Config {
    vm: VmConfig,
    shown: String,
}

impl PartialEq for Config {
    fn eq(&self, other: &Self) -> bool {
        self.shown == other.shown
    }
}

/// Everything a re-execution reads. Compared field by field, cheapest
/// first; the start snapshot by content (`Arc`'s equality tries the
/// pointer first, which is the common case: a snapshot a doomed run sealed
/// is shared by every job that resumes from it).
#[derive(Clone, PartialEq)]
pub(crate) struct RunKey {
    /// Index of the job class, whose program the run executes.
    pub class: usize,
    /// Which execution of the same inputs this is: 0, or 1 for a
    /// cross-shape proof's second adoption, which must run on its own to
    /// show the two agree. Always 0 for a doomed run.
    pub replay: u8,
    pub config: Config,
    /// The snapshot the run adopts; `None` runs from the start.
    pub start: Option<Arc<Vec<u8>>>,
}

impl RunKey {
    pub(crate) fn new(class: usize, replay: u8, vm: VmConfig, start: Option<Arc<Vec<u8>>>) -> Self {
        let shown = format!("{vm:?}");
        RunKey {
            class,
            replay,
            config: Config { vm, shown },
            start,
        }
    }
}

/// How a doomed run ended.
#[derive(Clone)]
#[cfg_attr(test, derive(PartialEq))]
pub(crate) enum Doomed {
    /// The crash fell after the last safepoint: the job finished first.
    Finished,
    /// The machine died at VM cycle `at_cycle`. `checkpoint` is the
    /// freshest snapshot the run sealed before it, ready to resume from;
    /// `None` when it sealed none.
    Crashed {
        at_cycle: u64,
        checkpoint: Option<Resume>,
    },
}

type Slot<V> = Arc<OnceLock<Result<V, ClusterError>>>;

struct Entry<V> {
    key: RunKey,
    slot: Slot<V>,
    /// Times a replay asked for the run, and times it executed.
    #[cfg(test)]
    asks: u32,
    #[cfg(test)]
    runs: Arc<std::sync::atomic::AtomicU32>,
}

/// One kind of run, by key. At most tens of entries, so a linear search.
struct Memo<V> {
    entries: Mutex<Vec<Entry<V>>>,
}

impl<V> Default for Memo<V> {
    fn default() -> Self {
        Memo {
            entries: Mutex::new(Vec::new()),
        }
    }
}

impl<V: Clone> Memo<V> {
    /// The value of `key`, from `run(&key)` the first time it is asked for.
    fn get(
        &self,
        key: RunKey,
        run: impl FnOnce(&RunKey) -> Result<V, ClusterError>,
    ) -> Result<V, ClusterError> {
        // The lock guards a push and a lookup, each whole when it returns,
        // and is never held while a run executes; a panic elsewhere leaves
        // the list valid.
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        let at = match entries.iter().position(|e| e.key == key) {
            Some(at) => at,
            None => {
                entries.push(Entry {
                    key: key.clone(),
                    slot: Slot::default(),
                    #[cfg(test)]
                    asks: 0,
                    #[cfg(test)]
                    runs: Default::default(),
                });
                entries.len() - 1
            }
        };
        let entry = &mut entries[at];
        #[cfg(test)]
        let runs = {
            entry.asks += 1;
            Arc::clone(&entry.runs)
        };
        let slot = Arc::clone(&entry.slot);
        drop(entries);
        let value = slot.get_or_init(|| {
            #[cfg(test)]
            runs.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            run(&key)
        });
        value.clone()
    }
}

/// The experiment's doomed runs and adoption runs.
#[derive(Default)]
pub(crate) struct Reruns {
    doomed: Memo<Doomed>,
    adopted: Memo<Arc<RunOutcome>>,
}

impl Reruns {
    /// Re-execute `key`'s class under its config, whose fault plan crashes
    /// the machine, from its start snapshot or from scratch. A sealed
    /// checkpoint resumes at the wall clock its header records, on the
    /// shape that sealed it.
    pub(crate) fn doomed(
        &self,
        classes: &[ClassProfile],
        key: RunKey,
    ) -> Result<Doomed, ClusterError> {
        self.doomed.get(key, |key| {
            let vm = HeraJvm::new(classes[key.class].program.clone(), key.config.vm)
                .map_err(|e| vm_err("doomed vm", e))?;
            let end = match &key.start {
                None => vm.run_until_crash().map_err(|e| vm_err("doomed run", e)),
                Some(bytes) => vm
                    .adopt_until_crash(bytes)
                    .map_err(|e| vm_err("doomed adopted run", e)),
            };
            let RunEnd::Crashed {
                at_cycle,
                checkpoint,
            } = end?
            else {
                return Ok(Doomed::Finished);
            };
            let checkpoint = match checkpoint {
                Some(last) => {
                    let info = hera_core::snapshot::inspect(&last.bytes)
                        .map_err(|e| vm_err("checkpoint inspect", e))?;
                    Some(Resume {
                        bytes: Arc::new(last.bytes),
                        restored_wall: info.wall_cycles,
                        shape: key.config.vm.cell.num_spes,
                    })
                }
                None => None,
            };
            Ok(Doomed::Crashed {
                at_cycle,
                checkpoint,
            })
        })
    }

    /// Adopt `key`'s start snapshot under its config and run to the end.
    pub(crate) fn adopted(
        &self,
        classes: &[ClassProfile],
        key: RunKey,
    ) -> Result<Arc<RunOutcome>, ClusterError> {
        self.adopted.get(key, |key| {
            let vm = HeraJvm::new(classes[key.class].program.clone(), key.config.vm)
                .map_err(|e| vm_err("adoption vm", e))?;
            let what = if key.replay == 0 {
                "adoption run"
            } else {
                "adoption replay"
            };
            let bytes = (key.start.as_ref())
                .ok_or_else(|| ClusterError::msg(format!("{what} without a snapshot")))?;
            completed(vm.adopt_until_crash(bytes), what).map(Arc::new)
        })
    }
}

/// Per entry of one table: its key, the times it was asked for, and the
/// times it executed.
#[cfg(test)]
pub(crate) type Tally = Vec<(RunKey, u32, u32)>;

#[cfg(test)]
impl<V> Memo<V> {
    fn tally(&self) -> Tally {
        let entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        let runs = |e: &Entry<V>| e.runs.load(std::sync::atomic::Ordering::Relaxed);
        entries
            .iter()
            .map(|e| (e.key.clone(), e.asks, runs(e)))
            .collect()
    }
}

#[cfg(test)]
impl Reruns {
    /// The doomed runs' tally, then the adoption runs'.
    pub(crate) fn tally(&self) -> [Tally; 2] {
        [self.doomed.tally(), self.adopted.tally()]
    }
}

#[cfg(test)]
thread_local! {
    /// The tally of every table dropped on this thread. `run_experiment`
    /// builds and drops its table on the caller's thread, so a test reads
    /// here what each of its calls ran, and that no table outlived its
    /// call. It holds counts and keys, never a run.
    pub(crate) static DROPPED: std::cell::RefCell<Vec<[Tally; 2]>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

#[cfg(test)]
impl Drop for Reruns {
    fn drop(&mut self) {
        let tally = self.tally();
        DROPPED.with(|dropped| dropped.borrow_mut().push(tally));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hera_cell::FaultPlan;
    use hera_workloads::Workload;

    /// Two classes, single-threaded at the smallest workload scale.
    fn classes() -> Vec<ClassProfile> {
        let class = |workload: Workload| {
            let (program, checksum) = workload.build(1, 0.01);
            ClassProfile {
                workload,
                program,
                checksum,
            }
        };
        vec![class(Workload::Compress), class(Workload::Mandelbrot)]
    }

    /// A 1-SPE machine on a small heap under `plan`.
    fn vm(plan: FaultPlan) -> VmConfig {
        let mut vm = VmConfig::pinned_spe(1)
            .with_checkpoint_every(100_000)
            .with_faults(plan);
        vm.heap.size_bytes = 1 << 18;
        vm
    }

    /// A key that differs from another in one field only is a run of its
    /// own, and its value is the one a table without the other gives.
    #[test]
    fn every_key_field_keys_its_own_run() {
        let classes = classes();
        let crash = |plan: FaultPlan, at| plan.with_machine_crash(at);
        let healthy = FaultPlan::default();
        let straggler = healthy.with_slowdown(4, 0).expect("valid slowdown");
        let doomed = |class, plan, start| RunKey::new(class, 0, vm(plan), start);
        let base = doomed(0, crash(healthy, 300_000), None);
        let first = Reruns::default()
            .doomed(&classes, base.clone())
            .expect("runs");
        let Doomed::Crashed {
            checkpoint: Some(sealed),
            ..
        } = &first
        else {
            panic!("the doomed run sealed no checkpoint");
        };
        let snapshot = Arc::clone(&sealed.bytes);
        for (field, other) in [
            ("class", doomed(1, crash(healthy, 300_000), None)),
            ("fault plan", doomed(0, crash(straggler, 300_000), None)),
            ("crash cycle", doomed(0, crash(healthy, 400_000), None)),
            (
                "start snapshot",
                doomed(0, crash(healthy, 300_000), Some(Arc::clone(&snapshot))),
            ),
        ] {
            let runs = Reruns::default();
            runs.doomed(&classes, base.clone()).expect("runs");
            let shared = runs.doomed(&classes, other.clone()).expect("runs");
            let own = Reruns::default().doomed(&classes, other).expect("runs");
            assert!(shared == own, "{field}: took another key's run");
            assert!(shared != first, "{field}: the run does not read it");
            assert_eq!(runs.tally()[0].len(), 2, "{field}");
        }

        // The two adoptions of a cross-shape proof agree by construction;
        // the point is that the second one executes.
        let runs = Reruns::default();
        for replay in [0, 1] {
            let key = RunKey::new(0, replay, vm(healthy), Some(Arc::clone(&snapshot)));
            runs.adopted(&classes, key).expect("adoption runs");
        }
        let [_, adopted] = runs.tally();
        assert!(adopted
            .iter()
            .all(|&(_, asks, runs)| (asks, runs) == (1, 1)));
        assert_eq!(adopted.len(), 2, "replay index");
    }

    /// A replay that asks for a run another replay is executing waits for
    /// it and takes its value: the first run is held until the second
    /// asker has found its entry.
    #[test]
    fn a_run_in_progress_is_waited_for() {
        let memo = Memo::<u32>::default();
        let key = || RunKey::new(0, 0, VmConfig::default(), None);
        let asks = || memo.entries.lock().expect("no asker panicked")[0].asks;
        let (started, running) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            let first = s.spawn(|| {
                memo.get(key(), |_| {
                    started.send(()).expect("the test waits for the run");
                    while asks() < 2 {
                        std::thread::yield_now();
                    }
                    Ok(7)
                })
            });
            running.recv().expect("the first run started");
            assert_eq!(memo.get(key(), |_| Ok(8)), Ok(7));
            assert_eq!(first.join().expect("the first asker ran"), Ok(7));
        });
        let tally = memo.tally();
        assert_eq!((tally.len(), tally[0].1, tally[0].2), (1, 2, 1));
    }
}

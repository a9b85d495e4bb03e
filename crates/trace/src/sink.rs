//! The per-core event sink.

use crate::event::TraceEvent;
use crate::metrics::MetricsRegistry;

/// An event stamped with the emitting lane's virtual clock.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TimedEvent {
    /// Virtual cycles on the emitting core at emission time.
    pub at: u64,
    pub event: TraceEvent,
}

// A lane is a `Vec` of these: their size is what a traced run's memory
// scales with.
const _: () = assert!(std::mem::size_of::<TraceEvent>() == 24);
const _: () = assert!(std::mem::size_of::<TimedEvent>() == 32);

impl TimedEvent {
    /// When the last event this record stands for was emitted: `until`
    /// for a run of hits, `at` for everything else.
    pub fn end(&self) -> u64 {
        match self.event {
            TraceEvent::DataCacheHitRun { until, .. } => until,
            _ => self.at,
        }
    }

    /// How many emitted events this record stands for: `hits` for a run
    /// of hits, one for everything else.
    pub fn emitted(&self) -> u64 {
        match self.event {
            TraceEvent::DataCacheHitRun { hits, .. } => hits.into(),
            _ => 1,
        }
    }
}

/// One core's record stream.  Records are appended in emission order;
/// because each lane is stamped with its own core's monotone virtual clock,
/// the stream is non-decreasing in `at`, and a run of hits ends (`until`)
/// no later than the next record begins.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Lane {
    pub name: String,
    pub events: Vec<TimedEvent>,
    /// How many of `events` were there at the last checkpoint: a hit never
    /// folds into one of those.
    sealed: usize,
}

impl Lane {
    /// Record a data-cache hit at `addr`: into the run this lane ends on,
    /// when it ends on one since the last checkpoint. Out of line, and
    /// with the append behind a call of its own, so that the hot case —
    /// one more hit on a run — is a leaf with nothing to save.
    #[inline(never)]
    fn hit(&mut self, at: u64, addr: u32) {
        if self.events.len() > self.sealed {
            let last = self.events.last_mut().expect("longer than `sealed`");
            match &mut last.event {
                &mut TraceEvent::DataCacheHit { addr } => {
                    last.event = TraceEvent::DataCacheHitRun {
                        addr,
                        hits: 2,
                        until: at,
                    };
                    return;
                }
                TraceEvent::DataCacheHitRun { hits, until, .. } if *hits < u32::MAX => {
                    *hits += 1;
                    *until = at;
                    return;
                }
                _ => {}
            }
        }
        self.lone_hit(at, addr);
    }

    /// Append a hit as a record of its own: once per run.
    #[cold]
    #[inline(never)]
    fn lone_hit(&mut self, at: u64, addr: u32) {
        let event = TraceEvent::DataCacheHit { addr };
        self.events.push(TimedEvent { at, event });
    }
}

/// The trace sink: one lane per simulated core plus a metrics registry.
///
/// A disabled sink ([`TraceSink::disabled`], also the `Default`) drops every
/// `emit` after a single branch — the simulator's hooks all go through
/// [`TraceSink::is_enabled`] / [`TraceSink::emit`] so tracing costs one
/// predictable branch when off and never charges virtual cycles when on.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct TraceSink {
    enabled: bool,
    lanes: Vec<Lane>,
    /// Named counters/histograms populated alongside events.
    pub metrics: MetricsRegistry,
}

impl TraceSink {
    /// A sink that records nothing (the default state of every run).
    pub fn disabled() -> Self {
        TraceSink::default()
    }

    /// An enabled sink with one lane per name, in core-index order
    /// (lane 0 = PPE, lane 1+n = SPE n by the simulator's convention).
    pub fn with_lanes<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        TraceSink {
            enabled: true,
            lanes: names
                .into_iter()
                .map(|n| Lane {
                    name: n.into(),
                    events: Vec::new(),
                    sealed: 0,
                })
                .collect(),
            metrics: MetricsRegistry::default(),
        }
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record `event` on `lane` at virtual time `at`.  No-op when disabled
    /// or when `lane` is out of range (a sink built for fewer cores than the
    /// machine simply ignores the extra lanes).
    ///
    /// Consecutive data-cache hits on a lane are one record: a
    /// [`TraceEvent::DataCacheHit`] arriving directly after another turns
    /// that record into a [`TraceEvent::DataCacheHitRun`] of two, and one
    /// arriving after a run extends it (a run that is full at `u32::MAX`
    /// is left alone and the hit starts a new record).  Every other event
    /// is appended as it is, which ends the run — and a
    /// [`TraceEvent::Checkpoint`] ends the run on *every* lane: a run
    /// resumed from that checkpoint starts on empty lanes, and what it
    /// records has to be, record for record, the rest of this trace.
    #[inline]
    pub fn emit(&mut self, lane: usize, at: u64, event: TraceEvent) {
        if !self.enabled {
            return;
        }
        let Some(l) = self.lanes.get_mut(lane) else {
            return;
        };
        if let TraceEvent::DataCacheHit { addr } = event {
            return l.hit(at, addr);
        }
        l.events.push(TimedEvent { at, event });
        if let TraceEvent::Checkpoint { .. } = event {
            self.seal();
        }
    }

    /// Close the lanes at a checkpoint: no later hit folds into a record
    /// that is on a lane now.
    #[cold]
    fn seal(&mut self) {
        for l in &mut self.lanes {
            l.sealed = l.events.len();
        }
    }

    pub fn lanes(&self) -> &[Lane] {
        &self.lanes
    }

    /// Total records across all lanes: what a trace's memory and its
    /// export scale with.  A run of hits is one record however long it is.
    pub fn event_count(&self) -> usize {
        self.lanes.iter().map(|l| l.events.len()).sum()
    }

    /// All records of every lane, tagged with their lane index.
    pub fn iter_all(&self) -> impl Iterator<Item = (usize, &TimedEvent)> {
        self.lanes
            .iter()
            .enumerate()
            .flat_map(|(i, l)| l.events.iter().map(move |e| (i, e)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::testing::every_variant;
    use hera_rng::SplitMix64;

    /// What `emit` must leave on a lane it was handed `events` in order,
    /// no checkpoint falling between them: a plain scan that replaces
    /// every maximal stretch of two or more hits with one run. (Streams
    /// shorter than `u32::MAX` hits, holding no ready-made run.)
    fn fold_reference(events: &[TimedEvent]) -> Vec<TimedEvent> {
        let is_hit = |te: &TimedEvent| matches!(te.event, TraceEvent::DataCacheHit { .. });
        let mut folded = Vec::new();
        let mut rest = events;
        while let Some((&first, tail)) = rest.split_first() {
            let more = match first.event {
                TraceEvent::DataCacheHit { .. } => tail.iter().take_while(|te| is_hit(te)).count(),
                _ => 0,
            };
            folded.push(match (first.event, more) {
                (TraceEvent::DataCacheHit { addr }, 1..) => TimedEvent {
                    at: first.at,
                    event: TraceEvent::DataCacheHitRun {
                        addr,
                        hits: 1 + more as u32,
                        until: tail[more - 1].at,
                    },
                },
                _ => first,
            });
            rest = &tail[more..];
        }
        folded
    }

    /// The lanes of a sink handed `emitted` (lane, event) in order: each
    /// stretch up to and including a checkpoint folded by itself.
    fn fold_all_reference(lanes: usize, emitted: &[(usize, TimedEvent)]) -> Vec<Vec<TimedEvent>> {
        let mut folded = vec![Vec::new(); lanes];
        let ends =
            |(_, te): &(usize, TimedEvent)| matches!(te.event, TraceEvent::Checkpoint { .. });
        for stretch in emitted.split_inclusive(ends) {
            for (lane, folded) in folded.iter_mut().enumerate() {
                let mine = stretch.iter().filter(|(l, _)| *l == lane);
                let mine: Vec<TimedEvent> = mine.map(|(_, te)| *te).collect();
                folded.extend(fold_reference(&mine));
            }
        }
        folded
    }

    #[test]
    fn lanes_built_through_emit_match_the_fold_reference() {
        // Everything that must end a run (the checkpoint on every lane):
        // every variant but the hit and the run itself.
        let others: Vec<TraceEvent> = every_variant(7, 9, 0)
            .into_iter()
            .filter(|ev| !ev.kind_name().starts_with("dcache.hit"))
            .collect();
        let hit = |rng: &mut SplitMix64| TraceEvent::DataCacheHit {
            addr: rng.next_u64() as u32,
        };
        let mut other = others.iter().cycle();
        for seed in 1..=48u64 {
            let mut rng = SplitMix64::new(seed);
            let mut sink = TraceSink::with_lanes(["ppe", "spe0", "spe1"]);
            let mut unfolded = Vec::new();
            let mut at = [0u64; 3];
            let mut emit = |lane: usize, step: u64, event| {
                at[lane] += step;
                sink.emit(lane, at[lane], event);
                let at = at[lane];
                unfolded.push((lane, TimedEvent { at, event }));
            };
            // Odd seeds begin and end every lane on a hit.
            let edges = seed % 2 == 1;
            for lane in 0..3 {
                if edges {
                    emit(lane, seed, hit(&mut rng));
                }
            }
            // Hit density per lane from 0 to 99 %.
            let density: Vec<u64> = (0..3).map(|_| rng.next_below(100)).collect();
            for _ in 0..rng.next_below(600) {
                let lane = rng.next_below(3) as usize;
                let event = if rng.next_below(100) < density[lane] {
                    hit(&mut rng)
                } else {
                    // In turn, so every variant comes between hits.
                    *other.next().expect("cycles")
                };
                // A third of the events share their predecessor's time.
                let step = [0, 1, rng.next_below(1_000)][rng.next_below(3) as usize];
                emit(lane, step, event);
            }
            for lane in 0..3 {
                if edges {
                    emit(lane, 0, hit(&mut rng));
                }
            }
            let reference = fold_all_reference(3, &unfolded);
            for (lane, reference) in sink.lanes().iter().zip(&reference) {
                assert_eq!(&lane.events, reference, "seed {seed} lane {}", lane.name);
            }
            let emitted: u64 = sink.iter_all().map(|(_, te)| te.emitted()).sum();
            assert_eq!(emitted, unfolded.len() as u64, "seed {seed}: events lost");
        }
    }

    #[test]
    fn a_full_run_is_left_alone_and_the_hit_starts_a_new_record() {
        let hit = |addr| TraceEvent::DataCacheHit { addr };
        let mut s = TraceSink::with_lanes(["spe0"]);
        s.emit(
            0,
            5,
            TraceEvent::DataCacheHitRun {
                addr: 1,
                hits: u32::MAX - 1,
                until: 8,
            },
        );
        s.emit(0, 10, hit(2));
        s.emit(0, 12, hit(3));
        s.emit(0, 14, hit(4));
        let full = TimedEvent {
            at: 5,
            event: TraceEvent::DataCacheHitRun {
                addr: 1,
                hits: u32::MAX,
                until: 10,
            },
        };
        let next = TimedEvent {
            at: 12,
            event: TraceEvent::DataCacheHitRun {
                addr: 3,
                hits: 2,
                until: 14,
            },
        };
        assert_eq!(s.lanes()[0].events, [full, next]);
        assert_eq!(full.emitted() + next.emitted(), u64::from(u32::MAX) + 2);
    }

    #[test]
    fn a_checkpoint_ends_the_run_on_every_lane() {
        let hit = |addr| TraceEvent::DataCacheHit { addr };
        let mut full = TraceSink::with_lanes(["ppe", "spe0"]);
        full.emit(1, 1, hit(16));
        full.emit(1, 2, hit(32));
        full.emit(0, 5, TraceEvent::Checkpoint { seq: 1, bytes: 9 });
        // What a run resumed from the checkpoint records from here on.
        let mut resumed = TraceSink::with_lanes(["ppe", "spe0"]);
        for sink in [&mut full, &mut resumed] {
            sink.emit(1, 3, hit(48));
            sink.emit(1, 4, hit(64));
            sink.emit(1, 6, hit(80));
        }
        let (full, resumed) = (&full.lanes()[1].events, &resumed.lanes()[1].events);
        assert_eq!(full.len(), 2);
        assert_eq!(full[1..], resumed[..]);
    }

    #[test]
    fn hits_fold_per_lane_and_anything_else_ends_the_run() {
        let hit = |addr| TraceEvent::DataCacheHit { addr };
        let mut s = TraceSink::with_lanes(["spe0", "spe1"]);
        s.emit(0, 1, hit(16));
        s.emit(1, 1, hit(32));
        s.emit(0, 3, hit(48));
        s.emit(0, 3, hit(64));
        s.emit(0, 4, TraceEvent::DataCacheMiss { addr: 80, bytes: 8 });
        s.emit(0, 9, hit(96));
        assert_eq!(s.event_count(), 4);
        let lane = &s.lanes()[0].events;
        assert_eq!(
            lane[0].event,
            TraceEvent::DataCacheHitRun {
                addr: 16,
                hits: 3,
                until: 3
            }
        );
        assert_eq!((lane[0].at, lane[0].end(), lane[0].emitted()), (1, 3, 3));
        assert_eq!((lane[2].event, lane[2].end()), (hit(96), 9));
        // A lone hit keeps its record.
        assert_eq!(s.lanes()[1].events[0].event, hit(32));
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let mut s = TraceSink::disabled();
        assert!(!s.is_enabled());
        s.emit(0, 10, TraceEvent::EibStall { cycles: 5 });
        assert_eq!(s.event_count(), 0);
        assert!(s.lanes().is_empty());
    }

    #[test]
    fn enabled_sink_records_in_order() {
        let mut s = TraceSink::with_lanes(["ppe", "spe0"]);
        assert!(s.is_enabled());
        s.emit(0, 1, TraceEvent::MethodInvoke { method: 7 });
        s.emit(1, 2, TraceEvent::MethodReturn { method: 7 });
        s.emit(0, 3, TraceEvent::ThreadSwitch { thread: 1 });
        assert_eq!(s.event_count(), 3);
        assert_eq!(s.lanes()[0].events.len(), 2);
        assert_eq!(s.lanes()[0].events[0].at, 1);
        assert_eq!(
            s.lanes()[1].events[0].event,
            TraceEvent::MethodReturn { method: 7 }
        );
    }

    #[test]
    fn out_of_range_lane_is_ignored() {
        let mut s = TraceSink::with_lanes(["ppe"]);
        s.emit(5, 1, TraceEvent::EibStall { cycles: 1 });
        assert_eq!(s.event_count(), 0);
    }

    #[test]
    fn identical_emission_sequences_compare_equal() {
        let build = || {
            let mut s = TraceSink::with_lanes(["ppe", "spe0"]);
            s.emit(0, 4, TraceEvent::MonitorAcquire { obj: 9 });
            s.emit(1, 8, TraceEvent::MonitorRelease { obj: 9 });
            s.metrics.add("monitor.acquires", 1);
            s
        };
        assert_eq!(build(), build());
    }
}

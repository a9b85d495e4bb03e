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

/// One core's event stream.  Events are appended in emission order; because
/// each lane is stamped with its own core's monotone virtual clock, the
/// stream is non-decreasing in `at`.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Lane {
    pub name: String,
    pub events: Vec<TimedEvent>,
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
    #[inline]
    pub fn emit(&mut self, lane: usize, at: u64, event: TraceEvent) {
        if !self.enabled {
            return;
        }
        if let Some(l) = self.lanes.get_mut(lane) {
            l.events.push(TimedEvent { at, event });
        }
    }

    pub fn lanes(&self) -> &[Lane] {
        &self.lanes
    }

    /// Total events across all lanes.
    pub fn event_count(&self) -> usize {
        self.lanes.iter().map(|l| l.events.len()).sum()
    }

    /// All events of every lane, tagged with their lane index.
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

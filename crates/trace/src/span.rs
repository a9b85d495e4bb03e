//! Fleet-level span and flow-arrow vocabulary for hera-scope.
//!
//! The fleet simulator (hera-cluster) records one span tree per request:
//! a root span on the front-end track, queue/dispatch/service children on
//! machine tracks, and causal arrows (retry, hedge, crash requeue, live
//! migration) connecting attempts across tracks. This crate only defines
//! the data model and the Chrome export ([`crate::fleet_trace_json`]);
//! tracks are opaque indices, span ids are whatever the producer picked —
//! determinism is the producer's job (the fleet allocates ids in event
//! order, which is itself deterministic).

use crate::chrome::{num, push_u64};

/// What a [`FleetSpan`] records. The kind implies everything static
/// about the exported event — display label, Chrome category, `args`
/// keys, and whether the name ends in the request id — so a recorded
/// span carries numbers only and its name is rendered at export.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SpanKind {
    /// A request's root span, arrival to terminal.
    Request,
    /// Terminal markers: every request ends in exactly one.
    Completed,
    Shed,
    TimedOut,
    /// Queue waits, by how the wait ended (started, deadline cancel,
    /// machine crash, proactive drain).
    Queue,
    QueueCancelled,
    QueueInterrupted,
    QueueDrained,
    /// Front-end dispatch plus snapshot transfer onto a machine.
    Dispatch,
    /// Execution attempts, by how the attempt ended.
    Service,
    ServiceCancelled,
    ServiceInterrupted,
    ServiceMigrated,
    /// A live migration leaving its source, scheduled or drain-triggered.
    Migrate,
    Drain,
    /// An attempt wave hit its deadline.
    WaveTimeout,
    /// Machine-wide markers (no request).
    Crash,
    Recover,
    BreakerOpen,
    BreakerHalfOpen,
    BreakerClosed,
}

impl SpanKind {
    /// `(label, names a request, Chrome category)`. Labels are plain
    /// ASCII with nothing JSON would escape; the kind's `args` keys are
    /// written by [`FleetSpan::write_args`].
    pub fn parts(self) -> (&'static str, bool, &'static str) {
        use SpanKind::*;
        match self {
            Request => ("", true, "request"),
            Completed => ("completed", true, "terminal"),
            Shed => ("shed", true, "terminal"),
            TimedOut => ("timedout", true, "terminal"),
            Queue => ("queue", true, "queue"),
            QueueCancelled => ("queue.cancelled", true, "queue"),
            QueueInterrupted => ("queue.interrupted", true, "queue"),
            QueueDrained => ("queue.drained", true, "queue"),
            Dispatch => ("dispatch", true, "dispatch"),
            Service => ("service", true, "service"),
            ServiceCancelled => ("service.cancelled", true, "service"),
            ServiceInterrupted => ("service.interrupted", true, "service"),
            ServiceMigrated => ("service.migrated", true, "service"),
            Migrate => ("migrate", true, "migration"),
            Drain => ("drain", true, "migration"),
            WaveTimeout => ("wave.timeout", true, "resil"),
            Crash => ("crash", false, "fault"),
            Recover => ("recover", false, "fault"),
            BreakerOpen => ("breaker.open", false, "breaker"),
            BreakerHalfOpen => ("breaker.half_open", false, "breaker"),
            BreakerClosed => ("breaker.closed", false, "breaker"),
        }
    }
}

#[cfg(test)]
impl SpanKind {
    /// Every kind, in declaration order.
    pub(crate) const ALL: [SpanKind; 21] = {
        use SpanKind::*;
        [
            Request,
            Completed,
            Shed,
            TimedOut,
            Queue,
            QueueCancelled,
            QueueInterrupted,
            QueueDrained,
            Dispatch,
            Service,
            ServiceCancelled,
            ServiceInterrupted,
            ServiceMigrated,
            Migrate,
            Drain,
            WaveTimeout,
            Crash,
            Recover,
            BreakerOpen,
            BreakerHalfOpen,
            BreakerClosed,
        ]
    };
}

/// One span on a fleet track, in fleet-virtual time. Plain numbers, no
/// heap allocation, 48 bytes: about six of these are recorded per
/// simulated request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FleetSpan {
    /// Begin timestamp (fleet-virtual cycles).
    pub begin: u64,
    /// Duration in fleet-virtual cycles (0 renders as an instant-like
    /// sliver, used for marker spans such as sheds and breaker trips).
    pub dur: u64,
    /// Producer-assigned span id, unique within one trace.
    pub id: u64,
    /// Parent span id; 0 marks a root span.
    pub parent: u64,
    /// The kind's first `args` value: `class` for `Request`, `machine`
    /// for the `Queue*` and `Service*` kinds, `transfer` for `Dispatch`.
    /// A `Migrate` / `Drain` span has four values, `[dest, bytes,
    /// transfer, reexec]`, kept in a table beside the spans so that the
    /// rare spans with four values do not size every span; its `arg` is
    /// the row. Unused (0) for the kinds without args.
    pub arg: u64,
    /// Request the span belongs to (0 for machine-wide kinds).
    pub req: u32,
    /// Track index (the exporter names tracks from a parallel list).
    pub track: u16,
    pub kind: SpanKind,
    /// The `Service*` kinds' second value: the attempt is a hedge.
    pub hedge: bool,
}

const _: () = assert!(std::mem::size_of::<FleetSpan>() == 48);

impl FleetSpan {
    /// Append the display name, e.g. `service req42` or `breaker.open`.
    pub fn write_name(&self, out: &mut String) {
        let (label, names_request, _) = self.kind.parts();
        out.push_str(label);
        if names_request {
            out.push_str(if label.is_empty() { "req" } else { " req" });
            push_u64(out, self.req.into());
        }
    }

    /// Append the kind's `args` entries, each after a comma, e.g.
    /// `,"machine":1,"hedge":0`. A `Migrate` / `Drain` span reads its
    /// four values from `moves`, and writes zeros when its index is past
    /// the end of the table.
    pub fn write_args(&self, moves: &[[u64; 4]], out: &mut String) {
        use SpanKind::*;
        match self.kind {
            Request => num(out, ",\"class\":", self.arg),
            Queue | QueueCancelled | QueueInterrupted | QueueDrained => {
                num(out, ",\"machine\":", self.arg);
            }
            Dispatch => num(out, ",\"transfer\":", self.arg),
            Service | ServiceCancelled | ServiceInterrupted | ServiceMigrated => {
                num(out, ",\"machine\":", self.arg);
                num(out, ",\"hedge\":", self.hedge);
            }
            Migrate | Drain => {
                let moved = usize::try_from(self.arg).ok().and_then(|i| moves.get(i));
                let [dest, bytes, transfer, reexec] = moved.copied().unwrap_or_default();
                num(out, ",\"dest\":", dest);
                num(out, ",\"bytes\":", bytes);
                num(out, ",\"transfer\":", transfer);
                num(out, ",\"reexec\":", reexec);
            }
            Completed | Shed | TimedOut | WaveTimeout | Crash | Recover | BreakerOpen
            | BreakerHalfOpen | BreakerClosed => {}
        }
    }
}

/// What kind of causality a [`FlowArrow`] records.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FlowKind {
    /// A timed-out wave scheduling its retry wave.
    Retry,
    /// A slow wave dispatching a hedged duplicate attempt.
    Hedge,
    /// A crash throwing an in-flight job back to the front-end.
    Requeue,
    /// A live migration carrying a running job to another machine.
    Migrate,
    /// A proactive drain moving work off a sick (but still alive)
    /// machine before its resident requests time out.
    Drain,
}

impl FlowKind {
    /// Display name used for both Chrome flow events and tests.
    pub fn name(self) -> &'static str {
        match self {
            FlowKind::Retry => "retry",
            FlowKind::Hedge => "hedge",
            FlowKind::Requeue => "requeue",
            FlowKind::Migrate => "migrate",
            FlowKind::Drain => "drain",
        }
    }
}

/// A causal arrow between two points on (possibly different) tracks,
/// exported as a Chrome `s`/`f` flow-event pair.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FlowArrow {
    pub kind: FlowKind,
    /// Flow id, unique within one trace (shared by the s/f pair).
    pub id: u64,
    pub from_track: u32,
    pub from_ts: u64,
    pub to_track: u32,
    pub to_ts: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: SpanKind, arg: u64) -> FleetSpan {
        FleetSpan {
            begin: 0,
            dur: 0,
            id: 1,
            parent: 0,
            arg,
            req: 42,
            track: 0,
            kind,
            hedge: true,
        }
    }

    /// The names, categories and `args` the recorder used to build with
    /// `format!` at every span, now rendered from the kind.
    #[test]
    fn every_span_kind_renders_its_recorded_name() {
        use SpanKind::*;
        let (machine, attempt) = (",\"machine\":1", ",\"machine\":1,\"hedge\":1");
        let moved = ",\"dest\":5,\"bytes\":6,\"transfer\":7,\"reexec\":8";
        let expected: [(SpanKind, &str, &str, &str); 21] = [
            (Request, "req42", "request", ",\"class\":1"),
            (Completed, "completed req42", "terminal", ""),
            (Shed, "shed req42", "terminal", ""),
            (TimedOut, "timedout req42", "terminal", ""),
            (Queue, "queue req42", "queue", machine),
            (QueueCancelled, "queue.cancelled req42", "queue", machine),
            (
                QueueInterrupted,
                "queue.interrupted req42",
                "queue",
                machine,
            ),
            (QueueDrained, "queue.drained req42", "queue", machine),
            (Dispatch, "dispatch req42", "dispatch", ",\"transfer\":1"),
            (Service, "service req42", "service", attempt),
            (
                ServiceCancelled,
                "service.cancelled req42",
                "service",
                attempt,
            ),
            (
                ServiceInterrupted,
                "service.interrupted req42",
                "service",
                attempt,
            ),
            (
                ServiceMigrated,
                "service.migrated req42",
                "service",
                attempt,
            ),
            (Migrate, "migrate req42", "migration", moved),
            (Drain, "drain req42", "migration", moved),
            (WaveTimeout, "wave.timeout req42", "resil", ""),
            (Crash, "crash", "fault", ""),
            (Recover, "recover", "fault", ""),
            (BreakerOpen, "breaker.open", "breaker", ""),
            (BreakerHalfOpen, "breaker.half_open", "breaker", ""),
            (BreakerClosed, "breaker.closed", "breaker", ""),
        ];
        assert_eq!(expected.map(|(kind, ..)| kind), SpanKind::ALL);
        let moves = [[0; 4], [5, 6, 7, 8]];
        for (kind, name, cat, args) in expected {
            let (mut rendered, mut written) = (String::new(), String::new());
            span(kind, 1).write_name(&mut rendered);
            span(kind, 1).write_args(&moves, &mut written);
            assert_eq!(rendered, name);
            assert_eq!(kind.parts().2, cat, "{name}");
            assert_eq!(written, args, "{name}");
            assert_eq!(crate::chrome::json_string(name), format!("\"{name}\""));
        }
    }

    #[test]
    fn a_move_index_past_the_table_writes_zeros() {
        let zeros = ",\"dest\":0,\"bytes\":0,\"transfer\":0,\"reexec\":0";
        for (moves, arg) in [(&[][..], 0), (&[[1; 4]][..], 1), (&[[1; 4]][..], u64::MAX)] {
            let mut written = String::new();
            span(SpanKind::Drain, arg).write_args(moves, &mut written);
            assert_eq!(written, zeros);
        }
    }

    #[test]
    fn flow_kind_names_are_distinct() {
        let names = [
            FlowKind::Retry.name(),
            FlowKind::Hedge.name(),
            FlowKind::Requeue.name(),
            FlowKind::Migrate.name(),
            FlowKind::Drain.name(),
        ];
        for (i, a) in names.iter().enumerate() {
            for b in &names[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}

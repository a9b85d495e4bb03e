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

use crate::chrome::push_u64;

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
    /// `(label, names a request, Chrome category, args keys)`; the keys
    /// are parallel to [`FleetSpan::args`]. Labels are plain ASCII with
    /// nothing JSON would escape.
    pub fn parts(self) -> (&'static str, bool, &'static str, &'static [&'static str]) {
        use SpanKind::*;
        const MACHINE: &[&str] = &["machine"];
        const ATTEMPT: &[&str] = &["machine", "hedge"];
        const MOVED: &[&str] = &["dest", "bytes", "transfer", "reexec"];
        match self {
            Request => ("", true, "request", &["class"]),
            Completed => ("completed", true, "terminal", &[]),
            Shed => ("shed", true, "terminal", &[]),
            TimedOut => ("timedout", true, "terminal", &[]),
            Queue => ("queue", true, "queue", MACHINE),
            QueueCancelled => ("queue.cancelled", true, "queue", MACHINE),
            QueueInterrupted => ("queue.interrupted", true, "queue", MACHINE),
            QueueDrained => ("queue.drained", true, "queue", MACHINE),
            Dispatch => ("dispatch", true, "dispatch", &["transfer"]),
            Service => ("service", true, "service", ATTEMPT),
            ServiceCancelled => ("service.cancelled", true, "service", ATTEMPT),
            ServiceInterrupted => ("service.interrupted", true, "service", ATTEMPT),
            ServiceMigrated => ("service.migrated", true, "service", ATTEMPT),
            Migrate => ("migrate", true, "migration", MOVED),
            Drain => ("drain", true, "migration", MOVED),
            WaveTimeout => ("wave.timeout", true, "resil", &[]),
            Crash => ("crash", false, "fault", &[]),
            Recover => ("recover", false, "fault", &[]),
            BreakerOpen => ("breaker.open", false, "breaker", &[]),
            BreakerHalfOpen => ("breaker.half_open", false, "breaker", &[]),
            BreakerClosed => ("breaker.closed", false, "breaker", &[]),
        }
    }
}

/// One span on a fleet track, in fleet-virtual time. Plain numbers, no
/// heap allocation: five of these are recorded per simulated request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FleetSpan {
    pub kind: SpanKind,
    /// Track index (the exporter names tracks from a parallel list).
    pub track: u32,
    /// Request the span belongs to (0 for machine-wide kinds).
    pub req: u64,
    /// Begin timestamp (fleet-virtual cycles).
    pub begin: u64,
    /// Duration in fleet-virtual cycles (0 renders as an instant-like
    /// sliver, used for marker spans such as sheds and breaker trips).
    pub dur: u64,
    /// Producer-assigned span id, unique within one trace.
    pub id: u64,
    /// Parent span id; 0 marks a root span.
    pub parent: u64,
    /// Values for the kind's args keys, in order; the rest stay 0.
    pub args: [u64; 4],
}

impl FleetSpan {
    /// Append the display name, e.g. `service req42` or `breaker.open`.
    pub fn write_name(&self, out: &mut String) {
        let (label, names_request, ..) = self.kind.parts();
        out.push_str(label);
        if names_request {
            out.push_str(if label.is_empty() { "req" } else { " req" });
            push_u64(out, self.req);
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

    /// The names, categories and `args` keys the recorder used to build
    /// with `format!` at every span, now rendered from the kind.
    #[test]
    fn every_span_kind_renders_its_recorded_name() {
        use SpanKind::*;
        let moved = &["dest", "bytes", "transfer", "reexec"][..];
        let attempt = &["machine", "hedge"][..];
        let expected: [(SpanKind, &str, &str, &[&str]); 21] = [
            (Request, "req42", "request", &["class"]),
            (Completed, "completed req42", "terminal", &[]),
            (Shed, "shed req42", "terminal", &[]),
            (TimedOut, "timedout req42", "terminal", &[]),
            (Queue, "queue req42", "queue", &["machine"]),
            (
                QueueCancelled,
                "queue.cancelled req42",
                "queue",
                &["machine"],
            ),
            (
                QueueInterrupted,
                "queue.interrupted req42",
                "queue",
                &["machine"],
            ),
            (QueueDrained, "queue.drained req42", "queue", &["machine"]),
            (Dispatch, "dispatch req42", "dispatch", &["transfer"]),
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
            (WaveTimeout, "wave.timeout req42", "resil", &[]),
            (Crash, "crash", "fault", &[]),
            (Recover, "recover", "fault", &[]),
            (BreakerOpen, "breaker.open", "breaker", &[]),
            (BreakerHalfOpen, "breaker.half_open", "breaker", &[]),
            (BreakerClosed, "breaker.closed", "breaker", &[]),
        ];
        for (kind, name, cat, keys) in expected {
            let span = FleetSpan {
                kind,
                track: 0,
                req: 42,
                begin: 0,
                dur: 0,
                id: 1,
                parent: 0,
                args: [0; 4],
            };
            let mut rendered = String::new();
            span.write_name(&mut rendered);
            assert_eq!(rendered, name);
            assert_eq!(kind.parts().2, cat, "{name}");
            assert_eq!(kind.parts().3, keys, "{name}");
            assert_eq!(crate::chrome::json_string(name), format!("\"{name}\""));
        }
    }

    #[test]
    fn a_span_is_plain_numbers_within_its_size_target() {
        assert!(std::mem::size_of::<FleetSpan>() <= 80);
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

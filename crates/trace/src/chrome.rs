//! Chrome trace-event JSON exporter.
//!
//! Emits the "JSON object format" understood by Perfetto and
//! chrome://tracing: a `traceEvents` array of `B`/`E` duration events (method
//! frames, GC), `i` instants (everything else) and `M` metadata records
//! naming one track per core lane.  Timestamps are the simulator's virtual
//! cycles, written as microseconds — the absolute unit is meaningless for a
//! simulator, only relative spacing matters.
//!
//! JSON is hand-rolled (the crate has zero dependencies); only the lane
//! names and resolver-produced method names need escaping.

use crate::event::{TraceEvent, TraceKindArgs};
use crate::sink::TraceSink;
use crate::span::{FleetSpan, FlowArrow};
use std::fmt::Write as _;

/// Export `sink` with methods named `m<id>`.
pub fn chrome_trace_json(sink: &TraceSink) -> String {
    chrome_trace_json_with(sink, &|m| format!("m{m}"))
}

/// Export `sink`, mapping method ids to display names via `method_name`.
pub fn chrome_trace_json_with(sink: &TraceSink, method_name: &dyn Fn(u32) -> String) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    let push = |out: &mut String, first: &mut bool, ev: &str| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str(ev);
    };

    // One named track per lane.  pid 1 groups everything under one process.
    for (tid, lane) in sink.lanes().iter().enumerate() {
        push(
            &mut out,
            &mut first,
            &format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":{}}}}}",
                tid,
                json_string(&lane.name)
            ),
        );
    }

    for (tid, lane) in sink.lanes().iter().enumerate() {
        // Per-lane stack of open B events so the exported stream is always
        // balanced: a return with no matching open frame (the method was
        // entered before tracing looked, or on another lane after a
        // migration) degrades to an instant, and frames still open at the
        // end of the lane are closed at the lane's last timestamp.
        let mut open: Vec<String> = Vec::new();
        let mut last_ts = 0u64;
        for te in &lane.events {
            last_ts = te.at;
            match te.event {
                TraceEvent::MethodInvoke { method } => {
                    let name = json_string(&method_name(method));
                    push(
                        &mut out,
                        &mut first,
                        &format!(
                            "{{\"name\":{name},\"cat\":\"method\",\"ph\":\"B\",\"pid\":1,\"tid\":{tid},\"ts\":{}}}",
                            te.at
                        ),
                    );
                    open.push(name);
                }
                TraceEvent::MethodReturn { method } => {
                    if open.pop().is_some() {
                        push(
                            &mut out,
                            &mut first,
                            &format!("{{\"ph\":\"E\",\"pid\":1,\"tid\":{tid},\"ts\":{}}}", te.at),
                        );
                    } else {
                        let name = json_string(&format!("return {}", method_name(method)));
                        push(
                            &mut out,
                            &mut first,
                            &format!(
                                "{{\"name\":{name},\"cat\":\"method\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{tid},\"ts\":{}}}",
                                te.at
                            ),
                        );
                    }
                }
                TraceEvent::GcBegin { requester_lane } => {
                    push(
                        &mut out,
                        &mut first,
                        &format!(
                            "{{\"name\":\"GC\",\"cat\":\"gc\",\"ph\":\"B\",\"pid\":1,\"tid\":{tid},\"ts\":{},\"args\":{{\"requester_lane\":{requester_lane}}}}}",
                            te.at
                        ),
                    );
                    open.push(String::from("\"GC\""));
                }
                TraceEvent::GcEnd {
                    freed_objects,
                    freed_bytes,
                } => {
                    if open.pop().is_some() {
                        push(
                            &mut out,
                            &mut first,
                            &format!(
                                "{{\"ph\":\"E\",\"pid\":1,\"tid\":{tid},\"ts\":{},\"args\":{{\"freed_objects\":{freed_objects},\"freed_bytes\":{freed_bytes}}}}}",
                                te.at
                            ),
                        );
                    } else {
                        push(
                            &mut out,
                            &mut first,
                            &format!(
                                "{{\"name\":\"gc.end\",\"cat\":\"gc\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{tid},\"ts\":{}}}",
                                te.at
                            ),
                        );
                    }
                }
                ref ev => {
                    let TraceKindArgs { cat, args } = ev.kind_args();
                    push(
                        &mut out,
                        &mut first,
                        &format!(
                            "{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{tid},\"ts\":{}{}}}",
                            ev.kind_name(),
                            te.at,
                            if args.is_empty() {
                                String::new()
                            } else {
                                format!(",\"args\":{{{args}}}")
                            }
                        ),
                    );
                }
            }
        }
        // Close any frames still open so Perfetto sees a balanced stream.
        while open.pop().is_some() {
            push(
                &mut out,
                &mut first,
                &format!("{{\"ph\":\"E\",\"pid\":1,\"tid\":{tid},\"ts\":{last_ts}}}"),
            );
        }
    }

    out.push_str("]}");
    out
}

/// Export a fleet trace: one named track per entry of `tracks`, spans as
/// `X` complete events, and causal arrows as `s`/`f` flow-event pairs
/// (the `f` carries `bp:"e"` so the arrow binds to the enclosing slice).
///
/// Events are emitted grouped by track, each track in non-decreasing
/// timestamp order with ties broken by input order — so the export is a
/// pure function of its arguments and per-track timestamps are monotone,
/// which the integration tests assert. Timestamps are fleet-virtual
/// cycles written as microseconds, same convention as the VM exporter.
pub fn fleet_trace_json(tracks: &[String], spans: &[FleetSpan], flows: &[FlowArrow]) -> String {
    let mut out = String::with_capacity(64 + 160 * (spans.len() + 2 * flows.len()));
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (tid, name) in tracks.iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":{}}}}}",
            if tid == 0 { "" } else { "," },
            json_string(name)
        );
    }

    // Bucket a `(timestamp, seq)` key per event onto its track and sort
    // each track. `seq` is arrival order — spans first, then each arrow's
    // start and finish — so it makes the sort total and names the event.
    let mut lanes: Vec<Vec<(u64, usize)>> = vec![Vec::new(); tracks.len()];
    for (i, s) in spans.iter().enumerate() {
        lanes[s.track as usize].push((s.begin, i));
    }
    for (i, f) in flows.iter().enumerate() {
        lanes[f.from_track as usize].push((f.from_ts, spans.len() + 2 * i));
        lanes[f.to_track as usize].push((f.to_ts, spans.len() + 2 * i + 1));
    }
    for (tid, lane) in lanes.iter_mut().enumerate() {
        lane.sort_unstable();
        for &(ts, seq) in lane.iter() {
            // A lane exists per track, so a metadata record precedes this.
            out.push(',');
            if let Some(s) = spans.get(seq) {
                // Span labels are static ASCII: nothing to escape.
                let (_, _, cat, keys) = s.kind.parts();
                out.push_str("{\"name\":\"");
                let _ = s.write_name(&mut out);
                let _ = write!(
                    out,
                    "\",\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\"dur\":{},\"args\":{{\"span\":{},\"parent\":{}",
                    s.dur,
                    s.id,
                    s.parent
                );
                for (k, v) in keys.iter().zip(s.args) {
                    let _ = write!(out, ",\"{k}\":{v}");
                }
                out.push_str("}}");
            } else {
                let at = seq - spans.len();
                let f = &flows[at / 2];
                let ph = if at.is_multiple_of(2) {
                    "\"s\""
                } else {
                    "\"f\",\"bp\":\"e\""
                };
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"cat\":\"flow\",\"ph\":{ph},\"id\":{},\"pid\":1,\"tid\":{tid},\"ts\":{ts}}}",
                    f.kind.name(),
                    f.id
                );
            }
        }
    }

    out.push_str("]}");
    out
}

/// Escape `s` as a JSON string literal (including the quotes).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_json_strings() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("x\ny"), "\"x\\ny\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn empty_sink_exports_valid_shell() {
        let s = TraceSink::disabled();
        let j = chrome_trace_json(&s);
        assert_eq!(j, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[]}");
    }

    #[test]
    fn unbalanced_frames_are_repaired() {
        let mut s = TraceSink::with_lanes(["ppe"]);
        // Return with no open frame, then an invoke never returned.
        s.emit(0, 5, TraceEvent::MethodReturn { method: 1 });
        s.emit(0, 9, TraceEvent::MethodInvoke { method: 2 });
        let j = chrome_trace_json(&s);
        let b = j.matches("\"ph\":\"B\"").count();
        let e = j.matches("\"ph\":\"E\"").count();
        assert_eq!(b, e, "B/E must balance: {j}");
        assert!(j.contains("\"ph\":\"i\""), "orphan return becomes instant");
    }

    #[test]
    fn fleet_export_orders_each_track_by_timestamp() {
        use crate::span::{FlowKind, SpanKind};
        let tracks = vec![String::from("front-end"), String::from("m0")];
        // Spans deliberately out of time order on track 1.
        let span = |kind, track, begin, dur, id, parent, arg| FleetSpan {
            kind,
            track,
            req: 0,
            begin,
            dur,
            id,
            parent,
            args: [arg, 0, 0, 0],
        };
        let spans = vec![
            span(SpanKind::Service, 1, 500, 100, 2, 1, 0),
            span(SpanKind::Queue, 1, 300, 200, 3, 1, 0),
            span(SpanKind::Request, 0, 100, 500, 1, 0, 2),
        ];
        let flows = vec![FlowArrow {
            kind: FlowKind::Hedge,
            id: 7,
            from_track: 0,
            from_ts: 400,
            to_track: 1,
            to_ts: 450,
        }];
        let j = fleet_trace_json(&tracks, &spans, &flows);
        assert_eq!(j.matches("\"ph\":\"M\"").count(), 2);
        assert_eq!(j.matches("\"ph\":\"X\"").count(), 3);
        assert_eq!(j.matches("\"ph\":\"s\"").count(), 1);
        assert_eq!(j.matches("\"ph\":\"f\"").count(), 1);
        assert!(j.contains("\"bp\":\"e\""), "flow end must bind enclosing");
        let queue = j.find("queue req0").unwrap();
        let service = j.find("service req0").unwrap();
        assert!(queue < service, "track 1 must be sorted by ts: {j}");
        assert!(j.contains("\"span\":2,\"parent\":1,\"machine\":0,\"hedge\":0"));
        assert!(j.contains("\"span\":1,\"parent\":0,\"class\":2}"));
        assert_eq!(fleet_trace_json(&tracks, &spans, &flows), j);
    }

    #[test]
    fn one_metadata_record_per_lane() {
        let mut s = TraceSink::with_lanes(["ppe", "spe0", "spe1"]);
        s.emit(2, 3, TraceEvent::EibStall { cycles: 7 });
        let j = chrome_trace_json(&s);
        assert_eq!(j.matches("\"ph\":\"M\"").count(), 3);
        assert!(j.contains("\"name\":\"eib.stall\""));
        assert!(j.contains("\"cycles\":7"));
    }
}

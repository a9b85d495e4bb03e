//! Chrome trace-event JSON exporter.
//!
//! Emits the "JSON object format" understood by Perfetto and
//! chrome://tracing: a `traceEvents` array of `B`/`E` duration events (method
//! frames, GC), `X` complete events (runs of data-cache hits), `i` instants
//! (everything else) and `M` metadata records naming one track per core
//! lane.  Timestamps are the simulator's virtual cycles, written as
//! microseconds — the absolute unit is meaningless for a simulator, only
//! relative spacing matters.
//!
//! JSON is hand-rolled (the crate has zero dependencies) and every record
//! is written once, straight into the output: static fragments with
//! `push_str`, integers with [`push_u64`], names through
//! [`write_json_string`].  Only the lane names and table-supplied method
//! names need escaping.

use crate::event::TraceEvent;
use crate::sink::{TimedEvent, TraceSink};
use crate::span::{FleetSpan, FlowArrow};

/// Upper bound on the bytes one record adds to a [`chrome_trace_json`]
/// document: its own record (the longest is a `dma` instant with every
/// field at its type's maximum, ~230 B) or, for an invoke, its `B` record
/// plus the `E` that closes it.  Table-supplied method names are not
/// bounded; a document that outgrows the reservation just grows.
const MAX_RECORD_BYTES: usize = 256;

/// Upper bound on the length of `sink`'s export with unnamed methods and
/// lane names of ordinary length.
fn document_bound(sink: &TraceSink) -> usize {
    64 + MAX_RECORD_BYTES * (sink.lanes().len() + sink.event_count())
}

/// Export `sink` with methods named `m<id>`.
pub fn chrome_trace_json(sink: &TraceSink) -> String {
    chrome_trace_json_named::<&str>(sink, &[])
}

/// Export `sink`, naming method `id` `names[id]` (`m<id>` past the end of
/// the table).
pub fn chrome_trace_json_named<S: AsRef<str>>(sink: &TraceSink, names: &[S]) -> String {
    let mut out = String::new();
    // Reserving the bound up front means no record ever moves the
    // document; capacity that is never written is never resident. A
    // refused reservation only means the document grows on demand.
    let _ = out.try_reserve(document_bound(sink));
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");

    // One named track per lane.  pid 1 groups everything under one process.
    for (tid, lane) in sink.lanes().iter().enumerate() {
        write_track_name(&mut out, tid, &lane.name);
    }

    // A method's display name without its quotes.
    let method_name = |out: &mut String, method: u32| match names.get(method as usize) {
        Some(name) => write_json_escaped(out, name.as_ref()),
        None => {
            out.push('m');
            push_u64(out, method.into());
        }
    };
    for (tid, lane) in sink.lanes().iter().enumerate() {
        // What every record of this lane says between its head and its
        // timestamp.
        let at = format!(",\"pid\":1,\"tid\":{tid},\"ts\":");
        let stamp = |out: &mut String, ts: u64| num(out, &at, ts);
        let args = |out: &mut String, ev: &TraceEvent| {
            out.push_str(",\"args\":{");
            ev.write_args(out);
            out.push('}');
        };
        // Count of open B events so the exported stream is always
        // balanced: a return with no open frame (the method was entered
        // before tracing looked, or on another lane after a migration)
        // degrades to an instant, and frames still open at the end of the
        // lane are closed where the lane's last record ends.  A lane exists per
        // track, so a metadata record precedes every record written here.
        let mut open = 0usize;
        for te in &lane.events {
            match te.event {
                TraceEvent::MethodInvoke { method } => {
                    open += 1;
                    out.push_str(",{\"name\":\"");
                    method_name(&mut out, method);
                    out.push_str("\",\"cat\":\"method\",\"ph\":\"B\"");
                    stamp(&mut out, te.at);
                }
                TraceEvent::GcBegin { .. } => {
                    open += 1;
                    out.push_str(",{\"name\":\"GC\",\"cat\":\"gc\",\"ph\":\"B\"");
                    stamp(&mut out, te.at);
                    args(&mut out, &te.event);
                }
                TraceEvent::MethodReturn { .. } | TraceEvent::GcEnd { .. } if open > 0 => {
                    open -= 1;
                    out.push_str(",{\"ph\":\"E\"");
                    stamp(&mut out, te.at);
                    if let TraceEvent::GcEnd { .. } = te.event {
                        args(&mut out, &te.event);
                    }
                }
                TraceEvent::MethodReturn { method } => {
                    out.push_str(",{\"name\":\"return ");
                    method_name(&mut out, method);
                    out.push_str("\",\"cat\":\"method\",\"ph\":\"i\",\"s\":\"t\"");
                    stamp(&mut out, te.at);
                }
                ref ev => {
                    let kind = ev.kind();
                    out.push_str(",{\"name\":\"");
                    out.push_str(kind.name);
                    out.push_str("\",\"cat\":\"");
                    out.push_str(kind.cat);
                    // A run of hits is a complete event from its first hit
                    // to its last: invoke and return end a run, so it
                    // nests inside the enclosing frame.
                    if let TraceEvent::DataCacheHitRun { until, .. } = *ev {
                        out.push_str("\",\"ph\":\"X\"");
                        stamp(&mut out, te.at);
                        num(&mut out, ",\"dur\":", until.saturating_sub(te.at));
                    } else {
                        out.push_str("\",\"ph\":\"i\",\"s\":\"t\"");
                        stamp(&mut out, te.at);
                    }
                    // An orphan `gc.end` has never carried its args.
                    if !matches!(ev, TraceEvent::GcEnd { .. }) {
                        args(&mut out, ev);
                    }
                }
            }
            out.push('}');
        }
        // Close any frames still open so Perfetto sees a balanced stream.
        let last_ts = lane.events.last().map_or(0, TimedEvent::end);
        for _ in 0..open {
            out.push_str(",{\"ph\":\"E\"");
            stamp(&mut out, last_ts);
            out.push('}');
        }
    }

    out.push_str("]}");
    out
}

/// The `thread_name` metadata record that names track `tid`.
fn write_track_name(out: &mut String, tid: usize, name: &str) {
    if tid > 0 {
        out.push(',');
    }
    let head = "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":";
    num(out, head, tid as u64);
    out.push_str(",\"args\":{\"name\":");
    write_json_string(out, name);
    out.push_str("}}");
}

/// Export a fleet trace: one named track per entry of `tracks`, spans as
/// `X` complete events, and causal arrows as `s`/`f` flow-event pairs
/// (the `f` carries `bp:"e"` so the arrow binds to the enclosing slice).
/// `moves` is the table the `Migrate` / `Drain` spans index.
///
/// Events are emitted grouped by track, each track in non-decreasing
/// timestamp order with ties broken by input order — so the export is a
/// pure function of its arguments and per-track timestamps are monotone,
/// which the integration tests assert. Timestamps are fleet-virtual
/// cycles written as microseconds, same convention as the VM exporter.
pub fn fleet_trace_json(
    tracks: &[String],
    spans: &[FleetSpan],
    moves: &[[u64; 4]],
    flows: &[FlowArrow],
) -> String {
    let mut out = String::with_capacity(64 + 160 * (spans.len() + 2 * flows.len()));
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (tid, name) in tracks.iter().enumerate() {
        write_track_name(&mut out, tid, name);
    }

    // One `(track, timestamp, seq)` key per event, sorted. `seq` is arrival
    // order — spans first, then each arrow's start and finish — so it
    // makes the sort total and names the event. A track past the end of
    // `tracks` is written like any other, on its unnamed `tid`.
    let mut keys: Vec<(u32, u64, usize)> = Vec::with_capacity(spans.len() + 2 * flows.len());
    keys.extend(
        spans
            .iter()
            .enumerate()
            .map(|(i, s)| (s.track.into(), s.begin, i)),
    );
    for (i, f) in flows.iter().enumerate() {
        keys.push((f.from_track, f.from_ts, spans.len() + 2 * i));
        keys.push((f.to_track, f.to_ts, spans.len() + 2 * i + 1));
    }
    keys.sort_unstable();
    // Only a document with no named track starts on an event.
    let mut sep = if tracks.is_empty() { "" } else { "," };
    for (tid, ts, seq) in keys {
        out.push_str(sep);
        sep = ",";
        if let Some(s) = spans.get(seq) {
            // Span labels are static ASCII: nothing to escape.
            out.push_str("{\"name\":\"");
            s.write_name(&mut out);
            out.push_str("\",\"cat\":\"");
            out.push_str(s.kind.parts().2);
            num(&mut out, "\",\"ph\":\"X\",\"pid\":1,\"tid\":", tid);
            num(&mut out, ",\"ts\":", ts);
            num(&mut out, ",\"dur\":", s.dur);
            num(&mut out, ",\"args\":{\"span\":", s.id);
            num(&mut out, ",\"parent\":", s.parent);
            s.write_args(moves, &mut out);
            out.push_str("}}");
        } else {
            let at = seq - spans.len();
            let f = &flows[at / 2];
            out.push_str("{\"name\":\"");
            out.push_str(f.kind.name());
            out.push_str(if at.is_multiple_of(2) {
                "\",\"cat\":\"flow\",\"ph\":\"s\""
            } else {
                "\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\""
            });
            num(&mut out, ",\"id\":", f.id);
            num(&mut out, ",\"pid\":1,\"tid\":", tid);
            num(&mut out, ",\"ts\":", ts);
            out.push('}');
        }
    }

    out.push_str("]}");
    out
}

/// Append `<key><value>`, the key written as it appears in the output
/// (quotes, colon and any separating comma included).
pub(crate) fn num(out: &mut String, key: &str, value: impl Into<u64>) {
    out.push_str(key);
    push_u64(out, value.into());
}

/// Append `v` in decimal.
pub fn push_u64(out: &mut String, mut v: u64) {
    // u64::MAX has 20 digits; fill from the right.
    let mut buf = [0u8; 20];
    let mut start = buf.len();
    loop {
        start -= 1;
        buf[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[start..]).expect("ASCII digits"));
}

/// Append `s` escaped for the inside of a JSON string literal.
fn write_json_escaped(out: &mut String, s: &str) {
    let mut rest = s;
    // Everything that needs escaping is one ASCII byte, so unescaped runs
    // are copied whole and the split points are char boundaries.
    while let Some(i) = rest
        .bytes()
        .position(|b| b == b'"' || b == b'\\' || b < 0x20)
    {
        out.push_str(&rest[..i]);
        match rest.as_bytes()[i] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            b => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.push_str("\\u00");
                out.push(HEX[usize::from(b >> 4)] as char);
                out.push(HEX[usize::from(b & 15)] as char);
            }
        }
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
}

/// Append `s` as a JSON string literal (including the quotes).
pub fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    write_json_escaped(out, s);
    out.push('"');
}

/// Escape `s` as a JSON string literal (including the quotes).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_json_string(&mut out, s);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::testing::every_variant;
    use crate::span::{FlowKind, SpanKind};
    use hera_rng::SplitMix64;

    // The exporter this module's `chrome_trace_json_named` replaced, kept
    // verbatim as the reference for the differential tests: it builds
    // every record with `format!`, and `kind_name_reference` /
    // `kind_args_reference` are the two per-kind matches that
    // `TraceEvent::kind` and `TraceEvent::write_args` replaced.
    fn kind_name_reference(ev: &TraceEvent) -> &'static str {
        match ev {
            TraceEvent::MethodInvoke { .. } => "method.invoke",
            TraceEvent::MethodReturn { .. } => "method.return",
            TraceEvent::MigrateOut { .. } => "migrate.out",
            TraceEvent::MigrateIn { .. } => "migrate.in",
            TraceEvent::Dma { .. } => "dma",
            TraceEvent::EibStall { .. } => "eib.stall",
            TraceEvent::DataCacheHit { .. } => "dcache.hit",
            TraceEvent::DataCacheHitRun { .. } => "dcache.hit_run",
            TraceEvent::DataCacheMiss { .. } => "dcache.miss",
            TraceEvent::DataCacheWriteBack { .. } => "dcache.writeback",
            TraceEvent::DataCachePurge { .. } => "dcache.purge",
            TraceEvent::DataCacheBypass { .. } => "dcache.bypass",
            TraceEvent::CodeCacheHit { .. } => "ccache.hit",
            TraceEvent::CodeCacheMiss { .. } => "ccache.miss",
            TraceEvent::CodeCacheTibHit { .. } => "ccache.tib_hit",
            TraceEvent::CodeCacheTibMiss { .. } => "ccache.tib_miss",
            TraceEvent::CodeCachePurge { .. } => "ccache.purge",
            TraceEvent::JmmBarrier { .. } => "jmm.barrier",
            TraceEvent::MonitorAcquire { .. } => "monitor.acquire",
            TraceEvent::MonitorContended { .. } => "monitor.contended",
            TraceEvent::MonitorRelease { .. } => "monitor.release",
            TraceEvent::SyscallProxy { .. } => "native.syscall_proxy",
            TraceEvent::JniBridge { .. } => "native.jni_bridge",
            TraceEvent::GcBegin { .. } => "gc.begin",
            TraceEvent::GcPhaseEnd { .. } => "gc.phase_end",
            TraceEvent::GcEnd { .. } => "gc.end",
            TraceEvent::ThreadSwitch { .. } => "thread.switch",
            TraceEvent::MfcFault { .. } => "fault.mfc",
            TraceEvent::MfcRetry { .. } => "fault.retry",
            TraceEvent::WatchdogTimeout { .. } => "fault.watchdog",
            TraceEvent::SpeFailed { .. } => "fault.spe_failed",
            TraceEvent::SpeDrained { .. } => "fault.spe_drained",
            TraceEvent::Checkpoint { .. } => "snap.checkpoint",
            TraceEvent::Restore { .. } => "snap.restore",
        }
    }

    fn kind_args_reference(ev: &TraceEvent) -> (&'static str, String) {
        match *ev {
            TraceEvent::MethodInvoke { method } | TraceEvent::MethodReturn { method } => {
                ("method", format!("\"method\":{method}"))
            }
            TraceEvent::MigrateOut {
                kind,
                to_lane,
                thread,
            } => (
                "migration",
                format!(
                    "\"kind\":\"{}\",\"to_lane\":{to_lane},\"thread\":{thread}",
                    kind.label()
                ),
            ),
            TraceEvent::MigrateIn {
                kind,
                from_lane,
                thread,
            } => (
                "migration",
                format!(
                    "\"kind\":\"{}\",\"from_lane\":{from_lane},\"thread\":{thread}",
                    kind.label()
                ),
            ),
            TraceEvent::Dma {
                tag,
                bytes,
                queue_cycles,
                transfer_cycles,
            } => (
                "dma",
                format!(
                    "\"tag\":\"{}\",\"bytes\":{bytes},\"queue_cycles\":{queue_cycles},\"transfer_cycles\":{transfer_cycles}",
                    tag.label()
                ),
            ),
            TraceEvent::EibStall { cycles } => ("dma", format!("\"cycles\":{cycles}")),
            TraceEvent::DataCacheHit { addr } => ("dcache", format!("\"addr\":{addr}")),
            TraceEvent::DataCacheHitRun { addr, hits, .. } => {
                ("dcache", format!("\"addr\":{addr},\"hits\":{hits}"))
            }
            TraceEvent::DataCacheMiss { addr, bytes } => {
                ("dcache", format!("\"addr\":{addr},\"bytes\":{bytes}"))
            }
            TraceEvent::DataCacheWriteBack { addr, bytes } => {
                ("dcache", format!("\"addr\":{addr},\"bytes\":{bytes}"))
            }
            TraceEvent::DataCachePurge { resident_units } => {
                ("dcache", format!("\"resident_units\":{resident_units}"))
            }
            TraceEvent::DataCacheBypass { addr, bytes } => {
                ("dcache", format!("\"addr\":{addr},\"bytes\":{bytes}"))
            }
            TraceEvent::CodeCacheHit { method } => ("ccache", format!("\"method\":{method}")),
            TraceEvent::CodeCacheMiss { method, bytes } => {
                ("ccache", format!("\"method\":{method},\"bytes\":{bytes}"))
            }
            TraceEvent::CodeCacheTibHit { class } => ("ccache", format!("\"class\":{class}")),
            TraceEvent::CodeCacheTibMiss { class, bytes } => {
                ("ccache", format!("\"class\":{class},\"bytes\":{bytes}"))
            }
            TraceEvent::CodeCachePurge { bytes_in_use } => {
                ("ccache", format!("\"bytes_in_use\":{bytes_in_use}"))
            }
            TraceEvent::JmmBarrier { kind } => {
                ("jmm", format!("\"kind\":\"{}\"", kind.label()))
            }
            TraceEvent::MonitorAcquire { obj }
            | TraceEvent::MonitorContended { obj }
            | TraceEvent::MonitorRelease { obj } => ("monitor", format!("\"obj\":{obj}")),
            TraceEvent::SyscallProxy { native } | TraceEvent::JniBridge { native } => {
                ("native", format!("\"native\":{native}"))
            }
            TraceEvent::GcBegin { requester_lane } => {
                ("gc", format!("\"requester_lane\":{requester_lane}"))
            }
            TraceEvent::GcPhaseEnd {
                phase,
                items,
                bytes,
            } => (
                "gc",
                format!(
                    "\"phase\":\"{}\",\"items\":{items},\"bytes\":{bytes}",
                    phase.label()
                ),
            ),
            TraceEvent::GcEnd {
                freed_objects,
                freed_bytes,
            } => (
                "gc",
                format!("\"freed_objects\":{freed_objects},\"freed_bytes\":{freed_bytes}"),
            ),
            TraceEvent::ThreadSwitch { thread } => ("sched", format!("\"thread\":{thread}")),
            TraceEvent::MfcFault { kind, attempt } => (
                "fault",
                format!("\"kind\":\"{}\",\"attempt\":{attempt}", kind.label()),
            ),
            TraceEvent::MfcRetry {
                attempt,
                backoff_cycles,
            } => (
                "fault",
                format!("\"attempt\":{attempt},\"backoff_cycles\":{backoff_cycles}"),
            ),
            TraceEvent::WatchdogTimeout { kind, cycles } => (
                "fault",
                format!("\"kind\":\"{}\",\"cycles\":{cycles}", kind.label()),
            ),
            TraceEvent::SpeFailed { spe } => ("fault", format!("\"spe\":{spe}")),
            TraceEvent::SpeDrained { threads } => ("fault", format!("\"threads\":{threads}")),
            TraceEvent::Checkpoint { seq, bytes } => {
                ("snap", format!("\"seq\":{seq},\"bytes\":{bytes}"))
            }
            TraceEvent::Restore { seq } => ("snap", format!("\"seq\":{seq}")),
        }
    }

    fn json_string_reference(s: &str) -> String {
        use std::fmt::Write as _;
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

    fn chrome_trace_json_reference(
        sink: &TraceSink,
        method_name: &dyn Fn(u32) -> String,
    ) -> String {
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
                    json_string_reference(&lane.name)
                ),
            );
        }

        for (tid, lane) in sink.lanes().iter().enumerate() {
            // Per-lane stack of open B events so the exported stream is always
            // balanced: a return with no matching open frame (the method was
            // entered before tracing looked, or on another lane after a
            // migration) degrades to an instant, and frames still open at the
            // end of the lane are closed at the lane's last timestamp (the
            // time of its last hit, when the lane ends on a run of them).
            let mut open: Vec<String> = Vec::new();
            let mut last_ts = 0u64;
            for te in &lane.events {
                last_ts = te.at;
                match te.event {
                    TraceEvent::DataCacheHitRun { addr, hits, until } => {
                        last_ts = until;
                        push(
                            &mut out,
                            &mut first,
                            &format!(
                                "{{\"name\":\"dcache.hit_run\",\"cat\":\"dcache\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{},\"dur\":{},\"args\":{{\"addr\":{addr},\"hits\":{hits}}}}}",
                                te.at,
                                until.saturating_sub(te.at)
                            ),
                        );
                    }
                    TraceEvent::MethodInvoke { method } => {
                        let name = json_string_reference(&method_name(method));
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
                                &format!(
                                    "{{\"ph\":\"E\",\"pid\":1,\"tid\":{tid},\"ts\":{}}}",
                                    te.at
                                ),
                            );
                        } else {
                            let name =
                                json_string_reference(&format!("return {}", method_name(method)));
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
                        let (cat, args) = kind_args_reference(ev);
                        push(
                            &mut out,
                            &mut first,
                            &format!(
                                "{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{tid},\"ts\":{}{}}}",
                                kind_name_reference(ev),
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

    /// Names with everything the escaper handles, plus multi-byte text.
    const HOSTILE: [&str; 6] = [
        "plain",
        "evil\"quote",
        "back\\slash\ttab\nnew\rline",
        "ctl\u{1}\u{1f}\u{0}",
        "unicode-méthode-λ·メソッド",
        "",
    ];

    /// Panic with the neighbourhood of the first byte where `got` leaves
    /// `want` (the documents can be megabytes).
    fn assert_same_document(got: &str, want: &str, what: &str) {
        if got == want {
            return;
        }
        let (g, w) = (got.as_bytes(), want.as_bytes());
        let at = g.iter().zip(w).take_while(|(a, b)| a == b).count();
        let window = |b: &[u8]| {
            let shown = &b[at.saturating_sub(80)..b.len().min(at + 40)];
            String::from_utf8_lossy(shown).into_owned()
        };
        panic!(
            "{what}: differs from the reference at byte {at}\n  new: …{}\n  ref: …{}",
            window(g),
            window(w)
        );
    }

    /// New ≡ reference on `sink`, unnamed and through the name table; the
    /// unnamed document also stays inside the reservation.
    fn assert_matches_reference(sink: &TraceSink, names: &[&str], what: &str) {
        let unnamed = chrome_trace_json(sink);
        let reference = chrome_trace_json_reference(sink, &|m| format!("m{m}"));
        assert_same_document(&unnamed, &reference, what);
        assert!(
            unnamed.len() <= document_bound(sink),
            "{what}: outgrew the reservation"
        );
        let resolver = |m: u32| match names.get(m as usize) {
            Some(n) => n.to_string(),
            None => format!("m{m}"),
        };
        let reference = chrome_trace_json_reference(sink, &resolver);
        assert_same_document(&chrome_trace_json_named(sink, names), &reference, what);
    }

    #[test]
    fn every_variant_matches_the_reference_at_field_extremes() {
        for (a, b) in [(0, 0), (1, 1), (u32::MAX, u64::MAX)] {
            // Five picks reach every label of every label enum.
            for pick in 0..5 {
                let events = every_variant(a, b, pick);
                let mut all = TraceSink::with_lanes(["ppe", "spe0"]);
                for (i, ev) in events.iter().enumerate() {
                    all.emit(i % 2, b, *ev);
                    // Alone on its lane a return / `gc.end` is an orphan
                    // and an invoke / `gc.begin` is closed at lane end.
                    let mut alone = TraceSink::with_lanes(["ppe"]);
                    let shell = chrome_trace_json(&alone).len();
                    alone.emit(0, b, *ev);
                    assert_matches_reference(&alone, &HOSTILE, ev.kind_name());
                    let added = chrome_trace_json(&alone).len() - shell;
                    assert!(added <= MAX_RECORD_BYTES, "{}: {added} B", ev.kind_name());
                }
                assert_matches_reference(&all, &HOSTILE, "every variant");
            }
        }
    }

    #[test]
    fn unbalanced_streams_match_the_reference() {
        let invoke = TraceEvent::MethodInvoke { method: 1 };
        let ret = TraceEvent::MethodReturn { method: 1 };
        let gc_begin = TraceEvent::GcBegin { requester_lane: 0 };
        let gc_end = TraceEvent::GcEnd {
            freed_objects: 3,
            freed_bytes: 96,
        };
        let streams: [(&str, &[TraceEvent]); 7] = [
            ("orphan return", &[ret, invoke, ret]),
            ("orphan gc.end", &[gc_end, gc_begin, gc_end]),
            ("frames left open", &[invoke, invoke, gc_begin]),
            ("gc.end closes a method frame", &[invoke, gc_end, ret]),
            ("return closes a gc frame", &[gc_begin, ret, gc_end]),
            ("more closes than opens", &[invoke, ret, ret, gc_end, ret]),
            ("nothing at all", &[]),
        ];
        for (what, events) in streams {
            // The stream sits between an empty lane and a lane whose name
            // needs escaping.
            let mut sink = TraceSink::with_lanes(["", "spe \"0\"\\\n", "ppe\u{2}"]);
            for (i, ev) in events.iter().enumerate() {
                sink.emit(1, 10 * i as u64, *ev);
                sink.emit(2, 7, *ev);
            }
            assert_matches_reference(&sink, &HOSTILE, what);
        }
        assert_matches_reference(&TraceSink::disabled(), &[], "disabled sink");
    }

    #[test]
    fn seeded_random_streams_match_the_reference() {
        for seed in 1..=16u64 {
            let mut rng = SplitMix64::new(seed);
            let lanes = 1 + rng.next_below(4) as usize;
            let mut sink = TraceSink::with_lanes((0..lanes).map(|l| format!("lane{l}")));
            for lane in 0..lanes {
                let mut at = 0u64;
                for _ in 0..rng.next_below(300) {
                    // Narrow and full-width field values, in turn.
                    let shift = [0, 32, 56][rng.next_below(3) as usize];
                    let word = rng.next_u64() >> shift;
                    let events = every_variant(word as u32, word, rng.next_below(5) as usize);
                    // Half the stream opens and closes frames.
                    let ev = match rng.next_below(8) {
                        0 | 1 => TraceEvent::MethodInvoke {
                            method: rng.next_below(10) as u32,
                        },
                        2 | 3 => TraceEvent::MethodReturn {
                            method: rng.next_below(10) as u32,
                        },
                        _ => events[rng.next_below(events.len() as u64) as usize],
                    };
                    at += rng.next_below(1_000);
                    sink.emit(lane, at, ev);
                }
            }
            let names = &HOSTILE[..rng.next_below(HOSTILE.len() as u64 + 1) as usize];
            assert_matches_reference(&sink, names, &format!("seed {seed}"));
        }
    }

    #[test]
    fn push_u64_matches_to_string() {
        let mut values = vec![0, 9, 10, u64::MAX];
        let mut power = 10u64;
        while let Some(next) = power.checked_mul(10) {
            values.extend([power - 1, power, power + 1]);
            power = next;
        }
        values.extend([power - 1, power, power + 1]);
        for v in values {
            let mut out = String::from("x");
            push_u64(&mut out, v);
            assert_eq!(out, format!("x{v}"));
        }
    }

    #[test]
    fn json_strings_match_the_reference_escaper() {
        for s in HOSTILE {
            assert_eq!(json_string(s), json_string_reference(s));
        }
        let every_ascii: String = (0u8..128).map(char::from).collect();
        assert_eq!(
            json_string(&every_ascii),
            json_string_reference(&every_ascii)
        );
    }

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
        let tracks = vec![String::from("front-end"), String::from("m0")];
        // Spans deliberately out of time order on track 1.
        let span = |kind, track, begin, dur, id, parent, arg| FleetSpan {
            begin,
            dur,
            id,
            parent,
            arg,
            req: 0,
            track,
            kind,
            hedge: false,
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
        let j = fleet_trace_json(&tracks, &spans, &[], &flows);
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
        assert_eq!(fleet_trace_json(&tracks, &spans, &[], &flows), j);
    }

    // The 80-byte span record `FleetSpan` replaced and the writer that
    // exported it, kept as the reference for the differential test below:
    // every args value inline, named by a per-kind key list.
    #[derive(Clone, Copy, Debug)]
    struct FleetSpanReference {
        kind: SpanKind,
        track: u32,
        req: u64,
        begin: u64,
        dur: u64,
        id: u64,
        parent: u64,
        args: [u64; 4],
    }

    fn span_keys_reference(kind: SpanKind) -> &'static [&'static str] {
        use SpanKind::*;
        match kind {
            Request => &["class"],
            Queue | QueueCancelled | QueueInterrupted | QueueDrained => &["machine"],
            Dispatch => &["transfer"],
            Service | ServiceCancelled | ServiceInterrupted | ServiceMigrated => {
                &["machine", "hedge"]
            }
            Migrate | Drain => &["dest", "bytes", "transfer", "reexec"],
            _ => &[],
        }
    }

    fn fleet_trace_json_reference(
        tracks: &[String],
        spans: &[FleetSpanReference],
        flows: &[FlowArrow],
    ) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        for (tid, name) in tracks.iter().enumerate() {
            write_track_name(&mut out, tid, name);
        }
        let mut keys: Vec<(u32, u64, usize)> = Vec::new();
        keys.extend(spans.iter().enumerate().map(|(i, s)| (s.track, s.begin, i)));
        for (i, f) in flows.iter().enumerate() {
            keys.push((f.from_track, f.from_ts, spans.len() + 2 * i));
            keys.push((f.to_track, f.to_ts, spans.len() + 2 * i + 1));
        }
        keys.sort_unstable();
        let mut sep = if tracks.is_empty() { "" } else { "," };
        for (tid, ts, seq) in keys {
            out.push_str(sep);
            sep = ",";
            if let Some(s) = spans.get(seq) {
                let (label, names_request, cat) = s.kind.parts();
                out.push_str("{\"name\":\"");
                out.push_str(label);
                if names_request {
                    out.push_str(if label.is_empty() { "req" } else { " req" });
                    push_u64(&mut out, s.req);
                }
                out.push_str("\",\"cat\":\"");
                out.push_str(cat);
                num(&mut out, "\",\"ph\":\"X\",\"pid\":1,\"tid\":", tid);
                num(&mut out, ",\"ts\":", ts);
                num(&mut out, ",\"dur\":", s.dur);
                num(&mut out, ",\"args\":{\"span\":", s.id);
                num(&mut out, ",\"parent\":", s.parent);
                for (k, v) in span_keys_reference(s.kind).iter().zip(s.args) {
                    out.push_str(",\"");
                    out.push_str(k);
                    num(&mut out, "\":", v);
                }
                out.push_str("}}");
            } else {
                let at = seq - spans.len();
                let f = &flows[at / 2];
                out.push_str("{\"name\":\"");
                out.push_str(f.kind.name());
                out.push_str(if at.is_multiple_of(2) {
                    "\",\"cat\":\"flow\",\"ph\":\"s\""
                } else {
                    "\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\""
                });
                num(&mut out, ",\"id\":", f.id);
                num(&mut out, ",\"pid\":1,\"tid\":", tid);
                num(&mut out, ",\"ts\":", ts);
                out.push('}');
            }
        }
        out.push_str("]}");
        out
    }

    /// What a recorder stores for `old` in the 48-byte record: the first
    /// args value inline — a `Migrate` / `Drain` span's four go to the
    /// moves table and it keeps their index — and a hedge bit.
    fn convert(old: &[FleetSpanReference]) -> (Vec<FleetSpan>, Vec<[u64; 4]>) {
        let mut moves = Vec::new();
        let mut spans = Vec::new();
        for o in old {
            let arg = if matches!(o.kind, SpanKind::Migrate | SpanKind::Drain) {
                moves.push(o.args);
                moves.len() as u64 - 1
            } else {
                o.args[0]
            };
            spans.push(FleetSpan {
                begin: o.begin,
                dur: o.dur,
                id: o.id,
                parent: o.parent,
                arg,
                req: u32::try_from(o.req).expect("request id fits"),
                track: u16::try_from(o.track).expect("track fits"),
                kind: o.kind,
                hedge: o.args[1] % 2 == 1,
            });
        }
        (spans, moves)
    }

    /// A span in the old form that the new record can hold (track in 16
    /// bits, request in 32, a `Service*` hedge of 0 or 1), its numbers at
    /// zero, small, full-width or `u64::MAX` in turn.
    fn reference_span(rng: &mut SplitMix64, kind: SpanKind, tracks: u64) -> FleetSpanReference {
        let mut wide = || match rng.next_below(4) {
            0 => 0,
            1 => rng.next_below(1000),
            2 => rng.next_u64(),
            _ => u64::MAX,
        };
        let mut args = [wide(), wide(), wide(), wide()];
        let (begin, dur, id, parent) = (wide(), wide(), wide(), wide());
        use SpanKind::*;
        if matches!(
            kind,
            Service | ServiceCancelled | ServiceInterrupted | ServiceMigrated
        ) {
            args[1] = rng.next_below(2);
        }
        let req = match rng.next_below(3) {
            0 => u64::from(u32::MAX),
            _ => rng.next_below(1 << 20),
        };
        let track = match rng.next_below(8) {
            0 => u32::from(u16::MAX),
            _ => rng.next_below(tracks) as u32,
        };
        FleetSpanReference {
            kind,
            track,
            req,
            begin,
            dur,
            id,
            parent,
            args,
        }
    }

    /// The new record and writer export exactly the bytes the old ones
    /// did: every kind, field extremes, tracks past the name table, and
    /// empty inputs.
    #[test]
    fn fleet_export_matches_the_reference_record_and_writer() {
        let flow_kinds = [
            FlowKind::Retry,
            FlowKind::Hedge,
            FlowKind::Requeue,
            FlowKind::Migrate,
            FlowKind::Drain,
        ];
        for seed in 1..=32u64 {
            let mut rng = SplitMix64::new(seed);
            // Up to three named tracks; spans and arrows reach three past.
            let named = rng.next_below(4) as usize;
            let tracks: Vec<String> = (0..named).map(|t| format!("machine {t}")).collect();
            let on_tracks = named as u64 + 3;
            // Every kind once, then random kinds.
            let mut old: Vec<FleetSpanReference> = SpanKind::ALL
                .iter()
                .map(|&kind| reference_span(&mut rng, kind, on_tracks))
                .collect();
            for _ in 0..rng.next_below(200) {
                let kind = SpanKind::ALL[rng.next_below(21) as usize];
                old.push(reference_span(&mut rng, kind, on_tracks));
            }
            let flows: Vec<FlowArrow> = (0..rng.next_below(20))
                .map(|i| FlowArrow {
                    kind: flow_kinds[rng.next_below(5) as usize],
                    id: i + 1,
                    from_track: rng.next_below(on_tracks) as u32,
                    from_ts: rng.next_u64() >> (8 * rng.next_below(8)),
                    to_track: rng.next_below(on_tracks) as u32,
                    to_ts: rng.next_u64() >> (8 * rng.next_below(8)),
                })
                .collect();
            let (spans, moves) = convert(&old);
            assert_same_document(
                &fleet_trace_json(&tracks, &spans, &moves, &flows),
                &fleet_trace_json_reference(&tracks, &old, &flows),
                &format!("seed {seed}"),
            );
        }
        let names = [String::from("front-end")];
        for tracks in [&names[..], &[]] {
            let doc = fleet_trace_json(tracks, &[], &[], &[]);
            assert_eq!(doc, fleet_trace_json_reference(tracks, &[], &[]));
        }
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

//! Plain-text per-core trace digest.

use crate::event::{TraceEvent, KINDS};
use crate::sink::TraceSink;
use std::fmt::Write as _;

/// Render a per-lane summary: event counts by kind, first/last virtual
/// timestamps, followed by the metrics registry.
pub fn text_summary(sink: &TraceSink) -> String {
    let mut out = String::new();
    if !sink.is_enabled() {
        out.push_str("trace: disabled (no events recorded)\n");
    }
    for lane in sink.lanes() {
        // A kind's index is its name's rank, so the counts come out in
        // the order kinds are listed in.
        let mut by_kind = [("", 0u64); KINDS];
        for te in &lane.events {
            // A run of hits counts as the hits it folded.
            let kind = match te.event {
                TraceEvent::DataCacheHitRun { addr, .. } => TraceEvent::DataCacheHit { addr },
                event => event,
            }
            .kind();
            by_kind[kind.index] = (kind.name, by_kind[kind.index].1 + te.emitted());
        }
        let events: u64 = by_kind.iter().map(|(_, n)| n).sum();
        let _ = writeln!(out, "lane {:<8} {:>8} events", lane.name, events);
        let (Some(first), Some(last)) = (lane.events.first(), lane.events.last()) else {
            continue;
        };
        let (first, last) = (first.at, last.end());
        let _ = writeln!(out, "  span: {first} .. {last} virtual cycles");
        for (name, n) in by_kind {
            if n > 0 {
                let _ = writeln!(out, "  {name:<24} {n:>10}");
            }
        }
    }
    if !sink.metrics.is_empty() {
        out.push_str("metrics:\n");
        for line in sink.metrics.render().lines() {
            let _ = writeln!(out, "  {line}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::testing::every_variant;
    use crate::sink::TimedEvent;
    use hera_rng::SplitMix64;
    use std::collections::BTreeMap;

    /// The per-lane kind listing `text_summary` replaced, over the events
    /// each lane was handed (before the sink folded any hits): a
    /// string-keyed map, so its order is the names' lexicographic order.
    fn kind_lines_reference(emitted: &[Vec<TraceEvent>]) -> Vec<String> {
        let mut lines = Vec::new();
        for lane in emitted {
            let mut by_kind: BTreeMap<&'static str, u64> = BTreeMap::new();
            for ev in lane {
                let (kind, n) = match *ev {
                    TraceEvent::DataCacheHitRun { hits, .. } => ("dcache.hit", hits.into()),
                    ev => (ev.kind_name(), 1),
                };
                *by_kind.entry(kind).or_insert(0) += n;
            }
            for (kind, n) in by_kind {
                lines.push(format!("  {kind:<24} {n:>10}"));
            }
        }
        lines
    }

    #[test]
    fn kind_counts_match_the_map_based_reference() {
        for seed in 1..=8u64 {
            let mut rng = SplitMix64::new(seed);
            let mut sink = TraceSink::with_lanes(["ppe", "spe0", "spe1"]);
            let mut emitted = vec![Vec::new(); 3];
            for (lane, emitted) in emitted.iter_mut().enumerate() {
                // Some lanes see few kinds, some all of them, many times.
                let events = every_variant(3, 2, 0);
                let kinds = 1 + rng.next_below(events.len() as u64);
                for at in 0..rng.next_below(400) {
                    let ev = events[rng.next_below(kinds) as usize];
                    sink.emit(lane, at, ev);
                    emitted.push(ev);
                }
            }
            let text = text_summary(&sink);
            let got: Vec<&str> = text
                .lines()
                .filter(|l| l.starts_with("  ") && !l.starts_with("  span:"))
                .collect();
            assert_eq!(got, kind_lines_reference(&emitted), "seed {seed}");
            // Each lane's header counts what was emitted, not the records.
            let headers = text.lines().filter(|l| l.starts_with("lane "));
            for (header, emitted) in headers.zip(&emitted) {
                let n: u64 = emitted
                    .iter()
                    .map(|&event| TimedEvent { at: 0, event }.emitted())
                    .sum();
                assert!(header.ends_with(&format!(" {n:>8} events")), "{header}");
            }
        }
    }

    #[test]
    fn a_lane_ending_on_a_run_spans_to_its_last_hit() {
        let mut s = TraceSink::with_lanes(["spe0"]);
        for at in [4, 6, 9] {
            s.emit(0, at, TraceEvent::DataCacheHit { addr: 64 });
        }
        assert_eq!(s.event_count(), 1);
        let t = text_summary(&s);
        assert!(t.contains("       3 events"), "{t}");
        assert!(t.contains("span: 4 .. 9 virtual"), "{t}");
        assert!(t.contains("dcache.hit                        3"), "{t}");
        assert!(!t.contains("hit_run"), "{t}");
    }

    #[test]
    fn summary_counts_by_kind() {
        let mut s = TraceSink::with_lanes(["ppe", "spe0"]);
        s.emit(0, 1, TraceEvent::MethodInvoke { method: 1 });
        s.emit(0, 2, TraceEvent::MethodInvoke { method: 2 });
        s.emit(0, 9, TraceEvent::MethodReturn { method: 2 });
        s.metrics.add("dma.transfers", 3);
        let t = text_summary(&s);
        assert!(t.contains("lane ppe"));
        assert!(t.contains("method.invoke"));
        assert!(t.contains("2"));
        assert!(t.contains("span: 1 .. 9"));
        assert!(t.contains("dma.transfers"));
    }
}

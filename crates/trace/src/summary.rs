//! Plain-text per-core trace digest.

use crate::event::KINDS;
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
        let _ = writeln!(out, "lane {:<8} {:>8} events", lane.name, lane.events.len());
        if lane.events.is_empty() {
            continue;
        }
        let first = lane.events.first().unwrap().at;
        let last = lane.events.last().unwrap().at;
        let _ = writeln!(out, "  span: {first} .. {last} virtual cycles");
        // A kind's index is its name's rank, so the counts come out in
        // the order kinds are listed in.
        let mut by_kind = [("", 0u64); KINDS];
        for te in &lane.events {
            let kind = te.event.kind();
            by_kind[kind.index] = (kind.name, by_kind[kind.index].1 + 1);
        }
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
    use crate::event::TraceEvent;
    use hera_rng::SplitMix64;
    use std::collections::BTreeMap;

    /// The per-lane kind listing `text_summary` replaced: a string-keyed
    /// map, so its order is the names' lexicographic order.
    fn kind_lines_reference(sink: &TraceSink) -> Vec<String> {
        let mut lines = Vec::new();
        for lane in sink.lanes() {
            let mut by_kind: BTreeMap<&'static str, u64> = BTreeMap::new();
            for te in &lane.events {
                *by_kind.entry(te.event.kind_name()).or_insert(0) += 1;
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
            for lane in 0..3 {
                // Some lanes see few kinds, some all of them, many times.
                let events = every_variant(1, 2, 0);
                let kinds = 1 + rng.next_below(events.len() as u64);
                for at in 0..rng.next_below(400) {
                    let ev = events[rng.next_below(kinds) as usize];
                    sink.emit(lane, at, ev);
                }
            }
            let text = text_summary(&sink);
            let got: Vec<&str> = text
                .lines()
                .filter(|l| l.starts_with("  ") && !l.starts_with("  span:"))
                .collect();
            assert_eq!(got, kind_lines_reference(&sink), "seed {seed}");
        }
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

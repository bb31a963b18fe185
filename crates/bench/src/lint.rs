//! The ordering rules of streamed JSONL files — trace journals and
//! telemetry series — checked once for both.
//!
//! A per-shard stream is in emission order: every line carries the same
//! shard id and `seq` strictly increases. A telemetry stream's `tick`
//! never steps back either, but a journal's `time_ps` may: the
//! `request_buffer`/`buffer_flush` events are stamped at flush time with
//! the request's earlier arrival. A merged file is in the canonical
//! `(primary, shard, seq)` total order, so its key strictly increases.
//! `trace_lint` adds the record-specific content checks on top.

use rtr_telemetry::TelemetryRow;
use rtr_trace::{Record, TraceEvent};
use vp2_sim::Json;

/// Which ordering rules a streamed file must satisfy.
#[derive(Debug, Clone, Copy)]
pub struct StreamOrder {
    /// Merge-key field names: the primary field, then `shard`, `seq`.
    key: [&'static str; 3],
    /// Whether a per-shard stream's primary field must never step back.
    monotone_primary: bool,
    /// The cross-shard merge rather than one shard's stream.
    merged: bool,
}

impl StreamOrder {
    /// A trace journal: `time_ps` may step back within a shard.
    pub fn journal(merged: bool) -> StreamOrder {
        StreamOrder {
            key: TraceEvent::KEY_FIELDS,
            monotone_primary: false,
            merged,
        }
    }

    /// A telemetry series: `tick` never steps back within a shard.
    pub fn telemetry(merged: bool) -> StreamOrder {
        StreamOrder {
            key: TelemetryRow::KEY_FIELDS,
            monotone_primary: true,
            merged,
        }
    }
}

/// Checks every non-blank line of the stream `text` read from `path`:
/// it must parse as JSON carrying the three integer key fields and obey
/// `order`. `content` then runs the record-specific checks on each
/// parsed line, given its 1-based line number. Problems are pushed as
/// `{path}: line N: ...`. Returns the number of non-blank lines.
pub fn lint_stream(
    path: &str,
    text: &str,
    order: StreamOrder,
    problems: &mut Vec<String>,
    mut content: impl FnMut(&Json, usize, &mut Vec<String>),
) -> usize {
    let [primary, _, _] = order.key;
    let mut lines = 0usize;
    let mut stream_shard: Option<i64> = None;
    let mut last: Option<(i64, i64, i64)> = None;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        lines += 1;
        let n = i + 1;
        let doc = match Json::parse(line) {
            Ok(doc) => doc,
            Err(e) => {
                problems.push(format!("{path}: line {n}: not valid JSON: {e}"));
                continue;
            }
        };
        let int = |key: &str| doc.get(key).and_then(Json::as_f64).map(|v| v as i64);
        let (Some(p), Some(shard), Some(seq)) =
            (int(order.key[0]), int(order.key[1]), int(order.key[2]))
        else {
            problems.push(format!(
                "{path}: line {n}: missing one of {}",
                order.key.join("/")
            ));
            continue;
        };
        content(&doc, n, problems);
        let key = (p, shard, seq);
        if order.merged {
            if let Some(last) = last.filter(|last| key <= *last) {
                problems.push(format!(
                    "{path}: line {n}: ({}) key {key:?} does not advance past {last:?}",
                    order.key.join(", ")
                ));
            }
        } else {
            let expected = *stream_shard.get_or_insert(shard);
            if shard != expected {
                problems.push(format!(
                    "{path}: line {n}: shard {shard} in a shard-{expected} stream"
                ));
            }
            if let Some((last_p, _, last_seq)) = last {
                if order.monotone_primary && p < last_p {
                    problems.push(format!(
                        "{path}: line {n}: {primary} {p} steps back from {last_p}"
                    ));
                }
                if seq <= last_seq {
                    problems.push(format!(
                        "{path}: line {n}: seq {seq} does not advance past {last_seq}"
                    ));
                }
            }
        }
        last = Some(key);
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    fn journal(lines: &[(u64, u32, u64)]) -> String {
        lines
            .iter()
            .map(|(t, shard, seq)| {
                format!("{{\"time_ps\":{t},\"shard\":{shard},\"seq\":{seq},\"kind\":\"x\"}}\n")
            })
            .collect()
    }

    fn telemetry(lines: &[(u64, u32, u64)]) -> String {
        lines
            .iter()
            .map(|(tick, shard, seq)| {
                format!("{{\"tick\":{tick},\"shard\":{shard},\"seq\":{seq},\"gauges\":{{}}}}\n")
            })
            .collect()
    }

    fn problems(text: &str, order: StreamOrder) -> Vec<String> {
        let mut problems = Vec::new();
        lint_stream("f", text, order, &mut problems, |_, _, _| {});
        problems
    }

    #[test]
    fn well_formed_streams_pass() {
        // A journal's time may step back within a shard (backdated
        // buffer events); seq still advances.
        let shard = journal(&[(50, 3, 0), (10, 3, 1), (60, 3, 2)]);
        assert!(problems(&shard, StreamOrder::journal(false)).is_empty());
        let merged = journal(&[(10, 3, 1), (10, 4, 0), (50, 3, 0), (60, 3, 2)]);
        assert!(problems(&merged, StreamOrder::journal(true)).is_empty());
        let series = telemetry(&[(0, 1, 0), (0, 1, 1), (2, 1, 2)]);
        assert!(problems(&series, StreamOrder::telemetry(false)).is_empty());
        let merged = telemetry(&[(0, 0, 5), (0, 1, 0), (1, 0, 6)]);
        assert!(problems(&merged, StreamOrder::telemetry(true)).is_empty());
    }

    #[test]
    fn a_per_shard_seq_regression_is_reported() {
        let text = journal(&[(1, 0, 0), (2, 0, 2), (3, 0, 2), (4, 0, 1)]);
        let found = problems(&text, StreamOrder::journal(false));
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found[0].contains("line 3: seq 2 does not advance past 2"));
        assert!(found[1].contains("line 4: seq 1 does not advance past 2"));
    }

    #[test]
    fn a_foreign_shard_id_is_reported() {
        let text = telemetry(&[(0, 7, 0), (1, 8, 1)]);
        let found = problems(&text, StreamOrder::telemetry(false));
        assert_eq!(found, vec!["f: line 2: shard 8 in a shard-7 stream"]);
    }

    #[test]
    fn a_telemetry_tick_step_back_is_reported() {
        let text = telemetry(&[(5, 0, 0), (4, 0, 1)]);
        let found = problems(&text, StreamOrder::telemetry(false));
        assert_eq!(found, vec!["f: line 2: tick 4 steps back from 5"]);
    }

    #[test]
    fn a_merged_key_that_does_not_advance_is_reported() {
        let repeated = journal(&[(1, 0, 0), (1, 0, 0)]);
        let found = problems(&repeated, StreamOrder::journal(true));
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("(time_ps, shard, seq) key (1, 0, 0)"));
        let backwards = telemetry(&[(2, 0, 0), (1, 5, 9)]);
        let found = problems(&backwards, StreamOrder::telemetry(true));
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("(tick, shard, seq) key (1, 5, 9)"));
    }

    #[test]
    fn unparsable_and_unkeyed_lines_are_reported() {
        let text = "not json\n{\"tick\":1,\"shard\":0}\n\n";
        let found = problems(text, StreamOrder::telemetry(false));
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found[0].contains("line 1: not valid JSON"));
        assert_eq!(found[1], "f: line 2: missing one of tick/shard/seq");
    }
}

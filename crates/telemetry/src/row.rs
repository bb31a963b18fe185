//! One telemetry sample and the gauge kinds that feed it.

use rtr_trace::Record;
use vp2_sim::{Json, SimTime};

/// How a sampled number turns into the value the row carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GaugeKind {
    /// An instantaneous value, exported as-is (queue depth, an EWMA, a
    /// hit rate).
    Value(f64),
    /// A cumulative, monotone total (completed requests, busy seconds,
    /// steals). The row carries the **per-simulated-second rate** since
    /// the scope's previous sample — utilization falls out of this for
    /// free: the rate of cumulative busy-seconds *is* the busy fraction.
    Rate(f64),
}

/// A named sample heading into one telemetry row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gauge {
    /// Stable gauge name (a JSON key in the row's `gauges` object).
    pub name: &'static str,
    /// Instantaneous value or cumulative-total-to-rate.
    pub kind: GaugeKind,
}

impl Gauge {
    /// An instantaneous gauge.
    pub fn value(name: &'static str, value: f64) -> Gauge {
        Gauge {
            name,
            kind: GaugeKind::Value(value),
        }
    }

    /// A cumulative counter, exported as a rate per simulated second.
    pub fn rate(name: &'static str, total: f64) -> Gauge {
        Gauge {
            name,
            kind: GaugeKind::Rate(total),
        }
    }
}

/// One emitted telemetry sample: at most one per `(shard, scope)` per
/// tick, carrying that instant's gauge values.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryRow {
    /// Sample tick (`time / tick_period`, on the simulated clock).
    pub tick: u64,
    /// Simulated instant the sample was taken.
    pub time: SimTime,
    /// Shard id of the series this row belongs to.
    pub shard: u32,
    /// Per-shard emission sequence number (strictly increasing).
    pub seq: u64,
    /// What was sampled: `"service"`, `"buffer"`, `"window"` or
    /// `"federation"`.
    pub scope: &'static str,
    /// Resolved gauge values, in the order the caller listed them
    /// (rates already converted from cumulative totals).
    pub gauges: Vec<(&'static str, f64)>,
}

impl TelemetryRow {
    /// The `(tick, shard, seq)` merge key — the canonical total order.
    pub fn key(&self) -> (u64, u32, u64) {
        (self.tick, self.shard, self.seq)
    }

    /// Flat JSONL rendering: ordering keys first, then the gauges as a
    /// self-describing object (never empty — the lint checks).
    pub fn to_json(&self) -> Json {
        let mut gauges = Json::obj();
        for (name, value) in &self.gauges {
            gauges = gauges.field(name, *value);
        }
        Json::obj()
            .field("tick", self.tick)
            .field("time_ps", self.time.as_ps())
            .field("shard", u64::from(self.shard))
            .field("seq", self.seq)
            .field("scope", self.scope)
            .field("gauges", gauges)
    }
}

impl Record for TelemetryRow {
    const KEY_FIELDS: [&'static str; 3] = ["tick", "shard", "seq"];
    /// The `.tl.` infix keeps telemetry streams distinct from the trace
    /// journals that may share a base path.
    const SUFFIX: &'static str = ".tl.jsonl";

    fn merge_key(&self) -> (u64, u32, u64) {
        self.key()
    }

    fn to_json(&self) -> Json {
        TelemetryRow::to_json(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_json_leads_with_the_merge_key_and_round_trips() {
        let row = TelemetryRow {
            tick: 7,
            time: SimTime::from_us(7500),
            shard: 3,
            seq: 41,
            scope: "service",
            gauges: vec![("queue_depth", 4.0), ("region_util", 0.25)],
        };
        let text = row.to_json().render();
        assert!(text.starts_with("{\"tick\":7,"));
        let doc = Json::parse(&text).expect("row parses");
        assert_eq!(doc.get("shard").and_then(Json::as_f64), Some(3.0));
        assert_eq!(doc.get("scope").and_then(Json::as_str), Some("service"));
        let gauges = doc.get("gauges").expect("gauges object");
        assert_eq!(gauges.get("queue_depth").and_then(Json::as_f64), Some(4.0));
    }
}

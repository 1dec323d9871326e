//! The metrics registry: named monotonic counters, gauges, and log-scale
//! histograms behind one mutex, snapshotted into a mergeable, wire-codable
//! [`MetricsSnapshot`].
//!
//! Names are dot-namespaced strings (`"wal.bytes"`, `"span.structural_ns"`).
//! The registry is write-mostly and coarse-grained on purpose: every update
//! site in the serving stack runs at batch granularity (milliseconds of
//! simulated work per lock), so one mutex is simpler and plenty fast.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::bytes::{self, Reader, Writer};
use crate::hist::{HistSnapshot, Histogram, BUCKETS};
use crate::json::escape;

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    hists: BTreeMap<String, Histogram>,
}

/// Thread-safe registry of counters, gauges, and histograms.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    /// Add `delta` to the monotonic counter `name` (created at 0).
    pub fn counter_add(&self, name: &str, delta: u64) {
        let mut g = self.inner.lock().unwrap();
        match g.counters.get_mut(name) {
            Some(c) => *c += delta,
            None => {
                g.counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Set the gauge `name` to `value`.
    pub fn gauge_set(&self, name: &str, value: i64) {
        self.inner.lock().unwrap().gauges.insert(name.to_string(), value);
    }

    /// Record one sample into the histogram `name` (created empty).
    pub fn observe(&self, name: &str, value: u64) {
        let mut g = self.inner.lock().unwrap();
        match g.hists.get_mut(name) {
            Some(h) => h.record(value),
            None => {
                let mut h = Histogram::default();
                h.record(value);
                g.hists.insert(name.to_string(), h);
            }
        }
    }

    /// Snapshot every metric at once, consistently (one lock).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let g = self.inner.lock().unwrap();
        MetricsSnapshot {
            counters: g.counters.iter().map(|(k, &v)| (k.clone(), v)).collect(),
            gauges: g.gauges.iter().map(|(k, &v)| (k.clone(), v)).collect(),
            hists: g.hists.iter().map(|(k, h)| (k.clone(), h.snapshot())).collect(),
        }
    }
}

/// A point-in-time copy of a [`Registry`]: sorted name→value vectors, so
/// two snapshots of identical state compare equal and encode identically.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Monotonic counters, ascending by name.
    pub counters: Vec<(String, u64)>,
    /// Gauges, ascending by name.
    pub gauges: Vec<(String, i64)>,
    /// Histogram snapshots, ascending by name.
    pub hists: Vec<(String, HistSnapshot)>,
}

fn merge_sorted<V, F: Fn(&mut V, &V)>(dst: &mut Vec<(String, V)>, src: &[(String, V)], f: F)
where
    V: Clone,
{
    for (name, v) in src {
        match dst.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
            Ok(i) => f(&mut dst[i].1, v),
            Err(i) => dst.insert(i, (name.clone(), v.clone())),
        }
    }
}

impl MetricsSnapshot {
    /// Value of counter `name`, or 0 if absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
    }

    /// Value of gauge `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Histogram snapshot `name`, if present.
    pub fn hist(&self, name: &str) -> Option<&HistSnapshot> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Merge another snapshot into this one: counters add, gauges take the
    /// other side (last write wins), histograms merge bucket-wise.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        merge_sorted(&mut self.counters, &other.counters, |a, b| *a += *b);
        merge_sorted(&mut self.gauges, &other.gauges, |a, b| *a = *b);
        merge_sorted(&mut self.hists, &other.hists, |a, b| a.merge(b));
    }

    /// Compact binary codec for the wire (the serve `ObsStats` frame): each
    /// section a `u32` count of named entries, each name a short string.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::default();
        w.list(&self.counters, |w, (n, v)| w.short_str(n).u64(*v));
        w.list(&self.gauges, |w, (n, v)| w.short_str(n).u64(*v as u64));
        w.list(&self.hists, |w, (n, h)| {
            w.short_str(n).u64(h.count).u64(h.sum).u64(h.min).u64(h.max);
            w.list(&h.buckets, |w, &(idx, c)| w.u16(idx).u64(c))
        });
        w.into_bytes()
    }

    /// Decode [`MetricsSnapshot::encode`] bytes. Errors on truncation,
    /// non-UTF-8 names, trailing bytes, and histogram buckets that no
    /// [`Histogram`] snapshots.
    pub fn decode(bytes: &[u8]) -> Result<MetricsSnapshot, String> {
        let snap = Self::read(&mut Reader::new(bytes)).map_err(|e| match e {
            bytes::Error::Truncated => "truncated snapshot",
            bytes::Error::TrailingBytes => "trailing bytes after snapshot",
            bytes::Error::NotUtf8 => "metric name is not UTF-8",
        })?;
        for (_, h) in &snap.hists {
            // Only the shape `Histogram::snapshot` emits — in-range indices,
            // strictly ascending, counts summing to `count` — so rendering
            // never shifts or adds past the end.
            let ascending = h.buckets.windows(2).all(|p| p[0].0 < p[1].0);
            if !ascending || h.buckets.last().is_some_and(|&(idx, _)| idx as usize >= BUCKETS) {
                return Err("histogram buckets out of range or out of order".into());
            }
            let total = h.buckets.iter().try_fold(0u64, |t, &(_, k)| t.checked_add(k));
            if total.ok_or("histogram bucket counts overflow")? != h.count {
                return Err("histogram bucket counts do not sum to its count".into());
            }
        }
        Ok(snap)
    }

    fn read(r: &mut Reader) -> Result<MetricsSnapshot, bytes::Error> {
        let counters = r.list(|r| Ok((r.short_str()?.into(), r.u64()?)))?;
        let gauges = r.list(|r| Ok((r.short_str()?.into(), r.u64()? as i64)))?;
        let hists = r.list(|r| {
            let name = r.short_str()?.into();
            let (count, sum, min, max) = (r.u64()?, r.u64()?, r.u64()?, r.u64()?);
            let buckets = r.list(|r| Ok((r.u16()?, r.u64()?)))?;
            Ok((name, HistSnapshot { buckets, count, sum, min, max }))
        })?;
        r.finish()?;
        Ok(MetricsSnapshot { counters, gauges, hists })
    }

    /// Render as a JSON object: `counters` / `gauges` as flat maps,
    /// `histograms` as `{count, sum, min, max, p50, p90, p99, p999}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (n, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {v}", escape(n)));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (n, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {v}", escape(n)));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (n, h)) in self.hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let [p50, p90, p99, p999] = h.quantiles();
            let min = if h.count == 0 { 0 } else { h.min };
            out.push_str(&format!(
                "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"min\": {min}, \"max\": {}, \
                 \"p50\": {p50}, \"p90\": {p90}, \"p99\": {p99}, \"p999\": {p999}}}",
                escape(n),
                h.count,
                h.sum,
                h.max
            ));
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsSnapshot {
        let r = Registry::default();
        r.counter_add("a.count", 3);
        r.counter_add("a.count", 4);
        r.counter_add("b.bytes", 1024);
        r.gauge_set("q.depth", -2);
        r.observe("lat_ns", 5);
        r.observe("lat_ns", 900);
        r.observe("lat_ns", 1 << 30);
        r.snapshot()
    }

    #[test]
    fn snapshot_reads_back_what_was_written() {
        let s = sample();
        assert_eq!(s.counter("a.count"), 7);
        assert_eq!(s.counter("missing"), 0);
        assert_eq!(s.gauge("q.depth"), Some(-2));
        let h = s.hist("lat_ns").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.min, 5);
        assert_eq!(h.max, 1 << 30);
    }

    #[test]
    fn encode_decode_roundtrips() {
        let s = sample();
        assert_eq!(MetricsSnapshot::decode(&s.encode()).unwrap(), s);
        let empty = MetricsSnapshot::default();
        assert_eq!(MetricsSnapshot::decode(&empty.encode()).unwrap(), empty);
        assert!(MetricsSnapshot::decode(&s.encode()[..5]).is_err());
    }

    #[test]
    fn merge_adds_counters_and_histograms() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.counter("a.count"), 14);
        assert_eq!(a.hist("lat_ns").unwrap().count, 6);
        assert_eq!(a.gauge("q.depth"), Some(-2));
    }

    #[test]
    fn json_render_mentions_every_metric() {
        let j = sample().to_json();
        for key in ["a.count", "b.bytes", "q.depth", "lat_ns", "p999"] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
        let parsed = crate::json::parse(&j).expect("snapshot renders valid JSON");
        for section in ["counters", "gauges", "histograms"] {
            assert!(parsed.get(section).is_some(), "missing the {section:?} map in {j}");
        }
    }
}

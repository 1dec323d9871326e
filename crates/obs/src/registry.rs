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

    /// Compact binary codec for the wire (the serve `ObsStats` frame).
    pub fn encode(&self) -> Vec<u8> {
        fn put_name(out: &mut Vec<u8>, name: &str) {
            out.extend_from_slice(&(name.len() as u16).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
        }
        let mut out = Vec::new();
        out.extend_from_slice(&(self.counters.len() as u32).to_le_bytes());
        for (n, v) in &self.counters {
            put_name(&mut out, n);
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&(self.gauges.len() as u32).to_le_bytes());
        for (n, v) in &self.gauges {
            put_name(&mut out, n);
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&(self.hists.len() as u32).to_le_bytes());
        for (n, h) in &self.hists {
            put_name(&mut out, n);
            out.extend_from_slice(&h.count.to_le_bytes());
            out.extend_from_slice(&h.sum.to_le_bytes());
            out.extend_from_slice(&h.min.to_le_bytes());
            out.extend_from_slice(&h.max.to_le_bytes());
            out.extend_from_slice(&(h.buckets.len() as u32).to_le_bytes());
            for (idx, c) in &h.buckets {
                out.extend_from_slice(&idx.to_le_bytes());
                out.extend_from_slice(&c.to_le_bytes());
            }
        }
        out
    }

    /// Decode [`MetricsSnapshot::encode`] bytes. Errors on truncation,
    /// non-UTF-8 names, trailing bytes, and histogram buckets that no
    /// [`Histogram`] snapshots.
    pub fn decode(bytes: &[u8]) -> Result<MetricsSnapshot, String> {
        struct Cur<'a>(&'a [u8], usize);
        impl Cur<'_> {
            fn take(&mut self, n: usize) -> Result<&[u8], String> {
                let s = self.0.get(self.1..self.1 + n).ok_or("truncated snapshot")?;
                self.1 += n;
                Ok(s)
            }
            fn u16(&mut self) -> Result<u16, String> {
                Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
            }
            fn u32(&mut self) -> Result<u32, String> {
                Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
            }
            fn u64(&mut self) -> Result<u64, String> {
                Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
            }
            fn name(&mut self) -> Result<String, String> {
                let len = self.u16()? as usize;
                String::from_utf8(self.take(len)?.to_vec())
                    .map_err(|_| "metric name is not UTF-8".to_string())
            }
        }
        let mut c = Cur(bytes, 0);
        let mut snap = MetricsSnapshot::default();
        for _ in 0..c.u32()? {
            let n = c.name()?;
            snap.counters.push((n, c.u64()?));
        }
        for _ in 0..c.u32()? {
            let n = c.name()?;
            snap.gauges.push((n, c.u64()? as i64));
        }
        for _ in 0..c.u32()? {
            let n = c.name()?;
            let (count, sum, min, max) = (c.u64()?, c.u64()?, c.u64()?, c.u64()?);
            let nb = c.u32()? as usize;
            // The count is unauthenticated: it bounds the loop, not the
            // allocation.
            let mut buckets: Vec<(u16, u64)> = Vec::with_capacity(nb.min(1 << 10));
            let mut total = 0u64;
            for _ in 0..nb {
                let (idx, k) = (c.u16()?, c.u64()?);
                // Only the shape `Histogram::snapshot` emits — in-range
                // indices, strictly ascending, counts summing to `count` —
                // so rendering never shifts or adds past the end.
                if idx as usize >= BUCKETS || buckets.last().is_some_and(|&(prev, _)| idx <= prev) {
                    return Err("histogram buckets out of range or out of order".into());
                }
                total = total.checked_add(k).ok_or("histogram bucket counts overflow")?;
                buckets.push((idx, k));
            }
            if total != count {
                return Err("histogram bucket counts do not sum to its count".into());
            }
            snap.hists.push((n, HistSnapshot { buckets, count, sum, min, max }));
        }
        if c.1 != bytes.len() {
            return Err("trailing bytes after snapshot".into());
        }
        Ok(snap)
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

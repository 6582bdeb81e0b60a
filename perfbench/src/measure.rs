//! Measurement plumbing shared by the workloads: latency samples and
//! percentiles, peak memory, the op-stream outcome, span self times, and
//! metric-registry deltas.

use clogic::obs::{MetricsSnapshot, TraceEvent, TraceEventKind};
use clogic::store::{MemStorage, Storage, StoreError, SNAPSHOT_FILE, WAL_FILE};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `q`-quantile of `samples` by linear interpolation between the two
/// nearest ranks (0 for no samples).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Peak resident memory of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one stretch of the op stream did. Latencies are in ms.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub queries: Vec<f64>,
    pub updates: Vec<f64>,
    /// Whole-op latency (query plus any write in the same op).
    pub ops: Vec<f64>,
    /// Bytes of program text sent as writes.
    pub write_bytes: u64,
    /// Wall time of the stretch, in seconds (set by whoever timed it;
    /// `merge` leaves it alone).
    pub elapsed_s: f64,
}

impl Outcome {
    pub fn merge(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.queries.extend(other.queries);
        self.updates.extend(other.updates);
        self.ops.extend(other.ops);
        self.write_bytes += other.write_bytes;
    }
}

/// Why a run stopped early: a wrong answer, or a recovery probe that could
/// not be made. The run reports `correct: false`.
#[derive(Debug)]
pub struct Abort(pub String);

/// Self time per span name: the span's duration minus the time its child
/// spans cover, summed over every span of that name.
#[derive(Default)]
pub struct SpanTable {
    self_us: BTreeMap<&'static str, (f64, u64)>,
}

impl SpanTable {
    pub fn from_events(events: &[TraceEvent]) -> SpanTable {
        let mut child_us: HashMap<u64, u64> = HashMap::new();
        let ends: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| e.kind == TraceEventKind::SpanEnd)
            .collect();
        for e in &ends {
            if e.parent != 0 {
                *child_us.entry(e.parent).or_default() += e.dur_us.unwrap_or(0);
            }
        }
        let mut self_us = BTreeMap::new();
        for e in ends {
            let dur = e.dur_us.unwrap_or(0);
            let own = dur.saturating_sub(child_us.get(&e.span).copied().unwrap_or(0));
            let slot: &mut (f64, u64) = self_us.entry(e.name).or_default();
            slot.0 += own as f64;
            slot.1 += 1;
        }
        SpanTable { self_us }
    }

    /// Mean self time of one `name` span (0 when there was none).
    pub fn mean(&self, name: &str) -> f64 {
        self.self_us
            .get(name)
            .map_or(0.0, |(us, n)| us / (*n).max(1) as f64)
    }

    /// Total self time of `name` divided by `per` (ops, probes, …).
    pub fn per(&self, name: &str, per: u64) -> f64 {
        self.self_us
            .get(name)
            .map_or(0.0, |(us, _)| us / per.max(1) as f64)
    }
}

/// Counter and histogram movement between two registry snapshots, read
/// under an optional name prefix (a tenant's namespace).
pub struct Delta<'a> {
    pub before: &'a MetricsSnapshot,
    pub after: &'a MetricsSnapshot,
    pub prefix: &'a str,
}

impl Delta<'_> {
    pub fn counter(&self, name: &str) -> f64 {
        let key = format!("{}{name}", self.prefix);
        let a = self.after.counter(&key).unwrap_or(0);
        let b = self.before.counter(&key).unwrap_or(0);
        a.saturating_sub(b) as f64
    }

    /// `(count, sum)` of a histogram's new samples.
    pub fn histogram(&self, name: &str) -> (f64, f64) {
        let key = format!("{}{name}", self.prefix);
        let (ac, asum) = self.after.histogram(&key).unwrap_or((0, 0));
        let (bc, bsum) = self.before.histogram(&key).unwrap_or((0, 0));
        (
            ac.saturating_sub(bc) as f64,
            asum.saturating_sub(bsum) as f64,
        )
    }

    /// The `q`-quantile of a histogram's new samples (log₂ buckets,
    /// interpolated as `HistogramSnapshot::percentile` does).
    pub fn histogram_quantile(&self, name: &str, q: f64) -> f64 {
        let key = format!("{}{name}", self.prefix);
        let Some(after) = self.after.histograms.get(&key) else {
            return 0.0;
        };
        let mut diff = after.clone();
        if let Some(before) = self.before.histograms.get(&key) {
            for (d, b) in diff.buckets.iter_mut().zip(before.buckets.iter()) {
                *d = d.saturating_sub(*b);
            }
            diff.count = diff.count.saturating_sub(before.count);
            diff.sum = diff.sum.saturating_sub(before.sum);
        }
        diff.percentile(q).map_or(0.0, |v| v as f64)
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// In-memory storage (no device flush: `sync` is a no-op) that also
/// counts the bytes appended to the write-ahead log.
#[derive(Clone, Default)]
pub struct CountingStorage {
    pub inner: MemStorage,
    pub wal_bytes: Arc<AtomicU64>,
}

impl Storage for CountingStorage {
    fn read(&mut self, file: &str) -> Result<Option<Vec<u8>>, StoreError> {
        self.inner.read(file)
    }
    fn write(&mut self, file: &str, data: &[u8]) -> Result<(), StoreError> {
        self.inner.write(file, data)
    }
    fn append(&mut self, file: &str, data: &[u8]) -> Result<(), StoreError> {
        if file == WAL_FILE {
            self.wal_bytes
                .fetch_add(data.len() as u64, Ordering::Relaxed);
        }
        self.inner.append(file, data)
    }
    fn truncate(&mut self, file: &str, len: u64) -> Result<(), StoreError> {
        self.inner.truncate(file, len)
    }
    fn sync(&mut self, file: &str) -> Result<(), StoreError> {
        self.inner.sync(file)
    }
    fn rename(&mut self, from: &str, to: &str) -> Result<(), StoreError> {
        self.inner.rename(from, to)
    }
    fn remove(&mut self, file: &str) -> Result<(), StoreError> {
        self.inner.remove(file)
    }
    fn len(&mut self, file: &str) -> Result<Option<u64>, StoreError> {
        Storage::len(&mut self.inner, file)
    }
}

/// A private copy of a store's durable files, so a recovery probe never
/// writes into the store a live session still appends to.
pub fn copy_store(src: &MemStorage) -> MemStorage {
    let mut src = src.clone();
    let mut dst = MemStorage::new();
    for file in [SNAPSHOT_FILE, WAL_FILE] {
        if let Some(bytes) = src.read(file).expect("in-memory read") {
            dst.write(file, &bytes).expect("in-memory write");
        }
    }
    dst
}

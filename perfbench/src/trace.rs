//! The traced run's span recorder and the timing wrapper that feeds it.
//!
//! [`Traced`] wraps any [`StorageBackend`] and records one [`Span`] (name,
//! start, end, epoch id) for every trait call, forwarding every method —
//! including the ones the trait gives a default — so wrapping never changes
//! what the program does (the conformance test in `tests/` holds it to
//! that). The epoch number passed to `begin_epoch` is the id that ties the
//! session's `write_pages`/`finish` spans to the checkpoint that opened it;
//! maintenance calls (`compact`, `verify_epoch`, `drain_one`, …) are root
//! spans. Spans stay in memory until the run ends.

use std::io;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ai_ckpt_storage::{
    ChainEntry, CompactionStats, EpochWriter, IoStats, RecordMeta, RepairReport, StorageBackend,
    VerifyReport,
};

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Trait method name (or `"checkpoint"` for a benchmark-side span).
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start: u64,
    /// End, ns since the tracer's origin.
    pub end: u64,
    /// Epoch the call belongs to, when it has one.
    pub epoch: Option<u64>,
    /// Which wrapped store recorded it (policy level, tenant).
    pub tag: u32,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end - self.start) as f64 / 1e6
    }
}

/// In-memory span sink shared by every wrapper of one run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record a finished span.
    pub fn push(&self, span: Span) {
        self.spans.lock().expect("span log poisoned").push(span);
    }

    /// All spans recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }

    fn record<R>(
        &self,
        name: &'static str,
        tag: u32,
        epoch: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = self.now();
        let out = f();
        self.push(Span {
            name,
            start,
            end: self.now(),
            epoch,
            tag,
        });
        out
    }
}

/// Timing wrapper around one store.
pub struct Traced {
    inner: Box<dyn StorageBackend>,
    tracer: Arc<Tracer>,
    tag: u32,
}

impl Traced {
    /// Wrap `inner`, recording into `tracer` under `tag`.
    pub fn new(inner: Box<dyn StorageBackend>, tracer: Arc<Tracer>, tag: u32) -> Self {
        Self { inner, tracer, tag }
    }

    fn rec<R>(&self, name: &'static str, epoch: Option<u64>, f: impl FnOnce() -> R) -> R {
        self.tracer.record(name, self.tag, epoch, f)
    }
}

struct TracedWriter {
    inner: Box<dyn EpochWriter>,
    tracer: Arc<Tracer>,
    tag: u32,
    epoch: u64,
}

impl EpochWriter for TracedWriter {
    fn write_pages(&self, batch: &[(u64, &[u8])]) -> io::Result<()> {
        self.tracer
            .record("write_pages", self.tag, Some(self.epoch), || {
                self.inner.write_pages(batch)
            })
    }

    fn finish(&self) -> io::Result<()> {
        self.tracer
            .record("finish", self.tag, Some(self.epoch), || self.inner.finish())
    }

    fn abort(&self) -> io::Result<()> {
        self.tracer
            .record("abort", self.tag, Some(self.epoch), || self.inner.abort())
    }
}

impl StorageBackend for Traced {
    fn begin_epoch(&self, epoch: u64) -> io::Result<Box<dyn EpochWriter>> {
        let inner = self.rec("begin_epoch", Some(epoch), || self.inner.begin_epoch(epoch))?;
        Ok(Box::new(TracedWriter {
            inner,
            tracer: Arc::clone(&self.tracer),
            tag: self.tag,
            epoch,
        }))
    }

    fn put_blob(&self, name: &str, data: &[u8]) -> io::Result<()> {
        self.rec("put_blob", None, || self.inner.put_blob(name, data))
    }

    fn get_blob(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        self.rec("get_blob", None, || self.inner.get_blob(name))
    }

    fn epochs(&self) -> io::Result<Vec<u64>> {
        self.rec("epochs", None, || self.inner.epochs())
    }

    fn high_water(&self) -> io::Result<Option<u64>> {
        self.rec("high_water", None, || self.inner.high_water())
    }

    fn read_epoch(&self, epoch: u64, visit: &mut dyn FnMut(u64, &[u8])) -> io::Result<()> {
        self.rec("read_epoch", Some(epoch), || {
            self.inner.read_epoch(epoch, visit)
        })
    }

    fn epoch_page_ids(&self, epoch: u64) -> io::Result<Vec<u64>> {
        self.rec("epoch_page_ids", Some(epoch), || {
            self.inner.epoch_page_ids(epoch)
        })
    }

    fn read_page_at(&self, epoch: u64, page: u64) -> io::Result<Option<Vec<u8>>> {
        self.rec("read_page_at", Some(epoch), || {
            self.inner.read_page_at(epoch, page)
        })
    }

    fn delete_blob(&self, name: &str) -> io::Result<()> {
        self.rec("delete_blob", None, || self.inner.delete_blob(name))
    }

    fn list_blobs(&self) -> io::Result<Vec<String>> {
        self.rec("list_blobs", None, || self.inner.list_blobs())
    }

    fn bytes_written(&self) -> u64 {
        self.rec("bytes_written", None, || self.inner.bytes_written())
    }

    fn bytes_stored(&self) -> u64 {
        self.rec("bytes_stored", None, || self.inner.bytes_stored())
    }

    fn chain(&self) -> io::Result<Vec<ChainEntry>> {
        self.rec("chain", None, || self.inner.chain())
    }

    fn compact(&self, up_to: u64) -> io::Result<CompactionStats> {
        self.rec("compact", Some(up_to), || self.inner.compact(up_to))
    }

    fn supports_compaction(&self) -> bool {
        self.rec("supports_compaction", None, || {
            self.inner.supports_compaction()
        })
    }

    fn install_compacted(
        &self,
        from: u64,
        into: u64,
        records: &[(u64, Vec<u8>)],
    ) -> io::Result<()> {
        self.rec("install_compacted", Some(into), || {
            self.inner.install_compacted(from, into, records)
        })
    }

    fn remove_epoch(&self, epoch: u64) -> io::Result<()> {
        self.rec("remove_epoch", Some(epoch), || {
            self.inner.remove_epoch(epoch)
        })
    }

    fn remove_epochs(&self, epochs: &[u64]) -> io::Result<()> {
        self.rec("remove_epochs", None, || self.inner.remove_epochs(epochs))
    }

    fn drain_one(&self) -> io::Result<Option<u64>> {
        // The drained epoch is only known afterwards: record by hand.
        let start = self.tracer.now();
        let out = self.inner.drain_one();
        self.tracer.push(Span {
            name: "drain_one",
            start,
            end: self.tracer.now(),
            epoch: out.as_ref().ok().copied().flatten(),
            tag: self.tag,
        });
        out
    }

    fn drain_backlog(&self) -> usize {
        self.rec("drain_backlog", None, || self.inner.drain_backlog())
    }

    fn io_stats(&self) -> IoStats {
        self.rec("io_stats", None, || self.inner.io_stats())
    }

    fn verify_epoch(&self, epoch: u64) -> io::Result<VerifyReport> {
        self.rec("verify_epoch", Some(epoch), || {
            self.inner.verify_epoch(epoch)
        })
    }

    fn rewrite_epoch(&self, epoch: u64, records: &[(u64, Vec<u8>)]) -> io::Result<()> {
        self.rec("rewrite_epoch", Some(epoch), || {
            self.inner.rewrite_epoch(epoch, records)
        })
    }

    fn repair_epoch(&self, epoch: u64) -> io::Result<RepairReport> {
        self.rec("repair_epoch", Some(epoch), || {
            self.inner.repair_epoch(epoch)
        })
    }

    fn record_meta(&self, epoch: u64, page: u64) -> io::Result<Option<RecordMeta>> {
        self.rec("record_meta", Some(epoch), || {
            self.inner.record_meta(epoch, page)
        })
    }
}

/// Storage calls a checkpoint span owns as children: the epoch sessions
/// opened for its epoch on the stores of its stack.
const SESSION_CALLS: [&str; 4] = ["begin_epoch", "write_pages", "finish", "abort"];

/// Stores whose tags share `tag / TAG_GROUP` form one stack (a tenant's
/// policy levels and replicas); a checkpoint span carries its stack's tag.
pub const TAG_GROUP: u32 = 100;

/// Time of `[lo, hi)` covered by the union of `intervals`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cursor) = (0, lo);
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Attribution of benchmark-side checkpoint spans to the storage calls of
/// their epoch sessions, in milliseconds.
#[derive(Debug, Default)]
pub struct Breakdown {
    /// Checkpoints attributed.
    pub checkpoints: usize,
    /// Mean span of the middle fifth of checkpoints ranked by span (the
    /// ones around the median).
    pub span_ms: f64,
    /// Their mean self time: span minus the time storage children cover.
    pub self_ms: f64,
    /// Their mean storage-child time (overlapping streams count once);
    /// `self_ms + child_ms == span_ms`.
    pub child_ms: f64,
    /// Their mean time covered by `write_pages` children alone.
    pub write_pages_ms: f64,
    /// Duration of every checkpoint's `finish` (the group commit).
    pub finish_ms: Vec<f64>,
}

/// Attribute `checkpoints` (spans named `"checkpoint"`, epoch = the
/// checkpoint's epoch, tag = a tag of the stack it commits to) to the
/// storage spans in `spans`.
pub fn breakdown(spans: &[Span], checkpoints: &[Span]) -> Breakdown {
    let mut by_epoch: std::collections::HashMap<(u32, u64), Vec<&Span>> = Default::default();
    for s in spans.iter().filter(|s| SESSION_CALLS.contains(&s.name)) {
        if let Some(e) = s.epoch {
            by_epoch.entry((s.tag / TAG_GROUP, e)).or_default().push(s);
        }
    }
    let mut out = Breakdown::default();
    // (span, child, write_pages) per checkpoint, ns.
    let mut rows = Vec::new();
    for c in checkpoints {
        let Some(kids) = c.epoch.and_then(|e| by_epoch.get(&(c.tag / TAG_GROUP, e))) else {
            continue;
        };
        let child = covered(
            kids.iter().map(|k| (k.start, k.end)).collect(),
            c.start,
            c.end,
        );
        let writes = kids
            .iter()
            .filter(|k| k.name == "write_pages")
            .map(|k| (k.start, k.end))
            .collect();
        rows.push((c.end - c.start, child, covered(writes, c.start, c.end)));
        out.finish_ms
            .extend(kids.iter().filter(|k| k.name == "finish").map(|k| k.ms()));
    }
    out.checkpoints = rows.len();
    if rows.is_empty() {
        return out;
    }
    rows.sort_unstable();
    let fifth = (rows.len() / 5).max(1);
    let lo = (rows.len() - fifth) / 2;
    let middle = &rows[lo..lo + fifth];
    let mean = |f: fn(&(u64, u64, u64)) -> u64| {
        middle.iter().map(f).sum::<u64>() as f64 / middle.len() as f64 / 1e6
    };
    out.span_ms = mean(|r| r.0);
    out.child_ms = mean(|r| r.1);
    out.self_ms = out.span_ms - out.child_ms;
    out.write_pages_ms = mean(|r| r.2);
    out
}

/// Durations (ms) of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ms)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, epoch: u64) -> Span {
        Span {
            name,
            start,
            end,
            epoch: Some(epoch),
            tag: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let ckpt = span("checkpoint", 0, 100, 7);
        let spans = [
            span("begin_epoch", 5, 10, 7),
            // Two streams overlapping: 20..50 counts once.
            span("write_pages", 20, 40, 7),
            span("write_pages", 30, 50, 7),
            span("finish", 60, 90, 7),
            // Another epoch, another stack and a maintenance root: not
            // children.
            span("write_pages", 0, 100, 8),
            Span {
                tag: TAG_GROUP,
                ..span("write_pages", 0, 100, 7)
            },
            span("compact", 0, 100, 7),
        ];
        let b = breakdown(&spans, &[ckpt]);
        assert_eq!(b.checkpoints, 1);
        assert_eq!(b.span_ms, 100e-6);
        assert_eq!(b.child_ms, 65e-6);
        assert!((b.self_ms - 35e-6).abs() < 1e-12);
        assert_eq!(b.write_pages_ms, 30e-6);
        assert_eq!(b.finish_ms, vec![30e-6]);
    }
}

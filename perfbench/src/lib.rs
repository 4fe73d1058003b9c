//! The repository benchmark: three workloads that each load a different
//! set of layers of the AI-Ckpt stack, measured from outside through the
//! crates' public API.
//!
//! * [`adaptive`] — the paper's Fig. 2 regime: byte-serial iterations
//!   racing an asynchronous flush into a fixed-rate sink (`mem` faults,
//!   `core` scheduling and CoW, the runtime's stream path);
//! * [`durable`] — closed-loop checkpoints into a compressing,
//!   compacting, scrubbing `FileBackend`, then eager and lazy restores
//!   verified byte for byte (`storage` and the read path);
//! * [`tenants`] — a heavy closed-loop tenant and a light open-loop tenant
//!   sharing one `CkptService` over 3-level resilience policies (`service`
//!   scheduling, `policy` drains).
//!
//! `main.rs` runs one workload per process; [`report`] holds the metric
//! catalogue, [`trace`] the span recorder of the traced run.

pub mod adaptive;
pub mod durable;
pub mod report;
pub mod rng;
pub mod rungs;
pub mod sink;
pub mod tenants;
pub mod trace;

use std::io;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ai_ckpt::RuntimeStats;
use ai_ckpt_storage::StorageBackend;

use crate::report::{median, ratio, Report};
use crate::trace::{Span, Traced, Tracer};

/// Times a workload's set-up is repeated; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 7;

const MIB: f64 = 1024.0 * 1024.0;

/// What one workload pass is given.
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Measurement budget of this pass.
    pub budget: Duration,
    /// Span recorder (traced pass only).
    pub tracer: Option<Arc<Tracer>>,
    /// Scratch directory for on-disk stores (created, removed by caller).
    pub work_dir: PathBuf,
}

impl Ctx {
    /// Wrap `store` in the timing wrapper when this pass is traced.
    pub fn wrap(&self, store: Box<dyn StorageBackend>, tag: u32) -> Box<dyn StorageBackend> {
        match &self.tracer {
            Some(t) => Box::new(Traced::new(store, Arc::clone(t), tag)),
            None => store,
        }
    }

    /// Span-clock timestamp (0 when untraced).
    pub fn now(&self) -> u64 {
        self.tracer.as_ref().map_or(0, |t| t.now())
    }

    /// Record a benchmark-side checkpoint span over `[start, end]` for the
    /// epoch `epoch` committed to the store tagged `tag`.
    pub fn checkpoint_span(&self, start: u64, end: u64, epoch: u64, tag: u32) {
        if let Some(t) = &self.tracer {
            t.push(Span {
                name: "checkpoint",
                start,
                end,
                epoch: Some(epoch),
                tag,
            });
        }
    }
}

/// Operation accounting of one pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ops {
    /// Checkpoints and restores attempted.
    pub attempted: u64,
    /// Failed or refused checkpoints, failed restores and every output
    /// that did not match the workload's own copy.
    pub failed: u64,
}

impl Ops {
    /// Count one attempt; `ok == false` counts a failure.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Count one attempt whose result is `r`, returning the value if any.
    pub fn attempt<T>(&mut self, r: io::Result<T>) -> Option<T> {
        self.check(r.is_ok());
        r.ok()
    }
}

/// Result of one workload pass.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every metric the pass measured (end-to-end and per-layer).
    pub report: Report,
    /// Operation accounting.
    pub ops: Ops,
}

/// Run `setup` [`SETUP_REPEATS`] times, keeping the last result; returns
/// it with the median set-up time in seconds. Earlier results are dropped
/// before the next set-up starts.
pub fn timed_setup<T>(mut setup: impl FnMut(usize) -> io::Result<T>) -> io::Result<(T, f64)> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut kept = None;
    for i in 0..SETUP_REPEATS {
        drop(kept.take());
        let t0 = Instant::now();
        kept = Some(setup(i)?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((kept.expect("at least one set-up"), median(&times)))
}

/// Touch one page byte-serially with a loop-carried dependency, so the
/// iteration cannot be vectorised (the synthetic application of the
/// paper's Fig. 2).
#[inline]
pub fn touch_page(page: &mut [u8], acc: &mut u32) {
    let mut a = *acc;
    for b in page.iter_mut() {
        let v = b.wrapping_add((a as u8) | 1);
        *b = v;
        a = a.wrapping_mul(0x9E37_79B1).wrapping_add(v as u32);
    }
    *acc = a;
}

/// Touch the pages of `region` listed in `order`.
pub fn touch_pages(region: &mut [u8], order: &[u32], acc: &mut u32) {
    let ps = ai_ckpt_mem::page_size();
    for &p in order {
        let s = p as usize * ps;
        touch_page(&mut region[s..s + ps], acc);
    }
}

/// MiB/s for `bytes` moved in `secs`.
pub fn mib_s(bytes: f64, secs: f64) -> f64 {
    ratio(bytes / MIB, secs)
}

/// Per-layer metrics the runtime's own counters and the store's byte
/// counters give, over the window between two [`RuntimeStats`] snapshots.
/// `epoch_skip` is the first epoch whose access statistics belong to the
/// window.
pub fn runtime_layer(
    report: &mut Report,
    store: &dyn StorageBackend,
    before: &RuntimeStats,
    after: &RuntimeStats,
    epoch_skip: usize,
) {
    let measured = &after.checkpoints[before.checkpoints.len()..];
    let checkpoints = measured.len();
    let n = checkpoints as f64;
    let faults = after.write_stall.count - before.write_stall.count;
    let fault_ns = after.write_stall.sum_ns - before.write_stall.sum_ns;
    report.set("mem.faults", ratio(faults as f64, n), checkpoints);
    report.set(
        "mem.fault_mean_us",
        ratio(fault_ns as f64 / 1e3, faults as f64),
        faults as usize,
    );
    report.set("core.wait_pages", after.mean_wait(epoch_skip), checkpoints);
    report.set("core.cow_pages", after.mean_cow(epoch_skip), checkpoints);
    report.set(
        "core.avoided_pages",
        after.mean_avoided(epoch_skip),
        checkpoints,
    );

    let pages = measured.iter().map(|r| r.scheduled_pages).sum::<u64>() as f64;
    let user_bytes = measured.iter().map(|r| r.scheduled_bytes).sum::<u64>() as f64;
    let locks = (after.engine_lock_acquisitions - before.engine_lock_acquisitions) as f64;
    report.set(
        "core.lock_acq_per_page",
        ratio(locks, pages),
        pages as usize,
    );
    let skipped = (after.pages_skipped_clean - before.pages_skipped_clean) as f64;
    report.set(
        "runtime.clean_skip_ratio",
        ratio(skipped, pages),
        checkpoints,
    );

    let (a, b) = (after.io, before.io);
    report.set(
        "storage.fsyncs_per_epoch",
        ratio((a.segment_fsyncs - b.segment_fsyncs) as f64, n),
        checkpoints,
    );
    report.set(
        "storage.bytes_per_syscall",
        ratio(
            (a.write_syscall_bytes - b.write_syscall_bytes) as f64,
            (a.vectored_writes - b.vectored_writes) as f64,
        ),
        (a.vectored_writes - b.vectored_writes) as usize,
    );
    let verified = after.integrity.bytes_verified - before.integrity.bytes_verified;
    report.set(
        "storage.scrub_mib",
        ratio(verified as f64 / MIB, n),
        checkpoints,
    );
    let compacted = after.maintenance.bytes_compacted - before.maintenance.bytes_compacted;
    report.set(
        "storage.compact_bytes_per_user_byte",
        ratio(compacted as f64, user_bytes),
        checkpoints,
    );
    report.set(
        "storage.encode_ratio",
        ratio(store.bytes_stored() as f64, store.bytes_written() as f64),
        1,
    );
}

/// Per-layer metrics derived from the span log: the breakdown of the
/// benchmark-side `"checkpoint"` spans (self time vs storage children),
/// scrub time per checkpoint and the random-read latency.
pub fn span_layer(report: &mut Report, tracer: &Tracer) {
    let spans = tracer.spans();
    let checkpoints: Vec<Span> = spans
        .iter()
        .filter(|s| s.name == "checkpoint")
        .copied()
        .collect();
    let b = trace::breakdown(&spans, &checkpoints);
    let n = b.checkpoints;
    println!(
        "  checkpoint span {:.3} ms = runtime self {:.3} ms + storage children {:.3} ms \
         (mean of the middle fifth of {n} checkpoints by span)",
        b.span_ms, b.self_ms, b.child_ms
    );
    report.set("runtime.ckpt_self_ms", b.self_ms, n);
    report.set("storage.ckpt_child_ms", b.child_ms, n);
    report.set("storage.write_pages_ms", b.write_pages_ms, n);
    report.set(
        "storage.finish_ms_p50",
        median(&b.finish_ms),
        b.finish_ms.len(),
    );
    let scrub = trace::durations(&spans, "verify_epoch")
        .iter()
        .fold(0.0, |a, d| a + d);
    report.set(
        "storage.scrub_ms",
        ratio(scrub, checkpoints.len() as f64),
        checkpoints.len(),
    );
    let reads = trace::durations(&spans, "read_page_at");
    let total_us = reads.iter().fold(0.0, |a, d| a + d * 1e3);
    report.set(
        "storage.read_page_us_mean",
        ratio(total_us, reads.len() as f64),
        reads.len(),
    );
}

//! `durable_cycle`: closed-loop durable checkpoints, then verified
//! restores.
//!
//! Write phase: one application thread rewrites a seeded eighth of the
//! region per epoch with a content mix — incompressible, RLE-friendly and
//! byte-identical rewrites — then calls `checkpoint()` and
//! `wait_checkpoint()`, then waits for the epoch's maintenance cycle. The
//! store is a `FileBackend` with `Compression::Auto` and `sync_on_finish`
//! off; the runtime runs the content filter, chain compaction every
//! [`CHAIN_LEN`] epochs, default scrubbing and [`STREAMS`] pinned
//! committer streams. The dirty set fits the CoW budget. A plain-memory
//! shadow receives the same writes right after each checkpoint (the
//! interleaved untracked baseline) and is the workload's own copy of the
//! image.
//!
//! The timed store does not fsync: on a disk shared with other tenants,
//! fsync latency spread the median checkpoint time of ten runs of the
//! same code by 0.25–0.62 of its median. The fsync path is still measured,
//! in the traced run only: [`sync_probe`] repeats the write loop on a
//! store that fsyncs (`storage.fsyncs_per_epoch`), and the storage rungs
//! time one epoch with and without group commit.
//!
//! Restore phase: once maintenance is idle, rounds alternate one eager
//! `restore_at` with two concurrent `restore_lazy` readers sharing one
//! [`PageCache`] half the size of the image. Every restored buffer is
//! compared with the shadow.

use std::hint::black_box;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use ai_ckpt::{
    restore_at, restore_lazy, CkptConfig, CompactionPolicy, PageManager, ProtectedBuffer,
};
use ai_ckpt_mem::page_size;
use ai_ckpt_storage::{Compression, FileBackend, NullBackend, PageCache, StorageBackend};

use crate::report::{median, ms, ratio, Report};
use crate::rng::Rng;
use crate::{mib_s, runtime_layer, span_layer, timed_setup, Ctx, Ops, Outcome};

/// Region size in pages (16 MiB with 4 KiB pages).
pub const PAGES: usize = 4096;
/// Pages rewritten per epoch: an eighth of the region.
pub const DIRTY_PAGES: usize = PAGES / 8;
/// Copy-on-write budget (holds the whole dirty set).
pub const COW_BYTES: usize = 4 << 20;
/// Committer streams, pinned.
pub const STREAMS: usize = 2;
/// Compaction folds the chain at this length.
pub const CHAIN_LEN: usize = 8;
/// Shared restore cache: half the image.
pub const CACHE_BYTES: usize = PAGES * 4096 / 2;
/// Epochs the traced run's fsync probe writes.
const SYNC_PROBE_EPOCHS: usize = 16;
/// Share of the budget spent in the write phase, which holds every gated
/// metric; the restore phase's metrics are per-layer.
const WRITE_SHARE: f64 = 0.8;

struct Live {
    buf: ProtectedBuffer,
    mgr: PageManager,
    backend: Arc<dyn StorageBackend>,
    shadow: Vec<u8>,
}

/// Write one page's new content (kind drawn from `rng`) into `dst`.
/// `current` is the page's content before the write.
fn write_page(rng: &mut Rng, dst: &mut [u8], current: Option<&[u8]>) {
    match rng.below(4) {
        0 | 1 => rng.fill(dst),
        2 => {
            for run in dst.chunks_mut(256) {
                run.fill(rng.next_u64() as u8);
            }
        }
        // Byte-identical rewrite: the content filter's case.
        _ => match current {
            Some(cur) => dst.copy_from_slice(cur),
            None => {
                let len = dst.len();
                dst.copy_within(0..len, 0);
            }
        },
    }
}

/// Rewrite `pages` of `region`. With `shadow` given, identical rewrites
/// copy from it (the protected region); otherwise they copy in place.
fn write_step(rng: &mut Rng, region: &mut [u8], shadow: Option<&[u8]>, pages: &[usize]) {
    let ps = page_size();
    for &p in pages {
        let range = p * ps..(p + 1) * ps;
        write_page(rng, &mut region[range.clone()], shadow.map(|s| &s[range]));
    }
}

/// A fresh store in `dir`, fsyncing or not.
fn open_store(dir: &Path, sync: bool) -> io::Result<FileBackend> {
    let _ = std::fs::remove_dir_all(dir);
    let mut file = FileBackend::open(dir)?.with_compression(Compression::Auto);
    file.sync_on_finish = sync;
    Ok(file)
}

fn write_cfg() -> CkptConfig {
    CkptConfig::ai_ckpt(COW_BYTES)
        .with_committer_streams(STREAMS)
        .with_content_filter(true)
        .with_compaction(CompactionPolicy::chain_len(CHAIN_LEN))
        .with_max_pages(PAGES + 64)
}

fn setup(ctx: &Ctx, index: usize, rng: &Rng) -> io::Result<Live> {
    let file = open_store(&ctx.work_dir.join(format!("durable-{index}")), false)?;
    let backend: Arc<dyn StorageBackend> = Arc::from(ctx.wrap(Box::new(file), 0));
    let mgr = PageManager::with_shared_backend(write_cfg(), Arc::clone(&backend))?;
    let mut buf = mgr.alloc_protected_named("durable", PAGES * page_size())?;
    let mut shadow = vec![0u8; PAGES * page_size()];
    let all: Vec<usize> = (0..PAGES).collect();
    write_step(&mut rng.clone(), buf.as_mut_slice(), Some(&shadow), &all);
    write_step(&mut rng.clone(), &mut shadow, None, &all);
    mgr.checkpoint()?;
    mgr.wait_checkpoint()?;
    Ok(Live {
        buf,
        mgr,
        backend,
        shadow,
    })
}

/// Bytes of every file under `dir`.
fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let meta = entry?.metadata()?;
        total += if meta.is_dir() { 0 } else { meta.len() };
    }
    Ok(total)
}

/// Segment fsyncs per epoch of the write loop on a store that fsyncs:
/// [`SYNC_PROBE_EPOCHS`] epochs after a full first checkpoint, each
/// waited for with its maintenance cycle.
fn sync_probe(rng: &mut Rng, dir: &Path) -> io::Result<f64> {
    let backend: Arc<dyn StorageBackend> = Arc::new(open_store(dir, true)?);
    let mgr = PageManager::with_shared_backend(write_cfg(), Arc::clone(&backend))?;
    let mut buf = mgr.alloc_protected_named("durable", PAGES * page_size())?;
    let all: Vec<usize> = (0..PAGES).collect();
    write_step(rng, buf.as_mut_slice(), None, &all);
    mgr.checkpoint()?;
    mgr.wait_checkpoint()?;
    mgr.wait_maintenance_idle()?;
    let before = backend.io_stats().segment_fsyncs;
    for _ in 0..SYNC_PROBE_EPOCHS {
        let pages = rng.sample(PAGES, DIRTY_PAGES);
        write_step(rng, buf.as_mut_slice(), None, &pages);
        mgr.checkpoint()?;
        mgr.wait_checkpoint()?;
        mgr.wait_maintenance_idle()?;
    }
    let fsyncs = backend.io_stats().segment_fsyncs - before;
    drop((buf, mgr, backend));
    std::fs::remove_dir_all(dir)?;
    Ok(ratio(fsyncs as f64, SYNC_PROBE_EPOCHS as f64))
}

fn restore_cfg() -> CkptConfig {
    CkptConfig::ai_ckpt(0)
        .with_committer_streams(1)
        .with_max_pages(PAGES + 64)
}

/// One lazy reader: TTFI (ms), fill stats, fill time (s), and whether the
/// restored bytes equal `shadow`.
fn lazy_reader(
    backend: &Arc<dyn StorageBackend>,
    epoch: u64,
    cache: &Arc<PageCache>,
    probe: usize,
    shadow: &[u8],
) -> io::Result<(f64, ai_ckpt::RestoreStats, f64, bool)> {
    let mgr = PageManager::new(restore_cfg(), Box::new(NullBackend::new()))?;
    let t0 = Instant::now();
    let mut lazy = restore_lazy(&mgr, Arc::clone(backend), epoch, Some(Arc::clone(cache)))?;
    let buf = &lazy.state.buffers[0];
    black_box(buf.as_slice()[probe * page_size()]);
    let ttfi = ms(t0.elapsed());
    let same = buf.as_slice() == shadow;
    let stats = lazy.wait()?;
    Ok((ttfi, stats, t0.elapsed().as_secs_f64(), same))
}

/// Run one pass of the workload.
pub fn run(ctx: &Ctx) -> io::Result<Outcome> {
    let mut rng = Rng::new(ctx.seed, 2);
    let mut ops = Ops::default();
    let init = Rng::new(ctx.seed, 3);
    let (mut live, setup_s) = timed_setup(|i| setup(ctx, i, &init))?;
    let dir = ctx
        .work_dir
        .join(format!("durable-{}", crate::SETUP_REPEATS - 1));
    for i in 0..crate::SETUP_REPEATS - 1 {
        std::fs::remove_dir_all(ctx.work_dir.join(format!("durable-{i}")))?;
    }

    // ---- Write phase.
    let before = live.mgr.stats();
    let write_deadline = Instant::now() + ctx.budget.mul_f64(WRITE_SHARE);
    let (mut step_ms, mut ckpt_ms) = (Vec::new(), Vec::new());
    // Per epoch: (tracked, untracked) seconds; per checkpoint: (bytes, s).
    let (mut cycles, mut flushes) = (Vec::new(), Vec::new());
    while Instant::now() < write_deadline {
        let pages = rng.sample(PAGES, DIRTY_PAGES);
        let content = rng.clone();
        let t0 = Instant::now();
        write_step(
            &mut rng,
            live.buf.as_mut_slice(),
            Some(&live.shadow),
            &pages,
        );
        let t1 = Instant::now();
        let span_start = ctx.now();
        let plan = ops.attempt(live.mgr.checkpoint().and_then(|p| {
            live.mgr.wait_checkpoint()?;
            Ok(p)
        }));
        let t2 = Instant::now();
        if let Some(plan) = plan {
            ctx.checkpoint_span(span_start, ctx.now(), plan.checkpoint, 0);
            ckpt_ms.push(ms(t2 - t1));
            flushes.push((plan.scheduled_bytes as f64, (t2 - t1).as_secs_f64()));
        }
        step_ms.push(ms(t1 - t0));
        // Let this epoch's compaction and scrub finish before the next
        // step, so the step never shares the CPUs with a maintenance cycle
        // that only sometimes overlaps it. The wait is the application's
        // time too.
        ops.check(live.mgr.wait_maintenance_idle().is_ok());
        let t3 = Instant::now();

        write_step(&mut content.clone(), &mut live.shadow, None, &pages);
        cycles.push(((t3 - t0).as_secs_f64(), t3.elapsed().as_secs_f64()));
    }
    let after = live.mgr.stats();
    let measured = &after.checkpoints[before.checkpoints.len()..];
    for r in measured {
        ops.check(!r.failed);
    }
    ops.check(live.buf.as_slice() == &live.shadow[..]);
    let stored = dir_bytes(&dir)?;

    // ---- Restore phase.
    let epoch = *live.backend.epochs()?.last().expect("a committed epoch");
    let cache = Arc::new(PageCache::new(CACHE_BYTES));
    let reads_before = live.backend.io_stats().page_reads;
    let restore_deadline = Instant::now() + ctx.budget.mul_f64(1.0 - WRITE_SHARE);
    let (mut eager_mib_s, mut ttfi_ms, mut fill_mib_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut demand_faults, mut prefetched, mut demanded) = (0u64, 0u64, 0u64);
    let image_bytes = live.shadow.len() as f64;
    while Instant::now() < restore_deadline {
        let eager = (|| {
            let mgr = PageManager::new(restore_cfg(), Box::new(NullBackend::new()))?;
            let t0 = Instant::now();
            let state = restore_at(&mgr, live.backend.as_ref(), epoch)?;
            let secs = t0.elapsed().as_secs_f64();
            Ok::<_, io::Error>((secs, state.buffers[0].as_slice() == &live.shadow[..]))
        })();
        if let Some((secs, same)) = ops.attempt(eager) {
            ops.check(same);
            eager_mib_s.push(mib_s(image_bytes, secs));
        }
        let probes = [rng.below(PAGES), rng.below(PAGES)];
        let results: Vec<_> = std::thread::scope(|s| {
            let readers: Vec<_> = probes
                .iter()
                .map(|&probe| {
                    let (backend, cache, shadow) = (&live.backend, &cache, &live.shadow);
                    s.spawn(move || lazy_reader(backend, epoch, cache, probe, shadow))
                })
                .collect();
            readers
                .into_iter()
                .map(|r| r.join().expect("lazy reader panicked"))
                .collect()
        });
        for r in results {
            if let Some((ttfi, stats, secs, same)) = ops.attempt(r) {
                ops.check(same);
                ttfi_ms.push(ttfi);
                fill_mib_s.push(mib_s(stats.bytes_filled as f64, secs));
                demand_faults += stats.demand_faults;
                prefetched += stats.prefetched_pages;
                demanded += stats.demanded_pages;
            }
        }
    }
    let lazy_restores = ttfi_ms.len() as f64;
    let page_reads = live.backend.io_stats().page_reads - reads_before;

    let mut report = Report::default();
    report.set("setup_s", setup_s, crate::SETUP_REPEATS);
    report.set_overhead("app_overhead_pct", &cycles);
    report.set_tail("ckpt_ms_p50", "tail.ckpt_ms_p90", &ckpt_ms);
    report.set_tail("first_step_ms_p50", "tail.first_step_ms_p90", &step_ms);
    report.set_rate("flush_mib_s", &flushes);

    report.set_tail("restore.ttfi_ms_p50", "restore.ttfi_ms_p90", &ttfi_ms);
    report.set("restore.mib_s", median(&eager_mib_s), eager_mib_s.len());
    report.set(
        "runtime.restore.demand_faults",
        ratio(demand_faults as f64, lazy_restores),
        ttfi_ms.len(),
    );
    report.set(
        "runtime.restore.prefetch_ratio",
        ratio(prefetched as f64, (prefetched + demanded) as f64),
        ttfi_ms.len(),
    );
    report.set(
        "runtime.restore.lazy_fill_mib_s",
        median(&fill_mib_s),
        fill_mib_s.len(),
    );
    let cs = cache.stats();
    report.set(
        "cache.hit_ratio",
        ratio(cs.hits as f64, (cs.hits + cs.misses) as f64),
        (cs.hits + cs.misses) as usize,
    );
    report.set(
        "storage.page_reads_per_page",
        ratio(page_reads as f64, lazy_restores * PAGES as f64),
        ttfi_ms.len(),
    );
    report.set(
        "storage.stored_per_user_byte",
        ratio(stored as f64, image_bytes),
        1,
    );

    runtime_layer(&mut report, live.backend.as_ref(), &before, &after, 1);
    if let Some(tracer) = &ctx.tracer {
        span_layer(&mut report, tracer);
        crate::rungs::measure(&mut report, &live.shadow, &ctx.work_dir)?;
        report.set(
            "storage.fsyncs_per_epoch",
            sync_probe(&mut rng, &ctx.work_dir.join("sync-probe"))?,
            SYNC_PROBE_EPOCHS,
        );
    }
    Ok(Outcome { report, ops })
}

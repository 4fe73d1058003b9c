//! `adaptive_iter`: the paper's Fig. 2 regime on the real runtime.
//!
//! One application thread touches a protected region byte-serially in a
//! seeded random page order that deviates ~8 % per epoch, and calls
//! `CHECKPOINT` every [`ITERS_PER_CKPT`] iterations. One committer stream
//! flushes into a fixed-rate [`PacedSink`] that discards the payload; the
//! copy-on-write budget is an eighth of the per-epoch dirty set. The
//! fault path, the flush schedule and CoW do the work; storage does none.
//!
//! Each checkpoint cycle (checkpoint, [`ITERS_PER_CKPT`] tracked
//! iterations, wait for the flush) is followed by the same iterations on
//! plain memory, so the untracked baseline is interleaved with the tracked
//! run and both see the same machine state. The twin also checks the
//! output: after every flush the sink's per-page CRCs must match the
//! twin (still at the checkpointed state), and at the end the two regions
//! must be byte-identical.

use std::io;
use std::time::Instant;

use ai_ckpt::{CkptConfig, PageManager, ProtectedBuffer};
use ai_ckpt_mem::page_size;
use ai_ckpt_storage::{crc64, ScrubPolicy};

use crate::report::{ms, Report};
use crate::rng::Rng;
use crate::sink::PacedSink;
use crate::{runtime_layer, span_layer, timed_setup, touch_pages, Ctx, Ops, Outcome};

/// Region size in pages (8 MiB with 4 KiB pages).
pub const PAGES: usize = 2048;
/// Copy-on-write budget: an eighth of the per-epoch dirty set.
pub const COW_BYTES: usize = 1 << 20;
/// Sink bandwidth, bytes per second.
pub const SINK_BYTES_PER_SEC: f64 = 400.0 * 1024.0 * 1024.0;
/// Iterations per checkpoint.
pub const ITERS_PER_CKPT: usize = 2;
/// Share of the touch order that changes per epoch (CM1's deviation).
pub const DEVIATION: f64 = 0.08;

struct Live {
    // Field order is drop order: the buffer detaches before its manager.
    buf: ProtectedBuffer,
    mgr: PageManager,
    sink: PacedSink,
    plain: Vec<u8>,
    acc_t: u32,
    acc_p: u32,
}

/// Swap random pairs until ~`DEVIATION` of the positions moved.
fn deviate(order: &mut [u32], rng: &mut Rng) {
    let swaps = (order.len() as f64 * DEVIATION / 2.0).round() as usize;
    for _ in 0..swaps {
        let (a, b) = (rng.below(order.len()), rng.below(order.len()));
        order.swap(a, b);
    }
}

/// Check the sink's digests of the last flush against `plain`.
fn flushed_matches(sink: &PacedSink, base_page: usize, plain: &[u8]) -> bool {
    let ps = page_size();
    let digests = sink.take_digests();
    digests.len() == PAGES
        && digests.iter().all(|&(page, crc)| {
            let i = page as usize - base_page;
            i < PAGES && crc == crc64(&plain[i * ps..(i + 1) * ps])
        })
}

fn setup(ctx: &Ctx, order: &[u32], ops: &mut Ops) -> io::Result<Live> {
    let sink = PacedSink::new(SINK_BYTES_PER_SEC);
    // Pinned: one committer stream with per-page claims, as in the paper;
    // scrub off because the sink keeps nothing to verify.
    let cfg = CkptConfig::ai_ckpt(COW_BYTES)
        .with_committer_streams(1)
        .with_flush_batch_pages(1)
        .with_max_pages(PAGES + 16)
        .with_scrub(ScrubPolicy::disabled());
    let mgr = PageManager::new(cfg, ctx.wrap(Box::new(sink.clone()), 0))?;
    let mut buf = mgr.alloc_protected_named("adaptive", PAGES * page_size())?;
    let mut plain = vec![0u8; PAGES * page_size()];
    let (mut acc_t, mut acc_p) = (1u32, 1u32);
    touch_pages(buf.as_mut_slice(), order, &mut acc_t);
    touch_pages(&mut plain, order, &mut acc_p);
    // First full checkpoint, then one more iteration so the first
    // measured checkpoint has a full dirty set.
    mgr.checkpoint()?;
    mgr.wait_checkpoint()?;
    ops.check(flushed_matches(&sink, buf.base_page(), &plain));
    touch_pages(buf.as_mut_slice(), order, &mut acc_t);
    touch_pages(&mut plain, order, &mut acc_p);
    Ok(Live {
        buf,
        mgr,
        sink,
        plain,
        acc_t,
        acc_p,
    })
}

/// Run one pass of the workload.
pub fn run(ctx: &Ctx) -> io::Result<Outcome> {
    let mut rng = Rng::new(ctx.seed, 1);
    let mut order: Vec<u32> = (0..PAGES as u32).collect();
    rng.shuffle(&mut order);
    let mut ops = Ops::default();
    let (mut live, setup_s) = timed_setup(|_| setup(ctx, &order, &mut ops))?;

    let before = live.mgr.stats();
    // Per cycle: (tracked, untracked) seconds.
    let mut cycles = Vec::new();
    let mut race_ms = Vec::new();
    let mut starts = Vec::new();
    let deadline = Instant::now() + ctx.budget;
    while Instant::now() < deadline {
        deviate(&mut order, &mut rng);
        let span_start = ctx.now();
        let t0 = Instant::now();
        let Some(plan) = ops.attempt(live.mgr.checkpoint()) else {
            continue;
        };
        starts.push((plan.checkpoint, span_start));
        let t1 = Instant::now();
        touch_pages(live.buf.as_mut_slice(), &order, &mut live.acc_t);
        race_ms.push(ms(t1.elapsed()));
        for _ in 1..ITERS_PER_CKPT {
            touch_pages(live.buf.as_mut_slice(), &order, &mut live.acc_t);
        }
        let waited = live.mgr.wait_checkpoint();
        let tracked = t0.elapsed().as_secs_f64();
        ops.check(waited.is_ok() && flushed_matches(&live.sink, live.buf.base_page(), &live.plain));

        let u0 = Instant::now();
        for _ in 0..ITERS_PER_CKPT {
            touch_pages(&mut live.plain, &order, &mut live.acc_p);
        }
        cycles.push((tracked, u0.elapsed().as_secs_f64()));
    }
    ops.check(live.buf.as_slice() == &live.plain[..]);

    let after = live.mgr.stats();
    let measured = &after.checkpoints[before.checkpoints.len()..];
    for r in measured {
        ops.check(!r.failed);
    }
    let ckpt_ms: Vec<f64> = measured
        .iter()
        .filter_map(|r| Some(ms(r.duration?)))
        .collect();
    let flushes: Vec<(f64, f64)> = measured
        .iter()
        .filter_map(|r| Some((r.scheduled_bytes as f64, r.duration?.as_secs_f64())))
        .collect();

    let mut report = Report::default();
    report.set("setup_s", setup_s, crate::SETUP_REPEATS);
    report.set_overhead("app_overhead_pct", &cycles);
    report.set_tail("ckpt_ms_p50", "tail.ckpt_ms_p90", &ckpt_ms);
    report.set_tail("first_step_ms_p50", "tail.first_step_ms_p90", &race_ms);
    report.set_rate("flush_mib_s", &flushes);

    // Epoch 0 is set-up's first touch, epoch 1 its second; every later
    // epoch raced a measured flush.
    runtime_layer(&mut report, live.mgr.backend().as_ref(), &before, &after, 2);
    if let Some(tracer) = &ctx.tracer {
        // A checkpoint's span runs from the CHECKPOINT call until its last
        // page is durable (the record's duration).
        for (&(epoch, start), r) in starts.iter().zip(measured) {
            if let Some(d) = r.duration {
                ctx.checkpoint_span(start, start + d.as_nanos() as u64, epoch, 0);
            }
        }
        span_layer(&mut report, tracer);
        crate::rungs::measure(&mut report, &live.plain, &ctx.work_dir)?;
    }
    Ok(Outcome { report, ops })
}

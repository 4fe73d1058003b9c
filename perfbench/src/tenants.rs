//! `tenant_mix`: two tenants sharing one `CkptService`.
//!
//! The service runs [`WORKERS`] pinned flush workers and deficit
//! round-robin drain arbitration. Both tenants commit through the
//! multi-level policy [`SPEC`] over in-memory level stores, so neither a
//! disk nor a throttle sets the numbers: the shared workers, the fair
//! drain queue and the policy's cascade drains do.
//!
//! * **heavy** — closed loop: touches a seeded eighth of its region, then
//!   `checkpoint()` and waits until the epoch is on every level
//!   (`wait_maintenance_idle`: drains and any due compaction included),
//!   back to back. That latency is the workload's `ckpt_ms_*`. The same
//!   touches on plain memory follow each epoch (the interleaved untracked
//!   baseline).
//! * **light** — open loop: checkpoints a few pages at seeded Poisson
//!   arrivals, [`LIGHT_MEAN_GAP`] apart on average, so arrivals sample
//!   every phase of the heavy tenant's flush/compaction cycle alike. Each
//!   latency is timed from when the checkpoint was due and reported as
//!   `service.light_ckpt_ms_*`; how late the generator itself ran is
//!   `gen.lag_ms_p90`. These are per-layer metrics, not end-to-end ones:
//!   a light checkpoint that arrives during the heavy tenant's compaction
//!   waits for it, so its quantiles depend on how often that happens and
//!   moved by up to half of their median between ten-seed runs.
//!
//! At the end both tenants' latest checkpoints are restored from their
//! policies and compared with the plain-memory copies.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use ai_ckpt::{restore_latest, CkptConfig, CompactionPolicy, PageManager, ProtectedBuffer};
use ai_ckpt_mem::page_size;
use ai_ckpt_service::{CkptService, DrainPolicy, ServiceConfig, TenantQuota, TenantStats};
use ai_ckpt_storage::{
    MemoryBackend, NullBackend, PolicyBackend, PolicyBuilder, ResilienceSpec, ScrubPolicy,
    StorageBackend,
};

use crate::report::{ms, quantile, ratio, Report};
use crate::rng::Rng;
use crate::trace::{Span, TAG_GROUP};
use crate::{runtime_layer, span_layer, timed_setup, touch_pages, Ctx, Ops, Outcome};

/// Resilience policy of both tenants.
pub const SPEC: &str = "nvme=plain -> partner=replica*2 -> cold=parity*4";
/// Shared flush workers, pinned.
pub const WORKERS: usize = 2;
/// Deficit round-robin quantum (the service default, pinned).
pub const DRR_QUANTUM: u64 = 1 << 20;
/// Heavy tenant region (4 MiB with 4 KiB pages).
pub const HEAVY_PAGES: usize = 1024;
/// Pages the heavy tenant dirties per epoch.
pub const HEAVY_DIRTY: usize = 128;
/// Light tenant region; it dirties every page per checkpoint.
pub const LIGHT_PAGES: usize = 4;
/// Mean gap between the light tenant's checkpoints.
pub const LIGHT_MEAN_GAP: Duration = Duration::from_millis(100);
/// Compaction bound of both tenants' chains.
pub const CHAIN_LEN: usize = 32;
/// Span tags: level `l`, replica `r` of a tenant is `base + 4 l + r`.
const HEAVY_TAG: u32 = 0;
const LIGHT_TAG: u32 = TAG_GROUP;
/// Light ticks between samples of the service's backlog.
const BACKLOG_SAMPLE_EVERY: usize = 10;

struct Tenant {
    // Field order is drop order: buffer, then manager.
    buf: ProtectedBuffer,
    mgr: PageManager,
    policy: PolicyBackend,
    plain: Vec<u8>,
    acc_t: u32,
    acc_p: u32,
}

struct Live {
    heavy: Tenant,
    light: Tenant,
    svc: CkptService,
}

fn tenant(ctx: &Ctx, svc: &CkptService, name: &str, pages: usize, tag: u32) -> io::Result<Tenant> {
    let policy = PolicyBuilder::new(ResilienceSpec::parse(SPEC)?)?.build(|level, replica| {
        ctx.wrap(
            Box::new(MemoryBackend::new()),
            tag + 4 * level as u32 + replica as u32,
        )
    })?;
    let cfg = CkptConfig::ai_ckpt(HEAVY_DIRTY * page_size())
        .with_max_pages(pages + 16)
        .with_compaction(CompactionPolicy::chain_len(CHAIN_LEN))
        .with_scrub(ScrubPolicy::disabled());
    let mgr = svc.add_tenant_with_policy(name, cfg, policy.clone(), TenantQuota::default())?;
    let mut buf = mgr.alloc_protected_named(name, pages * page_size())?;
    let mut plain = vec![0u8; pages * page_size()];
    let all: Vec<u32> = (0..pages as u32).collect();
    let (mut acc_t, mut acc_p) = (1u32, 1u32);
    touch_pages(buf.as_mut_slice(), &all, &mut acc_t);
    touch_pages(&mut plain, &all, &mut acc_p);
    mgr.checkpoint()?;
    mgr.wait_checkpoint()?;
    Ok(Tenant {
        buf,
        mgr,
        policy,
        plain,
        acc_t,
        acc_p,
    })
}

fn setup(ctx: &Ctx) -> io::Result<Live> {
    let svc = CkptService::new(ServiceConfig {
        workers: WORKERS,
        drain: DrainPolicy::DeficitRoundRobin {
            quantum: DRR_QUANTUM,
        },
    });
    Ok(Live {
        heavy: tenant(ctx, &svc, "heavy", HEAVY_PAGES, HEAVY_TAG)?,
        light: tenant(ctx, &svc, "light", LIGHT_PAGES, LIGHT_TAG)?,
        svc,
    })
}

/// What the heavy tenant's thread measured.
#[derive(Default)]
struct Heavy {
    ops: Ops,
    step_ms: Vec<f64>,
    ckpt_ms: Vec<f64>,
    user_bytes: u64,
    /// Per epoch: (tracked, untracked) seconds.
    cycles: Vec<(f64, f64)>,
    /// Per checkpoint: (bytes, seconds).
    flushes: Vec<(f64, f64)>,
}

fn flood(ctx: &Ctx, t: &mut Tenant, mut rng: Rng, stop: &AtomicBool) -> Heavy {
    let mut h = Heavy::default();
    while !stop.load(Ordering::Relaxed) {
        let pages: Vec<u32> = rng
            .sample(HEAVY_PAGES, HEAVY_DIRTY)
            .into_iter()
            .map(|p| p as u32)
            .collect();
        let t0 = Instant::now();
        touch_pages(t.buf.as_mut_slice(), &pages, &mut t.acc_t);
        let t1 = Instant::now();
        let span_start = ctx.now();
        // The loop closes when the epoch is on every level: drains and any
        // due compaction included.
        let plan = h.ops.attempt(t.mgr.checkpoint().and_then(|p| {
            t.mgr.wait_maintenance_idle()?;
            Ok(p)
        }));
        let t2 = Instant::now();
        if let Some(plan) = plan {
            ctx.checkpoint_span(span_start, ctx.now(), plan.checkpoint, HEAVY_TAG);
            h.user_bytes += plan.scheduled_bytes;
            h.flushes
                .push((plan.scheduled_bytes as f64, (t2 - t1).as_secs_f64()));
            h.ckpt_ms.push(ms(t2 - t1));
        }
        h.step_ms.push(ms(t1 - t0));
        let u0 = Instant::now();
        touch_pages(&mut t.plain, &pages, &mut t.acc_p);
        h.cycles
            .push(((t2 - t0).as_secs_f64(), u0.elapsed().as_secs_f64()));
    }
    h
}

fn tenant_stats(svc: &CkptService, name: &str) -> TenantStats {
    svc.stats()
        .tenants
        .into_iter()
        .find(|t| t.name == name)
        .expect("registered tenant")
}

/// Restore `t`'s latest checkpoint from its policy and compare it with
/// the plain copy (and the live buffer with it).
fn verify(t: &Tenant) -> io::Result<bool> {
    let mgr = PageManager::new(
        CkptConfig::ai_ckpt(0).with_max_pages(t.buf.pages() + 16),
        Box::new(NullBackend::new()),
    )?;
    let restored = restore_latest(&mgr, &t.policy)?
        .ok_or_else(|| io::Error::other("no checkpoint to restore"))?;
    Ok(restored.buffers[0].as_slice() == &t.plain[..] && t.buf.as_slice() == &t.plain[..])
}

/// Copy bytes into every level but the first (the cascade drains).
fn copy_bytes(p: &PolicyBackend) -> u64 {
    p.stats().levels.iter().skip(1).map(|l| l.copy_bytes).sum()
}

/// Run one pass of the workload.
pub fn run(ctx: &Ctx) -> io::Result<Outcome> {
    let (live, setup_s) = timed_setup(|_| setup(ctx))?;
    let Live {
        mut heavy,
        mut light,
        svc,
    } = live;
    let heavy_before = tenant_stats(&svc, "heavy").runtime;
    let copies_before = copy_bytes(&heavy.policy) + copy_bytes(&light.policy);

    let stop = AtomicBool::new(false);
    let mut ops = Ops::default();
    let (mut latency_ms, mut lag_ms) = (Vec::new(), Vec::new());
    let (mut backlog_max, mut svc_backlog_max, mut light_bytes) = (0usize, 0usize, 0u64);
    let heavy_rng = Rng::new(ctx.seed, 4);
    let mut arrivals = Rng::new(ctx.seed, 5);
    let policies = [heavy.policy.clone(), light.policy.clone()];
    let all: Vec<u32> = (0..LIGHT_PAGES as u32).collect();
    let h = std::thread::scope(|s| {
        let flooder = s.spawn(|| flood(ctx, &mut heavy, heavy_rng, &stop));
        let start = Instant::now();
        let (mut tick, mut due) = (0usize, start);
        while start.elapsed() < ctx.budget {
            // Exponential gap: -ln(U) * mean, U uniform in (0, 1].
            let u = ((arrivals.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
            due += LIGHT_MEAN_GAP.mul_f64(-u.ln());
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            lag_ms.push(ms(Instant::now() - due));
            touch_pages(light.buf.as_mut_slice(), &all, &mut light.acc_t);
            touch_pages(&mut light.plain, &all, &mut light.acc_p);
            let plan = ops.attempt(light.mgr.checkpoint().and_then(|p| {
                light.mgr.wait_checkpoint()?;
                Ok(p)
            }));
            if let Some(plan) = plan {
                latency_ms.push(ms(due.elapsed()));
                light_bytes += plan.scheduled_bytes;
            }
            if tick % BACKLOG_SAMPLE_EVERY == 0 {
                let backlog: usize = policies.iter().map(|p| p.drain_backlog()).sum();
                backlog_max = backlog_max.max(backlog);
                svc_backlog_max = svc_backlog_max.max(svc.stats().drain_backlog);
            }
            tick += 1;
        }
        stop.store(true, Ordering::Relaxed);
        flooder.join().expect("heavy tenant thread panicked")
    });
    ops.attempted += h.ops.attempted;
    ops.failed += h.ops.failed;
    for t in [&heavy, &light] {
        ops.check(t.mgr.wait_maintenance_idle().is_ok());
        let ok = verify(t);
        ops.check(matches!(ok, Ok(true)));
    }
    let stats = svc.stats();
    ops.failed += stats.flushes_failed + stats.admission_rejections;
    for t in &stats.tenants {
        ops.failed += t.runtime.checkpoints.iter().filter(|r| r.failed).count() as u64;
    }
    let heavy_after = tenant_stats(&svc, "heavy").runtime;
    let copies = copy_bytes(&heavy.policy) + copy_bytes(&light.policy) - copies_before;

    let mut report = Report::default();
    report.set("setup_s", setup_s, crate::SETUP_REPEATS);
    report.set_overhead("app_overhead_pct", &h.cycles);
    report.set_tail("ckpt_ms_p50", "tail.ckpt_ms_p90", &h.ckpt_ms);
    report.set_tail(
        "service.light_ckpt_ms_p50",
        "service.light_ckpt_ms_p90",
        &latency_ms,
    );
    report.set_tail("first_step_ms_p50", "tail.first_step_ms_p90", &h.step_ms);
    report.set_rate("flush_mib_s", &h.flushes);

    let mut lag = lag_ms.clone();
    lag.sort_by(f64::total_cmp);
    report.set("gen.lag_ms_p90", quantile(&lag, 0.9), lag.len());
    report.set(
        "policy.copy_bytes_per_user_byte",
        ratio(copies as f64, (h.user_bytes + light_bytes) as f64),
        h.step_ms.len() + latency_ms.len(),
    );
    report.set(
        "policy.backlog_max",
        backlog_max as f64,
        lag.len() / BACKLOG_SAMPLE_EVERY,
    );
    report.set("service.flushes_failed", stats.flushes_failed as f64, 1);
    report.set(
        "service.admission_rejections",
        stats.admission_rejections as f64,
        1,
    );
    report.set(
        "service.drain_backlog_max",
        svc_backlog_max as f64,
        lag.len() / BACKLOG_SAMPLE_EVERY,
    );
    runtime_layer(&mut report, &heavy.policy, &heavy_before, &heavy_after, 1);
    if let Some(tracer) = &ctx.tracer {
        span_layer(&mut report, tracer);
        let drains = drain_copies_ms(&tracer.spans());
        report.set(
            "policy.drain_ms",
            crate::report::median(&drains),
            drains.len(),
        );
        crate::rungs::measure(&mut report, &heavy.plain, &ctx.work_dir)?;
    }
    drop((heavy, light));
    drop(svc);
    Ok(Outcome { report, ops })
}

/// Durations (ms) of the cascade copies: for each (outer-level store,
/// epoch), from its `begin_epoch` to its `finish`.
fn drain_copies_ms(spans: &[Span]) -> Vec<f64> {
    let mut copies: std::collections::HashMap<(u32, u64), (u64, u64)> = Default::default();
    for s in spans {
        let outer = s.tag % TAG_GROUP >= 4;
        if !outer || !matches!(s.name, "begin_epoch" | "write_pages" | "finish") {
            continue;
        }
        let Some(e) = s.epoch else { continue };
        let c = copies.entry((s.tag, e)).or_insert((s.start, s.end));
        c.0 = c.0.min(s.start);
        c.1 = c.1.max(s.end);
    }
    copies.values().map(|(s, e)| (e - s) as f64 / 1e6).collect()
}

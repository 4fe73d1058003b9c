//! The timing wrapper must not change the program it measures.
//!
//! The same seeded workload runs over a bare store and over the same store
//! wrapped in [`Traced`]; every observable the benchmark reads — chain,
//! epochs, `IoStats`, `bytes_written`/`bytes_stored`, compaction counters,
//! per-epoch verification reports, per-level policy counters and the
//! restored image — must be identical. A trait method left on its default (e.g.
//! `supports_compaction`, which defaults to `false`) silently changes the
//! program; the last test shows this check catches exactly that.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ai_ckpt::{restore_latest, CkptConfig, CompactionPolicy, PageManager};
use ai_ckpt_mem::page_size;
use ai_ckpt_storage::{
    crc64, ChainEntry, Compression, EpochWriter, FileBackend, IoStats, MemoryBackend, NullBackend,
    PolicyBackend, PolicyBuilder, ResilienceSpec, ScrubPolicy, StorageBackend,
};
use perfbench::rng::Rng;
use perfbench::trace::{Traced, Tracer};

const PAGES: usize = 256;
const EPOCHS: usize = 24;

/// Everything the benchmark observes about one run.
#[derive(Debug, PartialEq)]
struct Observed {
    chain: Vec<ChainEntry>,
    epochs: Vec<u64>,
    io: IoStats,
    bytes_written: u64,
    bytes_stored: u64,
    compactions: u64,
    segments_removed: u64,
    bytes_compacted: u64,
    /// (records, bytes, clean) of `verify_epoch` on every live epoch.
    verified: Vec<(u64, u64, bool)>,
    /// (resident epochs, copy bytes) per policy level.
    levels: Vec<(usize, u64)>,
    /// CRC-64 of the restored image (itself checked against the live one).
    image_crc: u64,
}

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A closed-loop run like `durable_cycle`'s write phase, with one
/// committer stream and maintenance settled after every checkpoint so
/// the run is deterministic. Background scrubbing is off because how many
/// scrub cycles run depends on timing; `verify_epoch` is called directly
/// instead.
fn drive(backend: Arc<dyn StorageBackend>, policy: Option<&PolicyBackend>) -> io::Result<Observed> {
    let cfg = CkptConfig::ai_ckpt(PAGES * page_size())
        .with_committer_streams(1)
        .with_content_filter(true)
        .with_compaction(CompactionPolicy::chain_len(4))
        .with_scrub(ScrubPolicy::disabled())
        .with_max_pages(PAGES + 16);
    let mgr = PageManager::with_shared_backend(cfg, Arc::clone(&backend))?;
    let mut buf = mgr.alloc_protected_named("conformance", PAGES * page_size())?;
    let mut rng = Rng::new(42, 0);
    let ps = page_size();
    for epoch in 0..EPOCHS {
        for p in rng.sample(PAGES, PAGES / 4) {
            let page = &mut buf.as_mut_slice()[p * ps..(p + 1) * ps];
            match epoch % 3 {
                0 => rng.fill(page),
                1 => page.fill(rng.next_u64() as u8),
                // Byte-identical rewrite: the content filter drops it.
                _ => {
                    let same = page.to_vec();
                    page.copy_from_slice(&same);
                }
            }
        }
        mgr.checkpoint()?;
        mgr.wait_maintenance_idle()?;
    }
    let stats = mgr.stats();
    let restorer = PageManager::new(
        CkptConfig::ai_ckpt(0).with_max_pages(PAGES + 16),
        Box::new(NullBackend::new()),
    )?;
    let restored = restore_latest(&restorer, backend.as_ref())?.expect("a checkpoint");
    let image = restored.buffers[0].as_slice();
    assert!(image == buf.as_slice(), "restore is byte-identical");
    let verified = backend
        .epochs()?
        .into_iter()
        .map(|e| {
            let r = backend.verify_epoch(e)?;
            Ok((r.records, r.bytes, r.is_clean()))
        })
        .collect::<io::Result<_>>()?;
    Ok(Observed {
        chain: backend.chain()?,
        epochs: backend.epochs()?,
        io: backend.io_stats(),
        bytes_written: backend.bytes_written(),
        bytes_stored: backend.bytes_stored(),
        compactions: stats.maintenance.compactions,
        segments_removed: stats.maintenance.segments_removed,
        bytes_compacted: stats.maintenance.bytes_compacted,
        verified,
        levels: policy
            .map(|p| {
                p.stats()
                    .levels
                    .iter()
                    .map(|l| (l.resident_epochs, l.copy_bytes))
                    .collect()
            })
            .unwrap_or_default(),
        image_crc: crc64(image),
    })
}

fn file(dir: &Path) -> Box<dyn StorageBackend> {
    Box::new(
        FileBackend::open(dir)
            .unwrap()
            .with_compression(Compression::Auto),
    )
}

#[test]
fn wrapped_file_backend_behaves_like_the_bare_one() {
    let bare = drive(Arc::from(file(&scratch("bare"))), None).unwrap();
    let tracer = Arc::new(Tracer::default());
    let traced: Arc<dyn StorageBackend> = Arc::new(Traced::new(
        file(&scratch("traced")),
        Arc::clone(&tracer),
        0,
    ));
    let wrapped = drive(traced, None).unwrap();
    assert!(bare.compactions > 0 && bare.verified.iter().all(|v| v.2));
    assert!(bare.io.segment_fsyncs > 0);
    assert_eq!(bare, wrapped);
    let spans = tracer.spans();
    for name in [
        "begin_epoch",
        "write_pages",
        "finish",
        "compact",
        "verify_epoch",
    ] {
        assert!(spans.iter().any(|s| s.name == name), "no {name} span");
    }
}

fn policy(wrap: Option<&Arc<Tracer>>) -> PolicyBackend {
    let spec = ResilienceSpec::parse("nvme=plain -> partner=replica*2 -> cold=parity*4").unwrap();
    PolicyBuilder::new(spec)
        .unwrap()
        .build(|level, replica| {
            let store: Box<dyn StorageBackend> = Box::new(MemoryBackend::new());
            match wrap {
                Some(t) => Box::new(Traced::new(
                    store,
                    Arc::clone(t),
                    (4 * level + replica) as u32,
                )),
                None => store,
            }
        })
        .unwrap()
}

#[test]
fn wrapped_policy_levels_behave_like_bare_ones() {
    let bare_policy = policy(None);
    let bare = drive(Arc::new(bare_policy.clone()), Some(&bare_policy)).unwrap();
    let tracer = Arc::new(Tracer::default());
    let traced_policy = policy(Some(&tracer));
    let wrapped = drive(Arc::new(traced_policy.clone()), Some(&traced_policy)).unwrap();
    assert!(bare.compactions > 0, "the policy compacts");
    assert!(
        bare.levels.iter().skip(1).all(|&(_, bytes)| bytes > 0),
        "drains reach every level"
    );
    assert_eq!(bare, wrapped);
    assert!(tracer
        .spans()
        .iter()
        .any(|s| s.tag >= 4 && s.name == "write_pages"));
}

/// A wrapper that forwards only the methods the trait requires — the
/// hand-forwarding bug this suite exists to catch.
struct ForwardsRequiredOnly(Box<dyn StorageBackend>);

impl StorageBackend for ForwardsRequiredOnly {
    fn begin_epoch(&self, epoch: u64) -> io::Result<Box<dyn EpochWriter>> {
        self.0.begin_epoch(epoch)
    }
    fn put_blob(&self, name: &str, data: &[u8]) -> io::Result<()> {
        self.0.put_blob(name, data)
    }
    fn get_blob(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        self.0.get_blob(name)
    }
    fn epochs(&self) -> io::Result<Vec<u64>> {
        self.0.epochs()
    }
    fn read_epoch(&self, epoch: u64, visit: &mut dyn FnMut(u64, &[u8])) -> io::Result<()> {
        self.0.read_epoch(epoch, visit)
    }
    fn bytes_written(&self) -> u64 {
        self.0.bytes_written()
    }
}

#[test]
fn a_wrapper_left_on_trait_defaults_is_caught() {
    let bare = drive(Arc::from(file(&scratch("bare-ctl"))), None).unwrap();
    let broken: Arc<dyn StorageBackend> = Arc::new(ForwardsRequiredOnly(file(&scratch("broken"))));
    let observed = drive(broken, None).unwrap();
    assert_eq!(
        observed.compactions, 0,
        "supports_compaction fell back to false"
    );
    assert_ne!(bare, observed);
}

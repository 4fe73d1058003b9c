//! A corrupted record frame must not steer allocation. Flipping the high
//! byte of a segment frame's declared raw length makes it claim about
//! 4 GiB; `verify_epoch` must report that page corrupt without ever
//! requesting the declared size — under strict overcommit such a request
//! aborts the process the scrubber runs in.
//!
//! The binary holds a single test because the allocator probe below is
//! process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use ai_ckpt_storage::{
    corrupt_segment_region, write_epoch, Compression, FileBackend, SegmentRegion, StorageBackend,
};

/// The system allocator, recording the largest single request.
struct LargestRequest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards unchanged to `System`; the probe only reads
// the requested size.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `realloc` are passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: LargestRequest = LargestRequest;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "aickpt-decode-bounds-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

#[test]
fn flipped_raw_length_is_corrupt_not_a_huge_allocation() {
    let structured: Vec<u8> = (0..1024u32).flat_map(|i| (i / 3).to_le_bytes()).collect();
    // One epoch per encoding the first record can take: RLE, LZ, raw.
    let noise: Vec<u8> = (0..4096u32)
        .map(|i| (i.wrapping_mul(0x9E37_79B1) >> 13) as u8)
        .collect();
    let cases = [("rle", vec![0u8; 4096]), ("lz", structured), ("raw", noise)];
    for (epoch, (name, first)) in (1u64..).zip(cases) {
        let dir = tmpdir(name);
        let backend = FileBackend::open(&dir)
            .unwrap()
            .with_compression(Compression::Auto);
        write_epoch(&backend, epoch, [(7, first), (8, vec![3u8; 4096])]).unwrap();
        drop(backend);
        corrupt_segment_region(&dir, epoch, SegmentRegion::RawLen).unwrap();

        let backend = FileBackend::open(&dir).unwrap();
        LARGEST.store(0, Ordering::Relaxed);
        let report = backend.verify_epoch(epoch).unwrap();
        let largest = LARGEST.load(Ordering::Relaxed);
        assert_eq!(report.corrupt_pages, vec![7], "{name}: {report:?}");
        assert!(
            largest < 16 << 20,
            "{name}: verify_epoch requested {largest} bytes at once"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}

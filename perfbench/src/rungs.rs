//! The storage write-path ladder, measured on a workload's own image:
//! memcpy → CRC-64 → codec (`Compression::Auto`) → one `FileBackend` epoch
//! without fsync → the same epoch with group commit. Each rung does the
//! work of the rung below it plus one stage, so the biggest drop between
//! adjacent rungs names the stage worth optimising next.

use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::Instant;

use ai_ckpt_mem::page_size;
use ai_ckpt_storage::{codec, crc64, Compression, FileBackend, StorageBackend};

use crate::mib_s;
use crate::report::{median, Report};

/// Repetitions per rung; the rung reports the median rate.
const REPEATS: usize = 5;
/// Pages per `write_pages` batch on the file rungs.
const BATCH_PAGES: usize = 64;

fn rate(image: &[u8], mut once: impl FnMut() -> io::Result<()>) -> io::Result<f64> {
    let mut rates = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        let t0 = Instant::now();
        once()?;
        rates.push(mib_s(image.len() as f64, t0.elapsed().as_secs_f64()));
    }
    Ok(median(&rates))
}

fn file_epoch(image: &[u8], dir: &Path, sync: bool) -> io::Result<f64> {
    let _ = std::fs::remove_dir_all(dir);
    let mut backend = FileBackend::open(dir)?.with_compression(Compression::Auto);
    backend.sync_on_finish = sync;
    let ps = page_size();
    let mut epoch = 0;
    let r = rate(image, || {
        epoch += 1;
        let w = backend.begin_epoch(epoch)?;
        let pages: Vec<(u64, &[u8])> = image
            .chunks(ps)
            .enumerate()
            .map(|(i, p)| (i as u64, p))
            .collect();
        for batch in pages.chunks(BATCH_PAGES) {
            w.write_pages(batch)?;
        }
        w.finish()
    });
    drop(backend);
    std::fs::remove_dir_all(dir)?;
    r
}

/// Measure every rung on `image`, using `work_dir` for the file rungs.
pub fn measure(report: &mut Report, image: &[u8], work_dir: &Path) -> io::Result<()> {
    let ps = page_size();
    let mut copy = vec![0u8; image.len()];
    let rungs = [
        (
            "storage.rung.memcpy_mib_s",
            rate(image, || {
                copy.copy_from_slice(black_box(image));
                black_box(&mut copy);
                Ok(())
            })?,
        ),
        (
            "storage.rung.crc64_mib_s",
            rate(image, || {
                image.chunks(ps).for_each(|p| {
                    black_box(crc64(p));
                });
                Ok(())
            })?,
        ),
        (
            "storage.rung.codec_mib_s",
            rate(image, || {
                image.chunks(ps).for_each(|p| {
                    black_box(codec::encode(p, Compression::Auto));
                });
                Ok(())
            })?,
        ),
        (
            "storage.rung.epoch_nosync_mib_s",
            file_epoch(image, &work_dir.join("rung-nosync"), false)?,
        ),
        (
            "storage.rung.epoch_sync_mib_s",
            file_epoch(image, &work_dir.join("rung-sync"), true)?,
        ),
    ];
    print!("  rungs ({} MiB image):", image.len() >> 20);
    let mut below: Option<f64> = None;
    for (name, value) in rungs {
        report.set(name, value, REPEATS);
        let short = name
            .trim_start_matches("storage.rung.")
            .trim_end_matches("_mib_s");
        match below {
            Some(b) => print!(" -> {short} {value:.0} MiB/s (x{:.2})", value / b),
            None => print!(" {short} {value:.0} MiB/s"),
        }
        below = Some(value);
    }
    println!();
    Ok(())
}

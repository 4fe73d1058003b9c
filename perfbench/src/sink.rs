//! A fixed-rate sink: a storage backend that accepts page writes at a
//! pinned bandwidth and discards the payload, keeping only a CRC-64 per
//! written page so the benchmark can check what was flushed.
//!
//! The rate is a constant of the workload, never calibrated per run: a
//! calibrated rate would rescale storage to the fault path's speed and
//! hide a runtime gain. Pacing follows a schedule that starts with each
//! epoch (byte `k` is due `k / rate` after `begin_epoch`), so a sleep that
//! overshoots is paid back by the next writes instead of lowering the rate.

use std::collections::HashMap;
use std::io;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ai_ckpt_storage::{crc64, EpochWriter, StorageBackend};

/// Shorter debts are carried instead of slept (sleep granularity).
const MIN_SLEEP: Duration = Duration::from_micros(100);

#[derive(Debug, Default)]
struct State {
    /// When the bytes the open epoch accepted so far are due.
    paid_until: Option<Instant>,
    epochs: Vec<u64>,
    open: Option<u64>,
    /// (page, crc) of the open epoch, then of the last finished one.
    open_digests: Vec<(u64, u64)>,
    last_digests: Vec<(u64, u64)>,
    blobs: HashMap<String, Vec<u8>>,
    bytes: u64,
}

/// The paced, discarding sink.
#[derive(Debug, Clone)]
pub struct PacedSink {
    bytes_per_sec: f64,
    state: Arc<Mutex<State>>,
}

impl PacedSink {
    /// A sink accepting `bytes_per_sec`.
    pub fn new(bytes_per_sec: f64) -> Self {
        Self {
            bytes_per_sec,
            state: Arc::default(),
        }
    }

    /// `(page, crc64)` of every page the last finished epoch received,
    /// sorted by page.
    pub fn take_digests(&self) -> Vec<(u64, u64)> {
        let mut d = std::mem::take(&mut self.lock().last_digests);
        d.sort_unstable();
        d
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("sink state poisoned")
    }
}

struct SinkWriter {
    sink: PacedSink,
    epoch: u64,
}

impl SinkWriter {
    fn close(&self, commit: bool) -> io::Result<()> {
        let mut st = self.sink.lock();
        if st.open != Some(self.epoch) {
            return Err(io::Error::other("epoch session already closed"));
        }
        st.open = None;
        let digests = std::mem::take(&mut st.open_digests);
        if commit {
            st.epochs.push(self.epoch);
            st.last_digests = digests;
        }
        Ok(())
    }
}

impl EpochWriter for SinkWriter {
    fn write_pages(&self, batch: &[(u64, &[u8])]) -> io::Result<()> {
        let bytes: usize = batch.iter().map(|(_, d)| d.len()).sum();
        let digests: Vec<(u64, u64)> = batch.iter().map(|&(p, d)| (p, crc64(d))).collect();
        let wait = {
            let mut st = self.sink.lock();
            if st.open != Some(self.epoch) {
                return Err(io::Error::other("epoch session closed"));
            }
            st.open_digests.extend(digests);
            st.bytes += bytes as u64;
            let now = Instant::now();
            let paid = st.paid_until.unwrap_or(now)
                + Duration::from_secs_f64(bytes as f64 / self.sink.bytes_per_sec);
            st.paid_until = Some(paid);
            paid.saturating_duration_since(now)
        };
        if wait >= MIN_SLEEP {
            std::thread::sleep(wait);
        }
        Ok(())
    }

    fn finish(&self) -> io::Result<()> {
        self.close(true)
    }

    fn abort(&self) -> io::Result<()> {
        self.close(false)
    }
}

impl Drop for SinkWriter {
    fn drop(&mut self) {
        let _ = self.close(false);
    }
}

impl StorageBackend for PacedSink {
    fn begin_epoch(&self, epoch: u64) -> io::Result<Box<dyn EpochWriter>> {
        let mut st = self.lock();
        if st.open.is_some() || st.epochs.last().is_some_and(|&l| epoch <= l) {
            return Err(io::Error::other("epoch out of order"));
        }
        st.open = Some(epoch);
        st.open_digests.clear();
        st.paid_until = Some(Instant::now());
        Ok(Box::new(SinkWriter {
            sink: self.clone(),
            epoch,
        }))
    }

    fn put_blob(&self, name: &str, data: &[u8]) -> io::Result<()> {
        self.lock().blobs.insert(name.to_string(), data.to_vec());
        Ok(())
    }

    fn get_blob(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        Ok(self.lock().blobs.get(name).cloned())
    }

    fn epochs(&self) -> io::Result<Vec<u64>> {
        Ok(self.lock().epochs.clone())
    }

    fn read_epoch(&self, epoch: u64, _visit: &mut dyn FnMut(u64, &[u8])) -> io::Result<()> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            format!("the sink discarded epoch {epoch}"),
        ))
    }

    fn bytes_written(&self) -> u64 {
        self.lock().bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paces_to_the_rate_and_keeps_digests() {
        let sink = PacedSink::new(64.0 * 1024.0 * 1024.0);
        let page = vec![7u8; 64 << 10];
        let t0 = Instant::now();
        let w = sink.begin_epoch(1).unwrap();
        for p in 0..64 {
            w.write_pages(&[(p, &page)]).unwrap();
        }
        w.finish().unwrap();
        let took = t0.elapsed().as_secs_f64();
        // 4 MiB at 64 MiB/s: 62.5 ms, less the last unslept debt.
        assert!(took > 0.062, "took {took}");
        let d = sink.take_digests();
        assert_eq!(d.len(), 64);
        assert!(d.iter().all(|&(_, c)| c == crc64(&page)));
        assert_eq!(sink.epochs().unwrap(), vec![1]);
    }
}

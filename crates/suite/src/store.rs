//! The content-addressed artifact store.
//!
//! A generalization of the oracle cache's on-disk layout: byte blobs live
//! one-per-file under a root directory as `{key:016x}.{namespace}` (the
//! `oracle` namespace is therefore file-compatible with caches written
//! before the store existed). The store moves bytes only — encoding,
//! decoding and validation belong to the callers, which treat every file
//! as hostile. The paper suite's namespaces are `dataset` and `oracle`
//! (collected sweeps and trained oracles), `search-eval` (boundary-search
//! evaluation summaries) and `campaign` (folded report campaigns).
//!
//! Reads distinguish "not there" from "there but unreadable": [`get`]
//! returns `Ok(None)` on a plain miss and a typed [`StoreError`] on real
//! I/O failure, so callers can log degradation instead of silently
//! recomputing. Writes stay best-effort (atomic tmp + rename, failures
//! skipped) so a read-only or full disk degrades to "recompute everything"
//! rather than an error.
//!
//! The store also carries the cross-request [`InFlight`] dedup registry:
//! concurrent computations of the same ⟨namespace, key⟩ coordinate through
//! [`ArtifactStore::claim`], which is what lets an evaluation daemon run
//! one training job for N identical requests.
//!
//! [`get`]: ArtifactStore::get

use crate::dedup::{Claim, InFlight};
use av_telemetry::{Telemetry, TraceEvent};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A store read that failed for a reason other than the blob being absent.
#[derive(Debug)]
pub struct StoreError {
    /// The file the read touched.
    pub path: PathBuf,
    /// The underlying I/O error.
    pub source: std::io::Error,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "artifact store read failed for {}: {}",
            self.path.display(),
            self.source
        )
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// A persistent, namespaced, content-addressed store of byte blobs.
#[derive(Debug, Default)]
pub struct ArtifactStore {
    dir: Option<PathBuf>,
    telemetry: Telemetry,
    inflight: InFlight,
}

impl ArtifactStore {
    /// A store that never hits and never writes (`--no-cache`).
    pub fn disabled() -> ArtifactStore {
        ArtifactStore {
            dir: None,
            telemetry: Telemetry::disabled(),
            inflight: InFlight::new(),
        }
    }

    /// A store rooted at `dir` (created lazily on first write).
    pub fn at(dir: impl Into<PathBuf>) -> ArtifactStore {
        ArtifactStore {
            dir: Some(dir.into()),
            telemetry: Telemetry::disabled(),
            inflight: InFlight::new(),
        }
    }

    /// Attaches a telemetry handle; reads emit
    /// [`TraceEvent::ArtifactHit`] / [`TraceEvent::ArtifactMiss`].
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> ArtifactStore {
        self.telemetry = telemetry;
        self
    }

    /// Whether reads can ever hit.
    pub fn is_enabled(&self) -> bool {
        self.dir.is_some()
    }

    /// The root directory, if enabled.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    fn path_for(dir: &Path, namespace: &str, key: u64) -> PathBuf {
        dir.join(format!("{key:016x}.{namespace}"))
    }

    /// Reads the blob stored under ⟨`namespace`, `key`⟩. `Ok(None)` means
    /// the blob is absent (including on a disabled store); `Err` reports a
    /// real I/O failure — permissions, corruption, a vanished mount — that
    /// callers may treat as a miss but should surface.
    pub fn get(&self, namespace: &'static str, key: u64) -> Result<Option<Vec<u8>>, StoreError> {
        let Some(dir) = self.dir.as_deref() else {
            self.telemetry
                .emit(0.0, || TraceEvent::ArtifactMiss { namespace, key });
            return Ok(None);
        };
        let path = Self::path_for(dir, namespace, key);
        match std::fs::read(&path) {
            Ok(bytes) => {
                self.telemetry
                    .emit(0.0, || TraceEvent::ArtifactHit { namespace, key });
                Ok(Some(bytes))
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                self.telemetry
                    .emit(0.0, || TraceEvent::ArtifactMiss { namespace, key });
                Ok(None)
            }
            Err(source) => {
                self.telemetry
                    .emit(0.0, || TraceEvent::ArtifactMiss { namespace, key });
                Err(StoreError { path, source })
            }
        }
    }

    /// Persists `bytes` under ⟨`namespace`, `key`⟩ (atomic tmp + rename;
    /// best-effort — failures are silently skipped). Every write has its
    /// own tmp file, so concurrent writers of one key each rename a whole
    /// blob and the last rename wins.
    pub fn put(&self, namespace: &'static str, key: u64, bytes: &[u8]) {
        static WRITES: AtomicU64 = AtomicU64::new(0);
        let Some(dir) = self.dir.as_deref() else {
            return;
        };
        if std::fs::create_dir_all(dir).is_err() {
            return;
        }
        let tmp = dir.join(format!(
            "{key:016x}.{namespace}.tmp.{}.{}",
            std::process::id(),
            WRITES.fetch_add(1, Ordering::Relaxed)
        ));
        if std::fs::write(&tmp, bytes).is_ok()
            && std::fs::rename(&tmp, Self::path_for(dir, namespace, key)).is_err()
        {
            let _ = std::fs::remove_file(&tmp);
        }
    }

    /// Claims the in-flight computation of ⟨`namespace`, `key`⟩ — call
    /// after a [`get`] miss and before computing. On a disabled store the
    /// claim is [`Claim::Uncoordinated`]: followers could never read the
    /// leader's result back, so everyone computes locally.
    ///
    /// [`get`]: ArtifactStore::get
    pub fn claim(&self, namespace: &'static str, key: u64) -> Claim<'_> {
        if self.dir.is_none() {
            return Claim::Uncoordinated;
        }
        self.inflight.claim(namespace, key)
    }

    /// Store-wide dedup counters: ⟨computations led, computations
    /// coalesced onto another caller's in-flight work⟩.
    pub fn dedup_counters(&self) -> (u64, u64) {
        (self.inflight.led(), self.inflight.coalesced())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_telemetry::{EventKind, RingBufferSink, SharedSink};

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("artifact-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trips_bytes_per_namespace() {
        let dir = scratch("roundtrip");
        let store = ArtifactStore::at(&dir);
        assert_eq!(store.get("oracle", 7).expect("readable"), None);
        store.put("oracle", 7, b"alpha");
        store.put("dataset", 7, b"beta");
        assert_eq!(
            store.get("oracle", 7).expect("readable").as_deref(),
            Some(&b"alpha"[..])
        );
        assert_eq!(
            store.get("dataset", 7).expect("readable").as_deref(),
            Some(&b"beta"[..])
        );
        assert_eq!(
            store.get("oracle", 8).expect("readable"),
            None,
            "other keys stay cold"
        );
        // Layout is file-compatible with the pre-store oracle cache.
        assert!(dir.join(format!("{:016x}.oracle", 7)).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disabled_store_never_hits_or_writes() {
        let store = ArtifactStore::disabled();
        store.put("oracle", 1, b"ignored");
        assert_eq!(store.get("oracle", 1).expect("absent, not an error"), None);
        assert!(!store.is_enabled());
        // No persistence → no coordination: claims never block.
        assert!(matches!(store.claim("oracle", 1), Claim::Uncoordinated));
        assert_eq!(store.dedup_counters(), (0, 0));
    }

    #[test]
    fn io_failure_is_a_typed_error_not_a_silent_miss() {
        let dir = scratch("io-error");
        let store = ArtifactStore::at(&dir);
        store.put("oracle", 9, b"payload");
        // Replace the blob with a directory: reading it now fails with a
        // real I/O error, not NotFound.
        let path = dir.join(format!("{:016x}.oracle", 9));
        std::fs::remove_file(&path).expect("remove blob");
        std::fs::create_dir_all(&path).expect("shadow dir");
        let err = store.get("oracle", 9).expect_err("typed I/O error");
        assert_eq!(err.path, path);
        assert!(err.to_string().contains("artifact store read failed"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reads_emit_hit_and_miss_telemetry() {
        let dir = scratch("telemetry");
        let sink = SharedSink::new(RingBufferSink::new(16));
        let store = ArtifactStore::at(&dir).with_telemetry(Telemetry::with_sink(sink.clone()));
        let _ = store.get("dataset", 3);
        store.put("dataset", 3, b"x");
        let _ = store.get("dataset", 3);
        let kinds: Vec<EventKind> = sink
            .lock()
            .records()
            .iter()
            .map(|r| r.event.kind())
            .collect();
        assert_eq!(kinds, vec![EventKind::ArtifactMiss, EventKind::ArtifactHit]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn enabled_store_coordinates_claims() {
        let dir = scratch("claims");
        let store = ArtifactStore::at(&dir);
        let token = match store.claim("oracle", 5) {
            Claim::Leader(t) => t,
            other => panic!("expected leader, got {other:?}"),
        };
        store.put("oracle", 5, b"trained");
        drop(token);
        assert_eq!(store.dedup_counters(), (1, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_of_one_key_never_mix_their_bytes() {
        let dir = scratch("writers");
        let store = ArtifactStore::at(&dir);
        let blobs: Vec<Vec<u8>> = (1..=4u8).map(|i| vec![i; 4096 * usize::from(i)]).collect();
        for _ in 0..8 {
            std::thread::scope(|s| {
                for blob in &blobs {
                    s.spawn(|| store.put("campaign", 9, blob));
                }
            });
            let read = store
                .get("campaign", 9)
                .expect("readable")
                .expect("written");
            assert!(
                blobs.contains(&read),
                "one writer's whole blob, not a mix of {} bytes",
                read.len()
            );
        }
        let leftovers = std::fs::read_dir(&dir).expect("store dir").count();
        assert_eq!(leftovers, 1, "every tmp file was renamed away");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! Process-wide tallies of the crate's expensive work: simulated runs,
//! characterized detector frames, oracle snapshot decodes and oracle
//! digests.
//!
//! They exist so tests can check that a warm execution recomputes nothing
//! (`tests/warm_execution.rs`). The counters are shared by every thread of
//! the process, so a test that reads them must be the only test of its
//! binary.

use std::sync::atomic::{AtomicU64, Ordering};

/// One kind of tallied work.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Work {
    /// A [`crate::SimSession`] run, whatever its horizon.
    Run,
    /// A camera frame of the Fig. 5 detector characterization.
    Frame,
    /// An `RTOC` oracle snapshot decoded from store bytes.
    OracleDecode,
    /// A [`crate::oracle_cache::network_digest`] computation.
    NetworkDigest,
    /// A [`crate::oracle_cache::oracle_digest`] computation.
    OracleDigest,
}

static COUNTS: [AtomicU64; 5] = [const { AtomicU64::new(0) }; 5];

/// Tallies `n` units of `work`.
pub(crate) fn add(work: Work, n: u64) {
    COUNTS[work as usize].fetch_add(n, Ordering::Relaxed);
}

/// The work tallied so far in this process.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Simulated runs.
    pub runs: u64,
    /// Characterized detector frames.
    pub frames: u64,
    /// Oracle snapshots decoded.
    pub oracle_decodes: u64,
    /// Network digests computed.
    pub network_digests: u64,
    /// Oracle digests computed.
    pub oracle_digests: u64,
}

impl Tally {
    /// The work tallied so far in this process.
    pub fn now() -> Tally {
        let read = |work: Work| COUNTS[work as usize].load(Ordering::Relaxed);
        Tally {
            runs: read(Work::Run),
            frames: read(Work::Frame),
            oracle_decodes: read(Work::OracleDecode),
            network_digests: read(Work::NetworkDigest),
            oracle_digests: read(Work::OracleDigest),
        }
    }

    /// The work tallied since `earlier`.
    #[must_use]
    pub fn since(self, earlier: Tally) -> Tally {
        Tally {
            runs: self.runs - earlier.runs,
            frames: self.frames - earlier.frames,
            oracle_decodes: self.oracle_decodes - earlier.oracle_decodes,
            network_digests: self.network_digests - earlier.network_digests,
            oracle_digests: self.oracle_digests - earlier.oracle_digests,
        }
    }
}

//! Stored figure folds: Fig. 5's detector characterization and the
//! simulated side of Fig. 8(b)'s k sweep.
//!
//! Both are fixed for a given seed and cost far more to compute than to
//! read: Fig. 5 observes the detector for 9,000 frames (2,000 under
//! `--quick`), and Fig. 8(b) simulates one DS-1 Move_Out run per k. The
//! artifact store keeps each under namespace [`NS_FIGURE`] as
//! `{address:016x}.figure`, so a warm execution, a repeated daemon request
//! or a standalone `fig5`/`fig8` binary reads what an earlier one computed.
//! Both paths render from the fold: a cold report computes, folds, stores
//! and renders; a warm one decodes and renders.
//!
//! - **Fig. 5** keeps what [`crate::report::render_fig5`] reads, a
//!   [`Fig5Fold`]: per streak class the exponential fit (loc, λ, p99, n)
//!   and the 32 histogram counts, per error series the normal fit (µ, σ,
//!   n). Its address covers the frame count and the seed.
//! - **Fig. 8(b)** keeps one [`Fig8bRun`] per launched run: ⟨k, features at
//!   launch, realized δ⟩. Its address covers the seed and the k list. The
//!   predicted δ is not stored: every read asks the oracle again, one query
//!   per row, so the entry does not depend on the oracle.
//!
//! Everything else that determines an entry is code: the detector
//! calibration, the camera and the characterization scene, the simulator,
//! and fig8(b)'s scenario, δ0 and attack. [`FIGURE_CODE_VERSION`] covers
//! it; both the address and the entry header carry it.
//!
//! An entry is a sealed frame of the crate's store codec (`codec.rs`: magic
//! `RTFG`, [`FIGURE_CODE_VERSION`], the address echo, then an FNV-1a
//! trailer of everything before it), floats stored by bit pattern. Any
//! mismatch is a miss: the fold is computed again and written back.
//! Lookups count in the caller's [`OracleCache`] view as figure hits and
//! misses, and never go through the store's in-flight claims. A disabled
//! store computes every time and counts nothing.

use crate::characterize::{characterize_detector, ErrorFold, Fig5Fold, StreakFold, STREAK_BINS};
use crate::codec::{Frame, Reader, Writer};
use crate::memo::FIGURE_CODE_VERSION;
use crate::oracle_cache::OracleCache;
use crate::stats::ExponentialFit;
use av_suite::fnv::Fnv1a;
use robotack::safety_hijacker::AttackFeatures;

/// Artifact-store namespace of figure folds.
pub const NS_FIGURE: &str = "figure";

/// Figure entries: "RoboTack FiGure", versioned by [`FIGURE_CODE_VERSION`].
const FIGURE_FRAME: Frame = Frame {
    magic: *b"RTFG",
    version: FIGURE_CODE_VERSION,
};

/// One fig8(b) run that launched.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig8bRun {
    /// Attacked frames.
    pub k: u32,
    /// What the malware measured at launch: the oracle's input.
    pub features: AttackFeatures,
    /// The realized min δ in the attack window (m).
    pub actual: f64,
}

/// Fig. 5's fold of `frames` characterized frames at `seed`: read from the
/// store behind `cache`, or characterized, folded and stored.
pub(crate) fn fig5(cache: &OracleCache, frames: u64, seed: u64) -> Fig5Fold {
    let address = address("fig5", &[frames, seed]);
    stored(cache, address, || {
        Fig5Fold::of(&characterize_detector(frames, seed))
    })
}

/// Fig. 8(b)'s runs over `ks` at `seed`: read from the store behind
/// `cache`, or `simulate`d and stored.
pub(crate) fn fig8b(
    cache: &OracleCache,
    seed: u64,
    ks: &[u32],
    simulate: impl FnOnce() -> Vec<Fig8bRun>,
) -> Vec<Fig8bRun> {
    let words: Vec<u64> = std::iter::once(seed)
        .chain(ks.iter().map(|&k| u64::from(k)))
        .collect();
    stored(cache, address("fig8b", &words), simulate)
}

/// The address of a `figure` entry keyed by `words`: an FNV-1a digest of
/// the entry magic, [`FIGURE_CODE_VERSION`], the figure name and the words.
fn address(figure: &str, words: &[u64]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(&FIGURE_FRAME.magic);
    h.write_u64(u64::from(FIGURE_CODE_VERSION));
    h.write_str(figure);
    h.write_u64(words.len() as u64);
    for &word in words {
        h.write_u64(word);
    }
    h.finish()
}

/// The fold stored at `address`, or `compute`d and stored; one counted
/// lookup in `cache`.
fn stored<T: Figure>(cache: &OracleCache, address: u64, compute: impl FnOnce() -> T) -> T {
    if !cache.is_enabled() {
        return compute();
    }
    let found = cache.fetch(NS_FIGURE, address, |bytes| decode(address, bytes));
    cache.count_figure(found.is_some());
    found.unwrap_or_else(|| {
        let value = compute();
        cache
            .artifact_store()
            .put(NS_FIGURE, address, &encode(address, &value));
        value
    })
}

/// A fold the store keeps: its body, as little-endian words.
trait Figure: Sized {
    fn write(&self, w: &mut Writer);
    /// `None` on anything the writer would not have produced.
    fn read(r: &mut Reader<'_>) -> Option<Self>;
}

fn encode<T: Figure>(address: u64, value: &T) -> Vec<u8> {
    let mut w = FIGURE_FRAME.writer(address, 0);
    value.write(&mut w);
    w.seal()
}

fn decode<T: Figure>(address: u64, bytes: &[u8]) -> Option<T> {
    let mut r = FIGURE_FRAME.open_sealed(address, bytes)?;
    let value = T::read(&mut r)?;
    r.end()?;
    Some(value)
}

/// Bits of a [`Fig5Fold`]'s presence flags: one per streak class, then one
/// per error series. Every other bit is reserved and must be clear.
const FIG5_FITS: u32 = 2 + 4;

impl Figure for Fig5Fold {
    /// The frame count, the presence flags, then each present fit in
    /// order: a streak class as loc, λ, p99, n and its bin counts, an error
    /// series as µ, σ, n.
    fn write(&self, w: &mut Writer) {
        w.u64(self.frames);
        let present = self
            .streaks
            .iter()
            .map(Option::is_some)
            .chain(self.errors.iter().map(Option::is_some));
        w.u32(
            present
                .enumerate()
                .fold(0, |flags, (i, set)| flags | (u32::from(set) << i)),
        );
        for StreakFold { fit, counts } in self.streaks.iter().flatten() {
            for v in [fit.loc, fit.lambda, fit.p99] {
                w.f64(v);
            }
            w.u64(fit.n as u64);
            for &count in counts {
                w.u64(count);
            }
        }
        for error in self.errors.iter().flatten() {
            w.f64(error.mean);
            w.f64(error.std_dev);
            w.u64(error.n);
        }
    }

    fn read(r: &mut Reader<'_>) -> Option<Fig5Fold> {
        let frames = r.u64()?;
        let flags = r.u32()?;
        if flags >> FIG5_FITS != 0 {
            return None;
        }
        let present = |i: u32| flags & (1 << i) != 0;
        let mut streaks = [None; 2];
        for (i, slot) in (0..).zip(&mut streaks) {
            if present(i) {
                let (loc, lambda, p99) = (r.f64()?, r.f64()?, r.f64()?);
                let n = r.u64()?;
                let mut counts = [0; STREAK_BINS];
                for count in &mut counts {
                    *count = r.u64()?;
                }
                // A fit needs two samples, and the bins hold every one.
                let binned = counts.iter().try_fold(0u64, |sum, &c| sum.checked_add(c));
                if n < 2 || binned != Some(n) {
                    return None;
                }
                let fit = ExponentialFit {
                    loc,
                    lambda,
                    p99,
                    n: usize::try_from(n).ok()?,
                };
                *slot = Some(StreakFold { fit, counts });
            }
        }
        let mut errors = [None; 4];
        for (i, slot) in (2..).zip(&mut errors) {
            if present(i) {
                let (mean, std_dev, n) = (r.f64()?, r.f64()?, r.u64()?);
                if n < 2 {
                    return None;
                }
                *slot = Some(ErrorFold { mean, std_dev, n });
            }
        }
        Some(Fig5Fold {
            frames,
            streaks,
            errors,
        })
    }
}

/// Bytes of one [`Fig8bRun`] record: k, four features, the realized δ.
const FIG8B_RUN_BYTES: usize = 4 + 5 * 8;

impl Figure for Vec<Fig8bRun> {
    /// The run count, then per run k, the features (δ, v_rel_lon,
    /// v_rel_lat, a_rel_lon) and the realized δ.
    fn write(&self, w: &mut Writer) {
        w.u64(self.len() as u64);
        for run in self {
            w.u32(run.k);
            let f = run.features;
            for v in [f.delta, f.v_rel_lon, f.v_rel_lat, f.a_rel_lon, run.actual] {
                w.f64(v);
            }
        }
    }

    fn read(r: &mut Reader<'_>) -> Option<Vec<Fig8bRun>> {
        let n = r.count(FIG8B_RUN_BYTES)?;
        let mut runs = Vec::with_capacity(n);
        for _ in 0..n {
            let k = r.u32()?;
            let features = AttackFeatures {
                delta: r.f64()?,
                v_rel_lon: r.f64()?,
                v_rel_lat: r.f64()?,
                a_rel_lon: r.f64()?,
            };
            let actual = r.f64()?;
            runs.push(Fig8bRun {
                k,
                features,
                actual,
            });
        }
        Some(runs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::DIGEST_BYTES;
    use crate::horizon::Horizon;
    use av_suite::fnv::fnv1a;
    use std::sync::OnceLock;

    /// The pinned Fig. 5 entry's characterization: 600 frames at seed 7.
    const FIG5_PIN: (u64, u64) = (600, 7);

    /// The pinned fig8(b) entry's sweep: `--quick`'s k list at seed 2020.
    const FIG8B_PIN: (u64, [u32; 3]) = (2020, [20, 50, 80]);

    /// The pinned entries, computed once: ⟨address, bytes⟩ of the small
    /// Fig. 5 fold, then of the `--quick` fig8(b) runs.
    fn pinned_entries() -> &'static [(u64, Vec<u8>); 2] {
        static ENTRIES: OnceLock<[(u64, Vec<u8>); 2]> = OnceLock::new();
        ENTRIES.get_or_init(|| {
            let (frames, seed) = FIG5_PIN;
            let fig5 = address("fig5", &[frames, seed]);
            let fold = Fig5Fold::of(&characterize_detector(frames, seed));
            let (seed, ks) = FIG8B_PIN;
            let fig8b = address("fig8b", &[seed, 20, 50, 80]);
            let runs = crate::jobs::fig8b_runs(seed, &ks, Horizon::Label);
            [(fig5, encode(fig5, &fold)), (fig8b, encode(fig8b, &runs))]
        })
    }

    /// Every field at its edges: `-0.0`, `+∞`, a NaN payload, an absent
    /// streak class and error series.
    fn edge_fold() -> Fig5Fold {
        let mut counts = [0; STREAK_BINS];
        counts[0] = 2;
        counts[STREAK_BINS - 1] = u64::MAX - 2;
        Fig5Fold {
            frames: u64::MAX,
            streaks: [
                None,
                Some(StreakFold {
                    fit: ExponentialFit {
                        loc: -0.0,
                        lambda: f64::INFINITY,
                        p99: f64::from_bits(0x7ff8_0000_0000_0123),
                        n: usize::MAX,
                    },
                    counts,
                }),
            ],
            errors: [
                Some(ErrorFold {
                    mean: f64::MIN_POSITIVE,
                    std_dev: 0.0,
                    n: 2,
                }),
                None,
                None,
                Some(ErrorFold {
                    mean: -1.5,
                    std_dev: 2.25,
                    n: u64::MAX,
                }),
            ],
        }
    }

    fn edge_runs() -> Vec<Fig8bRun> {
        let features = AttackFeatures {
            delta: 41.0,
            v_rel_lon: -0.0,
            v_rel_lat: f64::NEG_INFINITY,
            a_rel_lon: f64::from_bits(0x7ff8_0000_0000_0042),
        };
        vec![
            Fig8bRun {
                k: 0,
                features,
                actual: f64::INFINITY,
            },
            Fig8bRun {
                k: u32::MAX,
                features,
                actual: -3.5,
            },
        ]
    }

    /// Recomputes the trailing digest, so a test edit reaches the checks
    /// behind it.
    fn reseal(bytes: &mut [u8]) {
        let body = bytes.len() - DIGEST_BYTES;
        let digest = fnv1a(&bytes[..body]);
        bytes[body..].copy_from_slice(&digest.to_le_bytes());
    }

    #[test]
    fn entries_round_trip_every_field_by_bit_pattern() {
        let bytes = encode(9, &edge_fold());
        let back: Fig5Fold = decode(9, &bytes).expect("round trip");
        assert_eq!(encode(9, &back), bytes);
        assert!(back.streaks[1].unwrap().fit.loc.is_sign_negative());
        let bytes = encode(9, &edge_runs());
        let back: Vec<Fig8bRun> = decode(9, &bytes).expect("round trip");
        assert_eq!(encode(9, &back), bytes);
        assert_eq!(decode(9, &encode(9, &Vec::<Fig8bRun>::new())), Some(vec![]));
    }

    #[test]
    fn cut_padded_misplaced_or_flipped_entries_miss() {
        for (address, bytes) in pinned_entries() {
            let read = |b: &[u8]| {
                decode::<Fig5Fold>(*address, b).is_some()
                    || decode::<Vec<Fig8bRun>>(*address, b).is_some()
            };
            assert!(read(bytes));
            assert!(!read(&bytes[..0]));
            for cut in 1..bytes.len() {
                assert!(!read(&bytes[..cut]), "cut at {cut}");
            }
            let mut padded = bytes.clone();
            padded.push(0);
            assert!(!read(&padded), "trailing byte");
            assert!(decode::<Fig5Fold>(address ^ 1, bytes).is_none(), "echo");
            for at in 0..bytes.len() {
                let mut bad = bytes.clone();
                bad[at] ^= 0x04;
                assert!(!read(&bad), "flip at {at}");
            }
        }
    }

    #[test]
    fn reserved_flags_and_unbinned_streaks_miss_even_resealed() {
        let bytes = encode(3, &edge_fold());
        // Header, frame count, then the flags word.
        let flags_at = crate::codec::HEADER_BYTES + 8;
        for bit in FIG5_FITS..32 {
            let mut bad = bytes.clone();
            bad[flags_at + (bit / 8) as usize] |= 1 << (bit % 8);
            reseal(&mut bad);
            assert!(decode::<Fig5Fold>(3, &bad).is_none(), "reserved bit {bit}");
        }
        for n in [0, 1, 3, u64::MAX - 1] {
            let mut fold = edge_fold();
            fold.streaks[1].as_mut().unwrap().fit.n = n as usize;
            let mut bad = encode(3, &fold);
            reseal(&mut bad);
            assert!(decode::<Fig5Fold>(3, &bad).is_none(), "n = {n}");
        }
    }

    proptest::proptest! {
        #[test]
        fn fuzz_figure_decoders(
            fig5 in proptest::prelude::any::<bool>(),
            edits in crate::codec::fuzz::edits(),
            resealed in proptest::prelude::any::<bool>(),
        ) {
            use crate::codec::fuzz::{check, mutate};
            let (address, original) = &pinned_entries()[usize::from(!fig5)];
            let mut bytes = mutate(original, &edits);
            // Resealing lets a mutation past the digest to the structural
            // checks behind it.
            if resealed && bytes.len() >= DIGEST_BYTES {
                reseal(&mut bytes);
            }
            let decoded = if fig5 {
                check(&bytes, |b| decode::<Fig5Fold>(*address, b), |v| encode(*address, v))?
            } else {
                check(&bytes, |b| decode::<Vec<Fig8bRun>>(*address, b), |v| encode(*address, v))?
            };
            // Unsealed, only the original passes the digest.
            proptest::prop_assert!(!decoded || resealed || bytes == *original);
        }
    }

    /// The version guard: a change that moves the small Fig. 5 fold or the
    /// `--quick` fig8(b) runs (or the entry bytes) without bumping
    /// [`FIGURE_CODE_VERSION`] would let warm stores serve stale figures.
    #[test]
    fn figure_entries_are_pinned_with_their_code_version() {
        let [(_, fig5), (_, fig8b)] = pinned_entries();
        let fold: Fig5Fold = decode(pinned_entries()[0].0, fig5).expect("real entry");
        assert!(
            fold.streaks.iter().all(Option::is_some) && fold.errors.iter().all(Option::is_some),
            "every fit present, so the entry covers each field: {fold:?}"
        );
        let runs: Vec<Fig8bRun> = decode(pinned_entries()[1].0, fig8b).expect("real entry");
        assert_eq!(
            runs.iter().map(|r| r.k).collect::<Vec<_>>(),
            FIG8B_PIN.1,
            "every quick k launches"
        );
        let digests = [fnv1a(fig5), fnv1a(fig8b)];
        assert_eq!(
            (FIGURE_CODE_VERSION, digests),
            PINNED_ENTRIES,
            "pinned figure entries changed (now {digests:#018x?}): bump \
             FIGURE_CODE_VERSION, then re-pin PINNED_ENTRIES"
        );
    }

    /// ⟨[`FIGURE_CODE_VERSION`], FNV-1a of the pinned Fig. 5 entry, of the
    /// pinned fig8(b) entry⟩.
    const PINNED_ENTRIES: (u32, [u64; 2]) = (1, [0xf022_29fa_602a_c602, 0x8d93_eae4_e8d5_c837]);
}

//! What a stored kind is, and the binary frame every store entry shares.
//!
//! Five kinds of entry live in the artifact store, one row each of the
//! [`Kind`] table: trained oracles (`RTOC`) and sweep datasets (`RTDS`,
//! both [`crate::oracle_cache`]), search evaluations (`RTSE`,
//! [`crate::search`]), folded campaigns (`RTCP`, [`crate::memo`]) and
//! figure folds (`RTFG`, [`crate::figures`]). A row gives the kind's
//! namespace (the file extension), its frame magic and format version,
//! whether its entries are sealed, and the code version that enters its
//! keys. A value is stored through the one [`Stored`] trait: it writes and
//! reads its body, and [`encode`]/[`decode`] put the frame around it.
//!
//! Every entry starts with the same 16-byte header:
//!
//! - a 4-byte magic naming the kind;
//! - the kind's format version, a little-endian `u32`;
//! - an echo of the `u64` key the entry is stored under, little-endian.
//!
//! The body follows as little-endian words; a sealed entry (`RTCP`,
//! `RTFG`) ends with an FNV-1a digest of everything before it.
//!
//! Store bytes are hostile: a file can be truncated, corrupted or written
//! by other code. The [`Reader`] is bounds-checked and never panics, and a
//! length field is checked against the bytes that remain before anything
//! is allocated for it, so decoding allocates in proportion to the bytes
//! read, never to a count they declare. Any mismatch is a miss, and the
//! entry is computed again.

use av_suite::fnv::fnv1a;

// Code versions. Each covers the code that produces one family of stored
// values and enters the keys of those values (the search, campaign and
// figure versions are their kinds' format versions too). Bump one whenever
// a change can move a stored value or its bytes, so stale entries miss
// instead of resurrecting values the current code would no longer produce;
// each codec's unit tests pin its bytes or keys, and with them its version.
// A simulator change that moves runs usually bumps all four.

/// Version of sweep collection and oracle training ([`crate::train_sh`]:
/// sweep seeding, labeling, split, architecture, optimizer), keying the
/// `oracle` and `dataset` kinds.
pub const DATASET_CODE_VERSION: u32 = 1;

/// Version of candidate evaluation and its summary encoding, keying the
/// `search-eval` kind.
pub const SEARCH_CODE_VERSION: u32 = 1;

/// Version of everything between a campaign and its folded runs (the
/// simulator, sensing, fault injection, perception, planning, the attacker
/// and its oracle queries, `RunSummary::of`) and their encoding, keying
/// the `campaign` kind.
pub const CAMPAIGN_CODE_VERSION: u32 = 2;

/// Version of the stored figure folds (Fig. 5's detector calibration,
/// camera, scene and fold; fig8(b)'s simulator, scenario, δ0 and attack)
/// and their encoding, keying the `figure` kind.
pub const FIGURE_CODE_VERSION: u32 = 1;

/// Bytes of the frame header: magic, version, key echo.
#[cfg(test)]
pub(crate) const HEADER_BYTES: usize = 4 + 4 + 8;

/// Bytes of a sealed entry's trailing FNV-1a digest.
pub(crate) const DIGEST_BYTES: usize = 8;

/// A kind of artifact-store entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Trained-oracle snapshots.
    Oracle,
    /// Collected sweep datasets.
    Dataset,
    /// Candidate-evaluation summaries of the boundary search.
    SearchEval,
    /// Folded report campaigns.
    Campaign,
    /// Fig. 5 and Fig. 8(b) folds.
    Figure,
}

/// One row of the kind table: namespace, frame magic, format version,
/// whether entries are sealed, and the code version that enters keys.
type Row = (&'static str, [u8; 4], u32, bool, u32);

/// The kind table, in [`Kind`] order. The magics spell "RoboTack Oracle
/// Cache", "RoboTack DataSet", "RoboTack Search Eval", "RoboTack CamPaign"
/// and "RoboTack FiGure".
#[rustfmt::skip]
const TABLE: [Row; Kind::COUNT] = [
    ("oracle",      *b"RTOC", 1,                     false, DATASET_CODE_VERSION),
    ("dataset",     *b"RTDS", 1,                     false, DATASET_CODE_VERSION),
    ("search-eval", *b"RTSE", SEARCH_CODE_VERSION,   false, SEARCH_CODE_VERSION),
    ("campaign",    *b"RTCP", CAMPAIGN_CODE_VERSION, true,  CAMPAIGN_CODE_VERSION),
    ("figure",      *b"RTFG", FIGURE_CODE_VERSION,   true,  FIGURE_CODE_VERSION),
];

impl Kind {
    /// Number of kinds.
    pub const COUNT: usize = 5;

    /// The kinds a view's scorecard reports and
    /// [`crate::OracleCache::artifact_totals`] sums. Search evaluations
    /// reach scorecards through their own report instead.
    pub const SCORED: [Kind; 4] = [Kind::Oracle, Kind::Dataset, Kind::Campaign, Kind::Figure];

    /// The artifact-store namespace of this kind's entries.
    pub const fn namespace(self) -> &'static str {
        TABLE[self as usize].0
    }

    /// The magic that opens this kind's entries.
    pub const fn magic(self) -> [u8; 4] {
        TABLE[self as usize].1
    }

    /// The code version that enters this kind's keys.
    pub const fn code_version(self) -> u32 {
        TABLE[self as usize].4
    }

    /// Starts an entry stored under `key`: the header is written.
    fn writer(self, key: u64) -> Writer {
        let mut w = Writer(Vec::new());
        w.bytes(&self.magic());
        w.u32(TABLE[self as usize].2);
        w.u64(key);
        w
    }

    /// The body of an entry read back from under `key`, or `None` if its
    /// header names another kind, version or key, or, for a sealed kind,
    /// if its trailing digest does not match the bytes before it.
    fn open(self, key: u64, bytes: &[u8]) -> Option<Reader<'_>> {
        let mut r = Reader(bytes);
        let (_, magic, version, sealed, _) = TABLE[self as usize];
        if sealed {
            let (entry, digest) = bytes.split_last_chunk::<DIGEST_BYTES>()?;
            if fnv1a(entry) != u64::from_le_bytes(*digest) {
                return None;
            }
            r = Reader(entry);
        }
        (r.bytes()? == magic && r.u32()? == version && r.u64()? == key).then_some(r)
    }
}

/// A value the artifact store keeps: one [`Kind`], and its entry body.
/// Only this crate's types implement it.
pub trait Stored: Sized {
    /// The kind this value is stored as.
    const KIND: Kind;

    /// Appends the entry body.
    fn write(&self, w: &mut Writer);

    /// Reads the entry body; `None` on anything [`Stored::write`] would not
    /// have produced. Trailing bytes are refused after it returns.
    fn read(r: &mut Reader<'_>) -> Option<Self>;
}

/// The entry of `value` stored under `key`: header, body and, for a sealed
/// kind, the digest.
pub(crate) fn encode<T: Stored>(key: u64, value: &T) -> Vec<u8> {
    let mut w = T::KIND.writer(key);
    value.write(&mut w);
    if TABLE[T::KIND as usize].3 {
        let digest = fnv1a(&w.0);
        w.u64(digest);
    }
    w.0
}

/// The value of an entry read back from under `key`; `None` on any
/// mismatch.
pub(crate) fn decode<T: Stored>(key: u64, bytes: &[u8]) -> Option<T> {
    let mut r = T::KIND.open(key, bytes)?;
    let value = T::read(&mut r)?;
    r.end()?;
    Some(value)
}

/// Appends an entry's body as little-endian words.
pub struct Writer(Vec<u8>);

impl Writer {
    pub(crate) fn bytes(&mut self, raw: &[u8]) {
        self.0.extend_from_slice(raw);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// A float by bit pattern (`-0.0`, `+∞` and NaN payloads survive).
    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

/// Checked little-endian reader over untrusted bytes.
pub struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    pub(crate) fn remaining(&self) -> usize {
        self.0.len()
    }

    pub(crate) fn bytes<const N: usize>(&mut self) -> Option<[u8; N]> {
        let (head, rest) = self.0.split_first_chunk::<N>()?;
        self.0 = rest;
        Some(*head)
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        self.bytes().map(u32::from_le_bytes)
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        self.bytes().map(u64::from_le_bytes)
    }

    pub(crate) fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    /// A length field, refused if it could not count `width`-byte items
    /// in the bytes that remain — checked before anything is allocated for
    /// it.
    pub(crate) fn count(&mut self, width: usize) -> Option<usize> {
        let n = usize::try_from(self.u64()?).ok()?;
        (n <= self.remaining() / width).then_some(n)
    }

    /// Reads `n` floats, refusing (no allocation) if `n` overshoots the
    /// remaining bytes.
    pub(crate) fn f64s(&mut self, n: usize) -> Option<Vec<f64>> {
        if n > self.remaining() / 8 {
            return None;
        }
        (0..n).map(|_| self.f64()).collect()
    }

    /// `Some` if every byte was read: an entry with trailing bytes is not
    /// one the writer produced.
    pub(crate) fn end(self) -> Option<()> {
        self.0.is_empty().then_some(())
    }
}

/// The byte-mutation fuzz harness every codec's `fuzz_*` test runs its
/// decoder under.
#[cfg(test)]
pub(crate) mod fuzz {
    use proptest::prelude::*;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;
    use std::time::{Duration, Instant};

    /// One byte-level edit: ⟨operation, position, argument⟩.
    pub(crate) type Edit = (u8, u64, u64);

    /// One to eleven edits.
    pub(crate) fn edits() -> impl Strategy<Value = Vec<Edit>> {
        prop::collection::vec((0..6u8, any::<u64>(), any::<u64>()), 1..12)
    }

    /// `seed` with `edits` applied in order. Each edit flips bits of one
    /// byte, inserts an arbitrary byte, deletes a run from the middle (so
    /// what follows shifts left), cuts the bytes short, splices a run
    /// copied from elsewhere over them, or duplicates a run in place.
    pub(crate) fn mutate(seed: &[u8], edits: &[Edit]) -> Vec<u8> {
        let mut bytes = seed.to_vec();
        for &(op, at, arg) in edits {
            let pick = |n: u64| usize::try_from(n % (bytes.len() as u64 + 1)).expect("in range");
            let (at, from, run) = (pick(at), pick(arg), (arg % 17) as usize);
            match op {
                0 if at < bytes.len() => bytes[at] ^= (arg as u8).max(1),
                1 => bytes.insert(at, arg as u8),
                2 => {
                    bytes.drain(at..(at + run.max(1)).min(bytes.len()));
                }
                3 => bytes.truncate(at),
                4 => {
                    let src: Vec<u8> = bytes[from..].iter().take(run).copied().collect();
                    let end = (at + src.len()).min(bytes.len());
                    bytes.splice(at..end, src);
                }
                _ => {
                    let dup = bytes[at..(at + run).min(bytes.len())].to_vec();
                    bytes.splice(at..at, dup);
                }
            }
        }
        bytes
    }

    /// Decodes `bytes` and checks what every decoder promises on hostile
    /// input: it returns rather than panics, within a second (the entries
    /// are a few KiB, so this only catches a decoder that loops or
    /// backtracks); it allocates at most a small
    /// multiple of the input's length (the values it builds, with `Vec`
    /// growth — an allocation sized by a length field would ask for up to
    /// 2^64 bytes); and what it accepts re-encodes to exactly the bytes
    /// read, so no corrupted entry decodes to a value of another entry.
    /// Returns whether `bytes` decoded.
    pub(crate) fn check<T>(
        bytes: &[u8],
        decode: impl FnOnce(&[u8]) -> Option<T>,
        encode: impl FnOnce(&T) -> Vec<u8>,
    ) -> Result<bool, TestCaseError> {
        let (before, started) = (ALLOCATED.with(Cell::get), Instant::now());
        let decoded = decode(bytes);
        let (allocated, elapsed) = (ALLOCATED.with(Cell::get) - before, started.elapsed());
        prop_assert!(
            elapsed < Duration::from_secs(1),
            "decoding {} bytes took {elapsed:?}",
            bytes.len()
        );
        prop_assert!(
            allocated <= 4 * bytes.len() + 1024,
            "decoding {} bytes allocated {allocated}",
            bytes.len()
        );
        if let Some(value) = &decoded {
            prop_assert!(encode(value) == bytes, "a decoded entry re-encodes as read");
        }
        Ok(decoded.is_some())
    }

    thread_local! {
        /// Bytes this thread has asked the allocator for, growth included.
        static ALLOCATED: Cell<usize> = const { Cell::new(0) };
    }

    fn count(bytes: usize) {
        // Const-initialized and without a destructor: reading it never
        // allocates, and after the thread's teardown it is simply skipped.
        let _ = ALLOCATED.try_with(|a| a.set(a.get().saturating_add(bytes)));
    }

    /// The system allocator, metering what each thread asks of it.
    struct Metered;

    // SAFETY: every method forwards its caller's arguments unchanged to
    // `System`, so `System`'s guarantees are this allocator's; the only
    // other work is `count`, which neither allocates nor unwinds.
    unsafe impl GlobalAlloc for Metered {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            count(layout.size());
            // SAFETY: the caller's `layout`, under the caller's contract.
            unsafe { System.alloc(layout) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            count(layout.size());
            // SAFETY: as for `alloc`.
            unsafe { System.alloc_zeroed(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from `System` with `layout`, since every
            // allocation of this allocator does.
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            count(new_size.saturating_sub(layout.size()));
            // SAFETY: as for `dealloc`, with the caller's `new_size`.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static METERED: Metered = Metered;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::RunSummary;
    use crate::characterize::Fig5Fold;
    use crate::figures::Fig8bRun;
    use crate::search::Eval;
    use crate::train_sh::TrainedOracle;
    use av_neural::infer::InferenceMlp;
    use av_neural::train::{Dataset, Normalizer};
    use av_simkit::scenario::ScenarioId;
    use robotack::safety_hijacker::NnOracle;
    use std::sync::Arc;

    /// A one-float body under an unsealed kind.
    struct Word(f64);

    impl Stored for Word {
        const KIND: Kind = Kind::Dataset;
        fn write(&self, w: &mut Writer) {
            w.f64(self.0);
        }
        fn read(r: &mut Reader<'_>) -> Option<Word> {
            r.f64().map(Word)
        }
    }

    /// A one-word body under a sealed kind.
    struct Sealed(u32);

    impl Stored for Sealed {
        const KIND: Kind = Kind::Campaign;
        fn write(&self, w: &mut Writer) {
            w.u32(self.0);
        }
        fn read(r: &mut Reader<'_>) -> Option<Sealed> {
            r.u32().map(Sealed)
        }
    }

    #[test]
    fn header_is_magic_version_and_key_echo() {
        let key = 0x0102_0304_0506_0708;
        let bytes = encode(key, &Word(-0.0));
        assert_eq!(bytes.len(), HEADER_BYTES + 8);
        assert_eq!(&bytes[..4], b"RTDS");
        assert_eq!(bytes[4..8], 1u32.to_le_bytes());
        assert_eq!(bytes[8..16], key.to_le_bytes());
        let back = decode::<Word>(key, &bytes).expect("own header");
        assert!(back.0.is_sign_negative());
        assert!(decode::<Word>(key + 1, &bytes).is_none(), "key");
        let mut other = bytes.clone();
        other[4] ^= 0x06;
        assert!(decode::<Word>(key, &other).is_none(), "version");
        for cut in 0..bytes.len() {
            assert!(decode::<Word>(key, &bytes[..cut]).is_none(), "cut at {cut}");
        }
        let mut padded = bytes;
        padded.push(0);
        assert!(decode::<Word>(key, &padded).is_none(), "trailing byte");
    }

    #[test]
    fn sealed_entries_check_their_digest_first() {
        let sealed = encode(7, &Sealed(9));
        assert_eq!(sealed.len(), HEADER_BYTES + 4 + DIGEST_BYTES);
        assert_eq!(decode::<Sealed>(7, &sealed).map(|s| s.0), Some(9));
        for at in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[at] ^= 0x10;
            assert!(decode::<Sealed>(7, &bad).is_none(), "flip at {at}");
        }
        assert!(decode::<Sealed>(7, &sealed[..sealed.len() - 1]).is_none());
    }

    #[test]
    fn kinds_have_distinct_namespaces_and_magics() {
        let kinds = [
            Kind::Oracle,
            Kind::Dataset,
            Kind::SearchEval,
            Kind::Campaign,
            Kind::Figure,
        ];
        for (i, a) in kinds.into_iter().enumerate() {
            assert_eq!(a as usize, i, "every kind has its own row");
            for b in &kinds[i + 1..] {
                assert_ne!(a.namespace(), b.namespace());
                assert_ne!(a.magic(), b.magic());
            }
        }
    }

    /// Whether the entry under a key decodes as one stored type.
    type Accepts = fn(u64, &[u8]) -> bool;

    /// Every stored type's entry under one key, read back as every stored
    /// type: only its own kind's readers accept it.
    #[test]
    fn an_entry_of_one_kind_misses_as_every_other_kind() {
        let key = 0x0123_4567_89ab_cdef;
        let net = InferenceMlp::from_flat(&[5, 1], &[0.5; 6]).expect("well-formed");
        let normalizer = Normalizer {
            mean: vec![0.0; 5],
            std: vec![1.0; 5],
        };
        let oracle = TrainedOracle {
            oracle: Arc::new(NnOracle::from_inference(net, 0.0, normalizer)),
            val_mse: 1.0,
            examples: 1,
        };
        let eval = Eval {
            label: String::new(),
            root: ScenarioId::Ds1,
            launched: 1,
            runs: 2,
            eb: 1,
            crashes: 0,
            median_k: 40.0,
        };
        let fold = Fig5Fold {
            frames: 1,
            streaks: [None; 2],
            errors: [None; 4],
        };
        let entries = [
            (Kind::Oracle, encode(key, &oracle)),
            (
                Kind::Dataset,
                encode(key, &Dataset::from_rows([(vec![1.0; 5], vec![2.0])])),
            ),
            (Kind::SearchEval, encode(key, &eval)),
            (Kind::Campaign, encode(key, &Vec::<RunSummary>::new())),
            (Kind::Figure, encode(key, &fold)),
            (Kind::Figure, encode(key, &Vec::<Fig8bRun>::new())),
        ];
        let readers: [(Kind, Accepts); 6] = [
            (Kind::Oracle, |k, b| decode::<TrainedOracle>(k, b).is_some()),
            (Kind::Dataset, |k, b| decode::<Dataset>(k, b).is_some()),
            (Kind::SearchEval, |k, b| decode::<Eval>(k, b).is_some()),
            (Kind::Campaign, |k, b| {
                decode::<Vec<RunSummary>>(k, b).is_some()
            }),
            (Kind::Figure, |k, b| decode::<Fig5Fold>(k, b).is_some()),
            (Kind::Figure, |k, b| decode::<Vec<Fig8bRun>>(k, b).is_some()),
        ];
        for (i, (kind, bytes)) in entries.iter().enumerate() {
            assert!(readers[i].1(key, bytes), "{kind:?} reads its own entry");
            for (other, read) in &readers {
                if other != kind {
                    assert!(!read(key, bytes), "a {kind:?} entry read as {other:?}");
                }
            }
        }
    }

    #[test]
    fn the_fuzz_meter_catches_an_allocation_sized_by_a_declared_count() {
        let bytes = (1u64 << 24).to_le_bytes();
        let trusting = |b: &[u8]| {
            let n = usize::try_from(u64::from_le_bytes(b.try_into().ok()?)).ok()?;
            Some(Vec::<u8>::with_capacity(n).len())
        };
        assert!(fuzz::check(&bytes, trusting, |_| bytes.to_vec()).is_err());
        let checked = |b: &[u8]| Reader(b).count(1);
        assert_eq!(fuzz::check(&bytes, checked, |_| Vec::new()), Ok(false));
    }

    #[test]
    fn the_fuzz_harness_catches_a_decoder_that_stalls() {
        let stalling = |_: &[u8]| {
            std::thread::sleep(std::time::Duration::from_millis(1100));
            None::<()>
        };
        assert!(fuzz::check(&[0; 8], stalling, |_| Vec::new()).is_err());
    }

    #[test]
    fn length_fields_beyond_the_remaining_bytes_are_refused() {
        let mut w = Kind::Dataset.writer(1);
        w.u64(2);
        w.f64(1.0);
        w.f64(2.0);
        let bytes = w.0;
        let mut r = Kind::Dataset.open(1, &bytes).expect("header");
        assert_eq!(r.count(8), Some(2));
        for declared in [3, u64::MAX] {
            let mut bad = bytes.clone();
            bad[HEADER_BYTES..HEADER_BYTES + 8].copy_from_slice(&declared.to_le_bytes());
            assert_eq!(Kind::Dataset.open(1, &bad).expect("header").count(8), None);
        }
        assert_eq!(
            Kind::Dataset.open(1, &bytes).expect("header").count(17),
            None
        );
    }
}

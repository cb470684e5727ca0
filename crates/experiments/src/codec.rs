//! The binary frame every store entry of this crate shares.
//!
//! Five entry kinds live in the artifact store: trained oracles (`RTOC`)
//! and sweep datasets (`RTDS`, both [`crate::oracle_cache`]), search
//! evaluations (`RTSE`, [`crate::search`]), folded campaigns (`RTCP`,
//! [`crate::memo`]) and figure folds (`RTFG`, [`crate::figures`]). Each
//! starts with the same 16-byte header:
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

/// Bytes of the frame header: magic, version, key echo.
pub(crate) const HEADER_BYTES: usize = 4 + 4 + 8;

/// Bytes of a sealed entry's trailing FNV-1a digest.
pub(crate) const DIGEST_BYTES: usize = 8;

/// One entry kind: its magic, and the format version its entries are
/// written with and must carry to be read.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Frame {
    pub(crate) magic: [u8; 4],
    pub(crate) version: u32,
}

impl Frame {
    /// Starts an entry stored under `key`: the header is written, and room
    /// is reserved for `body` more bytes.
    pub(crate) fn writer(self, key: u64, body: usize) -> Writer {
        let mut w = Writer(Vec::with_capacity(HEADER_BYTES + body + DIGEST_BYTES));
        w.bytes(&self.magic);
        w.u32(self.version);
        w.u64(key);
        w
    }

    /// The body of an entry read back from under `key`, or `None` if its
    /// header names another kind, version or key.
    pub(crate) fn open(self, key: u64, bytes: &[u8]) -> Option<Reader<'_>> {
        let mut r = Reader(bytes);
        (r.bytes()? == self.magic && r.u32()? == self.version && r.u64()? == key).then_some(r)
    }

    /// [`Frame::open`] for a sealed entry: the trailing digest must match
    /// the bytes before it, and is not part of the body.
    pub(crate) fn open_sealed(self, key: u64, bytes: &[u8]) -> Option<Reader<'_>> {
        let (entry, digest) = bytes.split_last_chunk::<DIGEST_BYTES>()?;
        if fnv1a(entry) != u64::from_le_bytes(*digest) {
            return None;
        }
        self.open(key, entry)
    }
}

/// Appends an entry's body as little-endian words.
pub(crate) struct Writer(Vec<u8>);

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

    /// The finished entry.
    pub(crate) fn finish(self) -> Vec<u8> {
        self.0
    }

    /// The finished entry with an FNV-1a digest of all of it appended.
    pub(crate) fn seal(mut self) -> Vec<u8> {
        let digest = fnv1a(&self.0);
        self.u64(digest);
        self.0
    }
}

/// Checked little-endian reader over untrusted bytes.
pub(crate) struct Reader<'a>(&'a [u8]);

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

    const FRAME: Frame = Frame {
        magic: *b"TEST",
        version: 3,
    };

    #[test]
    fn header_is_magic_version_and_key_echo() {
        let mut w = FRAME.writer(0x0102_0304_0506_0708, 8);
        w.f64(-0.0);
        let bytes = w.finish();
        assert_eq!(bytes.len(), HEADER_BYTES + 8);
        assert_eq!(&bytes[..4], b"TEST");
        assert_eq!(bytes[4..8], 3u32.to_le_bytes());
        assert_eq!(bytes[8..16], 0x0102_0304_0506_0708u64.to_le_bytes());
        let mut r = FRAME
            .open(0x0102_0304_0506_0708, &bytes)
            .expect("own header");
        assert!(r.f64().expect("body").is_sign_negative());
        assert!(r.end().is_some());
        assert!(FRAME.open(0x0102_0304_0506_0709, &bytes).is_none(), "key");
        let other = Frame {
            version: 4,
            ..FRAME
        };
        assert!(
            other.open(0x0102_0304_0506_0708, &bytes).is_none(),
            "version"
        );
        for cut in 0..HEADER_BYTES {
            assert!(FRAME.open(0x0102_0304_0506_0708, &bytes[..cut]).is_none());
        }
    }

    #[test]
    fn sealed_entries_check_their_digest_first() {
        let mut w = FRAME.writer(7, 4);
        w.u32(9);
        let sealed = w.seal();
        let mut r = FRAME.open_sealed(7, &sealed).expect("sealed");
        assert_eq!((r.u32(), r.remaining()), (Some(9), 0));
        for at in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[at] ^= 0x10;
            assert!(FRAME.open_sealed(7, &bad).is_none(), "flip at {at}");
        }
        assert!(FRAME.open_sealed(7, &sealed[..sealed.len() - 1]).is_none());
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
        let mut w = FRAME.writer(1, 24);
        w.u64(2);
        w.f64(1.0);
        w.f64(2.0);
        let bytes = w.finish();
        let mut r = FRAME.open(1, &bytes).expect("header");
        assert_eq!(r.count(8), Some(2));
        for declared in [3, u64::MAX] {
            let mut bad = bytes.clone();
            bad[HEADER_BYTES..HEADER_BYTES + 8].copy_from_slice(&declared.to_le_bytes());
            assert_eq!(FRAME.open(1, &bad).expect("header").count(8), None);
        }
        assert_eq!(FRAME.open(1, &bytes).expect("header").count(17), None);
    }
}

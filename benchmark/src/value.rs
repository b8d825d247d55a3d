//! Self-verifying values and the per-key version ledger.
//!
//! A value is `key (8 B LE) ‖ version (4 B LE) ‖ filler`, the filler a
//! function of both, so a reader can tell from the bytes alone whether it
//! was handed another key's value or a torn mixture of two writes. Whether
//! the version is *current* is checked against [`Versions`].

use std::sync::atomic::{AtomicU32, Ordering};

/// Bytes of header in front of the filler.
pub const HEADER: usize = 12;

/// Why a reply's payload was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bad {
    /// Not the configured value length.
    Length,
    /// Carries another key.
    Key,
    /// Header and filler disagree: bytes of two writes, or corruption.
    Torn,
    /// Intact, but older than the last write that completed before the
    /// read began (or newer than any write begun before it returned).
    Stale,
}

#[inline]
fn filler_seed(key: u64, version: u32) -> u64 {
    let mut z = key ^ ((version as u64) << 32 | version as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 27)
}

#[inline]
fn filler_word(seed: u64, i: u64) -> u64 {
    seed.wrapping_add(i).wrapping_mul(0x94D0_49BB_1331_11EB)
}

/// Writes the value of (`key`, `version`) into `out[..]` (its length is the
/// value length; at least [`HEADER`]).
pub fn encode(out: &mut [u8], key: u64, version: u32) {
    debug_assert!(out.len() >= HEADER);
    out[..8].copy_from_slice(&key.to_le_bytes());
    out[8..HEADER].copy_from_slice(&version.to_le_bytes());
    let seed = filler_seed(key, version);
    for (i, chunk) in out[HEADER..].chunks_mut(8).enumerate() {
        let w = filler_word(seed, i as u64).to_le_bytes();
        chunk.copy_from_slice(&w[..chunk.len()]);
    }
}

/// Checks that `bytes` is an intact value of `key` with length `len`;
/// returns the version it carries.
pub fn verify(bytes: &[u8], key: u64, len: usize) -> Result<u32, Bad> {
    if bytes.len() != len || len < HEADER {
        return Err(Bad::Length);
    }
    if bytes[..8] != key.to_le_bytes() {
        return Err(Bad::Key);
    }
    let version = u32::from_le_bytes(bytes[8..HEADER].try_into().expect("4 bytes"));
    let seed = filler_seed(key, version);
    for (i, chunk) in bytes[HEADER..].chunks(8).enumerate() {
        let w = filler_word(seed, i as u64).to_le_bytes();
        if chunk != &w[..chunk.len()] {
            return Err(Bad::Torn);
        }
    }
    Ok(version)
}

/// Per-key monotone versions. Every key has exactly one writer (its owner
/// thread), which brackets each SET with [`begin_write`](Self::begin_write)
/// and [`end_write`](Self::end_write); any thread reading the key brackets
/// its GET with [`floor`](Self::floor) and [`check`](Self::check). A value
/// is acceptable iff its version is at least the last write completed
/// before the read began and at most the last write begun before it
/// returned — newest, or concurrent with the read.
pub struct Versions {
    started: Box<[AtomicU32]>,
    committed: Box<[AtomicU32]>,
}

impl Versions {
    /// Ledger for keys `1..=keys`, all at `initial`.
    pub fn new(keys: u64, initial: u32) -> Self {
        let make = || {
            (0..=keys)
                .map(|_| AtomicU32::new(initial))
                .collect::<Box<[_]>>()
        };
        Versions {
            started: make(),
            committed: make(),
        }
    }

    /// Puts every key back at `initial`, for a store rebuilt from scratch.
    /// No lane may be running.
    pub fn reset(&self, initial: u32) {
        for v in self.started.iter().chain(self.committed.iter()) {
            v.store(initial, Ordering::Relaxed);
        }
    }

    /// Owner only: the version the next SET of `key` must carry.
    #[inline]
    pub fn begin_write(&self, key: u64) -> u32 {
        let v = self.started[key as usize].load(Ordering::Relaxed) + 1;
        // Release: a reader that sees the new value sees this first.
        self.started[key as usize].store(v, Ordering::Release);
        v
    }

    /// Owner only: the SET of version `v` has returned.
    #[inline]
    pub fn end_write(&self, key: u64, v: u32) {
        self.committed[key as usize].store(v, Ordering::Release);
    }

    /// Before a GET: the oldest version it may legally return.
    #[inline]
    pub fn floor(&self, key: u64) -> u32 {
        self.committed[key as usize].load(Ordering::Acquire)
    }

    /// After a GET that returned version `got`: is it in the legal window?
    #[inline]
    pub fn check(&self, key: u64, floor: u32, got: u32) -> Result<(), Bad> {
        let ceiling = self.started[key as usize].load(Ordering::Acquire);
        if got < floor || got > ceiling {
            return Err(Bad::Stale);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_at_both_workload_sizes() {
        for len in [HEADER, 13, 64, 256] {
            let mut buf = vec![0u8; len];
            encode(&mut buf, 42, 7);
            assert_eq!(verify(&buf, 42, len), Ok(7), "len {len}");
        }
    }

    #[test]
    fn wrong_key_and_wrong_length_are_told_apart() {
        let mut buf = vec![0u8; 64];
        encode(&mut buf, 42, 7);
        assert_eq!(verify(&buf, 43, 64), Err(Bad::Key));
        assert_eq!(verify(&buf[..63], 42, 64), Err(Bad::Length));
        assert_eq!(verify(&buf, 42, 256), Err(Bad::Length));
    }

    #[test]
    fn a_torn_value_is_caught() {
        // First half of version 7, second half of version 8: what a reader
        // would see if a copy raced an in-place overwrite.
        let (mut a, mut b) = (vec![0u8; 64], vec![0u8; 64]);
        encode(&mut a, 42, 7);
        encode(&mut b, 42, 8);
        let mut torn = a.clone();
        torn[32..].copy_from_slice(&b[32..]);
        assert_eq!(verify(&torn, 42, 64), Err(Bad::Torn));
        // A single flipped filler bit too.
        a[63] ^= 1;
        assert_eq!(verify(&a, 42, 64), Err(Bad::Torn));
        // And a header from one write on the filler of another.
        b[8..HEADER].copy_from_slice(&7u32.to_le_bytes());
        assert_eq!(verify(&b, 42, 64), Err(Bad::Torn));
    }

    #[test]
    fn a_stale_value_is_caught_and_a_concurrent_one_is_not() {
        let ledger = Versions::new(10, 1);
        // Completed write of version 2.
        let v = ledger.begin_write(3);
        assert_eq!(v, 2);
        ledger.end_write(3, v);
        let floor = ledger.floor(3);
        assert_eq!(
            ledger.check(3, floor, 1),
            Err(Bad::Stale),
            "older than a completed write"
        );
        assert_eq!(ledger.check(3, floor, 2), Ok(()));
        assert_eq!(
            ledger.check(3, floor, 3),
            Err(Bad::Stale),
            "from a write never begun"
        );
        // A write in flight: both the old and the new version are legal.
        let floor = ledger.floor(3);
        let v = ledger.begin_write(3);
        assert_eq!(ledger.check(3, floor, 2), Ok(()));
        assert_eq!(ledger.check(3, floor, v), Ok(()));
        ledger.end_write(3, v);
        assert_eq!(ledger.check(3, ledger.floor(3), 2), Err(Bad::Stale));
        // Other keys are untouched.
        assert_eq!(ledger.check(4, ledger.floor(4), 1), Ok(()));
    }
}

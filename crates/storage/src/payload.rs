//! [`Payload`] — the shared, immutable byte buffer the whole write path
//! hands around instead of copying.
//!
//! A payload wraps a [`Bytes`] buffer (refcounted, immutable) together
//! with a lazily-memoized SHA-256 digest. Cloning a payload is a
//! refcount bump that *shares* the digest cell, so however many layers
//! touch one acked write — admission, the ADAL fan-out, a replica, the
//! object store's catalog — the digest is computed at most once and the
//! bytes are copied exactly zero times. A batch fills its payloads'
//! cells up front with [`Payload::digest_all`], which hashes payloads of
//! one block layout sixteen at a time where the CPU allows.
//!
//! ## Ownership rules
//!
//! * The buffer is immutable for the payload's whole life. Anything that
//!   needs to mutate bytes (e.g. torn-write fault injection) must build
//!   a **new** payload from a private copy; the fresh payload gets a
//!   fresh digest cell, so a substituted buffer can never inherit the
//!   original's memoized digest and dodge verification.
//! * A view of part of the buffer shares it: a DFS block replica is a
//!   window of [`Payload::bytes`], not a copy.
//! * The only deep copies are the two counted constructors:
//!   `From<&[u8]>` (legacy borrowed-slice entry points) and
//!   `From<&[Bytes]>` (concatenating views of different buffers).
//! * Deep copies and digest computations are counted in process-global
//!   counters ([`payload_deep_copies`], [`payload_digests_computed`]) so
//!   tests can assert the zero-copy / hash-once contract end to end.

use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use bytes::Bytes;

use crate::checksum::{sha256, sha256_many, Digest};

/// Process-global count of SHA-256 digests actually computed (cache
/// misses). Memoized hits do not count.
static DIGESTS_COMPUTED: AtomicU64 = AtomicU64::new(0);
/// Process-global count of deep byte copies made while constructing
/// payloads (e.g. [`Payload::from`] on a borrowed slice).
static DEEP_COPIES: AtomicU64 = AtomicU64::new(0);

/// Digests computed so far, process-wide. Tests diff this around an
/// ingest to prove "exactly one SHA-256 per acked payload".
pub fn payload_digests_computed() -> u64 {
    DIGESTS_COMPUTED.load(Ordering::Relaxed)
}

/// Deep copies made so far, process-wide. Tests diff this around an
/// ingest to prove "zero payload copies on the success path".
pub fn payload_deep_copies() -> u64 {
    DEEP_COPIES.load(Ordering::Relaxed)
}

/// A shared, immutable byte buffer with a memoized SHA-256 digest.
///
/// ```
/// use lsdf_storage::Payload;
/// use bytes::Bytes;
///
/// let p = Payload::from(Bytes::from_static(b"pixels"));
/// let q = p.clone();              // refcount bump, shares the digest cell
/// assert_eq!(p.digest(), q.digest()); // hashed once, memoized
/// assert_eq!(&p[..], b"pixels");
/// ```
#[derive(Clone)]
pub struct Payload {
    bytes: Bytes,
    digest: Arc<OnceLock<Digest>>,
}

impl Payload {
    /// Wraps an owned buffer; zero-copy.
    pub fn new(bytes: Bytes) -> Self {
        Payload {
            bytes,
            digest: Arc::new(OnceLock::new()),
        }
    }

    /// The SHA-256 digest, computed on first call and memoized; clones
    /// made before or after share the cell, so a payload family is
    /// hashed at most once.
    pub fn digest(&self) -> Digest {
        *self.digest.get_or_init(|| {
            DIGESTS_COMPUTED.fetch_add(1, Ordering::Relaxed);
            sha256(&self.bytes)
        })
    }

    /// Computes the digest of every payload in `payloads` whose cell is
    /// still empty, in one [`sha256_many`] pass, and stores each in its
    /// payload's memo cell: a later [`Payload::digest`] on any clone is
    /// a load. Payloads of one layout hash sixteen at a time where the
    /// CPU allows (see [`sha256_many`]); the digests are the ones
    /// `digest` would compute. Each hash counts once in
    /// [`payload_digests_computed`], so a slice holding two clones of
    /// one payload hashes (and counts) it twice.
    pub fn digest_all(payloads: &[Payload]) {
        let todo: Vec<&Payload> = payloads
            .iter()
            .filter(|p| p.digest.get().is_none())
            .collect();
        if todo.is_empty() {
            return;
        }
        let messages: Vec<&[u8]> = todo.iter().map(|p| &p.bytes[..]).collect();
        DIGESTS_COMPUTED.fetch_add(todo.len() as u64, Ordering::Relaxed);
        for (p, d) in todo.into_iter().zip(sha256_many(&messages)) {
            // A cell another thread filled meanwhile holds the same
            // digest; keeping either is right.
            let _ = p.digest.set(d);
        }
    }

    /// The memoized digest if it has already been computed.
    pub fn digest_if_computed(&self) -> Option<Digest> {
        self.digest.get().copied()
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True when the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Borrow the underlying buffer.
    pub fn bytes(&self) -> &Bytes {
        &self.bytes
    }

    /// Unwraps into the underlying buffer (zero-copy; the digest cell is
    /// dropped with the last clone).
    pub fn into_bytes(self) -> Bytes {
        self.bytes
    }

    /// Cheap content equality: identical buffers (same pointer and
    /// length) compare equal in O(1); distinct buffers fall back to a
    /// byte comparison. This is how write verification compares a
    /// read-back against the source without hashing either side.
    pub fn content_eq(&self, other: &Payload) -> bool {
        let (a, b) = (&self.bytes, &other.bytes);
        (a.as_ptr() == b.as_ptr() && a.len() == b.len()) || a == b
    }
}

impl From<Bytes> for Payload {
    fn from(bytes: Bytes) -> Self {
        Payload::new(bytes)
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Self {
        Payload::new(Bytes::from(v))
    }
}

impl From<&[u8]> for Payload {
    /// Copies the borrowed slice into an owned buffer — the one counted
    /// deep copy, reserved for legacy `&[u8]` entry points.
    fn from(slice: &[u8]) -> Self {
        DEEP_COPIES.fetch_add(1, Ordering::Relaxed);
        Payload::new(Bytes::copy_from_slice(slice)) // lint: allow(payload_copy) -- the counted legacy entry point
    }
}

impl From<&[Bytes]> for Payload {
    /// Concatenates views that share no buffer into one owned buffer —
    /// a counted deep copy, like the borrowed-slice entry point. The
    /// DFS reaches it only for a file whose block replicas are windows
    /// of different buffers.
    fn from(parts: &[Bytes]) -> Self {
        DEEP_COPIES.fetch_add(1, Ordering::Relaxed);
        let mut out = Vec::with_capacity(parts.iter().map(Bytes::len).sum());
        for part in parts {
            out.extend_from_slice(part); // lint: allow(payload_copy) -- the counted concatenation
        }
        Payload::from(out)
    }
}

impl Deref for Payload {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.bytes
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        &self.bytes
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        self.content_eq(other)
    }
}

impl Eq for Payload {}

impl PartialEq<Bytes> for Payload {
    fn eq(&self, other: &Bytes) -> bool {
        &self.bytes == other
    }
}

impl PartialEq<Payload> for Bytes {
    fn eq(&self, other: &Payload) -> bool {
        self == &other.bytes
    }
}

impl PartialEq<[u8]> for Payload {
    fn eq(&self, other: &[u8]) -> bool {
        self.bytes.as_ref() == other
    }
}

impl PartialEq<&[u8]> for Payload {
    fn eq(&self, other: &&[u8]) -> bool {
        self.bytes.as_ref() == *other
    }
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Payload")
            .field("len", &self.bytes.len())
            .field("digest", &self.digest.get())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Payload {
        Payload::new(Bytes::copy_from_slice(s.as_bytes()))
    }

    #[test]
    fn digest_is_memoized_across_clones() {
        // Read off the handles, not off `payload_digests_computed()`:
        // that counter is the process's, and the tests beside this one
        // hash on their own threads.
        let a = p("zebrafish");
        let b = a.clone();
        assert_eq!(b.digest_if_computed(), None);
        let d1 = a.digest();
        assert_eq!(d1, sha256(b"zebrafish"));
        // Clones share the cell: what one computed the other already has.
        assert_eq!(b.digest_if_computed(), Some(d1));
        assert_eq!(b.digest(), d1);
    }

    #[test]
    fn digest_all_fills_every_empty_cell_with_the_one_digest() {
        // Twenty of one layout (the 16-lane kernel where the CPU has
        // it), three of another (one at a time), and one memoized.
        let payloads: Vec<Payload> = (0..20)
            .map(|i| p(&format!("lane-{i:03}")))
            .chain((0..3).map(|i| p(&format!("{i}").repeat(100))))
            .collect();
        let memoized = payloads[5].digest();
        let held = payloads[7].clone();
        Payload::digest_all(&payloads);
        for q in &payloads {
            assert_eq!(q.digest_if_computed(), Some(sha256(q)));
        }
        assert_eq!(payloads[5].digest_if_computed(), Some(memoized));
        // The cell is the handle's: a clone made before sees it filled.
        assert_eq!(held.digest_if_computed(), Some(sha256(&held)));
    }

    #[test]
    fn clone_shares_the_buffer() {
        let a = p("shared");
        let b = a.clone();
        assert_eq!(a.bytes().as_ptr(), b.bytes().as_ptr());
        assert!(a.content_eq(&b));
    }

    #[test]
    fn equality_covers_bytes_and_slices() {
        let a = p("abc");
        assert_eq!(a, Bytes::from_static(b"abc"));
        assert_eq!(Bytes::from_static(b"abc"), a);
        assert_eq!(a, b"abc"[..]);
        assert_ne!(a, p("abd"));
        assert_eq!(a, a.clone());
    }

    #[test]
    fn borrowed_slice_entry_point_counts_a_deep_copy() {
        let before = payload_deep_copies();
        let a = Payload::from(&b"legacy"[..]);
        assert_eq!(a, b"legacy"[..]);
        assert_eq!(payload_deep_copies() - before, 1);
    }

    #[test]
    fn into_bytes_round_trips_without_copy() {
        let a = p("buffer");
        let ptr = a.bytes().as_ptr();
        let b = a.into_bytes();
        assert_eq!(b.as_ptr(), ptr);
    }
}

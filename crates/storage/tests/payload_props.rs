//! Property tests for the shared [`Payload`] handle: the memoized
//! digest is indistinguishable from a fresh hash no matter how the
//! handle is cloned and sliced, and slices are true zero-copy views of
//! the same buffer.

use lsdf_storage::{sha256, Payload};
use proptest::prelude::*;

proptest! {
    /// After any interleaving of clones and zero-copy slices, every
    /// surviving handle reports the digest of the original bytes —
    /// whether the digest was memoized before, between, or after the
    /// clones. This is the soundness condition for hashing once per
    /// acked payload and letting replicas reuse the cell.
    #[test]
    fn memoized_digest_equals_fresh_hash_after_any_clone_slice_sequence(
        data in proptest::collection::vec(any::<u8>(), 0..512),
        picks in proptest::collection::vec(any::<usize>(), 0..8),
        memoize_early in any::<bool>(),
    ) {
        let expected = sha256(&data);
        let root = Payload::new(bytes::Bytes::from(data.clone()));
        if memoize_early {
            prop_assert_eq!(root.digest(), expected);
        }
        let mut handles = vec![root];
        for pick in &picks {
            let src = handles[pick % handles.len()].clone();
            // A zero-copy view of a prefix: same buffer, own range.
            let mid = src.len() / 2;
            let view = src.bytes().slice(0..mid);
            prop_assert_eq!(&view[..], &data[..mid]);
            handles.push(src);
        }
        for h in &handles {
            prop_assert_eq!(h.len(), data.len());
            prop_assert_eq!(h.digest(), expected);
        }
    }

    /// `content_eq` agrees with byte equality for every pair of
    /// payloads, including the pointer-equality fast path hit by
    /// handle clones.
    #[test]
    fn content_eq_agrees_with_byte_equality(
        a in proptest::collection::vec(any::<u8>(), 0..128),
        b in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let pa = Payload::new(bytes::Bytes::from(a.clone()));
        let pb = Payload::new(bytes::Bytes::from(b.clone()));
        prop_assert_eq!(pa.content_eq(&pb), a == b);
        prop_assert!(pa.content_eq(&pa.clone()));
    }
}

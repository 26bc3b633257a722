//! Plain-old-data element marshalling for message payloads.
//!
//! Messages are carried as [`bytes::Bytes`]. Element types that may appear in
//! a message implement the [`Pod`] marker; the conversions are raw byte
//! copies, which is sound because every implementor is a fixed-layout
//! primitive with no padding and no invalid bit patterns. A message that
//! needs no copy at all is a loan ([`crate::Comm::lending`]).

use bytes::Bytes;

/// Marker for element types that can be transported in a message payload.
///
/// # Safety
///
/// Implementors must be inhabited `Copy` types for which **every** bit
/// pattern of `size_of::<Self>()` bytes is a valid value, with no padding
/// bytes (this is what makes the byte-level round trip in [`to_bytes`] /
/// [`from_bytes`] sound). All implementations in this crate are primitive
/// numeric types.
pub unsafe trait Pod: Copy + Send + Sync + 'static {}

unsafe impl Pod for u8 {}
unsafe impl Pod for i8 {}
unsafe impl Pod for u16 {}
unsafe impl Pod for i16 {}
unsafe impl Pod for u32 {}
unsafe impl Pod for i32 {}
unsafe impl Pod for u64 {}
unsafe impl Pod for i64 {}
unsafe impl Pod for usize {}
unsafe impl Pod for isize {}
unsafe impl Pod for f32 {}
unsafe impl Pod for f64 {}

/// Serialize a slice of POD elements into an owned byte buffer.
pub fn to_bytes<T: Pod>(data: &[T]) -> Bytes {
    // SAFETY: `T: Pod` guarantees no padding, so viewing the slice as bytes
    // reads only initialized memory; the view borrows `data`.
    let bytes = unsafe {
        std::slice::from_raw_parts(data.as_ptr() as *const u8, std::mem::size_of_val(data))
    };
    Bytes::copy_from_slice(bytes)
}

/// Deserialize a byte buffer produced by [`to_bytes`] back into elements.
///
/// # Panics
///
/// Panics if the buffer length is not a multiple of `size_of::<T>()`, which
/// indicates a type mismatch between sender and receiver.
pub fn from_bytes<T: Pod>(b: &[u8]) -> Vec<T> {
    let mut out = Vec::new();
    from_bytes_into(b, &mut out);
    out
}

/// Like [`from_bytes`] but reuses the capacity of `out`.
pub fn from_bytes_into<T: Pod>(b: &[u8], out: &mut Vec<T>) {
    let esz = std::mem::size_of::<T>();
    assert!(
        b.len().is_multiple_of(esz),
        "payload of {} bytes is not a whole number of {}-byte elements \
         (sender/receiver type mismatch?)",
        b.len(),
        esz
    );
    let n = b.len() / esz;
    out.clear();
    out.reserve(n);
    // SAFETY: the destination is freshly reserved and properly aligned for
    // `T`; `T: Pod` means any bit pattern is a valid `T`.
    unsafe {
        std::ptr::copy_nonoverlapping(b.as_ptr(), out.as_mut_ptr() as *mut u8, b.len());
        out.set_len(n);
    }
}

/// Element types usable with arithmetic reductions.
pub trait Reducible: Pod + PartialOrd {
    /// Elementwise addition used by [`crate::ReduceOp::Sum`].
    fn add(self, other: Self) -> Self;
}

macro_rules! impl_reducible {
    ($($t:ty),*) => {$(
        impl Reducible for $t {
            #[inline]
            fn add(self, other: Self) -> Self { self + other }
        }
    )*};
}
impl_reducible!(u8, i8, u16, i16, u32, i32, u64, i64, usize, isize, f32, f64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_f64() {
        let data = vec![1.5f64, -2.25, 0.0, f64::MAX, f64::MIN_POSITIVE];
        let b = to_bytes(&data);
        assert_eq!(b.len(), data.len() * 8);
        let back: Vec<f64> = from_bytes(&b);
        assert_eq!(back, data);
    }

    #[test]
    fn round_trip_empty() {
        let data: Vec<u32> = vec![];
        let b = to_bytes(&data);
        assert!(b.is_empty());
        let back: Vec<u32> = from_bytes(&b);
        assert!(back.is_empty());
    }

    #[test]
    fn round_trip_usize() {
        let data: Vec<usize> = (0..1000).collect();
        let back: Vec<usize> = from_bytes(&to_bytes(&data));
        assert_eq!(back, data);
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn length_mismatch_panics() {
        let data = vec![1u8, 2, 3];
        let b = to_bytes(&data);
        let _: Vec<u32> = from_bytes(&b);
    }

    #[test]
    fn reuse_capacity() {
        let mut buf: Vec<u64> = Vec::with_capacity(100);
        let b = to_bytes(&[1u64, 2, 3]);
        from_bytes_into(&b, &mut buf);
        assert_eq!(buf, vec![1, 2, 3]);
        assert!(buf.capacity() >= 100);
    }
}

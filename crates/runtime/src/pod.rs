//! Plain-old-data marshalling between Rust values and simulated memory.
//!
//! Shared objects live in *simulated* memories as little-endian bytes; the
//! [`Pod`] trait converts fixed-size Rust values. Multi-byte objects are
//! exactly the case the paper's Section V-A discusses: the model's
//! locations are single bytes, so the runtime must lock around non-atomic
//! (multi-byte) accesses.
//!
//! Every typed access (a scope guard's `read`/`read_at`/`write`/
//! `write_at`, `PmcCtx::priv_read`, `System::read_back`/`read_back_at`)
//! marshals through `with_buf`: a zeroed `POD_BUF`-byte (64-byte) array
//! on the stack, so an access allocates nothing on the host. Every
//! in-tree `Pod` fits under that bound: the largest are Radiosity's
//! `Patch = [f32; 8]` and kvserve's `Req`, both 32 bytes; the primitives
//! and [`Vec2`] are at most 8. A larger `Pod` (any `[T; N]` above 64
//! bytes) still works, with no compile-time bound: its accesses fall
//! back to a heap buffer of `T::SIZE` bytes per call.

/// Bytes of the stack buffer [`with_buf`] lends: a `Pod` up to this size
/// is marshalled without touching the heap.
pub(crate) const POD_BUF: usize = 64;

/// Run `f` on a zeroed scratch buffer of `size` bytes: a stack array up
/// to [`POD_BUF`] bytes, a heap vector above it.
#[inline]
pub(crate) fn with_buf<R>(size: u32, f: impl FnOnce(&mut [u8]) -> R) -> R {
    let size = size as usize;
    if size <= POD_BUF {
        f(&mut [0u8; POD_BUF][..size])
    } else {
        f(&mut vec![0u8; size])
    }
}

/// A fixed-size, byte-serialisable value.
pub trait Pod: Copy + 'static {
    /// Serialised size in bytes.
    const SIZE: u32;
    fn to_bytes(&self, out: &mut [u8]);
    fn from_bytes(bytes: &[u8]) -> Self;
}

macro_rules! pod_prim {
    ($($t:ty),*) => {$(
        impl Pod for $t {
            const SIZE: u32 = std::mem::size_of::<$t>() as u32;
            #[inline]
            fn to_bytes(&self, out: &mut [u8]) {
                out.copy_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn from_bytes(bytes: &[u8]) -> Self {
                <$t>::from_le_bytes(bytes.try_into().expect("pod size"))
            }
        }
    )*};
}

pod_prim!(u8, u16, u32, u64, i8, i16, i32, i64, f32, f64);

impl Pod for bool {
    const SIZE: u32 = 1;
    #[inline]
    fn to_bytes(&self, out: &mut [u8]) {
        out[0] = *self as u8;
    }
    #[inline]
    fn from_bytes(bytes: &[u8]) -> Self {
        bytes[0] != 0
    }
}

impl<T: Pod, const N: usize> Pod for [T; N] {
    const SIZE: u32 = T::SIZE * N as u32;
    fn to_bytes(&self, out: &mut [u8]) {
        let s = T::SIZE as usize;
        for (i, v) in self.iter().enumerate() {
            v.to_bytes(&mut out[i * s..(i + 1) * s]);
        }
    }
    fn from_bytes(bytes: &[u8]) -> Self {
        let s = T::SIZE as usize;
        std::array::from_fn(|i| T::from_bytes(&bytes[i * s..(i + 1) * s]))
    }
}

/// A 2-D motion/position vector as used by the motion-estimation and
/// raytrace workloads (an example of an application-defined Pod).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    pub x: i32,
    pub y: i32,
}

impl Pod for Vec2 {
    const SIZE: u32 = 8;
    fn to_bytes(&self, out: &mut [u8]) {
        self.x.to_bytes(&mut out[0..4]);
        self.y.to_bytes(&mut out[4..8]);
    }
    fn from_bytes(bytes: &[u8]) -> Self {
        Vec2 { x: i32::from_bytes(&bytes[0..4]), y: i32::from_bytes(&bytes[4..8]) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_roundtrip() {
        let mut buf = [0u8; 8];
        0xdead_beefu32.to_bytes(&mut buf[..4]);
        assert_eq!(u32::from_bytes(&buf[..4]), 0xdead_beef);
        (-5i32).to_bytes(&mut buf[..4]);
        assert_eq!(i32::from_bytes(&buf[..4]), -5);
        1.5f64.to_bytes(&mut buf);
        assert_eq!(f64::from_bytes(&buf), 1.5);
        true.to_bytes(&mut buf[..1]);
        assert!(bool::from_bytes(&buf[..1]));
    }

    #[test]
    fn array_roundtrip() {
        let a: [u16; 3] = [1, 2, 3];
        let mut buf = [0u8; 6];
        a.to_bytes(&mut buf);
        assert_eq!(<[u16; 3]>::from_bytes(&buf), a);
        assert_eq!(<[u16; 3]>::SIZE, 6);
    }

    #[test]
    fn with_buf_lends_exactly_size_bytes_on_either_side_of_the_bound() {
        for size in [0, 1, POD_BUF as u32, POD_BUF as u32 + 1, 4096] {
            let len = with_buf(size, |buf| {
                assert!(buf.iter().all(|&b| b == 0), "the buffer starts zeroed");
                buf.fill(0xff);
                buf.len()
            });
            assert_eq!(len, size as usize);
        }
        let big: [u64; 9] = std::array::from_fn(|i| i as u64);
        let back = with_buf(<[u64; 9]>::SIZE, |buf| {
            big.to_bytes(buf);
            <[u64; 9]>::from_bytes(buf)
        });
        assert_eq!(back, big, "a Pod above the bound round-trips through the heap fallback");
    }

    #[test]
    fn vec2_roundtrip() {
        let v = Vec2 { x: -3, y: 99 };
        let mut buf = [0u8; 8];
        v.to_bytes(&mut buf);
        assert_eq!(Vec2::from_bytes(&buf), v);
    }
}

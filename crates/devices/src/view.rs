//! Lent views of GPU device memory.
//!
//! A running kernel computes on the device's own bytes: the device lends it
//! a [`BufView`] (shared) or a [`BufViewMut`] (exclusive) of each buffer it
//! names, and the kernel reads and writes little-endian `f32`/`u32` elements
//! through them. Every access is checked against the buffer's length and
//! answers [`GpuError::OutOfBounds`] instead of panicking, because shapes and
//! indices come from the launch payload and from device memory itself.
//!
//! Element `i` is bytes `[4 * i, 4 * i + 4)`; a trailing partial element is
//! never read or written.

use crate::gpu::{GpuBuffer, GpuError};

/// Bytes per `f32`/`u32` element.
const ELEM: usize = 4;

#[cold]
fn out_of_bounds(buffer: GpuBuffer, start: usize, count: usize) -> GpuError {
    GpuError::OutOfBounds {
        buffer,
        offset: (start as u64).saturating_mul(ELEM as u64),
        len: (count as u64).saturating_mul(ELEM as u64),
    }
}

/// The byte range of elements `[start, start + count)` when it lies inside
/// `len` bytes.
#[inline]
fn elem_range(len: usize, start: usize, count: usize) -> Option<std::ops::Range<usize>> {
    let from = start.checked_mul(ELEM)?;
    let to = from.checked_add(count.checked_mul(ELEM)?)?;
    (to <= len).then_some(from..to)
}

#[inline]
fn word(chunk: &[u8]) -> [u8; ELEM] {
    chunk.try_into().expect("4-byte chunk")
}

/// A shared view of one buffer (or of a run of its elements).
#[derive(Clone, Copy, Debug)]
pub struct BufView<'a> {
    buffer: GpuBuffer,
    bytes: &'a [u8],
}

impl<'a> BufView<'a> {
    pub(crate) fn new(buffer: GpuBuffer, bytes: &'a [u8]) -> Self {
        BufView { buffer, bytes }
    }

    /// The viewed bytes.
    pub fn bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// Whole elements in view.
    #[inline]
    pub fn elems(&self) -> usize {
        self.bytes.len() / ELEM
    }

    /// Elements `[start, start + count)` as their own view.
    ///
    /// # Errors
    ///
    /// [`GpuError::OutOfBounds`] when the run does not fit.
    #[inline]
    pub fn slice(&self, start: usize, count: usize) -> Result<BufView<'a>, GpuError> {
        let range = elem_range(self.bytes.len(), start, count)
            .ok_or_else(|| out_of_bounds(self.buffer, start, count))?;
        Ok(BufView::new(self.buffer, &self.bytes[range]))
    }

    /// Element `i` as an `f32`.
    ///
    /// # Errors
    ///
    /// [`GpuError::OutOfBounds`].
    #[inline]
    pub fn f32(&self, i: usize) -> Result<f32, GpuError> {
        self.u32(i).map(f32::from_bits)
    }

    /// Element `i` as a `u32`.
    ///
    /// # Errors
    ///
    /// [`GpuError::OutOfBounds`].
    #[inline]
    pub fn u32(&self, i: usize) -> Result<u32, GpuError> {
        elem_range(self.bytes.len(), i, 1)
            .map(|r| u32::from_le_bytes(word(&self.bytes[r])))
            .ok_or_else(|| out_of_bounds(self.buffer, i, 1))
    }

    /// Every whole element as an `f32`, in order.
    #[inline]
    pub fn f32s(&self) -> impl ExactSizeIterator<Item = f32> + 'a {
        self.u32s().map(f32::from_bits)
    }

    /// Every whole element as a `u32`, in order.
    #[inline]
    pub fn u32s(&self) -> impl ExactSizeIterator<Item = u32> + 'a {
        self.bytes
            .chunks_exact(ELEM)
            .map(|c| u32::from_le_bytes(word(c)))
    }
}

/// An exclusive view of one buffer (or of a run of its elements).
#[derive(Debug)]
pub struct BufViewMut<'a> {
    buffer: GpuBuffer,
    bytes: &'a mut [u8],
}

impl<'a> BufViewMut<'a> {
    pub(crate) fn new(buffer: GpuBuffer, bytes: &'a mut [u8]) -> Self {
        BufViewMut { buffer, bytes }
    }

    /// This view, shared, for reading.
    #[inline]
    pub fn view(&self) -> BufView<'_> {
        BufView::new(self.buffer, self.bytes)
    }

    /// The viewed bytes.
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        self.bytes
    }

    /// Whole elements in view.
    #[inline]
    pub fn elems(&self) -> usize {
        self.bytes.len() / ELEM
    }

    /// Elements `[start, start + count)` as their own exclusive view.
    ///
    /// # Errors
    ///
    /// [`GpuError::OutOfBounds`] when the run does not fit.
    #[inline]
    pub fn slice_mut(&mut self, start: usize, count: usize) -> Result<BufViewMut<'_>, GpuError> {
        let range = elem_range(self.bytes.len(), start, count)
            .ok_or_else(|| out_of_bounds(self.buffer, start, count))?;
        Ok(BufViewMut::new(self.buffer, &mut self.bytes[range]))
    }

    /// Element `i` as an `f32`.
    ///
    /// # Errors
    ///
    /// [`GpuError::OutOfBounds`].
    #[inline]
    pub fn f32(&self, i: usize) -> Result<f32, GpuError> {
        self.view().f32(i)
    }

    /// Element `i` as a `u32`.
    ///
    /// # Errors
    ///
    /// [`GpuError::OutOfBounds`].
    #[inline]
    pub fn u32(&self, i: usize) -> Result<u32, GpuError> {
        self.view().u32(i)
    }

    /// Stores `v` as element `i`.
    ///
    /// # Errors
    ///
    /// [`GpuError::OutOfBounds`].
    #[inline]
    pub fn set_f32(&mut self, i: usize, v: f32) -> Result<(), GpuError> {
        self.set_u32(i, v.to_bits())
    }

    /// Stores `v` as element `i`.
    ///
    /// # Errors
    ///
    /// [`GpuError::OutOfBounds`].
    #[inline]
    pub fn set_u32(&mut self, i: usize, v: u32) -> Result<(), GpuError> {
        let range =
            elem_range(self.bytes.len(), i, 1).ok_or_else(|| out_of_bounds(self.buffer, i, 1))?;
        self.bytes[range].copy_from_slice(&v.to_le_bytes());
        Ok(())
    }

    /// Every whole element, in order, as a cell to read and overwrite.
    #[inline]
    pub fn f32s_mut(&mut self) -> impl ExactSizeIterator<Item = F32Cell<'_>> {
        self.bytes
            .chunks_exact_mut(ELEM)
            .map(|c| F32Cell(c.try_into().expect("4-byte chunk")))
    }
}

/// One `f32` element of an exclusive view.
#[derive(Debug)]
pub struct F32Cell<'a>(&'a mut [u8; ELEM]);

impl F32Cell<'_> {
    /// The element's value.
    #[inline]
    pub fn get(&self) -> f32 {
        f32::from_le_bytes(*self.0)
    }

    /// Overwrites the element.
    #[inline]
    pub fn set(&mut self, v: f32) {
        *self.0 = v.to_le_bytes();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BUF: GpuBuffer = GpuBuffer::from_raw(7);

    #[test]
    fn elements_are_little_endian_words() {
        let mut bytes = [0u8; 10];
        let mut v = BufViewMut::new(BUF, &mut bytes);
        assert_eq!(v.elems(), 2, "the trailing half element is not one");
        v.set_f32(0, 1.5).unwrap();
        v.set_u32(1, 0x0403_0201).unwrap();
        assert_eq!(v.f32(0).unwrap(), 1.5);
        assert_eq!(
            v.view().u32s().collect::<Vec<_>>(),
            [1.5f32.to_bits(), 0x0403_0201]
        );
        assert_eq!(bytes[4..8], [1, 2, 3, 4]);
        assert_eq!(bytes[8..], [0, 0], "partial tail untouched");
    }

    #[test]
    fn cells_update_in_place() {
        let mut bytes = [0u8; 8];
        let mut v = BufViewMut::new(BUF, &mut bytes);
        for (i, mut c) in v.f32s_mut().enumerate() {
            c.set(c.get() + i as f32 + 1.0);
        }
        assert_eq!(v.view().f32s().collect::<Vec<_>>(), [1.0, 2.0]);
    }

    #[test]
    fn every_miss_is_a_typed_error() {
        let mut bytes = [0u8; 8];
        let mut v = BufViewMut::new(BUF, &mut bytes);
        let oob = |offset, len| GpuError::OutOfBounds {
            buffer: BUF,
            offset,
            len,
        };
        assert_eq!(v.f32(2).unwrap_err(), oob(8, 4));
        assert_eq!(v.set_u32(2, 0).unwrap_err(), oob(8, 4));
        assert_eq!(v.view().slice(1, 2).unwrap_err(), oob(4, 8));
        assert!(v.slice_mut(3, 0).is_err(), "an empty run past the end");
        assert!(v.view().slice(2, 0).is_ok(), "an empty run at the end");
        // Index arithmetic that overflows is a miss, not a wrap.
        assert!(v.f32(usize::MAX).is_err());
        assert!(v.view().slice(1, usize::MAX / 2).is_err());
        assert_eq!(v.view().slice(1, 1).unwrap().u32(0).unwrap(), 0);
    }
}

//! Device buffers: explicit host ↔ device copies with metered traffic.
//!
//! A host-to-device copy lands in a fresh allocation, so its cost is the
//! first touch of every page, not the bytes moved.  Uploads therefore run
//! as pool tasks over fixed pieces of at most 1 MiB, which takes those
//! page faults on every worker; a [`Device::sequential`] device copies on
//! the calling thread.
//!
//! A matrix the device only ever reads needs no copy at all: a
//! [`SharedBuffer`] reads the host's allocation in place, metered as an
//! upload of it.

use crate::device::{Device, TransferDirection};
use hodlr_la::{DenseMatrix, Scalar};
use rayon::prelude::*;
use std::sync::Arc;

/// Bytes per pool task of a host-to-device copy: large enough that an
/// upload of one right-hand side stays one task.
const COPY_CHUNK_BYTES: usize = 1 << 20;

/// A column-major allocation living in (virtual) device memory.
///
/// The buffer can only be filled through [`DeviceBuffer::upload`] /
/// [`Device`]-mediated copies so that the bytes moved between host and
/// device are metered, like a `cudaMalloc`'d region.
/// Batched kernels access the underlying storage through
/// [`DeviceBuffer::data`] / [`DeviceBuffer::data_mut`], which models kernels
/// dereferencing device pointers.
///
/// The buffer keeps a clone of the [`Device`] handle whose counters it
/// meters into, so it borrows nothing.
#[derive(Debug)]
pub struct DeviceBuffer<T: Scalar> {
    device: Device,
    data: Vec<T>,
}

impl<T: Scalar> DeviceBuffer<T> {
    /// Allocate a zero-initialised buffer of `len` elements on `device`.
    pub fn zeros(device: &Device, len: usize) -> Self {
        device.record_alloc((len * std::mem::size_of::<T>()) as u64);
        DeviceBuffer {
            device: device.clone(),
            data: vec![T::zero(); len],
        }
    }

    /// Allocate a buffer and copy `host` into it (a `cudaMemcpy` host →
    /// device; the transferred bytes are metered).
    pub fn from_host(device: &Device, host: &[T]) -> Self {
        Self::from_host_blocks(device, &[host])
    }

    /// Allocate a buffer holding `blocks` back to back and copy each into
    /// its offset, metered as [`DeviceBuffer::from_host`] of their
    /// concatenation, which is never built on the host.
    pub fn from_host_blocks(device: &Device, blocks: &[&[T]]) -> Self {
        let mut buf = Self::zeros(device, blocks.iter().map(|b| b.len()).sum());
        buf.device
            .record_transfer(TransferDirection::HostToDevice, buf.size_bytes());
        buf.copy_in(blocks);
        buf
    }

    /// Take `host` over as device memory, metered as
    /// [`DeviceBuffer::from_host`] of the same elements, without copying
    /// it: a sweep then runs on the caller's block in place, and
    /// [`DeviceBuffer::into_host`] hands the storage back.
    pub fn adopt(device: &Device, host: Vec<T>) -> Self {
        let bytes = std::mem::size_of_val(host.as_slice()) as u64;
        device.record_alloc(bytes);
        device.record_transfer(TransferDirection::HostToDevice, bytes);
        DeviceBuffer {
            device: device.clone(),
            data: host,
        }
    }

    /// Number of elements in the buffer.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The device owning this buffer.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Overwrite the buffer contents from host memory (metered H2D copy).
    ///
    /// # Panics
    /// Panics if `host.len() != self.len()`.
    pub fn upload(&mut self, host: &[T]) {
        assert_eq!(host.len(), self.data.len(), "upload: length mismatch");
        self.device.record_transfer(
            TransferDirection::HostToDevice,
            std::mem::size_of_val(host) as u64,
        );
        self.copy_in(&[host]);
    }

    /// Copy `blocks` back to back over the whole buffer, in pieces of at
    /// most [`COPY_CHUNK_BYTES`] that run as pool tasks.
    fn copy_in(&mut self, blocks: &[&[T]]) {
        let chunk = (COPY_CHUNK_BYTES / std::mem::size_of::<T>()).max(1);
        let mut pieces: Vec<(&mut [T], &[T])> = Vec::new();
        let mut rest = self.data.as_mut_slice();
        for block in blocks {
            let (dst, tail) = std::mem::take(&mut rest).split_at_mut(block.len());
            rest = tail;
            pieces.extend(dst.chunks_mut(chunk).zip(block.chunks(chunk)));
        }
        debug_assert!(rest.is_empty());
        let copy = |(dst, src): (&mut [T], &[T])| dst.copy_from_slice(src);
        if self.device.is_parallel() {
            pieces.into_par_iter().for_each(copy);
        } else {
            pieces.into_iter().for_each(copy);
        }
    }

    /// Copy the whole buffer back to the host (metered D2H copy).
    pub fn download(&self) -> Vec<T> {
        self.device.record_transfer(
            TransferDirection::DeviceToHost,
            (self.data.len() * std::mem::size_of::<T>()) as u64,
        );
        self.data.clone()
    }

    /// Hand the storage back to the host, metered as [`DeviceBuffer::download`]
    /// and released from the allocation gauge as a drop would, without
    /// copying it.
    pub fn into_host(mut self) -> Vec<T> {
        let data = std::mem::take(&mut self.data);
        let bytes = (data.len() * std::mem::size_of::<T>()) as u64;
        self.device
            .record_transfer(TransferDirection::DeviceToHost, bytes);
        self.device.record_free(bytes);
        data
    }

    /// Raw device storage, used by kernels (not metered: models on-device
    /// pointer dereference).
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Mutable raw device storage, used by kernels.
    pub fn data_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Size of the allocation in bytes.
    pub fn size_bytes(&self) -> u64 {
        (self.data.len() * std::mem::size_of::<T>()) as u64
    }
}

impl<T: Scalar> Drop for DeviceBuffer<T> {
    fn drop(&mut self) {
        self.device
            .record_free((self.data.len() * std::mem::size_of::<T>()) as u64);
    }
}

/// The read-only form of a [`DeviceBuffer`]: device memory over a host
/// matrix it shares through an [`Arc`], read in place.
///
/// It meters exactly as [`DeviceBuffer::adopt`] of the same elements (an
/// allocation and a host-to-device transfer on creation, a free on drop),
/// but copies nothing and takes nothing from the host, which keeps its
/// matrix.  It has no `data_mut`: no launch can write through it, so the
/// host's matrix stays as it was.
///
/// ```compile_fail
/// # use hodlr_batch::{Device, SharedBuffer};
/// # use hodlr_la::DenseMatrix;
/// # use std::sync::Arc;
/// let host = Arc::new(DenseMatrix::<f64>::zeros(4, 2));
/// let mut buf = SharedBuffer::new(&Device::new(), host);
/// buf.data_mut()[0] = 1.0; // a shared buffer is read-only
/// ```
#[derive(Debug)]
pub struct SharedBuffer<T: Scalar> {
    device: Device,
    host: Arc<DenseMatrix<T>>,
}

impl<T: Scalar> SharedBuffer<T> {
    /// Share `host` with `device`, metered as an upload of its elements.
    pub fn new(device: &Device, host: Arc<DenseMatrix<T>>) -> Self {
        let bytes = std::mem::size_of_val(host.data()) as u64;
        device.record_alloc(bytes);
        device.record_transfer(TransferDirection::HostToDevice, bytes);
        SharedBuffer {
            device: device.clone(),
            host,
        }
    }

    /// Number of elements in the buffer.
    pub fn len(&self) -> usize {
        self.host.data().len()
    }

    /// `true` if the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T: Scalar> Drop for SharedBuffer<T> {
    fn drop(&mut self) {
        self.device
            .record_free(std::mem::size_of_val(self.host.data()) as u64);
    }
}

/// Device memory a launch reads: a [`DeviceBuffer`] or a [`SharedBuffer`].
/// Only a [`DeviceBuffer`] can be a launch's output.
pub trait DeviceRead<T: Scalar> {
    /// The elements, column-major (not metered: models a kernel
    /// dereferencing a device pointer).
    fn data(&self) -> &[T];
}

impl<T: Scalar> DeviceRead<T> for DeviceBuffer<T> {
    fn data(&self) -> &[T] {
        &self.data
    }
}

impl<T: Scalar> DeviceRead<T> for SharedBuffer<T> {
    fn data(&self) -> &[T] {
        self.host.data()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upload_download_roundtrip() {
        let dev = Device::new();
        let host = vec![1.0_f64, 2.0, 3.0, 4.0];
        let buf = DeviceBuffer::from_host(&dev, &host);
        assert_eq!(buf.len(), 4);
        assert_eq!(buf.download(), host);
        let c = dev.counters();
        assert_eq!(c.h2d_bytes, 32);
        assert_eq!(c.d2h_bytes, 32);
    }

    /// `into_host` meters what `download` then a drop would: the same
    /// device-to-host bytes, and the allocation released.
    #[test]
    fn into_host_meters_as_download_then_drop() {
        let host = vec![1.0_f64, 2.0, 3.0, 4.0];
        let (copied, moved) = (Device::new(), Device::new());
        let buf = DeviceBuffer::from_host(&copied, &host);
        let out = buf.download();
        drop(buf);
        assert_eq!(DeviceBuffer::from_host(&moved, &host).into_host(), out);
        assert_eq!(copied.counters(), moved.counters());
        assert_eq!(moved.counters().allocated_bytes, 0);
        assert_eq!(moved.counters().d2h_bytes, 32);
    }

    /// Blocks land back to back, bit for bit, and meter one upload of
    /// their concatenation, whether the pieces run on the pool or on the
    /// calling thread.  The 300,000-element block spans three pieces.
    #[test]
    fn from_host_blocks_meters_as_one_upload_of_the_concatenation() {
        let blocks: Vec<Vec<f64>> = [3, 0, 300_000, 17]
            .iter()
            .enumerate()
            .map(|(b, &len)| (0..len).map(|i| (b * 7 + i) as f64 - 0.5).collect())
            .collect();
        let views: Vec<&[f64]> = blocks.iter().map(Vec::as_slice).collect();
        let joined = blocks.concat();
        let reference = Device::sequential();
        let whole = DeviceBuffer::from_host(&reference, &joined);
        for device in [Device::new(), Device::sequential()] {
            let buf = DeviceBuffer::from_host_blocks(&device, &views);
            assert_eq!(buf.data(), whole.data());
            assert_eq!(device.counters(), reference.counters());
        }
    }

    /// An adopted block meters as `from_host` of the same bytes, and
    /// `into_host` hands the same allocation back.
    #[test]
    fn adopted_block_meters_as_an_upload_and_comes_back_without_a_copy() {
        let host: Vec<f64> = (0..300_000).map(|i| i as f64 - 0.5).collect();
        let (copied, adopted) = (Device::new(), Device::new());
        let reference = DeviceBuffer::from_host(&copied, &host);
        let ptr = host.as_ptr();
        let buf = DeviceBuffer::adopt(&adopted, host);
        assert_eq!(adopted.counters(), copied.counters());
        assert_eq!(buf.data(), reference.data());
        let back = buf.into_host();
        assert_eq!(back.as_ptr(), ptr);
        assert_eq!(adopted.counters().d2h_bytes, 2_400_000);
        assert_eq!(adopted.counters().allocated_bytes, 0);
    }

    /// A shared buffer meters as an adopted copy of the same elements,
    /// on creation and on drop, reads the host's allocation in place and
    /// leaves it to the host.
    #[test]
    fn shared_buffer_meters_as_an_upload_and_reads_the_host_in_place() {
        let host = Arc::new(DenseMatrix::from_fn(600, 500, |i, j| (i * 500 + j) as f64));
        let (adopted, shared) = (Device::new(), Device::new());
        let copy = DeviceBuffer::adopt(&adopted, host.data().to_vec());
        let buf = SharedBuffer::new(&shared, Arc::clone(&host));
        assert_eq!(shared.counters(), adopted.counters());
        assert_eq!(buf.data().as_ptr(), host.data().as_ptr());
        assert_eq!(buf.data(), copy.data());
        drop((copy, buf));
        assert_eq!(shared.counters(), adopted.counters());
        assert_eq!(shared.counters().allocated_bytes, 0);
        assert_eq!(Arc::strong_count(&host), 1);
    }

    #[test]
    fn allocation_is_tracked_and_released() {
        let dev = Device::new();
        {
            let _buf = DeviceBuffer::<f32>::zeros(&dev, 1024);
            assert_eq!(dev.counters().allocated_bytes, 4096);
        }
        assert_eq!(dev.counters().allocated_bytes, 0);
        assert_eq!(dev.counters().peak_allocated_bytes, 4096);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn upload_wrong_length_panics() {
        let dev = Device::new();
        let mut buf = DeviceBuffer::<f64>::zeros(&dev, 3);
        buf.upload(&[1.0, 2.0]);
    }
}

//! Device buffers: explicit host ↔ device copies with metered traffic.

use crate::device::{Device, TransferDirection};
use hodlr_la::Scalar;

/// A column-major allocation living in (virtual) device memory.
///
/// The buffer can only be filled through [`DeviceBuffer::upload`] /
/// [`Device`]-mediated copies so that the amount of data moved over the
/// simulated PCIe link is accounted for, like a `cudaMalloc`'d region.
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
        let mut buf = Self::zeros(device, host.len());
        buf.upload(host);
        buf
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
        self.data.copy_from_slice(host);
    }

    /// Overwrite a sub-range of the buffer from host memory (metered).
    pub fn upload_at(&mut self, offset: usize, host: &[T]) {
        assert!(
            offset + host.len() <= self.data.len(),
            "upload_at: out of bounds"
        );
        self.device.record_transfer(
            TransferDirection::HostToDevice,
            std::mem::size_of_val(host) as u64,
        );
        self.data[offset..offset + host.len()].copy_from_slice(host);
    }

    /// Copy the whole buffer back to the host (metered D2H copy).
    pub fn download(&self) -> Vec<T> {
        self.device.record_transfer(
            TransferDirection::DeviceToHost,
            (self.data.len() * std::mem::size_of::<T>()) as u64,
        );
        self.data.clone()
    }

    /// Copy a sub-range back to the host (metered D2H copy).
    pub fn download_range(&self, offset: usize, len: usize) -> Vec<T> {
        assert!(
            offset + len <= self.data.len(),
            "download_range: out of bounds"
        );
        self.device.record_transfer(
            TransferDirection::DeviceToHost,
            (len * std::mem::size_of::<T>()) as u64,
        );
        self.data[offset..offset + len].to_vec()
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

    #[test]
    fn partial_upload_and_download() {
        let dev = Device::new();
        let mut buf = DeviceBuffer::<f64>::zeros(&dev, 6);
        buf.upload_at(2, &[5.0, 6.0]);
        assert_eq!(buf.download_range(2, 2), vec![5.0, 6.0]);
        assert_eq!(buf.download_range(0, 1), vec![0.0]);
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

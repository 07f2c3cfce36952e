//! Streams: labelled launch queues.
//!
//! On a real GPU, launching independent gemms on separate CUDA streams lets
//! the hardware overlap small kernels; the paper uses this for the top few
//! tree levels where the batch size is tiny (Section III-C).  The virtual
//! device executes every launch synchronously, so a stream is a bookkeeping
//! label carried into the launch log.

/// A launch queue label.  Stream 0 is the default stream.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct Stream {
    id: usize,
}

impl Stream {
    /// The default stream (id 0).
    pub fn default_stream() -> Self {
        Stream::default()
    }

    /// Create a stream with an explicit id.
    pub fn with_id(id: usize) -> Self {
        Stream { id }
    }

    /// The stream id.
    pub fn id(&self) -> usize {
        self.id
    }
}

/// A small pool of streams, handed out round-robin; mirrors the way the
/// paper cycles independent gemms over a fixed set of CUDA streams at the
/// top levels of the tree.
///
/// The round-robin cursor uses interior mutability so that a solver holding
/// a pool can hand out streams from `&self` solve paths (post-factorization
/// solves are logically read-only).
#[derive(Debug)]
pub struct StreamPool {
    streams: Vec<Stream>,
    next: std::sync::atomic::AtomicUsize,
}

impl Clone for StreamPool {
    fn clone(&self) -> Self {
        StreamPool {
            streams: self.streams.clone(),
            next: std::sync::atomic::AtomicUsize::new(
                self.next.load(std::sync::atomic::Ordering::Relaxed),
            ),
        }
    }
}

impl StreamPool {
    /// A pool of `n` streams with ids `1..=n` (0 is reserved for the default
    /// stream).
    pub fn new(n: usize) -> Self {
        StreamPool {
            streams: (1..=n).map(Stream::with_id).collect(),
            next: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// Number of streams in the pool.
    pub fn len(&self) -> usize {
        self.streams.len()
    }

    /// `true` when the pool holds no streams.
    pub fn is_empty(&self) -> bool {
        self.streams.is_empty()
    }

    /// Hand out the next stream, cycling through the pool.
    pub fn next_stream(&self) -> Stream {
        if self.streams.is_empty() {
            return Stream::default();
        }
        let slot = self.next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.streams[slot % self.streams.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_stream_has_id_zero() {
        assert_eq!(Stream::default_stream().id(), 0);
    }

    #[test]
    fn pool_hands_out_streams_round_robin() {
        let pool = StreamPool::new(3);
        let ids: Vec<usize> = (0..7).map(|_| pool.next_stream().id()).collect();
        assert_eq!(ids, vec![1, 2, 3, 1, 2, 3, 1]);
    }

    #[test]
    fn empty_pool_falls_back_to_default_stream() {
        let pool = StreamPool::new(0);
        assert!(pool.is_empty());
        assert_eq!(pool.next_stream().id(), 0);
    }
}

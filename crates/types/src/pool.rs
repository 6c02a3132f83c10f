//! Buffer recycling for the message plane's batched payloads.
//!
//! Lazy commitments batch operation ids into `Vec<OpId>`-carrying
//! messages (VOTE, COMMIT-REQ, ACK — see [`crate::msg::Payload`]), and
//! every batch round-trip used to allocate those vectors fresh and drop
//! them at the receiver. A [`VecPool`] keeps the emptied buffers on a
//! freelist instead: senders draw from their pool, receivers return the
//! drained vector to theirs, and since every server plays both roles the
//! pools balance out — the steady state allocates nothing.

/// A freelist of reusable `Vec<T>` buffers.
///
/// `get` hands out an empty vector (recycled capacity when available);
/// `put` clears a spent one and shelves it. The freelist is capped in
/// buffers, not in bytes: a buffer keeps the largest capacity it ever
/// served, and every shelved buffer takes its turn at every use, so the
/// pool pins up to 64 × the largest thing ever built in one. Keep it to
/// one size of payload — the Cx engine swaps its lazy queues with a spare
/// of its own rather than draw them from the pool its batches use.
#[derive(Debug, Clone)]
pub struct VecPool<T> {
    free: Vec<Vec<T>>,
    max_held: usize,
}

impl<T> Default for VecPool<T> {
    fn default() -> Self {
        Self {
            free: Vec::new(),
            max_held: 64,
        }
    }
}

impl<T> VecPool<T> {
    /// An empty buffer, reusing recycled capacity when available.
    pub fn get(&mut self) -> Vec<T> {
        self.free.pop().unwrap_or_default()
    }

    /// Like [`VecPool::get`], pre-filled from a slice.
    pub fn get_copied(&mut self, src: &[T]) -> Vec<T>
    where
        T: Copy,
    {
        let mut v = self.get();
        v.extend_from_slice(src);
        v
    }

    /// Return a spent buffer to the freelist. The contents are dropped;
    /// the capacity is kept (up to the freelist cap).
    pub fn put(&mut self, mut v: Vec<T>) {
        if self.free.len() < self.max_held && v.capacity() > 0 {
            v.clear();
            self.free.push(v);
        }
    }

    /// Buffers currently shelved (for tests and diagnostics).
    pub fn held(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycles_capacity() {
        let mut pool: VecPool<u64> = VecPool::default();
        let mut v = pool.get();
        v.extend([1, 2, 3]);
        let cap = v.capacity();
        pool.put(v);
        assert_eq!(pool.held(), 1);
        let v2 = pool.get();
        assert!(v2.is_empty());
        assert_eq!(v2.capacity(), cap);
        assert_eq!(pool.held(), 0);
    }

    #[test]
    fn zero_capacity_buffers_are_not_shelved() {
        let mut pool: VecPool<u64> = VecPool::default();
        pool.put(Vec::new());
        assert_eq!(pool.held(), 0);
    }

    #[test]
    fn freelist_is_capped() {
        let mut pool: VecPool<u64> = VecPool::default();
        for _ in 0..200 {
            pool.put(Vec::with_capacity(4));
        }
        assert!(pool.held() <= 64);
    }

    #[test]
    fn get_copied_clones_the_slice() {
        let mut pool: VecPool<u64> = VecPool::default();
        assert_eq!(pool.get_copied(&[7, 8]), vec![7, 8]);
    }
}

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
/// `put` clears a spent one and shelves it. A buffer keeps the largest
/// capacity it ever served, so the freelist is bounded in bytes, not in
/// buffers: a spent buffer whose capacity would take the shelved total
/// past the bound is freed instead. Size the bound to the buffers one
/// round of the pool's users has out at once, and a warm round allocates
/// nothing while a burst of big ones leaves nothing pinned behind it.
#[derive(Debug, Clone)]
pub struct VecPool<T> {
    free: Vec<Vec<T>>,
    /// Bytes of capacity shelved in `free`.
    held_bytes: usize,
    max_bytes: usize,
}

impl<T> Default for VecPool<T> {
    /// A pool that shelves up to 1 MiB.
    fn default() -> Self {
        Self::with_max_bytes(1 << 20)
    }
}

impl<T> VecPool<T> {
    /// A pool that shelves at most `max_bytes` of buffer capacity.
    pub fn with_max_bytes(max_bytes: usize) -> Self {
        Self {
            free: Vec::new(),
            held_bytes: 0,
            max_bytes,
        }
    }

    /// An empty buffer, reusing recycled capacity when available.
    pub fn get(&mut self) -> Vec<T> {
        let v = self.free.pop().unwrap_or_default();
        self.held_bytes -= bytes(&v);
        v
    }

    /// A buffer holding `items`: a recycled one grown at most once, or for
    /// no items one that allocated nothing and takes no recycled capacity
    /// out of the pool. The items are walked twice, to count them first.
    pub fn collect<I>(&mut self, items: I) -> Vec<T>
    where
        I: IntoIterator<Item = T>,
        I::IntoIter: Clone,
    {
        let items = items.into_iter();
        let n = items.clone().count();
        if n == 0 {
            return Vec::new();
        }
        let mut v = self.get();
        v.reserve(n);
        v.extend(items);
        v
    }

    /// Return a spent buffer to the freelist. The contents are dropped;
    /// the capacity is kept while the shelved bytes stay within the bound.
    pub fn put(&mut self, mut v: Vec<T>) {
        let size = bytes(&v);
        if size > 0 && self.held_bytes + size <= self.max_bytes {
            v.clear();
            self.held_bytes += size;
            self.free.push(v);
        }
    }

    /// Buffers currently shelved (for tests and diagnostics).
    pub fn held(&self) -> usize {
        self.free.len()
    }

    /// Bytes of capacity currently shelved (for tests and diagnostics).
    pub fn held_bytes(&self) -> usize {
        self.held_bytes
    }
}

/// The bytes of a buffer's capacity.
fn bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
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
        let mut pool: VecPool<u64> = VecPool::with_max_bytes(1_000);
        for _ in 0..200 {
            pool.put(Vec::with_capacity(4));
        }
        assert_eq!((pool.held(), pool.held_bytes()), (31, 992));
        // a buffer too big for what is left is freed, not shelved
        pool.put(Vec::with_capacity(2));
        assert_eq!(pool.held(), 31);
        pool.get();
        pool.put(Vec::with_capacity(5));
        assert_eq!((pool.held(), pool.held_bytes()), (31, 1_000));
    }

    #[test]
    fn collect_fills_a_recycled_buffer_and_leaves_an_empty_one_out() {
        let mut pool: VecPool<u64> = VecPool::default();
        pool.put(Vec::with_capacity(4));
        assert_eq!(pool.collect([]).capacity(), 0);
        assert_eq!(pool.held(), 1);
        let v = pool.collect([7, 8]);
        assert_eq!(
            (v.as_slice(), v.capacity(), pool.held()),
            (&[7, 8][..], 4, 0)
        );
    }
}

//! Serializing resources.
//!
//! Network links, NIC injection ports, and DMA engines are all modeled as
//! FIFO servers: a request occupies the resource for a known duration and
//! requests queue in arrival order. Because occupancy durations are known
//! at request time, a resource reduces to a single `free_at` watermark —
//! no event-queue interaction is needed, which keeps the hot path of the
//! network model allocation-free.

use crate::time::{SimDuration, SimTime};

/// A single-server FIFO resource with deterministic service times.
///
/// # Examples
///
/// ```
/// use desim::resource::FifoResource;
/// use desim::time::{SimDuration, SimTime};
///
/// let mut link = FifoResource::new();
/// // Two back-to-back 10 ns transmissions requested at t=0:
/// let first = link.acquire(SimTime::ZERO, SimDuration::from_nanos(10));
/// let second = link.acquire(SimTime::ZERO, SimDuration::from_nanos(10));
/// assert_eq!(first.as_nanos(), 0);
/// assert_eq!(second.as_nanos(), 10); // serialized behind the first
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FifoResource {
    free_at: SimTime,
    busy: SimDuration,
}

impl FifoResource {
    /// Creates an idle resource.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests the resource at `now` for `service` time; returns the
    /// instant service starts (it ends `service` later).
    ///
    /// Requests made at an earlier `now` than a previous call are still
    /// serialized behind it (FIFO in *call* order), which is the order the
    /// deterministic engine produces.
    pub fn acquire(&mut self, now: SimTime, service: SimDuration) -> SimTime {
        let start = now.max(self.free_at);
        self.free_at = start + service;
        self.busy += service;
        start
    }

    /// Total service time granted so far (busy time).
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }
}

/// A pool of identical FIFO resources indexed by a dense `usize` id, e.g.
/// every unidirectional link in a topology.
#[derive(Debug, Clone, Default)]
pub struct ResourcePool {
    slots: Vec<FifoResource>,
}

impl ResourcePool {
    /// Creates a pool of `n` idle resources.
    pub fn new(n: usize) -> Self {
        ResourcePool {
            slots: vec![FifoResource::new(); n],
        }
    }

    /// Number of resources in the pool.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the pool has no resources.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Acquires resource `id` at `now` for `service`; returns the
    /// instant service starts.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn acquire(&mut self, id: usize, now: SimTime, service: SimDuration) -> SimTime {
        self.slots[id].acquire(now, service)
    }

    /// Read access to resource `id`, or `None` if out of range.
    pub fn get(&self, id: usize) -> Option<&FifoResource> {
        self.slots.get(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NS: fn(u64) -> SimDuration = SimDuration::from_nanos;
    const AT: fn(u64) -> SimTime = SimTime::from_nanos;

    #[test]
    fn idle_resource_serves_immediately() {
        let mut r = FifoResource::new();
        assert_eq!(r.acquire(AT(5), NS(10)), AT(5));
        // The first request's service ends at 15.
        assert_eq!(r.acquire(AT(5), NS(1)), AT(15));
    }

    #[test]
    fn contention_serializes() {
        let mut r = FifoResource::new();
        r.acquire(AT(0), NS(100));
        assert_eq!(r.acquire(AT(30), NS(50)), AT(100));
        assert_eq!(r.acquire(AT(30), NS(1)), AT(150));
    }

    #[test]
    fn gap_leaves_resource_idle() {
        let mut r = FifoResource::new();
        r.acquire(AT(0), NS(10));
        let start = r.acquire(AT(100), NS(10));
        assert_eq!(start, AT(100), "no queueing after the resource drained");
        assert_eq!(r.busy_time(), NS(20));
    }

    #[test]
    fn pool_tracks_each_resource() {
        let mut p = ResourcePool::new(3);
        p.acquire(0, AT(0), NS(5));
        p.acquire(2, AT(0), NS(50));
        p.acquire(1, AT(0), NS(20));
        let busy = |p: &ResourcePool| -> Vec<SimDuration> {
            (0..p.len())
                .map(|i| p.get(i).unwrap().busy_time())
                .collect()
        };
        assert_eq!(busy(&p), [NS(5), NS(20), NS(50)]);
        assert_eq!(p.acquire(2, AT(0), NS(1)), AT(50));
    }

    #[test]
    #[should_panic]
    fn pool_out_of_range_panics() {
        let mut p = ResourcePool::new(1);
        p.acquire(7, AT(0), NS(1));
    }
}

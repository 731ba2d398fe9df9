//! The heap write barrier: a monotone mutation epoch.
//!
//! Incremental GOLF cycles (see `golf-core`) need to know whether *anything*
//! in the heap changed since a cached cycle ran. [`DirtyMap::epoch`] is a
//! single monotone integer bumped on every mutation; the collector compares
//! it against a snapshot to prove full heap quiescence before replaying a
//! cached cycle. The barrier costs the hot mutation paths one branch and
//! one add.

/// A monotone mutation epoch plus an on/off switch.
///
/// [`DirtyMap::record`] is called by every mutating entry point of
/// [`Heap`](crate::Heap) (alloc, free, `get_mut`, finalizer changes, size
/// refresh, sweep frees). The epoch counts mutations over the heap's whole
/// lifetime and is never reset.
#[derive(Debug, Clone, Default)]
pub struct DirtyMap {
    epoch: u64,
    disabled: bool,
}

impl DirtyMap {
    /// A map with the barrier enabled.
    pub fn new() -> Self {
        DirtyMap::default()
    }

    /// Whether the barrier records mutations. Disabled via `--no-barrier`;
    /// collectors must not trust [`DirtyMap::epoch`] while disabled.
    pub fn enabled(&self) -> bool {
        !self.disabled
    }

    /// Turns the barrier on or off.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.disabled = !enabled;
    }

    /// Records a mutation: bumps the epoch. No-op while disabled.
    #[inline]
    pub fn record(&mut self) {
        if !self.disabled {
            self.epoch += 1;
        }
    }

    /// The monotone mutation counter. Never reset; equality between two
    /// reads proves no recorded mutation happened in between.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_bumps_epoch() {
        let mut d = DirtyMap::new();
        assert_eq!(d.epoch(), 0);
        d.record();
        d.record();
        assert_eq!(d.epoch(), 2, "epoch counts mutations");
    }

    #[test]
    fn disabled_barrier_records_nothing() {
        let mut d = DirtyMap::new();
        d.set_enabled(false);
        assert!(!d.enabled());
        d.record();
        assert_eq!(d.epoch(), 0);
    }
}

//! One-shot completion events.
//!
//! An [`EventId`] names a one-shot event inside the simulation kernel.
//! Events start *pending*; any number of tasks may block on one, alone
//! or among others ([`crate::Ctx::wait_all`], [`crate::Ctx::wait_any`]),
//! each through a wait-group registration on the event. Completing the
//! event (from a task or from a scheduled action) counts down every
//! registration, in registration order, at the current virtual time.
//! Barriers, rendezvous, RMA completion and stream synchronisation are
//! all built on top of events.

/// Handle to a one-shot completion event. Cheap to copy.
///
/// Generation-tagged so that a stale handle to a recycled slot is detected
/// rather than silently aliasing a fresh event.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventId {
    pub(crate) index: u32,
    pub(crate) gen: u32,
}

/// Reference from an event to a wait-group registration. Generation-tagged
/// like events themselves: a wait-*any* group dies when its first event
/// completes, leaving stale references on the events that did not win —
/// completion (and `free_event`) recognises those by a generation mismatch
/// and skips them instead of corrupting a recycled group slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct GroupRef {
    pub(crate) gid: u32,
    pub(crate) gen: u32,
}

/// Kernel-internal state of one event slot.
#[derive(Debug)]
pub(crate) struct EventSlot {
    pub(crate) gen: u32,
    pub(crate) completed: bool,
    /// Wait-groups with a pending registration on this event, in
    /// registration order (see [`crate::Ctx::wait_all`] and
    /// [`crate::Ctx::wait_any`]): completion decrements each live group's
    /// remaining-count instead of waking a task directly, so a task
    /// blocked on N events costs one wake, not N. Stale references
    /// (groups that already fired) are skipped by generation check.
    pub(crate) group_waiters: Vec<GroupRef>,
    /// Slot is live (allocated and not yet freed).
    pub(crate) live: bool,
    /// Abandoned by its owner ([`crate::SimHandle::release_event`]): the
    /// slot recycles itself the moment completion fires.
    pub(crate) auto_free: bool,
}

impl EventSlot {
    pub(crate) fn fresh(gen: u32) -> Self {
        EventSlot { gen, completed: false, group_waiters: Vec::new(), live: true, auto_free: false }
    }
}

/// Free-list based event arena. Events are created at a very high rate
/// (every RMA operation makes one), so slots are recycled.
#[derive(Default)]
pub(crate) struct EventArena {
    slots: Vec<EventSlot>,
    free: Vec<u32>,
}

impl EventArena {
    pub(crate) fn alloc(&mut self) -> EventId {
        if let Some(index) = self.free.pop() {
            // Reset in place: `free` already verified the waiter vector
            // is empty, so clearing fields (rather than overwriting the
            // slot wholesale) keeps its heap capacity for reuse — event
            // churn in the collective engines is allocation-free at
            // steady state.
            let slot = &mut self.slots[index as usize];
            slot.gen = slot.gen.wrapping_add(1);
            slot.completed = false;
            slot.group_waiters.clear();
            slot.live = true;
            slot.auto_free = false;
            EventId { index, gen: slot.gen }
        } else {
            let index = self.slots.len() as u32;
            self.slots.push(EventSlot::fresh(0));
            EventId { index, gen: 0 }
        }
    }

    pub(crate) fn get(&self, id: EventId) -> &EventSlot {
        let slot = &self.slots[id.index as usize];
        assert!(slot.live && slot.gen == id.gen, "stale or freed EventId {:?}", id);
        slot
    }

    pub(crate) fn get_mut(&mut self, id: EventId) -> &mut EventSlot {
        let slot = &mut self.slots[id.index as usize];
        assert!(slot.live && slot.gen == id.gen, "stale or freed EventId {:?}", id);
        slot
    }

    /// Recycle a completed event slot. Callers must guarantee no task will
    /// wait on the handle again.
    pub(crate) fn free(&mut self, id: EventId) {
        let slot = &mut self.slots[id.index as usize];
        assert!(slot.live && slot.gen == id.gen, "double free of EventId {:?}", id);
        assert!(slot.group_waiters.is_empty(), "freeing event with live group waiters");
        slot.live = false;
        self.free.push(id.index);
    }

    pub(crate) fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_recycles_with_new_generation() {
        let mut arena = EventArena::default();
        let a = arena.alloc();
        arena.get_mut(a).completed = true;
        arena.free(a);
        let b = arena.alloc();
        assert_eq!(a.index, b.index);
        assert_ne!(a.gen, b.gen);
        assert!(!arena.get(b).completed, "recycled slot must be pending");
    }

    #[test]
    #[should_panic(expected = "stale or freed")]
    fn stale_handle_detected() {
        let mut arena = EventArena::default();
        let a = arena.alloc();
        arena.free(a);
        let _ = arena.get(a);
    }

    #[test]
    fn live_count_tracks_alloc_and_free() {
        let mut arena = EventArena::default();
        let a = arena.alloc();
        let _b = arena.alloc();
        assert_eq!(arena.len(), 2);
        arena.free(a);
        assert_eq!(arena.len(), 1);
    }
}

//! The always-on counters and the application-note log.
//!
//! [`Counters`] are always maintained and carry every per-message and
//! per-timer total (sent, delivered, dropped by cause, duplicated, timers
//! fired) plus crash and restart counts. The note log keeps the free-form
//! annotations applications emit through [`crate::Ctx::note`]; it is off by
//! default and enabled with [`crate::WorldBuilder::record_trace`], and `obs`
//! folds it into a run's timeline. Faults, crashes and restarts are
//! recorded once, by the engine that injects them (`neat` into `obs`), not
//! here; individual sends, deliveries, drops and timer fires are counted,
//! never logged, so a recorded run pays nothing per message.

#![deny(missing_docs)]

use crate::{event::Time, NodeId};

/// One application annotation, emitted via [`crate::Ctx::note`].
#[derive(Clone, Debug)]
pub struct Note {
    /// Virtual time of the note.
    pub at: Time,
    /// The node that emitted it.
    pub node: NodeId,
    /// The annotation text.
    pub text: String,
}

/// Aggregate counters, always maintained.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct Counters {
    /// Messages that entered the fabric.
    pub sent: u64,
    /// Messages that reached their destination handler.
    pub delivered: u64,
    /// Messages dropped by an active block rule.
    pub dropped_partition: u64,
    /// Messages dropped by the flaky-link model.
    pub dropped_flaky: u64,
    /// Messages dropped by a per-link degrade rule.
    pub dropped_degraded: u64,
    /// Messages duplicated by a per-link degrade rule.
    pub duplicated: u64,
    /// Messages dropped because an endpoint was down.
    pub dropped_dead: u64,
    /// Timers that fired at live nodes.
    pub timers_fired: u64,
    /// Node crashes.
    pub crashes: u64,
    /// Node restarts.
    pub restarts: u64,
}

/// The execution trace: counters plus (optionally) the note log.
#[derive(Debug, Default)]
pub struct Trace {
    /// Aggregate counters, live even when note recording is off.
    pub counters: Counters,
    recording: bool,
    notes: Vec<Note>,
}

impl Trace {
    pub(crate) fn new(recording: bool) -> Self {
        Self {
            counters: Counters::default(),
            recording,
            // Sized so no campaign arm regrows the log: the deepest arm,
            // `arbiter_thrashing/flawed`, logs 76 notes at seeds 8 and 42;
            // the median arm logs 4. The non-recording path never pushes,
            // so it gets no buffer at all.
            notes: Vec::with_capacity(if recording { 96 } else { 0 }),
        }
    }

    /// Whether application notes are being recorded.
    pub fn recording(&self) -> bool {
        self.recording
    }

    pub(crate) fn push(&mut self, note: Note) {
        if self.recording {
            self.notes.push(note);
        }
    }

    /// Recorded notes in emission order (empty unless recording was
    /// enabled).
    pub fn notes(&self) -> &[Note] {
        &self.notes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_gate_respected() {
        let note = || Note {
            at: 1,
            node: NodeId(0),
            text: "hi".into(),
        };
        let mut t = Trace::new(false);
        t.push(note());
        assert!(t.notes().is_empty());

        let mut t = Trace::new(true);
        t.push(note());
        assert_eq!(t.notes().len(), 1);
    }
}

//! Consistency checkers: from histories to typed violations.
//!
//! Each checker inspects a [`crate::History`] (plus the *final state*
//! observed after healing all partitions and letting the system quiesce) and
//! reports [`Violation`]s. The violation kinds mirror the paper's failure
//! impact taxonomy (Table 2), so a test campaign can tabulate its findings
//! exactly like the paper's Table 15.

mod counter;
mod linearizability;
mod locks;
mod queue;
mod register;
mod set;

pub use counter::check_counter;
pub use linearizability::check_linearizable_register;
pub use locks::{check_mutex, check_semaphore};
pub use queue::{check_queue, QueueExpectation};
pub use register::{check_register, RegisterSemantics};
pub use set::check_set;

/// The kind of consistency violation, aligned with the paper's Table 2
/// impact categories.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ViolationKind {
    /// An acknowledged write (or added element) is gone.
    DataLoss,
    /// A read returned an older value than strong consistency allows.
    StaleRead,
    /// A read returned the value of a *failed* write.
    DirtyRead,
    /// A successfully deleted value became visible again.
    ReappearanceOfDeletedData,
    /// The state contains a value no operation could have produced.
    DataCorruption,
    /// Data known to exist could not be served.
    DataUnavailability,
    /// A lock or semaphore was granted beyond its capacity.
    DoubleLocking,
    /// A lock/semaphore ended in an invalid state (e.g., released while not
    /// held, permits exceeding capacity).
    BrokenLock,
    /// The same queue element was consumed twice.
    DoubleDequeue,
    /// An acknowledged enqueue never came out of the queue.
    LostElement,
    /// A dequeue returned an element that was never enqueued.
    PhantomElement,
    /// The same task ran (and reported results) more than once.
    DoubleExecution,
    /// The system stopped making progress entirely.
    SystemHang,
    /// The history is not linearizable (generic safety violation).
    NotLinearizable,
    /// Anything else.
    Other,
}

impl std::fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ViolationKind::DataLoss => "data loss",
            ViolationKind::StaleRead => "stale read",
            ViolationKind::DirtyRead => "dirty read",
            ViolationKind::ReappearanceOfDeletedData => "reappearance of deleted data",
            ViolationKind::DataCorruption => "data corruption",
            ViolationKind::DataUnavailability => "data unavailability",
            ViolationKind::DoubleLocking => "double locking",
            ViolationKind::BrokenLock => "broken lock",
            ViolationKind::DoubleDequeue => "double dequeue",
            ViolationKind::LostElement => "lost element",
            ViolationKind::PhantomElement => "phantom element",
            ViolationKind::DoubleExecution => "double execution",
            ViolationKind::SystemHang => "system hang",
            ViolationKind::NotLinearizable => "not linearizable",
            ViolationKind::Other => "other",
        };
        f.write_str(s)
    }
}

/// A detected consistency violation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Violation {
    pub kind: ViolationKind,
    /// Human-readable evidence: which key/value/operation, and why.
    pub details: String,
}

impl Violation {
    /// Creates a violation.
    pub fn new(kind: ViolationKind, details: impl Into<String>) -> Self {
        Self {
            kind,
            details: details.into(),
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind, self.details)
    }
}

/// A history of `recs`, in order: the checker tests' fixture.
#[cfg(test)]
fn hist(recs: Vec<crate::history::OpRecord>) -> crate::History {
    let mut h = crate::History::new();
    for r in recs {
        h.push(r);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_paper_vocabulary() {
        assert_eq!(ViolationKind::DataLoss.to_string(), "data loss");
        assert_eq!(
            ViolationKind::ReappearanceOfDeletedData.to_string(),
            "reappearance of deleted data"
        );
        assert_eq!(
            Violation::new(ViolationKind::DirtyRead, "k=5").to_string(),
            "dirty read: k=5"
        );
    }
}

//! The paper's failure study as data: the 136-failure catalog and the
//! statistics engine that regenerates Tables 1-13.

pub mod catalog;
pub mod json;
pub mod stats;
pub mod types;

pub use catalog::{catalog, APPENDIX_A, APPENDIX_B};
pub use types::{
    ClientAccess, Connectivity, EventType, Failure, Impact, LeaderElectionFlaw, Mechanism,
    Ordering, PartitionType, Resolution, Source, System, Timing,
};

//! Simulated OS memory management: physical frames, segments, policies,
//! `mbind`, and page migration.

pub mod address_space;
pub mod frames;
pub mod migrate;
pub mod policy;
pub mod segment;

pub use address_space::AddressSpace;
pub use frames::FramePools;
pub use migrate::{MigrationQueue, MoveCycle, MovePattern, PendingRange};
pub use policy::MemPolicy;
pub use segment::{Segment, SegmentId, SegmentKind};

//! Per-process address space: an ordered collection of segments.

use crate::error::SimError;
use crate::mem::frames::FramePools;
use crate::mem::policy::MemPolicy;
use crate::mem::segment::{Segment, SegmentId, SegmentKind};
use bwap_topology::NodeId;

/// The segments of one process.
#[derive(Debug, Clone, Default)]
pub struct AddressSpace {
    segments: Vec<Segment>,
}

impl AddressSpace {
    /// Empty address space.
    pub fn new() -> Self {
        AddressSpace { segments: Vec::new() }
    }

    /// Create and place a segment; returns its id.
    pub fn create_segment(
        &mut self,
        kind: SegmentKind,
        len: u64,
        policy: &MemPolicy,
        toucher: NodeId,
        frames: &mut FramePools,
        fallback: &[Vec<NodeId>],
    ) -> Result<SegmentId, SimError> {
        let seg = Segment::place(kind, len, policy, toucher, frames, fallback)?;
        self.segments.push(seg);
        Ok(SegmentId(self.segments.len() - 1))
    }

    /// Borrow a segment.
    pub fn segment(&self, id: SegmentId) -> Result<&Segment, SimError> {
        self.segments.get(id.0).ok_or(SimError::NoSuchSegment(id.0))
    }

    /// Mutably borrow a segment.
    pub fn segment_mut(&mut self, id: SegmentId) -> Result<&mut Segment, SimError> {
        self.segments.get_mut(id.0).ok_or(SimError::NoSuchSegment(id.0))
    }

    /// Iterate `(id, segment)`.
    pub fn iter(&self) -> impl Iterator<Item = (SegmentId, &Segment)> {
        self.segments.iter().enumerate().map(|(i, s)| (SegmentId(i), s))
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// Whether there are no segments.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Total pages across all segments.
    pub fn total_pages(&self) -> u64 {
        self.segments.iter().map(|s| s.len()).sum()
    }

    /// Aggregate pages-per-node histogram across all segments.
    pub fn node_counts(&self, node_count: usize) -> Vec<u64> {
        let mut out = vec![0u64; node_count];
        for s in &self.segments {
            for (i, &c) in s.node_counts().iter().enumerate() {
                out[i] += c;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwap_topology::machines;

    fn fixture() -> (AddressSpace, FramePools, Vec<Vec<NodeId>>) {
        let m = machines::machine_b();
        (AddressSpace::new(), FramePools::from_machine(&m), vec![Vec::new(); 4])
    }

    #[test]
    fn create_and_lookup() {
        let (mut asp, mut f, fb) = fixture();
        let shared = asp
            .create_segment(
                SegmentKind::Shared,
                100,
                &MemPolicy::FirstTouch,
                NodeId(0),
                &mut f,
                &fb,
            )
            .unwrap();
        let p0 = asp
            .create_segment(
                SegmentKind::Private { thread: 0 },
                50,
                &MemPolicy::FirstTouch,
                NodeId(1),
                &mut f,
                &fb,
            )
            .unwrap();
        assert_eq!(asp.segment(shared).unwrap().len(), 100);
        assert_eq!(asp.segment(p0).unwrap().len(), 50);
        assert_eq!(asp.total_pages(), 150);
        assert_eq!(asp.node_counts(4), vec![100, 50, 0, 0]);
        assert_eq!(asp.len(), 2);
    }

    #[test]
    fn missing_segment_errors() {
        let (asp, ..) = fixture();
        assert!(asp.segment(SegmentId(0)).is_err());
    }
}

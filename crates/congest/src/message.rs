//! Message word-size accounting.
//!
//! A *word* in the CONGEST model is a block of `O(log n)` bits — enough for
//! one node id or one distance value (Section 2.2 of the paper).  The
//! simulator never serializes messages to bits; instead every message type
//! declares how many words it would occupy on the wire, and the engine adds
//! that to the run statistics.  (The per-edge budget the engine enforces
//! counts messages, not words: [`crate::NodeProgram::MESSAGES_PER_EDGE_PER_ROUND`].)

/// Types that know their size in CONGEST words.
pub trait MessageSize {
    /// Number of `O(log n)`-bit words this message occupies on the wire.
    ///
    /// Conventions used throughout the workspace:
    /// * a node id: 1 word,
    /// * a distance (weights are polynomial in `n`): 1 word,
    /// * a small tag/enum discriminant: 0 words (absorbed into the
    ///   constant factor, as is conventional in CONGEST analyses).
    fn words(&self) -> usize;
}

impl MessageSize for () {
    fn words(&self) -> usize {
        0
    }
}

impl MessageSize for u32 {
    fn words(&self) -> usize {
        1
    }
}

impl MessageSize for u64 {
    fn words(&self) -> usize {
        1
    }
}

impl MessageSize for (u32, u64) {
    fn words(&self) -> usize {
        2
    }
}

impl<T: MessageSize> MessageSize for Option<T> {
    fn words(&self) -> usize {
        self.as_ref().map_or(0, MessageSize::words)
    }
}

impl<T: MessageSize> MessageSize for Box<T> {
    fn words(&self) -> usize {
        self.as_ref().words()
    }
}

impl<T: MessageSize> MessageSize for Vec<T> {
    fn words(&self) -> usize {
        self.iter().map(MessageSize::words).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_sizes() {
        assert_eq!(().words(), 0);
        assert_eq!(7u32.words(), 1);
        assert_eq!(7u64.words(), 1);
        assert_eq!((3u32, 9u64).words(), 2);
    }

    #[test]
    fn container_sizes() {
        assert_eq!(Some(5u64).words(), 1);
        assert_eq!(None::<u64>.words(), 0);
        assert_eq!(Box::new(4u32).words(), 1);
        assert_eq!(vec![1u64, 2, 3].words(), 3);
        assert_eq!(Vec::<u64>::new().words(), 0);
    }
}

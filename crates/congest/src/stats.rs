//! Round, message, and word accounting.
//!
//! These are the quantities the paper's theorems bound (e.g. Theorem 1.1:
//! `O(k n^{1/k} S log n)` rounds and `O(k n^{1/k} S |E| log n)` messages), so
//! the engine tracks them exactly and the experiment harness reports them
//! next to the theoretical predictions.

/// Statistics of one simulated run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    /// Number of rounds executed.
    pub rounds: u64,
    /// Total number of messages delivered over all rounds.
    pub messages: u64,
    /// Total number of CONGEST words carried by those messages.
    pub words: u64,
    /// Largest number of messages delivered in any single round.
    pub max_messages_in_round: u64,
    /// Number of rounds in which at least one message was delivered.
    pub active_rounds: u64,
}

impl RunStats {
    /// Merge another stats object into this one by summation (used when a
    /// construction is composed of several sequential sub-protocols, e.g.
    /// BFS-tree construction followed by the sketch phases).  Sums saturate,
    /// so records read from untrusted bytes cannot overflow.
    pub fn absorb(&mut self, other: &RunStats) {
        self.rounds = self.rounds.saturating_add(other.rounds);
        self.messages = self.messages.saturating_add(other.messages);
        self.words = self.words.saturating_add(other.words);
        self.max_messages_in_round = self.max_messages_in_round.max(other.max_messages_in_round);
        self.active_rounds = self.active_rounds.saturating_add(other.active_rounds);
    }

    /// Record the delivery of `messages` messages totalling `words` words in
    /// one round.
    pub(crate) fn record_round(&mut self, messages: u64, words: u64) {
        self.rounds += 1;
        self.messages += messages;
        self.words += words;
        self.max_messages_in_round = self.max_messages_in_round.max(messages);
        if messages > 0 {
            self.active_rounds += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_accumulates() {
        let mut s = RunStats::default();
        s.record_round(10, 20);
        s.record_round(0, 0);
        s.record_round(5, 5);
        assert_eq!(s.rounds, 3);
        assert_eq!(s.messages, 15);
        assert_eq!(s.words, 25);
        assert_eq!(s.max_messages_in_round, 10);
        assert_eq!(s.active_rounds, 2);
    }

    #[test]
    fn absorb_sums_and_maxes() {
        let mut a = RunStats {
            rounds: 5,
            messages: 100,
            words: 200,
            max_messages_in_round: 40,
            active_rounds: 4,
        };
        let b = RunStats {
            rounds: 3,
            messages: 30,
            words: 60,
            max_messages_in_round: 25,
            active_rounds: 3,
        };
        a.absorb(&b);
        assert_eq!(a.rounds, 8);
        assert_eq!(a.messages, 130);
        assert_eq!(a.words, 260);
        assert_eq!(a.max_messages_in_round, 40);
        assert_eq!(a.active_rounds, 7);
    }
}

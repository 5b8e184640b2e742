//! Run statistics: the quantities the paper's complexity claims are about.

/// Message statistics for one round.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundStats {
    /// Messages delivered this round (one per receiving edge endpoint).
    pub messages: usize,
    /// Total payload bits delivered this round.
    pub bits: usize,
    /// Largest single message in bits this round.
    pub max_message_bits: usize,
}

/// Aggregate statistics for a completed run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Telemetry {
    /// Number of synchronous rounds executed (the paper's complexity
    /// measure).
    pub rounds: usize,
    /// Total messages delivered.
    pub total_messages: usize,
    /// Total payload bits delivered.
    pub total_bits: usize,
    /// Largest single message observed, in bits.
    pub max_message_bits: usize,
    /// The CONGEST per-message budget in force (bits).
    pub bandwidth_budget_bits: usize,
    /// Number of messages whose encoding exceeded the budget. Zero for a
    /// CONGEST-compliant algorithm.
    pub budget_violations: usize,
    /// Messages dropped by the fault-injection model (0 without one).
    pub dropped_messages: usize,
    /// Per-round breakdown (empty unless per-round tracking was enabled).
    /// Entry `i` describes round `i * per_round_stride`.
    pub per_round: Vec<RoundStats>,
    /// Round distance between consecutive [`Telemetry::per_round`]
    /// entries. 1 unless a [`crate::RunOptions::per_round_cap`] forced
    /// keep-every-k downsampling, in which case it is the power of two
    /// `k` that kept the breakdown under the cap.
    pub per_round_stride: usize,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry {
            rounds: 0,
            total_messages: 0,
            total_bits: 0,
            max_message_bits: 0,
            bandwidth_budget_bits: 0,
            budget_violations: 0,
            dropped_messages: 0,
            per_round: Vec::new(),
            per_round_stride: 1,
        }
    }
}

impl Telemetry {
    /// Average message size in bits (0 when no messages were sent).
    pub fn avg_message_bits(&self) -> f64 {
        if self.total_messages == 0 {
            0.0
        } else {
            self.total_bits as f64 / self.total_messages as f64
        }
    }

    /// Whether every message respected the CONGEST budget.
    pub fn is_congest_compliant(&self) -> bool {
        self.budget_violations == 0
    }

    /// Folds one round's aggregated send statistics into the totals (and
    /// the per-round breakdown when enabled). Rounds that sent nothing
    /// leave `per_round` untouched; gaps are back-filled with zero rows
    /// when a later round records traffic, matching per-message
    /// accounting (`Telemetry::record`, the reference it is tested
    /// against).
    ///
    /// With a retention cap, the breakdown is **downsampled, never
    /// unbounded**: whenever the incoming round would land past the cap,
    /// the stride doubles — every second retained entry is dropped
    /// (keep-every-k, deterministic) — until the round's slot fits.
    /// Rounds not divisible by the current stride update only the
    /// totals. `per_round.len()` therefore never exceeds
    /// `max(cap, 1)`, whatever the run length.
    pub(crate) fn absorb(
        &mut self,
        round: usize,
        stats: &SendStats,
        track_rounds: bool,
        round_cap: Option<usize>,
    ) {
        if stats.messages == 0 {
            return;
        }
        self.total_messages += stats.messages;
        self.total_bits += stats.bits;
        self.max_message_bits = self.max_message_bits.max(stats.max_bits);
        self.budget_violations += stats.violations;
        self.dropped_messages += stats.dropped;
        if track_rounds {
            if let Some(cap) = round_cap {
                let cap = cap.max(1);
                while round % self.per_round_stride == 0 && round / self.per_round_stride >= cap {
                    self.halve_per_round();
                }
            }
            if round % self.per_round_stride != 0 {
                return;
            }
            let idx = round / self.per_round_stride;
            if self.per_round.len() <= idx {
                self.per_round.resize(idx + 1, RoundStats::default());
            }
            let rs = &mut self.per_round[idx];
            rs.messages += stats.messages;
            rs.bits += stats.bits;
            rs.max_message_bits = rs.max_message_bits.max(stats.max_bits);
        }
    }

    /// One downsampling step: keep the entries at even indices (the
    /// rounds divisible by the doubled stride) and double the stride.
    fn halve_per_round(&mut self) {
        let mut keep = 0;
        for i in (0..self.per_round.len()).step_by(2) {
            self.per_round[keep] = self.per_round[i];
            keep += 1;
        }
        self.per_round.truncate(keep);
        self.per_round_stride *= 2;
    }

    /// Per-message accounting, kept as the reference implementation that
    /// [`Telemetry::absorb`] is tested against.
    #[cfg(test)]
    pub(crate) fn record(&mut self, round: usize, bits: usize, track_rounds: bool) {
        self.total_messages += 1;
        self.total_bits += bits;
        self.max_message_bits = self.max_message_bits.max(bits);
        if bits > self.bandwidth_budget_bits {
            self.budget_violations += 1;
        }
        if track_rounds {
            if self.per_round.len() <= round {
                self.per_round.resize(round + 1, RoundStats::default());
            }
            let rs = &mut self.per_round[round];
            rs.messages += 1;
            rs.bits += bits;
            rs.max_message_bits = rs.max_message_bits.max(bits);
        }
    }
}

/// Per-worker, per-round send statistics, merged into [`Telemetry`] once
/// per round via [`Telemetry::absorb`]. All fields are order-independent
/// (sums and maxima), so merging worker aggregates in any order produces
/// bit-identical telemetry — the round loop relies on this at every
/// worker count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct SendStats {
    pub(crate) messages: usize,
    pub(crate) bits: usize,
    pub(crate) max_bits: usize,
    pub(crate) violations: usize,
    pub(crate) dropped: usize,
}

impl SendStats {
    /// Accounts one sent message of `bits` bits against `budget`.
    #[inline]
    pub(crate) fn note(&mut self, bits: usize, budget: usize) {
        self.messages += 1;
        self.bits += bits;
        self.max_bits = self.max_bits.max(bits);
        if bits > budget {
            self.violations += 1;
        }
    }

    /// Folds another worker's aggregate into this one.
    pub(crate) fn merge(&mut self, other: &SendStats) {
        self.messages += other.messages;
        self.bits += other.bits;
        self.max_bits = self.max_bits.max(other.max_bits);
        self.violations += other.violations;
        self.dropped += other.dropped;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_matches_per_message_record() {
        let mut by_stats = Telemetry {
            bandwidth_budget_bits: 16,
            ..Telemetry::default()
        };
        let mut by_record = by_stats.clone();
        let mut s0 = SendStats::default();
        s0.note(8, 16);
        s0.note(24, 16);
        let mut s1 = SendStats::default();
        s1.note(4, 16);
        s1.dropped += 1;
        by_stats.absorb(0, &s0, true, None);
        by_stats.absorb(1, &s1, true, None);
        by_record.record(0, 8, true);
        by_record.record(0, 24, true);
        by_record.record(1, 4, true);
        by_record.dropped_messages += 1;
        assert_eq!(by_stats, by_record);
    }

    #[test]
    fn sendstats_merge_is_commutative() {
        let mut a = SendStats::default();
        a.note(8, 16);
        a.note(32, 16);
        let mut b = SendStats::default();
        b.note(4, 16);
        b.dropped = 2;
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.messages, 3);
        assert_eq!(ab.max_bits, 32);
        assert_eq!(ab.violations, 1);
        assert_eq!(ab.dropped, 2);
    }

    #[test]
    fn empty_round_absorb_is_noop() {
        let mut t = Telemetry::default();
        t.absorb(5, &SendStats::default(), true, Some(2));
        assert_eq!(t, Telemetry::default());
        assert!(t.per_round.is_empty());
    }

    /// The retention-cap pin: a long tracked run keeps at most `cap`
    /// per-round entries, the stride is a power of two, and every
    /// retained entry equals the uncapped run's entry for the same
    /// round — keep-every-k, not lossy aggregation.
    #[test]
    fn round_cap_downsamples_deterministically() {
        let rounds = 1000usize;
        let cap = 16usize;
        let mut full = Telemetry::default();
        let mut capped = Telemetry::default();
        for round in 0..rounds {
            let mut s = SendStats::default();
            s.note(8 * (1 + round % 7), 64);
            full.absorb(round, &s, true, None);
            capped.absorb(round, &s, true, Some(cap));
        }
        // Totals are never downsampled.
        assert_eq!(full.total_messages, capped.total_messages);
        assert_eq!(full.total_bits, capped.total_bits);
        // The breakdown is capped and stride-aligned.
        assert_eq!(full.per_round.len(), rounds);
        assert!(capped.per_round.len() <= cap, "cap violated");
        assert!(!capped.per_round.is_empty());
        assert!(capped.per_round_stride.is_power_of_two());
        assert!(capped.per_round_stride > 1, "1000 rounds must downsample");
        for (i, rs) in capped.per_round.iter().enumerate() {
            assert_eq!(
                rs,
                &full.per_round[i * capped.per_round_stride],
                "entry {i} must be the full run's round {}",
                i * capped.per_round_stride
            );
        }
    }

    /// A sparse late round (long silent gap) must never transiently
    /// materialize the gap: the stride doubles *before* the slot is
    /// allocated.
    #[test]
    fn round_cap_bounds_memory_across_gaps() {
        let mut t = Telemetry::default();
        let mut s = SendStats::default();
        s.note(8, 64);
        for round in 0..8 {
            t.absorb(round, &s, true, Some(8));
        }
        t.absorb(100_000, &s, true, Some(8));
        assert!(t.per_round.len() <= 8);
        assert!(t.per_round.capacity() <= 16, "gap must not be materialized");
    }

    #[test]
    fn record_accumulates() {
        let mut t = Telemetry {
            bandwidth_budget_bits: 16,
            ..Telemetry::default()
        };
        t.record(0, 8, true);
        t.record(0, 24, true);
        t.record(1, 4, true);
        assert_eq!(t.total_messages, 3);
        assert_eq!(t.total_bits, 36);
        assert_eq!(t.max_message_bits, 24);
        assert_eq!(t.budget_violations, 1);
        assert!(!t.is_congest_compliant());
        assert_eq!(t.per_round.len(), 2);
        assert_eq!(t.per_round[0].messages, 2);
        assert_eq!(t.per_round[1].bits, 4);
        assert!((t.avg_message_bits() - 12.0).abs() < 1e-12);
    }

    #[test]
    fn empty_telemetry_is_compliant() {
        let t = Telemetry::default();
        assert!(t.is_congest_compliant());
        assert_eq!(t.avg_message_bits(), 0.0);
    }
}

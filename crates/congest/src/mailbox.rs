//! Per-round mailbox arenas.
//!
//! The naive mailbox — one `Vec` of messages per node, reallocated as
//! traffic ebbs and flows — spends most of its time in the allocator and
//! in cache misses across `n` scattered buffers. The arena replaces it
//! with two flat arrays per shard of the round loop (one shard covers
//! the whole graph when a single worker runs it):
//!
//! * `entries`: every [`Delivery`] of the round to the shard's nodes,
//!   grouped by destination node (a stable counting sort keyed by
//!   destination);
//! * `offsets`: a `len + 1` offset table over the shard's `len` nodes, so
//!   local node `v`'s inbox is the slice
//!   `entries[offsets[v]..offsets[v + 1]]`.
//!
//! Node programs receive that slice as an [`Inbox`] — a borrowed view,
//! never an owned buffer. Delivery is one out-of-place pass from the
//! staged sends into `entries` (count, prefix sum, clone into slot); no
//! gather copy, no in-place permutation and no storage swap. Both arrays
//! keep their capacity for the lifetime of the run, so steady-state
//! delivery performs **zero allocations**.

/// One delivered message: where it is going, which port it arrives on,
/// and the payload.
///
/// `dest` is the receiving node's id; `port` is the receiver-side port
/// (the index of the *sender* in the receiver's adjacency list). The
/// destination is carried explicitly so a round's deliveries can live in
/// one flat buffer and be grouped by destination in a single stable
/// counting-sort pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Delivery<M> {
    pub(crate) dest: u32,
    pub(crate) port: u32,
    pub(crate) msg: M,
}

/// A node's inbox for one round: a borrowed slice of the round's mailbox
/// arena.
///
/// Iteration yields `(port, &message)` pairs in deterministic arrival
/// order — senders in ascending node id, and within a sender, the order
/// its [`crate::Outgoing`] entries expanded (ports ascending for a
/// broadcast). The port identifies which incident edge delivered the
/// message, exactly as in [`crate::NodeCtx::neighbors`] indexing.
#[derive(Debug)]
pub struct Inbox<'a, M> {
    entries: &'a [Delivery<M>],
}

// Manual impls: `#[derive(Clone, Copy)]` would bound `M: Clone`/`M: Copy`,
// but the inbox is only a shared borrow and copies freely regardless of `M`.
impl<M> Clone for Inbox<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<M> Copy for Inbox<'_, M> {}

impl<'a, M> Inbox<'a, M> {
    pub(crate) fn new(entries: &'a [Delivery<M>]) -> Self {
        Inbox { entries }
    }

    /// An inbox with no messages (what every node sees in round 0).
    pub fn empty() -> Self {
        Inbox { entries: &[] }
    }

    /// Number of messages delivered this round.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no messages arrived.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(port, message)` pairs in arrival order.
    pub fn iter(&self) -> InboxIter<'a, M> {
        InboxIter {
            inner: self.entries.iter(),
        }
    }

    /// The first delivered `(port, message)` pair, if any.
    pub fn first(&self) -> Option<(usize, &'a M)> {
        self.entries.first().map(|d| (d.port as usize, &d.msg))
    }
}

impl<'a, M> IntoIterator for Inbox<'a, M> {
    type Item = (usize, &'a M);
    type IntoIter = InboxIter<'a, M>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Iterator over an [`Inbox`], yielding `(port, &message)`.
#[derive(Clone, Debug)]
pub struct InboxIter<'a, M> {
    inner: std::slice::Iter<'a, Delivery<M>>,
}

impl<'a, M> Iterator for InboxIter<'a, M> {
    type Item = (usize, &'a M);

    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next().map(|d| (d.port as usize, &d.msg))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl<M> ExactSizeIterator for InboxIter<'_, M> {}

/// The round arena: one flat entry array plus an offset table, rebuilt
/// every round from the finished round's staged sends by
/// [`MailArena::deliver`].
///
/// An arena covers one shard's contiguous node-id range
/// `base..base + len` (the whole graph when the run has one shard).
/// Inboxes are addressed by *local* index (`v - base`).
pub(crate) struct MailArena<M> {
    entries: Vec<Delivery<M>>,
    /// First node id this arena covers.
    base: u32,
    /// `offsets[v]..offsets[v + 1]` indexes local node `v`'s inbox in
    /// `entries`.
    offsets: Vec<u32>,
}

impl<M> MailArena<M> {
    /// A shard arena covering nodes `base..base + len`.
    pub(crate) fn with_range(base: u32, len: usize) -> Self {
        MailArena {
            entries: Vec::new(),
            base,
            offsets: vec![0; len + 1],
        }
    }

    /// Local node `v`'s inbox for the current round (`v` is relative to
    /// the arena's base).
    pub(crate) fn inbox(&self, v: usize) -> Inbox<'_, M> {
        Inbox::new(&self.entries[self.offsets[v] as usize..self.offsets[v + 1] as usize])
    }

    /// Replaces the arena contents with the deliveries in `sources`,
    /// grouped by destination in one **stable**, out-of-place counting
    /// sort: count per destination, take an exclusive prefix sum, then
    /// clone each delivery straight into its slot. Entries of equal
    /// destination keep their order across the concatenation of
    /// `sources`, so the round loop passes its source shards in ascending
    /// order and every inbox lists its senders in ascending id. Every
    /// destination must lie in this arena's node range.
    ///
    /// The prefix sum runs in place one slot ahead (`offsets[v + 1]`
    /// starts as `v`'s first slot and serves as its write cursor), so
    /// after the scatter `offsets[v + 1]` is `v`'s end — the finished
    /// offset table, with no cursor scratch. Slots are filled by
    /// assignment over a `resize` of the previous round's entries, which
    /// reuses their capacity; in steady state delivery allocates nothing.
    pub(crate) fn deliver<'s, S>(&mut self, sources: S)
    where
        S: Iterator<Item = &'s [Delivery<M>]> + Clone,
        M: Clone + 's,
    {
        let base = self.base;
        let offsets = &mut self.offsets;
        offsets.fill(0);
        for src in sources.clone() {
            for d in src {
                offsets[(d.dest - base) as usize + 1] += 1;
            }
        }
        let mut total = 0u32;
        for slot in &mut offsets[1..] {
            let count = *slot;
            *slot = total;
            total += count;
        }
        let Some(first) = sources.clone().flatten().next() else {
            self.entries.clear();
            return;
        };
        self.entries.resize(total as usize, first.clone());
        for src in sources {
            for d in src {
                let cursor = &mut offsets[(d.dest - base) as usize + 1];
                self.entries[*cursor as usize] = d.clone();
                *cursor += 1;
            }
        }
    }

    /// Total messages currently held (the finished round's traffic).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(dest: u32, port: u32, msg: u32) -> Delivery<u32> {
        Delivery { dest, port, msg }
    }

    /// Delivers `sources` into `arena` and returns every local node's
    /// inbox as `(port, message)` pairs.
    fn deliver(arena: &mut MailArena<u32>, sources: &[&[Delivery<u32>]]) -> Vec<Vec<(usize, u32)>> {
        arena.deliver(sources.iter().copied());
        (0..arena.offsets.len() - 1)
            .map(|v| arena.inbox(v).iter().map(|(p, &m)| (p, m)).collect())
            .collect()
    }

    #[test]
    fn refill_groups_by_destination_stably() {
        let mut arena: MailArena<u32> = MailArena::with_range(0, 4);
        let staged = [
            d(2, 0, 10),
            d(0, 1, 11),
            d(2, 1, 12),
            d(3, 0, 13),
            d(2, 2, 14),
            d(0, 0, 15),
        ];
        let inboxes = deliver(&mut arena, &[&staged]);
        assert_eq!(arena.len(), 6);
        // Stable: dest 0 keeps (11 before 15), dest 2 keeps (10, 12, 14).
        assert_eq!(inboxes[0], vec![(1, 11), (0, 15)]);
        assert_eq!(inboxes[1], vec![]);
        assert_eq!(inboxes[2], vec![(0, 10), (1, 12), (2, 14)]);
        assert_eq!(inboxes[3], vec![(0, 13)]);
        // Several sources behave like their concatenation: a shard arena
        // (nodes 10..13) fed by source shards in ascending order.
        let mut shard: MailArena<u32> = MailArena::with_range(10, 3);
        let (a, b, c) = ([d(12, 0, 1), d(10, 0, 2)], [], [d(12, 1, 3), d(10, 2, 4)]);
        let inboxes = deliver(&mut shard, &[&a, &b, &c]);
        assert_eq!(
            inboxes,
            vec![vec![(0, 2), (2, 4)], vec![], vec![(0, 1), (1, 3)]]
        );
    }

    #[test]
    fn refill_recycles_capacity() {
        let mut arena: MailArena<u32> = MailArena::with_range(0, 2);
        let mut ptr = None;
        for round in 0..10u32 {
            // Traffic shrinks and grows back: truncation keeps capacity.
            let count = if round % 3 == 1 { 8 } else { 32 };
            let staged: Vec<_> = (0..count).map(|i| d(i % 2, 0, round * 100 + i)).collect();
            let inboxes = deliver(&mut arena, &[&staged]);
            assert_eq!(arena.len(), count as usize);
            assert_eq!(inboxes[0].len(), count as usize / 2);
            assert!(inboxes[1]
                .iter()
                .all(|&(_, m)| m % 2 == 1 && m / 100 == round));
            let now = arena.entries.as_ptr();
            assert!(ptr.is_none_or(|p| p == now), "round {round} reallocated");
            ptr = Some(now);
        }
    }

    #[test]
    fn empty_round_yields_empty_inboxes() {
        let mut arena: MailArena<u32> = MailArena::with_range(0, 3);
        deliver(&mut arena, &[&[d(1, 0, 5)]]);
        // Nothing staged: all inboxes drain.
        for inbox in deliver(&mut arena, &[&[], &[]]) {
            assert!(inbox.is_empty());
        }
        assert_eq!(arena.len(), 0);
        assert_eq!(arena.inbox(1).first(), None);
    }

    #[test]
    fn inbox_iteration_and_copy() {
        let entries = vec![d(0, 3, 7), d(0, 1, 9)];
        let inbox = Inbox::new(&entries);
        let copy = inbox; // Copy regardless of M
        assert_eq!(copy.len(), 2);
        assert_eq!(inbox.first(), Some((3, &7)));
        let all: Vec<(usize, u32)> = inbox.iter().map(|(p, &m)| (p, m)).collect();
        assert_eq!(all, vec![(3, 7), (1, 9)]);
        let empty: Inbox<'_, u32> = Inbox::empty();
        assert_eq!(empty.len(), 0);
        assert_eq!(empty.iter().len(), 0);
    }
}

//! Communication and locality accounting.

use std::collections::BTreeSet;

use crate::party::PartyId;

/// Per-execution accounting of bytes sent and peers contacted.
///
/// The paper (§3.1) defines the communication complexity of a protocol as the
/// total number of bits sent by the parties *when all follow the protocol
/// honestly* (worst case over executions), and the locality as the number of
/// peers with which a party communicates. The experiment harness therefore
/// measures all-honest executions for those headline numbers; in adversarial
/// executions the honest-only aggregates remain available for sanity checks
/// (e.g. flooding by the adversary must not inflate the reported complexity).
///
/// Counters are kept densely, one slot per party id, and peer sets as
/// bitsets, so recording a send is a few array writes. A slot that recorded
/// nothing reads as zero and empty, and equality compares slots that way:
/// two statistics are equal exactly when every party's counters and peer
/// sets are.
#[derive(Debug, Clone, Default)]
pub struct CommStats {
    /// Per-party counters, indexed by party id.
    parties: Vec<PartyStats>,
}

/// One party's slot in [`CommStats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct PartyStats {
    /// Bytes sent.
    bytes_sent: u64,
    /// Messages sent.
    messages_sent: u64,
    /// The peers it sent messages to.
    sent_to: PeerSet,
    /// The peers it received messages from.
    received_from: PeerSet,
}

/// A set of party ids as a bitset over their indices.
#[derive(Debug, Clone, Default)]
struct PeerSet {
    words: Vec<u64>,
}

impl PeerSet {
    fn insert(&mut self, party: PartyId) {
        let (word, bit) = (party.index() / 64, party.index() % 64);
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1 << bit;
    }

    fn contains(&self, party: PartyId) -> bool {
        let (word, bit) = (party.index() / 64, party.index() % 64);
        self.words.get(word).is_some_and(|w| w >> bit & 1 == 1)
    }

    fn union_with(&mut self, other: &PeerSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (word, theirs) in self.words.iter_mut().zip(&other.words) {
            *word |= theirs;
        }
    }

    /// Word `i`, zero past the end.
    fn word(&self, i: usize) -> u64 {
        self.words.get(i).copied().unwrap_or(0)
    }
}

impl PartialEq for PeerSet {
    fn eq(&self, other: &Self) -> bool {
        let words = self.words.len().max(other.words.len());
        (0..words).all(|i| self.word(i) == other.word(i))
    }
}

impl Eq for PeerSet {}

impl PartialEq for CommStats {
    fn eq(&self, other: &Self) -> bool {
        let empty = PartyStats::default();
        let slots = self.parties.len().max(other.parties.len());
        (0..slots).all(|i| {
            self.parties.get(i).unwrap_or(&empty) == other.parties.get(i).unwrap_or(&empty)
        })
    }
}

impl Eq for CommStats {}

impl CommStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// The slot of `party`, growing the table to reach it.
    fn slot(&mut self, party: PartyId) -> &mut PartyStats {
        if party.index() >= self.parties.len() {
            self.parties
                .resize_with(party.index() + 1, PartyStats::default);
        }
        &mut self.parties[party.index()]
    }

    /// Records a sent message of `bytes` bytes from `from` to `to`.
    pub fn record_send(&mut self, from: PartyId, to: PartyId, bytes: usize) {
        self.record_fanout(from, &[to], bytes);
    }

    /// Records a fan-out of one `bytes`-byte message from `from` to every
    /// party in `recipients`.
    ///
    /// Exactly equivalent to calling [`record_send`](Self::record_send) once
    /// per recipient, but the sender's counters are updated once for the
    /// whole batch instead of once per envelope.
    pub fn record_fanout(&mut self, from: PartyId, recipients: &[PartyId], bytes: usize) {
        let Some(&last) = recipients.iter().max() else {
            return;
        };
        self.slot(last.max(from));
        let sender = &mut self.parties[from.index()];
        sender.bytes_sent += bytes as u64 * recipients.len() as u64;
        sender.messages_sent += recipients.len() as u64;
        for &to in recipients {
            sender.sent_to.insert(to);
        }
        for &to in recipients {
            self.parties[to.index()].received_from.insert(from);
        }
    }

    /// Total bytes sent by the given set of parties.
    pub fn bytes_sent_by(&self, parties: &BTreeSet<PartyId>) -> u64 {
        parties.iter().map(|p| self.bytes_sent_by_party(*p)).sum()
    }

    /// Total bytes sent by everyone.
    pub fn total_bytes(&self) -> u64 {
        self.parties.iter().map(|p| p.bytes_sent).sum()
    }

    /// Total messages sent by everyone.
    pub fn total_messages(&self) -> u64 {
        self.parties.iter().map(|p| p.messages_sent).sum()
    }

    /// Bytes sent by one party.
    pub fn bytes_sent_by_party(&self, party: PartyId) -> u64 {
        self.parties.get(party.index()).map_or(0, |p| p.bytes_sent)
    }

    /// The set of peers `party` communicated with (sent to or received from).
    pub fn peers_of(&self, party: PartyId) -> BTreeSet<PartyId> {
        let Some(slot) = self.parties.get(party.index()) else {
            return BTreeSet::new();
        };
        let mut peers = slot.sent_to.clone();
        peers.union_with(&slot.received_from);
        (0..peers.words.len() * 64)
            .map(PartyId)
            .filter(|&p| p != party && peers.contains(p))
            .collect()
    }

    /// How many peers `party` communicated with, counting only peers in
    /// `within` when it is given.
    fn peer_count(&self, party: PartyId, within: Option<&PeerSet>) -> usize {
        let Some(slot) = self.parties.get(party.index()) else {
            return 0;
        };
        let words = slot.sent_to.words.len().max(slot.received_from.words.len());
        let count: u32 = (0..words)
            .map(|i| {
                let peers = slot.sent_to.word(i) | slot.received_from.word(i);
                let mask = within.map_or(u64::MAX, |set| set.word(i));
                (peers & mask).count_ones()
            })
            .sum();
        let own = slot.sent_to.contains(party) || slot.received_from.contains(party);
        let own_counted = own && within.is_none_or(|set| set.contains(party));
        count as usize - usize::from(own_counted)
    }

    /// The locality of the execution restricted to `parties`: the maximum,
    /// over those parties, of the number of peers contacted.
    pub fn max_locality(&self, parties: &BTreeSet<PartyId>) -> usize {
        parties
            .iter()
            .map(|p| self.peer_count(*p, None))
            .max()
            .unwrap_or(0)
    }

    /// The locality of `parties` counting only peers **inside** the set: the
    /// maximum, over those parties, of the number of set members they
    /// contacted. With the honest set this is the honest-to-honest locality
    /// the `mpca-scenario` oracle budgets: contacts initiated *by* the
    /// adversary (junk deliveries) can never inflate it, mirroring §3.1's
    /// flooding rule for the locality measure.
    pub fn max_locality_within(&self, parties: &BTreeSet<PartyId>) -> usize {
        let mut within = PeerSet::default();
        for &p in parties {
            within.insert(p);
        }
        parties
            .iter()
            .map(|p| self.peer_count(*p, Some(&within)))
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn set(ids: &[usize]) -> BTreeSet<PartyId> {
        ids.iter().map(|&i| PartyId(i)).collect()
    }

    #[test]
    fn records_bytes_and_peers() {
        let mut stats = CommStats::new();
        stats.record_send(PartyId(0), PartyId(1), 10);
        stats.record_send(PartyId(0), PartyId(2), 20);
        stats.record_send(PartyId(1), PartyId(0), 5);
        assert_eq!(stats.total_bytes(), 35);
        assert_eq!(stats.total_messages(), 3);
        assert_eq!(stats.bytes_sent_by_party(PartyId(0)), 30);
        assert_eq!(stats.bytes_sent_by(&set(&[0, 1])), 35);
        assert_eq!(stats.bytes_sent_by(&set(&[1])), 5);
        assert_eq!(stats.peers_of(PartyId(0)), set(&[1, 2]));
        assert_eq!(stats.peers_of(PartyId(2)), set(&[0]));
    }

    #[test]
    fn locality_metrics() {
        let mut stats = CommStats::new();
        // P0 talks to 1, 2, 3; P1 talks to 0 only; P2 and P3 only receive.
        for to in 1..4 {
            stats.record_send(PartyId(0), PartyId(to), 1);
        }
        stats.record_send(PartyId(1), PartyId(0), 1);
        assert_eq!(stats.max_locality(&set(&[0, 1, 2, 3])), 3);
        assert_eq!(stats.max_locality(&set(&[2, 3])), 1);
        // Within {1, 2, 3}, party 0's fan-out stops counting: each member
        // only contacted party 0, which is outside the set.
        assert_eq!(stats.max_locality_within(&set(&[1, 2, 3])), 0);
        assert_eq!(stats.max_locality_within(&set(&[0, 1, 2, 3])), 3);
        assert_eq!(stats.max_locality_within(&BTreeSet::new()), 0);
    }

    #[test]
    fn fanout_matches_per_send_recording() {
        let recipients: Vec<PartyId> = [1usize, 2, 3, 2].into_iter().map(PartyId).collect();
        let mut batched = CommStats::new();
        batched.record_fanout(PartyId(0), &recipients, 17);
        batched.record_fanout(PartyId(0), &[], 1000); // no-op
        let mut naive = CommStats::new();
        for &to in &recipients {
            naive.record_send(PartyId(0), to, 17);
        }
        assert_eq!(batched, naive);
        assert_eq!(batched.total_bytes(), 4 * 17);
        assert_eq!(batched.total_messages(), 4);
        assert_eq!(batched.peers_of(PartyId(0)), set(&[1, 2, 3]));
    }

    #[test]
    fn self_sends_do_not_count_as_peers() {
        let mut stats = CommStats::new();
        stats.record_send(PartyId(3), PartyId(3), 100);
        assert_eq!(stats.peers_of(PartyId(3)), BTreeSet::new());
        assert_eq!(stats.total_bytes(), 100);
    }

    /// The map-based statistics this module used to keep, as the model the
    /// dense slots must agree with.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    struct MapStats {
        bytes_sent: BTreeMap<PartyId, u64>,
        messages_sent: BTreeMap<PartyId, u64>,
        sent_to: BTreeMap<PartyId, BTreeSet<PartyId>>,
        received_from: BTreeMap<PartyId, BTreeSet<PartyId>>,
    }

    impl MapStats {
        fn record_send(&mut self, from: PartyId, to: PartyId, bytes: usize) {
            *self.bytes_sent.entry(from).or_default() += bytes as u64;
            *self.messages_sent.entry(from).or_default() += 1;
            self.sent_to.entry(from).or_default().insert(to);
            self.received_from.entry(to).or_default().insert(from);
        }

        fn peers_of(&self, party: PartyId) -> BTreeSet<PartyId> {
            let mut peers = self.sent_to.get(&party).cloned().unwrap_or_default();
            peers.extend(self.received_from.get(&party).into_iter().flatten());
            peers.remove(&party);
            peers
        }
    }

    /// Checks every accessor of `dense` against `model`, over `universe`
    /// party ids and a few subsets of them.
    fn assert_agrees(dense: &CommStats, model: &MapStats, universe: usize) {
        assert_eq!(dense.total_bytes(), model.bytes_sent.values().sum::<u64>());
        assert_eq!(
            dense.total_messages(),
            model.messages_sent.values().sum::<u64>()
        );
        for i in 0..universe {
            let p = PartyId(i);
            let bytes = model.bytes_sent.get(&p).copied().unwrap_or(0);
            assert_eq!(dense.bytes_sent_by_party(p), bytes, "{p}");
            assert_eq!(dense.peers_of(p), model.peers_of(p), "{p}");
        }
        let subsets: [BTreeSet<PartyId>; 4] = [
            BTreeSet::new(),
            (0..universe).map(PartyId).collect(),
            (0..universe).step_by(2).map(PartyId).collect(),
            (universe / 3..universe).map(PartyId).collect(),
        ];
        for parties in &subsets {
            let bytes: u64 = parties.iter().filter_map(|p| model.bytes_sent.get(p)).sum();
            assert_eq!(dense.bytes_sent_by(parties), bytes);
            let peers: Vec<BTreeSet<PartyId>> =
                parties.iter().map(|p| model.peers_of(*p)).collect();
            let max = peers.iter().map(BTreeSet::len).max().unwrap_or(0);
            assert_eq!(dense.max_locality(parties), max);
            let within = peers
                .iter()
                .map(|s| s.intersection(parties).count())
                .max()
                .unwrap_or(0);
            assert_eq!(dense.max_locality_within(parties), within);
        }
    }

    #[test]
    fn dense_stats_agree_with_the_map_model_under_random_sequences() {
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |bound: usize| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % bound as u64) as usize
        };
        for trial in 0..200 {
            // Ids straddle a bitset word boundary on the larger trials.
            let universe = [3, 20, 64, 70, 130][trial % 5];
            let mut dense = [CommStats::new(), CommStats::new()];
            let mut model = [MapStats::default(), MapStats::default()];
            let mut sends: [Vec<(PartyId, Vec<PartyId>, usize)>; 2] = Default::default();
            for _ in 0..next(40) {
                let side = next(2);
                let from = PartyId(next(universe));
                let bytes = next(5) * 7; // zero-byte sends included
                let recipients: Vec<PartyId> = if next(3) == 0 {
                    vec![PartyId(next(universe))]
                } else {
                    (0..next(6)).map(|_| PartyId(next(universe))).collect()
                };
                match recipients.as_slice() {
                    [to] if next(2) == 0 => dense[side].record_send(from, *to, bytes),
                    _ => dense[side].record_fanout(from, &recipients, bytes),
                }
                for &to in &recipients {
                    model[side].record_send(from, to, bytes);
                }
                sends[side].push((from, recipients, bytes));
                assert_eq!(dense[0] == dense[1], model[0] == model[1], "trial {trial}");
            }
            for side in 0..2 {
                assert_agrees(&dense[side], &model[side], universe);
                // Sends commute: the same sends in reverse order compare
                // equal, and one more zero-byte send does not.
                let mut reversed = CommStats::new();
                for (from, recipients, bytes) in sends[side].iter().rev() {
                    reversed.record_fanout(*from, recipients, *bytes);
                }
                assert_eq!(reversed, dense[side]);
                reversed.record_send(PartyId(0), PartyId(universe - 1), 0);
                assert_ne!(reversed, dense[side]);
            }
            assert_eq!(dense[0] == dense[1], model[0] == model[1], "trial {trial}");
            // Growing the table with empty slots leaves the statistics
            // equal to themselves, however far it reaches.
            let mut padded = dense[0].clone();
            padded.slot(PartyId(universe + 100));
            assert_eq!(padded, dense[0]);
        }
    }
}

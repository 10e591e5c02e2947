//! Declarative adversary specifications.
//!
//! An [`AdversarySpec`] is pure data — `Clone`, comparable, printable — that
//! names an adversary *class* instead of holding a live attack object. The
//! registry compiles a spec into a concrete [`mpca_net::Adversary`] when a
//! scenario is submitted to the pool (a proxy-based class into one
//! [`ProxyAdversary`](mpca_net::ProxyAdversary) rewrite hook), which keeps
//! plans serialisable-in-spirit and lets one spec run against every
//! protocol in the catalog.

use std::collections::BTreeSet;

use mpca_net::{sample_corruption, MilestoneKind, PartyId};

/// Which parties the adversary corrupts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CorruptionSpec {
    /// Nobody (paired with honest baselines).
    None,
    /// Exactly these party indices.
    Explicit(Vec<usize>),
    /// `count` parties sampled deterministically from the scenario seed and
    /// label via [`sample_corruption`] — randomized sweeps stay reproducible.
    Seeded {
        /// Number of parties to corrupt.
        count: usize,
    },
}

impl CorruptionSpec {
    /// Resolves the concrete corruption set for an `n`-party scenario.
    ///
    /// # Panics
    ///
    /// Panics if an explicit index is out of range or a seeded count exceeds
    /// `n`.
    pub fn resolve(&self, n: usize, seed: u64, label: &str) -> BTreeSet<PartyId> {
        match self {
            CorruptionSpec::None => BTreeSet::new(),
            CorruptionSpec::Explicit(indices) => indices
                .iter()
                .map(|&i| {
                    assert!(i < n, "corrupted index {i} out of range for n = {n}");
                    PartyId(i)
                })
                .collect(),
            CorruptionSpec::Seeded { count } => {
                sample_corruption(&[label.as_bytes(), &seed.to_le_bytes()].concat(), n, *count)
            }
        }
    }

    /// Number of parties this spec corrupts in an `n`-party network.
    pub fn count(&self) -> usize {
        match self {
            CorruptionSpec::None => 0,
            CorruptionSpec::Explicit(indices) => indices.len(),
            CorruptionSpec::Seeded { count } => *count,
        }
    }
}

/// When a [`Triggered`](AdversarySpec::Triggered) adversary activates —
/// compiled into a [`TriggerWhen`](mpca_net::TriggerWhen) predicate over the
/// messages delivered to corrupted parties.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TriggerSpec {
    /// Activates at the start of the given round.
    AtRound(usize),
    /// Activates once the corrupted parties have been delivered this many
    /// payload bytes in total.
    BytesDelivered(u64),
    /// Activates when any corrupted party hears from this party index.
    MessageFrom(usize),
    /// Activates when any honest party emits a milestone of this kind — the
    /// **protocol-aware** trigger ("attack after the committee
    /// announcement"), compiled into
    /// [`TriggerWhen::at_milestone`](mpca_net::TriggerWhen::at_milestone).
    /// Fires on protocol phase, not round numbers, so one spec works across
    /// families with different round structures.
    AtMilestone(MilestoneKind),
}

impl TriggerSpec {
    /// Short stable name fragment for labels.
    pub fn name(&self) -> String {
        match self {
            TriggerSpec::AtRound(r) => format!("r{r}"),
            TriggerSpec::BytesDelivered(b) => format!("b{b}"),
            TriggerSpec::MessageFrom(p) => format!("from{p}"),
            TriggerSpec::AtMilestone(kind) => format!("m-{}", kind.name()),
        }
    }
}

/// A declarative adversary class.
///
/// The proxy-based variants ([`HonestProxy`](Self::HonestProxy),
/// [`AbortAt`](Self::AbortAt), [`Withhold`](Self::Withhold),
/// [`Equivocate`](Self::Equivocate),
/// [`EquivocateFrame`](Self::EquivocateFrame)) run the **honest protocol
/// logic** for every corrupted party and pass its envelopes through one
/// rewrite hook, so one spec applies to any protocol without
/// re-implementing the attack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdversarySpec {
    /// No corruption: the all-honest baseline.
    Honest,
    /// Corrupted parties run the honest logic unmodified (the transparent
    /// baseline — the protocol must behave as if all-honest).
    HonestProxy {
        /// Who is corrupted.
        corrupt: CorruptionSpec,
    },
    /// Corrupted parties never send anything (crash-style maliciousness).
    Silent {
        /// Who is corrupted.
        corrupt: CorruptionSpec,
    },
    /// Corrupted parties flood victims with junk each round.
    Flood {
        /// Who is corrupted.
        corrupt: CorruptionSpec,
        /// Victim indices; empty means every non-corrupted party.
        victims: Vec<usize>,
        /// Junk bytes per flooded envelope.
        junk_bytes: usize,
        /// Stop flooding after this many rounds (`None` = never stop).
        round_budget: Option<usize>,
    },
    /// Honest via proxy until the given round, then crash — the paper's
    /// selective abort pattern.
    AbortAt {
        /// Who is corrupted.
        corrupt: CorruptionSpec,
        /// The round from which the corrupted parties go silent.
        round: usize,
    },
    /// Honest via proxy, except messages to these recipients are dropped.
    Withhold {
        /// Who is corrupted.
        corrupt: CorruptionSpec,
        /// Recipient indices whose deliveries are withheld.
        recipients: Vec<usize>,
    },
    /// Honest via proxy, except these victims receive tampered copies.
    Equivocate {
        /// Who is corrupted.
        corrupt: CorruptionSpec,
        /// Victim indices receiving tampered copies.
        victims: Vec<usize>,
    },
    /// **Framing-aware** equivocation: honest via proxy, except envelopes
    /// to the victims whose payload frames as `tag` (under the scenario
    /// protocol's [`FrameSchema`](mpca_core::FrameSchema)) get exactly the
    /// named `field` rewritten and re-encoded. The tampered copy still
    /// parses, so a detecting protocol must answer with an *identified*
    /// abort (equivocation / equality-test failure), never a parse error —
    /// this is the spec that finally equivocates against `MpcParty` /
    /// `TradeoffParty` verification instead of their parsers.
    EquivocateFrame {
        /// Who is corrupted.
        corrupt: CorruptionSpec,
        /// Victim indices receiving tampered copies.
        victims: Vec<usize>,
        /// The frame tag to tamper (e.g. `mpc:input-ct`); other frames pass
        /// through untouched.
        tag: String,
        /// The mutable field inside the frame (e.g. `c2.0`).
        field: String,
    },
    /// A base adversary that stays dormant until a trigger fires (adaptive
    /// activation inside the static-corruption model).
    Triggered {
        /// The dormant behaviour.
        base: Box<AdversarySpec>,
        /// When it wakes up.
        trigger: TriggerSpec,
    },
    /// Two adversary classes active at once over **disjoint** corruption
    /// sets, compiled into the [`Compose`](mpca_net::Compose) combinator.
    ///
    /// Disjointness is resolved deterministically: `a`'s corruption set is
    /// resolved first, then `b`'s — a seeded `b` samples from the parties
    /// `a` left free (so `Both(Silent{Seeded 2}, Flood{Seeded 2})` always
    /// corrupts 4 distinct parties), while an explicit `b` that overlaps
    /// `a` panics at plan expansion. `Both` cannot nest on the `b` side.
    Both {
        /// The first adversary class (resolved first).
        a: Box<AdversarySpec>,
        /// The second adversary class (resolved disjointly from `a`).
        b: Box<AdversarySpec>,
    },
}

impl AdversarySpec {
    /// The single corruption spec of a non-composite adversary (callers
    /// must dispatch [`Both`](Self::Both) and [`Triggered`](Self::Triggered)
    /// structurally first).
    fn single_corruption(&self) -> &CorruptionSpec {
        match self {
            AdversarySpec::Honest => &CorruptionSpec::None,
            AdversarySpec::HonestProxy { corrupt }
            | AdversarySpec::Silent { corrupt }
            | AdversarySpec::Flood { corrupt, .. }
            | AdversarySpec::AbortAt { corrupt, .. }
            | AdversarySpec::Withhold { corrupt, .. }
            | AdversarySpec::Equivocate { corrupt, .. }
            | AdversarySpec::EquivocateFrame { corrupt, .. } => corrupt,
            AdversarySpec::Triggered { .. } | AdversarySpec::Both { .. } => {
                unreachable!("composite specs resolve through their children")
            }
        }
    }

    /// Number of parties this adversary corrupts in an `n`-party network.
    pub fn corruption_count(&self) -> usize {
        match self {
            AdversarySpec::Both { a, b } => a.corruption_count() + b.corruption_count(),
            AdversarySpec::Triggered { base, .. } => base.corruption_count(),
            _ => self.single_corruption().count(),
        }
    }

    /// Resolves the concrete corruption set for an `n`-party scenario.
    pub fn resolve_corrupted(&self, n: usize, seed: u64, label: &str) -> BTreeSet<PartyId> {
        match self {
            AdversarySpec::Both { .. } => {
                let (a, b) = self.resolve_split(n, seed, label);
                a.union(&b).copied().collect()
            }
            AdversarySpec::Triggered { base, .. } => base.resolve_corrupted(n, seed, label),
            _ => self.single_corruption().resolve(n, seed, label),
        }
    }

    /// Resolves the two **disjoint** corruption sets of a
    /// [`Both`](Self::Both) adversary: `a`'s set is resolved normally, then
    /// `b`'s is resolved from the parties `a` left free (a seeded `b`
    /// samples the complement; an explicit `b` overlapping `a` panics).
    ///
    /// # Panics
    ///
    /// Panics when `self` is not `Both`, when `b` nests another `Both`, or
    /// when the sets cannot be made disjoint.
    pub fn resolve_split(
        &self,
        n: usize,
        seed: u64,
        label: &str,
    ) -> (BTreeSet<PartyId>, BTreeSet<PartyId>) {
        let AdversarySpec::Both { a, b } = self else {
            panic!("resolve_split is only defined for AdversarySpec::Both")
        };
        let a_set = a.resolve_corrupted(n, seed, label);
        // Unwrap trigger layers on the b side down to the corrupting leaf;
        // nested Both stays a-side-only so resolution order is unambiguous.
        let mut leaf: &AdversarySpec = b;
        while let AdversarySpec::Triggered { base, .. } = leaf {
            leaf = base;
        }
        assert!(
            !matches!(leaf, AdversarySpec::Both { .. }),
            "Both cannot nest on the b side; chain on the a side instead"
        );
        let b_set = match leaf.single_corruption() {
            CorruptionSpec::None => BTreeSet::new(),
            CorruptionSpec::Explicit(_) => {
                let explicit = leaf.single_corruption().resolve(n, seed, label);
                let overlap: Vec<_> = explicit.intersection(&a_set).collect();
                assert!(
                    overlap.is_empty(),
                    "Both sides must corrupt disjoint parties, both corrupt {overlap:?}"
                );
                explicit
            }
            CorruptionSpec::Seeded { count } => {
                let free: Vec<PartyId> = PartyId::all(n).filter(|id| !a_set.contains(id)).collect();
                assert!(
                    *count <= free.len(),
                    "Both's b side corrupts {count} parties but only {} are free",
                    free.len()
                );
                sample_corruption(
                    &[label.as_bytes(), b"-both-b", &seed.to_le_bytes()].concat(),
                    free.len(),
                    *count,
                )
                .into_iter()
                .map(|pick| free[pick.index()])
                .collect()
            }
        };
        (a_set, b_set)
    }

    /// Checks that the spec fits an `n`-party scenario with `h` guaranteed
    /// honest parties: it corrupts at most `n - h` parties, and every
    /// explicit party index (`corrupt`, `victims`, `recipients`, a
    /// `from<p>` trigger) is below `n`. The error names the offending
    /// field. Plan expansion and the registry assert the same conditions;
    /// this is the non-panicking check for specs read from files.
    pub(crate) fn check_fits(&self, n: usize, h: usize) -> Result<(), String> {
        let count = self.corruption_count();
        let room = n.saturating_sub(h);
        if count > room {
            return Err(format!(
                "corrupts {count} parties, above n - h = {room} for n = {n}, h = {h}"
            ));
        }
        self.check_indices(n)
    }

    fn check_indices(&self, n: usize) -> Result<(), String> {
        let check = |field: &str, indices: &[usize]| match indices.iter().find(|&&i| i >= n) {
            Some(i) => Err(format!("{field}: party index {i} out of range for n = {n}")),
            None => Ok(()),
        };
        match self {
            AdversarySpec::Triggered { base, trigger } => {
                if let TriggerSpec::MessageFrom(p) = trigger {
                    check("trigger", &[*p])?;
                }
                base.check_indices(n)
            }
            AdversarySpec::Both { a, b } => {
                a.check_indices(n)?;
                b.check_indices(n)
            }
            _ => {
                if let CorruptionSpec::Explicit(indices) = self.single_corruption() {
                    check("corrupt", indices)?;
                }
                match self {
                    AdversarySpec::Flood { victims, .. }
                    | AdversarySpec::Equivocate { victims, .. }
                    | AdversarySpec::EquivocateFrame { victims, .. } => check("victims", victims),
                    AdversarySpec::Withhold { recipients, .. } => check("recipients", recipients),
                    _ => Ok(()),
                }
            }
        }
    }

    /// `true` when compiling this spec requires honest party logic for the
    /// corrupted parties (the proxy-based variants).
    pub fn needs_proxy_logic(&self) -> bool {
        match self {
            AdversarySpec::Honest | AdversarySpec::Silent { .. } | AdversarySpec::Flood { .. } => {
                false
            }
            AdversarySpec::HonestProxy { .. }
            | AdversarySpec::AbortAt { .. }
            | AdversarySpec::Withhold { .. }
            | AdversarySpec::Equivocate { .. }
            | AdversarySpec::EquivocateFrame { .. } => true,
            AdversarySpec::Triggered { base, .. } => base.needs_proxy_logic(),
            AdversarySpec::Both { a, b } => a.needs_proxy_logic() || b.needs_proxy_logic(),
        }
    }

    /// Short stable name (used in scenario labels and report tables).
    pub fn name(&self) -> String {
        match self {
            AdversarySpec::Honest => "honest".into(),
            AdversarySpec::HonestProxy { .. } => "honest-proxy".into(),
            AdversarySpec::Silent { .. } => "silent".into(),
            AdversarySpec::Flood { .. } => "flood".into(),
            AdversarySpec::AbortAt { round, .. } => format!("abort-at-{round}"),
            AdversarySpec::Withhold { .. } => "withhold".into(),
            AdversarySpec::Equivocate { .. } => "equivocate".into(),
            AdversarySpec::EquivocateFrame { tag, field, .. } => {
                format!("equivocate-frame-{tag}-{field}")
            }
            AdversarySpec::Triggered { base, trigger } => {
                format!("{}@{}", base.name(), trigger.name())
            }
            AdversarySpec::Both { a, b } => format!("{}+{}", a.name(), b.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corruption_specs_resolve_deterministically() {
        assert!(CorruptionSpec::None.resolve(8, 1, "x").is_empty());
        let explicit = CorruptionSpec::Explicit(vec![0, 3]).resolve(8, 1, "x");
        assert_eq!(explicit, [PartyId(0), PartyId(3)].into());
        let a = CorruptionSpec::Seeded { count: 3 }.resolve(12, 7, "plan");
        let b = CorruptionSpec::Seeded { count: 3 }.resolve(12, 7, "plan");
        let c = CorruptionSpec::Seeded { count: 3 }.resolve(12, 8, "plan");
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        assert_ne!(a, c, "a different seed should (whp) corrupt differently");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn explicit_out_of_range_panics() {
        CorruptionSpec::Explicit(vec![9]).resolve(8, 0, "x");
    }

    #[test]
    fn spec_names_and_proxy_requirements() {
        let flood = AdversarySpec::Flood {
            corrupt: CorruptionSpec::Explicit(vec![0]),
            victims: vec![],
            junk_bytes: 64,
            round_budget: None,
        };
        assert_eq!(flood.name(), "flood");
        assert!(!flood.needs_proxy_logic());
        assert_eq!(flood.corruption_count(), 1);

        let triggered = AdversarySpec::Triggered {
            base: Box::new(flood),
            trigger: TriggerSpec::AtRound(3),
        };
        assert_eq!(triggered.name(), "flood@r3");
        assert!(!triggered.needs_proxy_logic());

        let abort = AdversarySpec::AbortAt {
            corrupt: CorruptionSpec::Seeded { count: 2 },
            round: 4,
        };
        assert_eq!(abort.name(), "abort-at-4");
        assert!(abort.needs_proxy_logic());
        assert!(AdversarySpec::Honest
            .resolve_corrupted(6, 0, "l")
            .is_empty());
    }

    #[test]
    fn both_resolves_disjoint_seeded_sides() {
        let both = AdversarySpec::Both {
            a: Box::new(AdversarySpec::Silent {
                corrupt: CorruptionSpec::Seeded { count: 3 },
            }),
            b: Box::new(AdversarySpec::Flood {
                corrupt: CorruptionSpec::Seeded { count: 3 },
                victims: vec![],
                junk_bytes: 64,
                round_budget: None,
            }),
        };
        assert_eq!(both.name(), "silent+flood");
        assert_eq!(both.corruption_count(), 6);
        assert!(!both.needs_proxy_logic());

        let (a_set, b_set) = both.resolve_split(8, 11, "plan");
        assert_eq!(a_set.len(), 3);
        assert_eq!(b_set.len(), 3);
        assert!(
            a_set.is_disjoint(&b_set),
            "sides must be disjoint: {a_set:?} vs {b_set:?}"
        );
        // The union is what the scenario reports as corrupted, and the
        // resolution is deterministic in (n, seed, label).
        let union = both.resolve_corrupted(8, 11, "plan");
        assert_eq!(union.len(), 6);
        assert_eq!(union, both.resolve_corrupted(8, 11, "plan"));
        assert_ne!(union, both.resolve_corrupted(8, 12, "plan"));
    }

    #[test]
    fn both_with_a_proxy_side_needs_proxy_logic() {
        let both = AdversarySpec::Both {
            a: Box::new(AdversarySpec::Silent {
                corrupt: CorruptionSpec::Explicit(vec![0]),
            }),
            b: Box::new(AdversarySpec::Equivocate {
                corrupt: CorruptionSpec::Explicit(vec![1]),
                victims: vec![2],
            }),
        };
        assert!(both.needs_proxy_logic());
        assert_eq!(both.name(), "silent+equivocate");
        let (a_set, b_set) = both.resolve_split(4, 0, "x");
        assert_eq!(a_set, [PartyId(0)].into());
        assert_eq!(b_set, [PartyId(1)].into());
    }

    #[test]
    fn composites_nest_without_panicking() {
        // Triggered-of-Both resolves through the Both path…
        let triggered_both = AdversarySpec::Triggered {
            base: Box::new(AdversarySpec::Both {
                a: Box::new(AdversarySpec::Silent {
                    corrupt: CorruptionSpec::Seeded { count: 2 },
                }),
                b: Box::new(AdversarySpec::Silent {
                    corrupt: CorruptionSpec::Seeded { count: 1 },
                }),
            }),
            trigger: TriggerSpec::AtRound(2),
        };
        assert_eq!(triggered_both.corruption_count(), 3);
        assert_eq!(triggered_both.resolve_corrupted(8, 4, "t").len(), 3);
        assert_eq!(triggered_both.name(), "silent+silent@r2");

        // …and a Triggered b side unwraps to its corrupting leaf.
        let both_triggered_b = AdversarySpec::Both {
            a: Box::new(AdversarySpec::Silent {
                corrupt: CorruptionSpec::Explicit(vec![0]),
            }),
            b: Box::new(AdversarySpec::Triggered {
                base: Box::new(AdversarySpec::Flood {
                    corrupt: CorruptionSpec::Seeded { count: 2 },
                    victims: vec![],
                    junk_bytes: 64,
                    round_budget: None,
                }),
                trigger: TriggerSpec::AtRound(1),
            }),
        };
        let (a_set, b_set) = both_triggered_b.resolve_split(8, 4, "t");
        assert_eq!(a_set, [PartyId(0)].into());
        assert_eq!(b_set.len(), 2);
        assert!(a_set.is_disjoint(&b_set));
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn both_with_overlapping_explicit_sides_panics() {
        AdversarySpec::Both {
            a: Box::new(AdversarySpec::Silent {
                corrupt: CorruptionSpec::Explicit(vec![0, 1]),
            }),
            b: Box::new(AdversarySpec::Silent {
                corrupt: CorruptionSpec::Explicit(vec![1]),
            }),
        }
        .resolve_split(4, 0, "x");
    }
}

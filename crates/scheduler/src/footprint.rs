//! Mutation footprint classification.
//!
//! Every DSE hardware mutation is classified by what it *can* do to existing
//! schedules — its schedule footprint. The footprint travels with a proposal
//! (so the evaluation store can key on it and traces can attribute repair
//! outcomes to mutation classes), but it is advisory: the repair engine
//! always verifies the prior schedule against the mutated hardware and
//! derives the actual dirty set, so a mislabelled mutation can cost time,
//! never correctness.

/// What a hardware mutation can do to existing schedules, ordered by
/// increasing severity. A proposal carrying several mutations folds their
/// footprints with [`ScheduleFootprint::merge`] (worst wins).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ScheduleFootprint {
    /// No observable hardware change (a saturated resize, an abandoned
    /// mutation attempt).
    Pure,
    /// Node attributes changed — port widths, scratchpad capacity, engine
    /// bandwidth, delay-FIFO depth, capability sets — but the graph
    /// structure is untouched. Schedules stay *structurally* valid; a
    /// shrink may still evict an assignment (capacity, capability).
    Attribute,
    /// Pure additions: new nodes and/or edges. Everything a schedule could
    /// reference still exists unchanged.
    Additive,
    /// Removals restricted to hardware no live schedule uses, including
    /// switch collapses that patch affected routes in place.
    RemoveUnused,
    /// Arbitrary structural change: prior schedules may reference hardware
    /// that is gone.
    Structural,
}

impl ScheduleFootprint {
    /// Every footprint class, in severity order. Profile reports and tests
    /// iterate this for a stable class axis.
    pub const ALL: [ScheduleFootprint; 5] = [
        ScheduleFootprint::Pure,
        ScheduleFootprint::Attribute,
        ScheduleFootprint::Additive,
        ScheduleFootprint::RemoveUnused,
        ScheduleFootprint::Structural,
    ];

    /// Worst-of fold for proposals applying several mutations.
    #[must_use]
    pub fn merge(self, other: ScheduleFootprint) -> ScheduleFootprint {
        self.max(other)
    }

    /// Stable discriminant for store keys.
    pub fn code(self) -> u8 {
        match self {
            ScheduleFootprint::Pure => 0,
            ScheduleFootprint::Attribute => 1,
            ScheduleFootprint::Additive => 2,
            ScheduleFootprint::RemoveUnused => 3,
            ScheduleFootprint::Structural => 4,
        }
    }

    /// Stable label for trace events.
    pub fn name(self) -> &'static str {
        match self {
            ScheduleFootprint::Pure => "pure",
            ScheduleFootprint::Attribute => "attribute",
            ScheduleFootprint::Additive => "additive",
            ScheduleFootprint::RemoveUnused => "remove-unused",
            ScheduleFootprint::Structural => "structural",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::ScheduleFootprint::*;

    #[test]
    fn merge_takes_the_worst() {
        assert_eq!(Pure.merge(Additive), Additive);
        assert_eq!(Structural.merge(Attribute), Structural);
        assert_eq!(RemoveUnused.merge(Additive), RemoveUnused);
        assert_eq!(Pure.merge(Pure), Pure);
    }

    #[test]
    fn codes_are_distinct_and_ordered() {
        let all = super::ScheduleFootprint::ALL;
        assert_eq!(all, [Pure, Attribute, Additive, RemoveUnused, Structural]);
        for w in all.windows(2) {
            assert!(w[0] < w[1]);
            assert!(w[0].code() < w[1].code());
        }
    }
}

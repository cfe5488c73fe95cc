//! Fleet-level recovery scheduling: who gets healed when the maintenance
//! window cannot hold everyone.
//!
//! Chips are organized into fixed **maintenance groups** (racks, in
//! datacenter terms): group membership is `index / group_size`, a pure
//! function of the chip index, so the schedule is identical at any shard
//! size or thread count. Each epoch a [`MaintenanceBudget`] grants every
//! group a fixed number of recovery slots and a [`FleetPolicy`] decides
//! which chips fill them — the paper's "in-time scheduled recovery"
//! tradeoff lifted from one chip's cores to a fleet's chips.

use crate::chip::ChipState;

/// How many chips per maintenance group may enter BTI/EM active recovery
/// in one epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaintenanceBudget {
    /// Recovery slots per group per epoch (0 disables healing entirely).
    pub slots_per_group: u64,
}

impl Default for MaintenanceBudget {
    fn default() -> Self {
        Self { slots_per_group: 8 }
    }
}

/// Which chips inside a group get this epoch's recovery slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FleetPolicy {
    /// A fixed set: the first `slots` chips of the group hold the slots
    /// forever (dedicated hot spares). The naive baseline — everyone else
    /// ages without relief.
    Static,
    /// The most-degraded *surviving* chips (ranked by wear score,
    /// ties broken toward the lower index) get the slots — the
    /// sensor-driven policy a deployment manager would actually run.
    WorstFirst,
    /// The slot window rotates through the group by epoch, so every chip
    /// is healed at the same duty cycle regardless of its condition.
    RoundRobin,
}

impl FleetPolicy {
    /// Stable lowercase name used in metric keys and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            Self::Static => "static",
            Self::WorstFirst => "worst-first",
            Self::RoundRobin => "round-robin",
        }
    }

    /// Parses a CLI-style name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "static" => Some(Self::Static),
            "worst-first" => Some(Self::WorstFirst),
            "round-robin" => Some(Self::RoundRobin),
            _ => None,
        }
    }

    /// Stable wire discriminant (config fingerprinting).
    pub(crate) fn discriminant(self) -> u64 {
        match self {
            Self::Static => 0,
            Self::WorstFirst => 1,
            Self::RoundRobin => 2,
        }
    }

    /// Fills `selected` (one flag per group member) with this epoch's slot
    /// assignment for one group and returns how many **live** chips were
    /// granted a slot.
    ///
    /// Only group-local state is consulted (chip states, the epoch index),
    /// never anything shard- or thread-scoped, which is what keeps the
    /// schedule partition-invariant. Static and round-robin model dumb
    /// schedulers faithfully: a slot assigned to a failed chip is wasted,
    /// not reassigned. Worst-first is sensor-driven and only ranks
    /// survivors.
    pub(crate) fn select(
        self,
        epoch: u64,
        budget: MaintenanceBudget,
        chips: &[ChipState],
        selected: &mut [bool],
    ) -> u64 {
        debug_assert_eq!(chips.len(), selected.len());
        selected.fill(false);
        let n = chips.len();
        let slots = (budget.slots_per_group as usize).min(n);
        if slots == 0 {
            return 0;
        }
        let mut healed = 0;
        match self {
            Self::Static => {
                for i in 0..slots {
                    if chips[i].alive() {
                        selected[i] = true;
                        healed += 1;
                    }
                }
            }
            Self::RoundRobin => {
                let start = (epoch as usize * slots) % n;
                for j in 0..slots {
                    let i = (start + j) % n;
                    if chips[i].alive() {
                        selected[i] = true;
                        healed += 1;
                    }
                }
            }
            Self::WorstFirst => {
                let mut ranked: Vec<usize> = (0..n).filter(|&i| chips[i].alive()).collect();
                // rank_score, not score: a chip whose sensor was flagged
                // as bad ranks worst-of-all so it is healed every epoch
                // instead of silently starved.
                ranked.sort_by(|&a, &b| {
                    chips[b]
                        .rank_score()
                        .total_cmp(&chips[a].rank_score())
                        .then(a.cmp(&b))
                });
                for &i in ranked.iter().take(slots) {
                    selected[i] = true;
                    healed += 1;
                }
            }
        }
        healed
    }
}

/// `x`'s position in [`f64::total_cmp`]'s order as an integer (the key
/// `total_cmp` itself compares): `a.total_cmp(&b)` equals
/// `rank_key(a).cmp(&rank_key(b))`, so `-0.0` ranks below `+0.0` and
/// NaNs sort by sign and payload exactly as they do there.
#[inline]
fn rank_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

impl FleetPolicy {
    /// [`FleetPolicy::select`] over [`crate::store::ChipStore`] column
    /// slices: same slot assignment, same tie-breaks, but ranking reads
    /// the score/flagged columns directly and keeps its best-so-far list
    /// in the caller's `top` scratch, so the hot loop allocates nothing.
    /// `alive` is the group's `failed_epoch` column
    /// ([`crate::store::ALIVE`] = still alive).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn select_columnar(
        self,
        epoch: u64,
        budget: MaintenanceBudget,
        alive: &[u32],
        score: &[f64],
        flagged: &[u8],
        selected: &mut [bool],
        top: &mut Vec<(i64, u32)>,
    ) -> u64 {
        debug_assert_eq!(alive.len(), selected.len());
        selected.fill(false);
        let n = alive.len();
        let is_alive = |i: usize| alive[i] == crate::store::ALIVE;
        let slots = (budget.slots_per_group as usize).min(n);
        if slots == 0 {
            return 0;
        }
        let mut healed = 0;
        match self {
            Self::Static => {
                for (i, slot) in selected.iter_mut().enumerate().take(slots) {
                    if alive[i] == crate::store::ALIVE {
                        *slot = true;
                        healed += 1;
                    }
                }
            }
            Self::RoundRobin => {
                let start = (epoch as usize * slots) % n;
                for j in 0..slots {
                    let i = (start + j) % n;
                    if is_alive(i) {
                        selected[i] = true;
                        healed += 1;
                    }
                }
            }
            Self::WorstFirst => {
                // One pass in index order keeps the best `slots` live
                // chips seen so far, sorted by rank descending. A chip
                // joins after every equal rank already listed, and
                // displaces the last entry only on a strictly greater
                // rank: both give the lower index the tie, which makes
                // the list the first `slots` of `select`'s sort.
                top.clear();
                top.reserve(slots);
                for i in 0..n {
                    if !is_alive(i) {
                        continue;
                    }
                    // rank_score semantics: a flagged sensor ranks
                    // worst-of-all so the chip is healed every epoch,
                    // never silently starved.
                    let key = if flagged[i] != 0 {
                        rank_key(f64::INFINITY)
                    } else {
                        rank_key(score[i])
                    };
                    if top.len() == slots {
                        if key <= top[slots - 1].0 {
                            continue;
                        }
                        top.pop();
                    }
                    let at = top.partition_point(|&(k, _)| k >= key);
                    top.insert(at, (key, i as u32));
                }
                for &(_, i) in top.iter() {
                    selected[i as usize] = true;
                }
                healed = top.len() as u64;
            }
        }
        healed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::{ChipContext, ChipSpec, ChipState, VariationModel};
    use dh_circuit::RingOscillator;
    use dh_em::black::BlackModel;
    use dh_units::{CurrentDensity, Kelvin, Seconds, Volts};
    use proptest::prelude::*;

    fn context() -> ChipContext {
        let ro = RingOscillator::paper_75_stage();
        let fresh_hz = ro.frequency(0.0).value();
        ChipContext {
            ro,
            fresh_hz,
            black: BlackModel::calibrated_to_paper(),
            epoch: Seconds::from_hours(168.0),
            heal_time: Seconds::from_hours(25.2),
            vdd: Volts::new(0.9),
            recovery_bias: Volts::new(-0.3),
            j_local: CurrentDensity::from_ma_per_cm2(2.5),
            em_wear_heal: 0.8 - 0.9 * 0.2,
            em_pinned_floor: 0.05,
            fail_guardband: 0.1,
        }
    }

    fn group(n: u64) -> Vec<ChipState> {
        let ctx = context();
        (0..n)
            .map(|i| {
                ChipState::new(
                    ChipSpec::draw(9, i, Kelvin::new(333.15), &VariationModel::default()),
                    &ctx,
                )
            })
            .collect()
    }

    #[test]
    fn static_policy_always_picks_the_same_slots() {
        let chips = group(8);
        let budget = MaintenanceBudget { slots_per_group: 3 };
        let mut a = vec![false; 8];
        let mut b = vec![false; 8];
        assert_eq!(FleetPolicy::Static.select(0, budget, &chips, &mut a), 3);
        assert_eq!(FleetPolicy::Static.select(57, budget, &chips, &mut b), 3);
        assert_eq!(a, b);
        assert_eq!(&a[..3], &[true, true, true]);
    }

    #[test]
    fn round_robin_covers_every_chip_at_equal_duty() {
        let chips = group(8);
        let budget = MaintenanceBudget { slots_per_group: 2 };
        let mut counts = [0u32; 8];
        let mut sel = vec![false; 8];
        for epoch in 0..8 {
            FleetPolicy::RoundRobin.select(epoch, budget, &chips, &mut sel);
            for (c, &s) in counts.iter_mut().zip(&sel) {
                *c += u32::from(s);
            }
        }
        assert_eq!(counts, [2; 8], "two full rotations in 8 epochs");
    }

    #[test]
    fn worst_first_ranks_by_score_with_index_tiebreak() {
        let mut chips = group(6);
        chips[4].score = 0.9;
        chips[1].score = 0.5;
        chips[2].score = 0.5;
        let budget = MaintenanceBudget { slots_per_group: 3 };
        let mut sel = vec![false; 6];
        assert_eq!(
            FleetPolicy::WorstFirst.select(0, budget, &chips, &mut sel),
            3
        );
        assert_eq!(sel, [false, true, true, false, true, false]);
    }

    #[test]
    fn dead_chips_waste_static_slots_but_not_worst_first_slots() {
        let mut chips = group(6);
        chips[0].failed_at = Some(Seconds::new(1.0));
        let budget = MaintenanceBudget { slots_per_group: 2 };
        let mut sel = vec![false; 6];
        assert_eq!(FleetPolicy::Static.select(0, budget, &chips, &mut sel), 1);
        assert_eq!(
            FleetPolicy::WorstFirst.select(0, budget, &chips, &mut sel),
            2
        );
        assert!(!sel[0], "dead chip never granted a worst-first slot");
    }

    /// Scores the selection proptest draws from: duplicates, both zeros,
    /// both infinities and NaNs of both signs and two payloads, so every
    /// corner of `total_cmp`'s order and the index tie-break is reachable.
    const SCORE_POOL: [f64; 12] = [
        0.5,
        0.5,
        0.25,
        0.0,
        -0.0,
        1.0,
        -1.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
        f64::from_bits(0x7ff0_0000_0000_0001),
    ];

    proptest! {
        /// The columnar selection (one-pass top-`slots` for worst-first)
        /// grants exactly the slots [`FleetPolicy::select`] grants over
        /// `ChipState`s: same mask, same healed count, for every policy.
        #[test]
        fn select_columnar_matches_the_per_chip_select(
            n in 1usize..201,
            slots_draw in 0u64..1_000,
            chips_drawn in collection::vec((0..SCORE_POOL.len(), 0u8..100, 0u8..100), 200),
            epoch in 0u64..1_000,
        ) {
            // slots in 0..=n+2; a chip's sensor is flagged with p = 0.15
            // and the chip is dead with p = 0.2.
            let slots = slots_draw % (n as u64 + 3);
            let drawn: Vec<(usize, bool, bool)> = chips_drawn[..n]
                .iter()
                .map(|&(k, f, d)| (k, f < 15, d < 20))
                .collect();
            let template = group(1).pop().unwrap();
            let chips: Vec<ChipState> = drawn
                .iter()
                .map(|&(k, flagged, dead)| {
                    let mut chip = template.clone();
                    chip.score = SCORE_POOL[k];
                    chip.sensor_flagged = flagged;
                    chip.failed_at = dead.then(|| Seconds::new(1.0));
                    chip
                })
                .collect();
            let alive: Vec<u32> = drawn
                .iter()
                .map(|&(_, _, dead)| if dead { 0 } else { crate::store::ALIVE })
                .collect();
            let score: Vec<f64> = drawn.iter().map(|&(k, _, _)| SCORE_POOL[k]).collect();
            let flagged: Vec<u8> = drawn.iter().map(|&(_, f, _)| u8::from(f)).collect();
            let budget = MaintenanceBudget { slots_per_group: slots };
            let mut top = Vec::new();
            for policy in [FleetPolicy::WorstFirst, FleetPolicy::Static, FleetPolicy::RoundRobin] {
                let mut want = vec![false; n];
                let mut got = vec![true; n];
                let healed_want = policy.select(epoch, budget, &chips, &mut want);
                let healed_got = policy.select_columnar(
                    epoch, budget, &alive, &score, &flagged, &mut got, &mut top,
                );
                prop_assert!(healed_got == healed_want, "{policy:?}: healed {healed_got} vs {healed_want}");
                prop_assert!(got == want, "{policy:?}: mask {got:?} vs {want:?}");
            }
        }
    }

    #[test]
    fn names_round_trip() {
        for p in [
            FleetPolicy::Static,
            FleetPolicy::WorstFirst,
            FleetPolicy::RoundRobin,
        ] {
            assert_eq!(FleetPolicy::parse(p.name()), Some(p));
        }
        assert_eq!(FleetPolicy::parse("nope"), None);
    }
}

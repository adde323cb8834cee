//! Page-mapped flash translation layer state.
//!
//! The FTL is what a conventional engine (the LSM baseline) writes through.
//! It keeps a logical-page → physical-page map plus the reverse map the
//! device GC needs to relocate live pages. The mechanics of programming,
//! migration, and erasure live in [`crate::device`]; this module only owns
//! the mapping bookkeeping so its invariants are testable in isolation.

use crate::geometry::{Geometry, PageAddr};
use std::collections::HashMap;

/// Logical page address exposed by the FTL interface. One LPA covers one
/// page (`geometry.page_size` bytes).
pub type Lpa = u64;

/// Mapping state of the page-mapped FTL.
#[derive(Debug, Default, Clone)]
pub(crate) struct FtlMap {
    /// `lpa -> ppa` forward map; `None` means unmapped (never written or
    /// trimmed).
    map: Vec<Option<PageAddr>>,
    /// `flat(ppa) -> lpa` reverse map for GC migration.
    rmap: HashMap<u64, Lpa>,
}

impl FtlMap {
    pub fn new(logical_pages: u64) -> Self {
        FtlMap {
            map: vec![None; logical_pages as usize],
            rmap: HashMap::new(),
        }
    }

    pub fn logical_pages(&self) -> u64 {
        self.map.len() as u64
    }

    pub fn lookup(&self, lpa: Lpa) -> Option<PageAddr> {
        *self.map.get(lpa as usize)?
    }

    /// Points `lpa` at `new`, returning the physical page it previously
    /// occupied (which the caller must invalidate).
    pub fn remap(&mut self, geo: &Geometry, lpa: Lpa, new: PageAddr) -> Option<PageAddr> {
        let slot = &mut self.map[lpa as usize];
        let old = slot.take();
        if let Some(old) = old {
            self.rmap.remove(&geo.flat(old));
        }
        *slot = Some(new);
        self.rmap.insert(geo.flat(new), lpa);
        old
    }

    /// Clears the mapping for `lpa` (trim), returning the physical page it
    /// occupied, if any.
    pub fn unmap(&mut self, geo: &Geometry, lpa: Lpa) -> Option<PageAddr> {
        let old = self.map[lpa as usize].take();
        if let Some(old) = old {
            self.rmap.remove(&geo.flat(old));
        }
        old
    }

    /// The logical owner of a physical page, if it is live.
    pub fn owner_of(&self, geo: &Geometry, ppa: PageAddr) -> Option<Lpa> {
        self.rmap.get(&geo.flat(ppa)).copied()
    }

    /// Number of live mappings; equals the number of valid FTL pages.
    #[cfg(test)]
    pub fn live_mappings(&self) -> usize {
        self.rmap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geo() -> Geometry {
        Geometry::paper_default(256 * 1024 * 4)
    }

    fn pa(block: u32, page: u32) -> PageAddr {
        PageAddr { block, page }
    }

    #[test]
    fn remap_returns_previous_location() {
        let g = geo();
        let mut m = FtlMap::new(16);
        assert_eq!(m.remap(&g, 3, pa(0, 0)), None);
        assert_eq!(m.lookup(3), Some(pa(0, 0)));
        assert_eq!(m.remap(&g, 3, pa(1, 5)), Some(pa(0, 0)));
        assert_eq!(m.lookup(3), Some(pa(1, 5)));
        // The stale physical page no longer resolves to an owner.
        assert_eq!(m.owner_of(&g, pa(0, 0)), None);
        assert_eq!(m.owner_of(&g, pa(1, 5)), Some(3));
    }

    #[test]
    fn unmap_clears_both_directions() {
        let g = geo();
        let mut m = FtlMap::new(16);
        m.remap(&g, 7, pa(2, 2));
        assert_eq!(m.unmap(&g, 7), Some(pa(2, 2)));
        assert_eq!(m.lookup(7), None);
        assert_eq!(m.owner_of(&g, pa(2, 2)), None);
        assert_eq!(m.unmap(&g, 7), None);
        assert_eq!(m.live_mappings(), 0);
    }

    #[test]
    fn lookup_out_of_range_is_none() {
        let m = FtlMap::new(4);
        assert_eq!(m.lookup(99), None);
    }

    #[test]
    fn live_mappings_tracks_distinct_lpas() {
        let g = geo();
        let mut m = FtlMap::new(16);
        m.remap(&g, 0, pa(0, 0));
        m.remap(&g, 1, pa(0, 1));
        m.remap(&g, 0, pa(0, 2)); // overwrite, still 2 live
        assert_eq!(m.live_mappings(), 2);
    }
}

//! Slotted pages.
//!
//! The simulation tracks object *placement*, not payload bytes: a page
//! records which objects live on it and how many bytes each occupies.
//! Capacity accounting is exact, so page-overflow (and therefore the
//! paper's page-splitting machinery) behaves like a real slotted page.

use semcluster_vdm::ObjectId;
use std::fmt;

/// Identifier of a physical page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageId(pub u32);

impl PageId {
    /// Array index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Default page size used throughout the paper's experiments (Table 4.1).
pub const DEFAULT_PAGE_BYTES: u32 = 4096;

/// Bytes of page header + per-slot overhead budget reserved per page.
pub const PAGE_OVERHEAD_BYTES: u32 = 96;

/// Errors raised by page mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PageError {
    /// The object does not fit in the remaining free space.
    Full {
        /// Object that did not fit.
        object: ObjectId,
        /// Its size in bytes.
        size: u32,
        /// Free bytes available.
        free: u32,
    },
    /// The object is already resident on this page.
    AlreadyResident(ObjectId),
    /// The object is not resident on this page.
    NotResident(ObjectId),
    /// Object larger than an empty page can ever hold.
    Oversized(ObjectId, u32),
}

impl fmt::Display for PageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PageError::Full { object, size, free } => {
                write!(f, "page full: {object} needs {size} B, {free} B free")
            }
            PageError::AlreadyResident(o) => write!(f, "{o} already on page"),
            PageError::NotResident(o) => write!(f, "{o} not on page"),
            PageError::Oversized(o, s) => write!(f, "{o} ({s} B) exceeds page capacity"),
        }
    }
}

impl std::error::Error for PageError {}

/// A page: a capacity and the objects resident on it.
#[derive(Debug, Clone)]
pub struct Page {
    id: PageId,
    capacity: u32,
    used: u32,
    slots: Vec<(ObjectId, u32)>,
}

impl Page {
    /// Create an empty page. `page_bytes` is the raw device page size; the
    /// usable capacity subtracts [`PAGE_OVERHEAD_BYTES`].
    pub fn new(id: PageId, page_bytes: u32) -> Self {
        assert!(
            page_bytes > PAGE_OVERHEAD_BYTES,
            "page smaller than its own overhead"
        );
        Page {
            id,
            capacity: page_bytes - PAGE_OVERHEAD_BYTES,
            used: 0,
            slots: Vec::new(),
        }
    }

    /// This page's id.
    pub fn id(&self) -> PageId {
        self.id
    }

    /// Usable capacity in bytes.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Bytes currently used.
    pub fn used(&self) -> u32 {
        self.used
    }

    /// Bytes still free.
    pub fn free(&self) -> u32 {
        self.capacity - self.used
    }

    /// Number of resident objects.
    pub fn object_count(&self) -> usize {
        self.slots.len()
    }

    /// Whether `object` is resident.
    pub fn contains(&self, object: ObjectId) -> bool {
        self.slots.iter().any(|&(o, _)| o == object)
    }

    /// Whether an object of `size` bytes would fit.
    pub fn fits(&self, size: u32) -> bool {
        size <= self.free()
    }

    /// Insert an object.
    pub fn insert(&mut self, object: ObjectId, size: u32) -> Result<(), PageError> {
        if size > self.capacity {
            return Err(PageError::Oversized(object, size));
        }
        if self.contains(object) {
            return Err(PageError::AlreadyResident(object));
        }
        if !self.fits(size) {
            return Err(PageError::Full {
                object,
                size,
                free: self.free(),
            });
        }
        self.slots.push((object, size));
        self.used += size;
        Ok(())
    }

    /// Remove an object, returning its size.
    pub fn remove(&mut self, object: ObjectId) -> Result<u32, PageError> {
        let pos = self
            .slots
            .iter()
            .position(|&(o, _)| o == object)
            .ok_or(PageError::NotResident(object))?;
        let (_, size) = self.slots.swap_remove(pos);
        self.used -= size;
        Ok(size)
    }

    /// Change the recorded size of a resident object (object update).
    /// Fails without change if growth would overflow the page.
    pub fn resize(&mut self, object: ObjectId, new_size: u32) -> Result<(), PageError> {
        let pos = self
            .slots
            .iter()
            .position(|&(o, _)| o == object)
            .ok_or(PageError::NotResident(object))?;
        let old = self.slots[pos].1;
        let grow = new_size.saturating_sub(old);
        if grow > self.free() {
            return Err(PageError::Full {
                object,
                size: new_size,
                free: self.free() + old,
            });
        }
        self.slots[pos].1 = new_size;
        self.used = self.used - old + new_size;
        Ok(())
    }

    /// Resident objects as `(object, size)` pairs.
    pub fn objects(&self) -> &[(ObjectId, u32)] {
        &self.slots
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn o(i: u32) -> ObjectId {
        ObjectId(i)
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut p = Page::new(PageId(0), DEFAULT_PAGE_BYTES);
        p.insert(o(1), 100).unwrap();
        p.insert(o(2), 200).unwrap();
        assert_eq!(p.used(), 300);
        assert_eq!(p.object_count(), 2);
        assert!(p.contains(o(1)));
        assert_eq!(p.remove(o(1)).unwrap(), 100);
        assert_eq!(p.used(), 200);
        assert!(!p.contains(o(1)));
    }

    #[test]
    fn overflow_rejected_exactly() {
        let mut p = Page::new(PageId(0), DEFAULT_PAGE_BYTES);
        let cap = p.capacity();
        p.insert(o(1), cap - 10).unwrap();
        assert!(p.fits(10));
        assert!(!p.fits(11));
        assert!(matches!(
            p.insert(o(2), 11),
            Err(PageError::Full { free: 10, .. })
        ));
        p.insert(o(2), 10).unwrap();
        assert_eq!(p.free(), 0);
    }

    #[test]
    fn duplicate_and_missing_objects() {
        let mut p = Page::new(PageId(0), DEFAULT_PAGE_BYTES);
        p.insert(o(1), 50).unwrap();
        assert_eq!(p.insert(o(1), 50), Err(PageError::AlreadyResident(o(1))));
        assert_eq!(p.remove(o(9)), Err(PageError::NotResident(o(9))));
    }

    #[test]
    fn oversized_object_rejected() {
        let mut p = Page::new(PageId(0), DEFAULT_PAGE_BYTES);
        assert!(matches!(
            p.insert(o(1), DEFAULT_PAGE_BYTES),
            Err(PageError::Oversized(_, _))
        ));
    }

    #[test]
    fn resize_tracks_usage() {
        let mut p = Page::new(PageId(0), DEFAULT_PAGE_BYTES);
        p.insert(o(1), 100).unwrap();
        p.resize(o(1), 150).unwrap();
        assert_eq!(p.used(), 150);
        p.resize(o(1), 50).unwrap();
        assert_eq!(p.used(), 50);
        let cap = p.capacity();
        assert!(p.resize(o(1), cap + 1).is_err());
        assert_eq!(p.used(), 50, "failed resize must not change state");
    }
}

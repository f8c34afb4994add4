//! The storage manager: pages + object directory.
//!
//! Tracks where every object lives, supports directed placement (for the
//! clustering engine), sequential append (the `No_Clustering` baseline),
//! object movement (reclustering, page splits) and page allocation.

use crate::page::{Page, PageError, PageId};
use semcluster_vdm::ObjectId;
use std::fmt;

/// Errors raised by the storage manager.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// Propagated page-level error.
    Page(PageError),
    /// The page id is not allocated.
    UnknownPage(PageId),
    /// The object has no placement.
    NotPlaced(ObjectId),
    /// The object already has a placement.
    AlreadyPlaced(ObjectId, PageId),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Page(e) => write!(f, "page error: {e}"),
            StorageError::UnknownPage(p) => write!(f, "unknown page {p}"),
            StorageError::NotPlaced(o) => write!(f, "object {o} has no placement"),
            StorageError::AlreadyPlaced(o, p) => write!(f, "object {o} already on {p}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<PageError> for StorageError {
    fn from(e: PageError) -> Self {
        StorageError::Page(e)
    }
}

/// The directory's "not placed".
const NONE: u32 = u32::MAX;

/// Physical placement state for the whole database.
#[derive(Debug, Clone)]
pub struct StorageManager {
    page_bytes: u32,
    pages: Vec<Page>,
    /// Each object's page id, or [`NONE`]: 4 bytes an object.
    dir: Vec<u32>,
    append_cursor: Option<PageId>,
}

impl StorageManager {
    /// Empty store with the given raw page size.
    pub fn new(page_bytes: u32) -> Self {
        StorageManager {
            page_bytes,
            pages: Vec::new(),
            dir: Vec::new(),
            append_cursor: None,
        }
    }

    /// Raw page size in bytes.
    pub fn page_bytes(&self) -> u32 {
        self.page_bytes
    }

    /// Number of allocated pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Allocate a fresh empty page.
    pub fn allocate_page(&mut self) -> PageId {
        let id = PageId(self.pages.len() as u32);
        debug_assert_ne!(id.0, NONE, "page ids stop below the directory's sentinel");
        self.pages.push(Page::new(id, self.page_bytes));
        id
    }

    /// Immutable page access.
    pub fn page(&self, id: PageId) -> Result<&Page, StorageError> {
        self.pages
            .get(id.index())
            .ok_or(StorageError::UnknownPage(id))
    }

    /// Where an object lives, if placed.
    pub fn page_of(&self, object: ObjectId) -> Option<PageId> {
        match self.dir.get(object.index()) {
            Some(&page) if page != NONE => Some(PageId(page)),
            _ => None,
        }
    }

    /// The recorded size of a placed object.
    pub fn size_of(&self, object: ObjectId) -> Option<u32> {
        let page = self.page_of(object)?;
        self.pages[page.index()]
            .objects()
            .iter()
            .find(|&&(o, _)| o == object)
            .map(|&(_, size)| size)
    }

    /// Whether two objects share a page.
    pub fn co_resident(&self, a: ObjectId, b: ObjectId) -> bool {
        match (self.page_of(a), self.page_of(b)) {
            (Some(pa), Some(pb)) => pa == pb,
            _ => false,
        }
    }

    /// Place a new object on a specific page.
    pub fn place(&mut self, object: ObjectId, size: u32, page: PageId) -> Result<(), StorageError> {
        if let Some(existing) = self.page_of(object) {
            return Err(StorageError::AlreadyPlaced(object, existing));
        }
        let p = self
            .pages
            .get_mut(page.index())
            .ok_or(StorageError::UnknownPage(page))?;
        p.insert(object, size)?;
        self.set_dir(object, Some(page));
        Ok(())
    }

    /// Place a new object at the sequential append cursor — the
    /// no-clustering baseline. Allocates a new page when the current one
    /// cannot hold the object.
    pub fn append(&mut self, object: ObjectId, size: u32) -> Result<PageId, StorageError> {
        self.append_reserving(object, size, 0)
    }

    /// Like [`StorageManager::append`] but opens a fresh page once the
    /// cursor page would be left with less than `reserve` free bytes — a
    /// clustering store keeps slack so related objects created later can
    /// join their relatives' pages.
    pub fn append_reserving(
        &mut self,
        object: ObjectId,
        size: u32,
        reserve: u32,
    ) -> Result<PageId, StorageError> {
        if let Some(existing) = self.page_of(object) {
            return Err(StorageError::AlreadyPlaced(object, existing));
        }
        let target = match self.append_cursor {
            Some(pid)
                if self.pages[pid.index()].fits(size)
                    && self.pages[pid.index()].free() - size >= reserve =>
            {
                pid
            }
            _ => {
                let pid = self.allocate_page();
                self.append_cursor = Some(pid);
                pid
            }
        };
        self.pages[target.index()].insert(object, size)?;
        self.set_dir(object, Some(target));
        Ok(target)
    }

    /// Remove an object entirely, returning the page it was on.
    pub fn remove(&mut self, object: ObjectId) -> Result<PageId, StorageError> {
        let page = self
            .page_of(object)
            .ok_or(StorageError::NotPlaced(object))?;
        self.pages[page.index()].remove(object)?;
        self.set_dir(object, None);
        Ok(page)
    }

    /// Move a placed object to another page. Returns the source page.
    /// Fails without state change if the destination cannot hold it.
    pub fn move_object(&mut self, object: ObjectId, to: PageId) -> Result<PageId, StorageError> {
        let from = self
            .page_of(object)
            .ok_or(StorageError::NotPlaced(object))?;
        if to.index() >= self.pages.len() {
            return Err(StorageError::UnknownPage(to));
        }
        if from == to {
            return Ok(from);
        }
        let size = self.size_of(object).expect("directory and page agree");
        // Check destination first so failure leaves the source intact.
        self.pages[to.index()].insert(object, size)?;
        self.pages[from.index()]
            .remove(object)
            .expect("object was resident");
        self.set_dir(object, Some(to));
        Ok(from)
    }

    /// Change an object's recorded size in place. Fails with
    /// [`PageError::Full`] (wrapped) if its page cannot absorb the growth;
    /// the caller decides whether to move or split.
    pub fn resize(&mut self, object: ObjectId, new_size: u32) -> Result<(), StorageError> {
        let page = self
            .page_of(object)
            .ok_or(StorageError::NotPlaced(object))?;
        self.pages[page.index()].resize(object, new_size)?;
        Ok(())
    }

    /// Objects resident on a page, with sizes.
    pub fn objects_on(&self, page: PageId) -> Result<&[(ObjectId, u32)], StorageError> {
        Ok(self.page(page)?.objects())
    }

    /// Total bytes stored.
    pub fn used_bytes(&self) -> u64 {
        self.pages.iter().map(|p| p.used() as u64).sum()
    }

    fn set_dir(&mut self, object: ObjectId, page: Option<PageId>) {
        if object.index() >= self.dir.len() {
            self.dir.resize(object.index() + 1, NONE);
        }
        self.dir[object.index()] = page.map_or(NONE, |p| p.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::DEFAULT_PAGE_BYTES;

    fn o(i: u32) -> ObjectId {
        ObjectId(i)
    }

    fn store() -> StorageManager {
        StorageManager::new(DEFAULT_PAGE_BYTES)
    }

    #[test]
    fn append_fills_then_advances() {
        let mut s = store();
        let cap = DEFAULT_PAGE_BYTES - crate::page::PAGE_OVERHEAD_BYTES;
        let p0 = s.append(o(0), cap - 100).unwrap();
        let p1 = s.append(o(1), 50).unwrap();
        assert_eq!(p0, p1, "second object fits the same page");
        let p2 = s.append(o(2), 200).unwrap();
        assert_ne!(p0, p2, "overflow opens a new page");
        assert_eq!(s.page_count(), 2);
        assert!(s.co_resident(o(0), o(1)));
        assert!(!s.co_resident(o(0), o(2)));
    }

    #[test]
    fn directed_placement() {
        let mut s = store();
        let p = s.allocate_page();
        s.place(o(7), 100, p).unwrap();
        assert_eq!(s.page_of(o(7)), Some(p));
        assert_eq!(
            s.place(o(7), 100, p),
            Err(StorageError::AlreadyPlaced(o(7), p))
        );
        assert!(matches!(
            s.place(o(8), 1, PageId(99)),
            Err(StorageError::UnknownPage(_))
        ));
    }

    #[test]
    fn move_object_updates_directory() {
        let mut s = store();
        let p0 = s.allocate_page();
        let p1 = s.allocate_page();
        s.place(o(1), 300, p0).unwrap();
        let from = s.move_object(o(1), p1).unwrap();
        assert_eq!(from, p0);
        assert_eq!(s.page_of(o(1)), Some(p1));
        assert_eq!(s.page(p0).unwrap().object_count(), 0);
        // Move to the same page is a no-op.
        assert_eq!(s.move_object(o(1), p1).unwrap(), p1);
    }

    #[test]
    fn failed_move_leaves_source_intact() {
        let mut s = store();
        let p0 = s.allocate_page();
        let p1 = s.allocate_page();
        let cap = s.page(p1).unwrap().capacity();
        s.place(o(1), 500, p0).unwrap();
        s.place(o(2), cap, p1).unwrap(); // p1 completely full
        assert!(s.move_object(o(1), p1).is_err());
        assert_eq!(s.page_of(o(1)), Some(p0));
        assert!(s.page(p0).unwrap().contains(o(1)));
    }

    #[test]
    fn remove_clears_placement() {
        let mut s = store();
        s.append(o(3), 100).unwrap();
        let page = s.remove(o(3)).unwrap();
        assert_eq!(s.page_of(o(3)), None);
        assert_eq!(s.page(page).unwrap().used(), 0);
        assert_eq!(s.remove(o(3)), Err(StorageError::NotPlaced(o(3))));
    }

    #[test]
    fn size_of_follows_the_object() {
        let mut s = store();
        assert_eq!(s.size_of(o(1)), None, "never placed");
        let p0 = s.append(o(1), 100).unwrap();
        s.append(o(2), 250).unwrap();
        assert_eq!(s.size_of(o(1)), Some(100));
        assert_eq!(s.size_of(o(2)), Some(250));
        s.resize(o(1), 180).unwrap();
        assert_eq!(s.size_of(o(1)), Some(180));
        let p1 = s.allocate_page();
        assert_eq!(s.move_object(o(2), p1).unwrap(), p0);
        assert_eq!(s.size_of(o(2)), Some(250), "a move keeps the size");
        s.remove(o(2)).unwrap();
        assert_eq!(s.size_of(o(2)), None, "removed");
        assert_eq!(s.size_of(o(99)), None, "beyond the directory");
    }

    #[test]
    fn resize_propagates_page_errors() {
        let mut s = store();
        s.append(o(1), 100).unwrap();
        s.resize(o(1), 200).unwrap();
        assert_eq!(s.used_bytes(), 200);
        let huge = DEFAULT_PAGE_BYTES * 2;
        assert!(s.resize(o(1), huge).is_err());
    }

    #[test]
    fn fill_factor_accounting() {
        let mut s = store();
        s.append(o(1), 1000).unwrap();
        s.append(o(2), 1000).unwrap();
        assert_eq!(s.used_bytes(), 2000);
    }
}

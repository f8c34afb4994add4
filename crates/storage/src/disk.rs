//! The I/O subsystem's physical parameters.
//!
//! A parametric service-time model for one page transfer (average seek +
//! half-rotation + transfer) and the static page → disk mapping used by
//! the multi-disk server (Table 4.1: 10 disks).

use crate::page::PageId;

/// Disk service-time parameters. Defaults approximate a late-1980s SMD
/// drive (the hardware generation of the paper's environment).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskParams {
    /// Average seek time in microseconds.
    pub avg_seek_us: u64,
    /// Full rotation time in microseconds (half is charged as latency).
    pub rotation_us: u64,
    /// Transfer time for one page in microseconds.
    pub page_transfer_us: u64,
}

impl Default for DiskParams {
    fn default() -> Self {
        // ~16 ms seek + 8.3 ms half-rotation (3600 rpm) + ~3 ms / 4 KB
        // transfer ⇒ ~28 ms per random page I/O.
        DiskParams {
            avg_seek_us: 16_000,
            rotation_us: 16_600,
            page_transfer_us: 3_000,
        }
    }
}

impl DiskParams {
    /// Service time for one random page I/O, in microseconds.
    pub fn service_us(&self) -> u64 {
        self.avg_seek_us + self.rotation_us / 2 + self.page_transfer_us
    }
}

/// Static page → disk striping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskLayout {
    disks: u32,
}

impl DiskLayout {
    /// Layout across `disks` spindles.
    ///
    /// # Panics
    /// Panics if `disks == 0`.
    pub fn new(disks: u32) -> Self {
        assert!(disks > 0, "need at least one disk");
        DiskLayout { disks }
    }

    /// Number of spindles.
    pub fn disks(&self) -> u32 {
        self.disks
    }

    /// Which disk a page lives on (round-robin striping).
    pub fn disk_of(&self, page: PageId) -> u32 {
        page.0 % self.disks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_service_time_is_late_80s() {
        let p = DiskParams::default();
        let ms = p.service_us() as f64 / 1000.0;
        assert!((20.0..40.0).contains(&ms), "{ms} ms");
    }

    #[test]
    fn striping_is_balanced() {
        let layout = DiskLayout::new(10);
        let mut counts = [0u32; 10];
        for pid in 0..1000 {
            counts[layout.disk_of(PageId(pid)) as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c == 100), "{counts:?}");
    }

    #[test]
    #[should_panic(expected = "at least one disk")]
    fn zero_disks_panics() {
        DiskLayout::new(0);
    }
}

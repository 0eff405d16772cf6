//! The 32-bit Hemlock address-space layout (Figure 3 of the paper).
//!
//! ```text
//! 0x8000_0000 - 0xFFFF_FFFF   kernel (inaccessible to user code)
//! 0x7000_0000 - 0x7FFF_0000   stack (grows down)
//! 0x3000_0000 - 0x7000_0000   shared file system window (1 GB, public)
//! 0x1000_0000 - 0x3000_0000   data / bss / heap (private)
//! 0x0000_0000 - 0x1000_0000   program text + libraries (private)
//! ```
//!
//! "The public portion of the address space appears the same in every
//! process ... Addresses in the private portion of the address space are
//! overloaded; they mean different things to different processes." In the
//! 32-bit prototype "only one quarter of the address space is public".

/// Base of program text.
pub const TEXT_BASE: u32 = 0x0000_1000;
/// Exclusive top of the text region.
pub const TEXT_END: u32 = 0x1000_0000;
/// Base of the private data/heap region.
pub const DATA_BASE: u32 = 0x1000_0000;
/// Exclusive top of the private data/heap region.
pub const DATA_END: u32 = 0x3000_0000;
/// Base of the region `ldl` uses for dynamic *private* module instances
/// (upper part of the private data region).
pub const DYN_PRIVATE_BASE: u32 = 0x2000_0000;
/// Base of the shared file-system window.
pub const SHARED_BASE: u32 = hsfs::SHARED_BASE;
/// Exclusive top of the shared window.
pub const SHARED_END: u32 = hsfs::SHARED_END;
/// Base of the stack region.
pub const STACK_REGION_BASE: u32 = 0x7000_0000;
/// Top of the user stack (initial `$sp`).
pub const STACK_TOP: u32 = 0x7FFF_0000;
/// Start of kernel space.
pub const KERNEL_BASE: u32 = 0x8000_0000;
/// Default initial stack size in bytes.
pub const STACK_SIZE: u32 = 0x10_0000;

/// Default physical-frame budget (in pages): 256 MB, generous enough
/// that no existing workload ever sees an eviction. Lower it per world
/// with `FramePool::set_capacity` to simulate memory pressure.
pub const DEFAULT_FRAME_BUDGET: u64 = 65_536;
/// Default swap-area budget in pages (also 256 MB worth).
pub const DEFAULT_SWAP_PAGES: u32 = 65_536;
/// Pages per swap file (one full 1 MB segment slot).
pub const PAGES_PER_SWAP_FILE: u32 = hsfs::SLOT_SIZE / hsfs::PAGE_SIZE;

/// Which region of Figure 3 an address falls in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Region {
    /// Private text.
    Text,
    /// Private data/bss/heap.
    Data,
    /// The public shared-file-system window.
    Shared,
    /// The stack.
    Stack,
    /// Kernel space.
    Kernel,
    /// The unmapped guard page at address zero.
    NullGuard,
}

/// Classifies an address by region.
pub fn region_of(addr: u32) -> Region {
    match addr {
        a if a < TEXT_BASE => Region::NullGuard,
        a if a < TEXT_END => Region::Text,
        a if a < DATA_END => Region::Data,
        a if a < SHARED_END => Region::Shared,
        a if a < KERNEL_BASE => Region::Stack,
        _ => Region::Kernel,
    }
}

/// True for addresses in the public (globally consistent) portion.
pub fn is_public(addr: u32) -> bool {
    region_of(addr) == Region::Shared
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure3_boundaries() {
        assert_eq!(region_of(0x0000_0000), Region::NullGuard);
        assert_eq!(region_of(0x0000_1000), Region::Text);
        assert_eq!(region_of(0x0FFF_FFFF), Region::Text);
        assert_eq!(region_of(0x1000_0000), Region::Data);
        assert_eq!(region_of(0x2FFF_FFFF), Region::Data);
        assert_eq!(region_of(0x3000_0000), Region::Shared);
        assert_eq!(region_of(0x6FFF_FFFF), Region::Shared);
        assert_eq!(region_of(0x7000_0000), Region::Stack);
        assert_eq!(region_of(0x7FFE_FFFF), Region::Stack);
        assert_eq!(region_of(0x8000_0000), Region::Kernel);
    }

    #[test]
    fn public_is_exactly_the_shared_quarter() {
        assert!(is_public(0x3000_0000));
        assert!(is_public(0x6FFF_FFFF));
        assert!(!is_public(0x2FFF_FFFF));
        assert!(!is_public(0x7000_0000));
        // One quarter of the 4 GB space.
        assert_eq!(SHARED_END - SHARED_BASE, 1 << 30);
    }

    #[test]
    fn dyn_private_base_is_private() {
        assert_eq!(region_of(DYN_PRIVATE_BASE), Region::Data);
    }
}

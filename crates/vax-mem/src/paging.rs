//! VAX paging: 512-byte pages, P0/P1/S0 regions, page-table entries, and a
//! builder that lays out machine images.
//!
//! Faithful to the structure that matters for TB behaviour: the system
//! (S0) page table lives in *physical* memory at `SBR`, while per-process
//! P0/P1 page tables live in *system virtual* memory — so filling a TB
//! entry for a process page may first require a system TB fill for the
//! page table page itself (the "double miss" of the companion TB study).

use crate::PhysMem;

/// Page size in bytes (VAX: 512).
pub const PAGE_BYTES: u32 = 512;
/// log2 of the page size.
pub const PAGE_SHIFT: u32 = 9;

/// Base virtual address of the P1 region.
pub const P1_BASE: u32 = 0x4000_0000;
/// Base virtual address of the S0 (system) region.
pub const S0_BASE: u32 = 0x8000_0000;

/// A page-table entry. Bit 31 = valid; low 21 bits = page frame number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pte(u32);

impl Pte {
    /// An invalid (fault-on-reference) entry.
    pub const fn invalid() -> Pte {
        Pte(0)
    }

    /// A valid entry mapping `pfn`.
    pub const fn valid_frame(pfn: u32) -> Pte {
        Pte(0x8000_0000 | (pfn & 0x001F_FFFF))
    }

    /// From the raw longword stored in memory.
    pub const fn from_raw(raw: u32) -> Pte {
        Pte(raw)
    }

    /// Raw longword representation.
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Is the valid bit set?
    pub const fn is_valid(self) -> bool {
        self.0 & 0x8000_0000 != 0
    }

    /// Page frame number.
    pub const fn pfn(self) -> u32 {
        self.0 & 0x001F_FFFF
    }

    /// Physical address of the first byte of the mapped frame.
    pub const fn frame_pa(self) -> u32 {
        self.pfn() << PAGE_SHIFT
    }
}

/// The three VAX address regions used by VMS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// Program region (VA bits 31:30 = 00).
    P0,
    /// Control/stack region (VA bits 31:30 = 01).
    P1,
    /// System region (VA bits 31:30 = 10).
    S0,
}

impl Region {
    /// Region of a virtual address.
    #[inline]
    pub fn of_va(va: u32) -> Region {
        match va >> 30 {
            0 => Region::P0,
            1 => Region::P1,
            _ => Region::S0,
        }
    }

    /// Page number of `va` within its region.
    #[inline]
    pub fn vpn_offset(va: u32) -> u32 {
        (va & 0x3FFF_FFFF) >> PAGE_SHIFT
    }
}

/// Per-process address-space description: base (system VA) and length (in
/// pages) of the P0 and P1 page tables.
///
/// Simplification relative to the real VAX: P1 maps upward from
/// [`P1_BASE`] rather than downward from the region top; the stack is
/// placed at the top of the mapped P1 window. This preserves what matters
/// here — process-space translations whose PTEs live in system space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressSpace {
    /// System VA of the P0 page table.
    pub p0br: u32,
    /// Number of P0 pages mapped.
    pub p0lr: u32,
    /// System VA of the P1 page table.
    pub p1br: u32,
    /// Number of P1 pages mapped.
    pub p1lr: u32,
}

impl AddressSpace {
    /// An empty address space (kernel-only execution).
    pub const fn empty() -> AddressSpace {
        AddressSpace {
            p0br: S0_BASE,
            p0lr: 0,
            p1br: S0_BASE,
            p1lr: 0,
        }
    }

    /// Highest mapped P1 address plus one — the initial user stack pointer.
    pub fn stack_top(&self) -> u32 {
        P1_BASE + self.p1lr * PAGE_BYTES
    }
}

/// System page-table description: physical base and length in pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystemMap {
    /// Physical address of the S0 page table.
    pub sbr: u32,
    /// Number of S0 pages mapped.
    pub slr: u32,
}

/// Where the PTE for a virtual address lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PteLocation {
    /// PTE at a physical address (S0 translations).
    Physical(u32),
    /// PTE at a system virtual address (P0/P1 translations).
    SystemVirtual(u32),
}

/// Compute the PTE location for `va`, or `None` on a length violation.
pub fn pte_location(sys: &SystemMap, space: &AddressSpace, va: u32) -> Option<PteLocation> {
    let off = Region::vpn_offset(va);
    match Region::of_va(va) {
        Region::S0 => {
            if off >= sys.slr {
                return None;
            }
            Some(PteLocation::Physical(sys.sbr + off * 4))
        }
        Region::P0 => {
            if off >= space.p0lr {
                return None;
            }
            Some(PteLocation::SystemVirtual(space.p0br + off * 4))
        }
        Region::P1 => {
            if off >= space.p1lr {
                return None;
            }
            Some(PteLocation::SystemVirtual(space.p1br + off * 4))
        }
    }
}

/// Software page-table walk (no cache/TB effects): resolve `va` to a
/// physical address. Used when *loading* machine images, not during
/// simulation.
pub fn resolve_va(phys: &PhysMem, sys: &SystemMap, space: &AddressSpace, va: u32) -> Option<u32> {
    let loc = pte_location(sys, space, va)?;
    let pte_pa = match loc {
        PteLocation::Physical(pa) => pa,
        PteLocation::SystemVirtual(sva) => {
            // The page-table page itself is in S0; one more level.
            let sys_off = Region::vpn_offset(sva);
            if sys_off >= sys.slr {
                return None;
            }
            let outer = Pte::from_raw(phys.read_u32(sys.sbr + sys_off * 4));
            if !outer.is_valid() {
                return None;
            }
            outer.frame_pa() + (sva & (PAGE_BYTES - 1))
        }
    };
    let pte = Pte::from_raw(phys.read_u32(pte_pa));
    if !pte.is_valid() {
        return None;
    }
    Some(pte.frame_pa() + (va & (PAGE_BYTES - 1)))
}

/// Builds a machine image: allocates physical frames, maintains the system
/// page table, and creates process address spaces whose page tables live
/// in system space.
#[derive(Debug)]
pub struct MapBuilder {
    sbr: u32,
    spt_capacity: u32,
    slr: u32,
    next_frame: u32,
    max_frames: u32,
    next_sys_page: u32,
}

impl MapBuilder {
    /// Start building. The system page table is placed at physical address
    /// 0 with room for `spt_capacity` entries; frames are allocated
    /// immediately after it.
    ///
    /// # Panics
    ///
    /// Panics if the capacity exceeds physical memory.
    pub fn new(phys: &PhysMem, spt_capacity: u32) -> MapBuilder {
        let spt_bytes = spt_capacity * 4;
        let first_frame = spt_bytes.div_ceil(PAGE_BYTES);
        let max_frames = phys.size() / PAGE_BYTES;
        assert!(first_frame < max_frames, "system page table too large");
        MapBuilder {
            sbr: 0,
            spt_capacity,
            slr: 0,
            next_frame: first_frame,
            max_frames,
            next_sys_page: 0,
        }
    }

    /// Allocate `n` physical frames; returns the first PFN.
    ///
    /// # Panics
    ///
    /// Panics if physical memory is exhausted.
    pub fn alloc_frames(&mut self, n: u32) -> u32 {
        assert!(
            self.next_frame + n <= self.max_frames,
            "out of physical memory ({} frames)",
            self.max_frames
        );
        let first = self.next_frame;
        self.next_frame += n;
        first
    }

    /// Map `n` fresh pages into system space; returns the base system VA.
    ///
    /// # Panics
    ///
    /// Panics if the system page table fills up or memory is exhausted.
    pub fn map_system(&mut self, phys: &mut PhysMem, n: u32) -> u32 {
        assert!(
            self.next_sys_page + n <= self.spt_capacity,
            "system page table full"
        );
        let base_va = S0_BASE + self.next_sys_page * PAGE_BYTES;
        for i in 0..n {
            let pfn = self.alloc_frames(1);
            let idx = self.next_sys_page + i;
            phys.write_u32(self.sbr + idx * 4, Pte::valid_frame(pfn).raw());
        }
        self.next_sys_page += n;
        self.slr = self.slr.max(self.next_sys_page);
        base_va
    }

    /// Create a process address space with `p0_pages` of program region
    /// and `p1_pages` of stack region, all resident.
    ///
    /// The process page tables are themselves mapped into system space.
    pub fn create_process(
        &mut self,
        phys: &mut PhysMem,
        p0_pages: u32,
        p1_pages: u32,
    ) -> AddressSpace {
        let p0_table_pages = (p0_pages * 4).div_ceil(PAGE_BYTES).max(1);
        let p1_table_pages = (p1_pages * 4).div_ceil(PAGE_BYTES).max(1);
        let p0br = self.map_system(phys, p0_table_pages);
        let p1br = self.map_system(phys, p1_table_pages);
        let sys = self.system_map();
        let space = AddressSpace {
            p0br,
            p0lr: p0_pages,
            p1br,
            p1lr: p1_pages,
        };
        for i in 0..p0_pages {
            let pfn = self.alloc_frames(1);
            let pte_va = p0br + i * 4;
            let pa = resolve_va(phys, &sys, &AddressSpace::empty(), pte_va)
                .expect("page table page just mapped");
            phys.write_u32(pa, Pte::valid_frame(pfn).raw());
        }
        for i in 0..p1_pages {
            let pfn = self.alloc_frames(1);
            let pte_va = p1br + i * 4;
            let pa = resolve_va(phys, &sys, &AddressSpace::empty(), pte_va)
                .expect("page table page just mapped");
            phys.write_u32(pa, Pte::valid_frame(pfn).raw());
        }
        space
    }

    /// The system map as built so far.
    pub fn system_map(&self) -> SystemMap {
        SystemMap {
            sbr: self.sbr,
            slr: self.slr,
        }
    }
}

/// Copy `data` into virtual memory at `va` via software walk: one walk
/// and one slice copy per page.
///
/// # Panics
///
/// Panics if any page in the range is unmapped.
pub fn load_virtual(
    phys: &mut PhysMem,
    sys: &SystemMap,
    space: &AddressSpace,
    va: u32,
    data: &[u8],
) {
    let mut rest = data;
    let mut va = va;
    while !rest.is_empty() {
        let pa = resolve_va(phys, sys, space, va)
            .unwrap_or_else(|| panic!("load_virtual: {va:#010x} unmapped"));
        let run = rest
            .len()
            .min((PAGE_BYTES - (va & (PAGE_BYTES - 1))) as usize);
        let (page, tail) = rest.split_at(run);
        phys.load(pa, page);
        rest = tail;
        va = va.wrapping_add(run as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pte_bit_layout() {
        let p = Pte::valid_frame(0x1234);
        assert!(p.is_valid());
        assert_eq!(p.pfn(), 0x1234);
        assert_eq!(p.frame_pa(), 0x1234 << 9);
        assert!(!Pte::invalid().is_valid());
    }

    #[test]
    fn region_classification() {
        assert_eq!(Region::of_va(0x0000_1000), Region::P0);
        assert_eq!(Region::of_va(0x4000_1000), Region::P1);
        assert_eq!(Region::of_va(0x8000_1000), Region::S0);
        assert_eq!(Region::of_va(0xC000_1000), Region::S0);
    }

    #[test]
    fn system_mapping_resolves() {
        let mut phys = PhysMem::new(1 << 20);
        let mut mb = MapBuilder::new(&phys, 1024);
        let va = mb.map_system(&mut phys, 4);
        let sys = mb.system_map();
        let space = AddressSpace::empty();
        let pa0 = resolve_va(&phys, &sys, &space, va).unwrap();
        let pa1 = resolve_va(&phys, &sys, &space, va + PAGE_BYTES).unwrap();
        assert_ne!(pa0, pa1);
        assert!(resolve_va(&phys, &sys, &space, va + 4 * PAGE_BYTES).is_none());
    }

    #[test]
    fn process_space_resolves_and_isolates() {
        let mut phys = PhysMem::new(1 << 22);
        let mut mb = MapBuilder::new(&phys, 2048);
        let a = mb.create_process(&mut phys, 8, 2);
        let b = mb.create_process(&mut phys, 8, 2);
        let sys = mb.system_map();
        let pa_a = resolve_va(&phys, &sys, &a, 0x100).unwrap();
        let pa_b = resolve_va(&phys, &sys, &b, 0x100).unwrap();
        assert_ne!(pa_a, pa_b, "processes get distinct frames");
        // Stack top is page-aligned above P1 base.
        assert_eq!(a.stack_top(), P1_BASE + 2 * PAGE_BYTES);
        // P1 resolves.
        assert!(resolve_va(&phys, &sys, &a, P1_BASE).is_some());
        // Beyond length violates.
        assert!(resolve_va(&phys, &sys, &a, 8 * PAGE_BYTES).is_none());
    }

    #[test]
    fn load_virtual_round_trips() {
        let mut phys = PhysMem::new(1 << 22);
        let mut mb = MapBuilder::new(&phys, 2048);
        let space = mb.create_process(&mut phys, 4, 1);
        let sys = mb.system_map();
        let data: Vec<u8> = (0..=255).collect();
        // Straddles a page boundary on purpose.
        load_virtual(&mut phys, &sys, &space, 400, &data);
        for (i, &b) in data.iter().enumerate() {
            let pa = resolve_va(&phys, &sys, &space, 400 + i as u32).unwrap();
            assert_eq!(phys.read_u8(pa), b);
        }
    }

    #[test]
    fn pte_location_kinds() {
        let mut phys = PhysMem::new(1 << 22);
        let mut mb = MapBuilder::new(&phys, 2048);
        let space = mb.create_process(&mut phys, 4, 1);
        let sys = mb.system_map();
        assert!(matches!(
            pte_location(&sys, &space, 0x200),
            Some(PteLocation::SystemVirtual(_))
        ));
        assert!(matches!(
            pte_location(&sys, &space, S0_BASE),
            Some(PteLocation::Physical(_))
        ));
        assert_eq!(pte_location(&sys, &space, 4 * PAGE_BYTES), None);
    }
}

//! Property tests for the memory subsystem: cache/TB invariants, paging
//! round trips, and timing monotonicity.

use proptest::prelude::*;
use vax_mem::{
    load_virtual, resolve_va, Cache, CacheConfig, MapBuilder, MemConfig, MemorySubsystem, PhysMem,
    Stream, Tb, TbConfig, Width, PAGE_BYTES,
};

fn small_machine() -> MemorySubsystem {
    let mut mem = MemorySubsystem::new(MemConfig::default());
    let mut mb = MapBuilder::new(mem.phys(), 4096);
    mb.map_system(mem.phys_mut(), 32);
    let space = mb.create_process(mem.phys_mut(), 128, 8);
    let sys = mb.system_map();
    mem.set_system_map(sys);
    mem.switch_address_space(space);
    mem
}

/// One access to physical memory, at a width of 1, 2, 4 or 8 bytes.
#[derive(Debug, Clone)]
enum PhysOp {
    Write { width: u32, pa: u32, value: u64 },
    Load { pa: u32, data: Vec<u8> },
    Read { width: u32, pa: u32 },
}

/// Addresses that stress a memory of `size` bytes: anywhere, just below
/// the top (multi-byte accesses there wrap to 0), and around each power
/// of two (where the written prefix grows).
fn phys_address(size: u32) -> BoxedStrategy<u32> {
    let mask = size - 1;
    prop_oneof![
        0..size,
        (size - 16)..size,
        (0..size.trailing_zeros() + 1, 0u32..32)
            .prop_map(move |(bit, k)| (1u32 << bit).wrapping_sub(16).wrapping_add(k) & mask),
    ]
    .boxed()
}

fn phys_op(size: u32) -> BoxedStrategy<PhysOp> {
    let width = || prop::sample::select(vec![1u32, 2, 4, 8]);
    prop_oneof![
        (width(), phys_address(size), any::<u64>()).prop_map(|(width, pa, value)| PhysOp::Write {
            width,
            pa,
            value
        }),
        (
            phys_address(size),
            prop::collection::vec(any::<u8>(), 0..1_500)
        )
            .prop_map(|(pa, data)| PhysOp::Load { pa, data }),
        (width(), phys_address(size)).prop_map(|(width, pa)| PhysOp::Read { width, pa }),
    ]
    .boxed()
}

/// A memory size (4 KiB to 1 MiB, so under and over the 64 KiB
/// smallest prefix) with an access sequence for it.
fn phys_program() -> impl Strategy<Value = (u32, Vec<PhysOp>)> {
    prop::sample::select(vec![12u32, 13, 16, 17, 20]).prop_flat_map(|log| {
        let size = 1u32 << log;
        (Just(size), prop::collection::vec(phys_op(size), 1..60))
    })
}

/// Read `width` bytes at `pa` from the memory under test.
fn phys_read(mem: &PhysMem, width: u32, pa: u32) -> u64 {
    match width {
        1 => u64::from(mem.read_u8(pa)),
        2 => u64::from(mem.read_u16(pa)),
        4 => u64::from(mem.read_u32(pa)),
        _ => mem.read_u64(pa),
    }
}

/// Read `width` little-endian bytes at `pa` from the dense reference.
fn dense_read(dense: &[u8], width: u32, pa: u32) -> u64 {
    let mask = dense.len() - 1;
    (0..width as usize).fold(0, |v, k| {
        v | u64::from(dense[(pa as usize + k) & mask]) << (8 * k)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A second probe of any just-filled cache block hits.
    #[test]
    fn cache_fill_then_probe_hits(pa in 0u32..(1 << 22)) {
        let mut cache = Cache::new(CacheConfig::default());
        cache.fill(pa);
        prop_assert!(cache.probe(pa));
        // And the whole 8-byte block is present.
        prop_assert!(cache.probe(pa & !7));
        prop_assert!(cache.probe((pa & !7) + 7));
    }

    /// The number of valid lines never exceeds the capacity, no matter
    /// the fill sequence.
    #[test]
    fn cache_capacity_is_bounded(pas in prop::collection::vec(0u32..(1 << 22), 1..600)) {
        let config = CacheConfig {
            size_bytes: 1024,
            ways: 2,
            block_bytes: 8,
        };
        let mut cache = Cache::new(config);
        for pa in pas {
            cache.fill(pa);
        }
        prop_assert!(cache.valid_lines() <= (config.size_bytes / config.block_bytes) as usize);
    }

    /// TB insert-then-lookup returns the inserted translation; lookups
    /// never invent entries.
    #[test]
    fn tb_insert_lookup(vas in prop::collection::vec(0u32..0x4000_0000, 1..100)) {
        let mut tb = Tb::new(TbConfig::default());
        for (i, &va) in vas.iter().enumerate() {
            tb.insert(va, vax_mem::Pte::valid_frame(i as u32 + 1));
            let got = tb.lookup(va);
            prop_assert!(got.is_some());
            prop_assert_eq!(got.unwrap().pfn(), i as u32 + 1);
        }
        prop_assert!(tb.valid_entries() <= 128);
    }

    /// Virtual loads round-trip through the page tables byte-exactly,
    /// including loads of several pages from a start inside a page, and
    /// touch nothing on either side of the range.
    #[test]
    fn load_virtual_round_trips(
        offset in 0u32..30_000,
        data in prop::collection::vec(any::<u8>(), 1..2_600),
    ) {
        let mut mem = MemorySubsystem::new(MemConfig::default());
        let mut mb = MapBuilder::new(mem.phys(), 4096);
        mb.map_system(mem.phys_mut(), 8);
        let space = mb.create_process(mem.phys_mut(), 128, 4);
        let sys = mb.system_map();
        mem.set_system_map(sys);
        mem.switch_address_space(space);
        let va = PAGE_BYTES + offset; // page 0 reserved
        load_virtual(mem.phys_mut(), &sys, &space, va, &data);
        for (i, &b) in data.iter().enumerate() {
            let pa = resolve_va(mem.phys(), &sys, &space, va + i as u32).unwrap();
            prop_assert_eq!(mem.phys().read_u8(pa), b);
        }
        for outside in [va - 1, va + data.len() as u32] {
            let pa = resolve_va(mem.phys(), &sys, &space, outside).unwrap();
            prop_assert_eq!(mem.phys().read_u8(pa), 0);
        }
    }

    /// Physical memory that holds only its written prefix reads back
    /// exactly what a dense zero-filled array does, at every width,
    /// across the prefix's end and through the wrap at the top; its size
    /// stays the configured one.
    #[test]
    fn grow_on_write_matches_dense_memory((size, ops) in phys_program()) {
        let mut mem = PhysMem::new(size);
        let mut dense = vec![0u8; size as usize];
        let mask = size - 1;
        let mut touched = Vec::new();
        for op in &ops {
            match op {
                PhysOp::Write { width, pa, value } => {
                    match width {
                        1 => mem.write_u8(*pa, *value as u8),
                        2 => mem.write_u16(*pa, *value as u16),
                        4 => mem.write_u32(*pa, *value as u32),
                        _ => mem.write_u64(*pa, *value),
                    }
                    for k in 0..*width {
                        dense[(pa.wrapping_add(k) & mask) as usize] = (value >> (8 * k)) as u8;
                    }
                    touched.push((*pa, *width));
                }
                PhysOp::Load { pa, data } => {
                    mem.load(*pa, data);
                    for (k, &b) in data.iter().enumerate() {
                        dense[(pa.wrapping_add(k as u32) & mask) as usize] = b;
                    }
                    touched.push((*pa, data.len() as u32));
                }
                PhysOp::Read { width, pa } => {
                    prop_assert_eq!(
                        phys_read(&mem, *width, *pa),
                        dense_read(&dense, *width, *pa),
                        "{}-byte read at {:#x}", width, pa
                    );
                }
            }
        }
        prop_assert_eq!(mem.size(), size);
        // Every byte written, and a margin on each side (never written,
        // so zero unless another access wrote it).
        for &(pa, len) in &touched {
            for k in 0..len + 32 {
                let a = pa.wrapping_add(k).wrapping_sub(16) & mask;
                prop_assert_eq!(mem.read_u8(a), dense[a as usize], "byte at {:#x}", a);
            }
        }
    }

    /// Writes become visible to subsequent reads at every width, and the
    /// second read of the same location never stalls longer than the
    /// first (the block is cached).
    #[test]
    fn write_read_coherence(
        page in 1u32..100,
        off in 0u32..(PAGE_BYTES / 8),
        value: u32,
    ) {
        let mut mem = small_machine();
        let va = page * PAGE_BYTES + off * 8; // longword-aligned, in P0
        mem.tb_fill(va, 0).unwrap();
        let pa = mem.translate(va, Stream::Data).unwrap();
        mem.write(pa, Width::Long, value, 100);
        let r1 = mem.read(pa, Width::Long, 200);
        prop_assert_eq!(r1.value, value);
        let r2 = mem.read(pa, Width::Long, 300);
        prop_assert_eq!(r2.value, value);
        prop_assert!(r2.stall <= r1.stall);
        prop_assert!(!r2.miss);
    }

    /// Sub-longword reads extract exactly the bytes a longword read sees.
    #[test]
    fn subword_extraction(page in 1u32..100, value: u32, byte in 0u32..4) {
        let mut mem = small_machine();
        let va = page * PAGE_BYTES;
        mem.tb_fill(va, 0).unwrap();
        let pa = mem.translate(va, Stream::Data).unwrap();
        mem.write(pa, Width::Long, value, 0);
        let b = mem.read(pa + byte, Width::Byte, 100);
        prop_assert_eq!(b.value, (value >> (8 * byte)) & 0xFF);
        if byte < 3 {
            let w = mem.read(pa + byte, Width::Word, 200);
            prop_assert_eq!(w.value, (value >> (8 * byte)) & 0xFFFF);
        }
    }

    /// Back-to-back writes stall by exactly the remaining drain time.
    #[test]
    fn write_stall_formula(gap in 0u64..12) {
        let mut mem = small_machine();
        mem.tb_fill(0x1000, 0).unwrap();
        let pa = mem.translate(0x1000, Stream::Data).unwrap();
        // Quiesce the page-walk SBI traffic.
        let w1 = mem.write(pa, Width::Long, 1, 1000);
        prop_assert_eq!(w1.stall, 0);
        let w2 = mem.write(pa + 4, Width::Long, 2, 1000 + gap);
        let expected = 6u64.saturating_sub(gap);
        prop_assert_eq!(u64::from(w2.stall), expected);
    }
}

#[test]
fn tb_fill_is_idempotent_for_timing() {
    let mut mem = small_machine();
    mem.tb_fill(0x2000, 0).unwrap();
    let pa1 = mem.translate(0x2000, Stream::Data).unwrap();
    mem.tb_fill(0x2000, 100).unwrap();
    let pa2 = mem.translate(0x2000, Stream::Data).unwrap();
    assert_eq!(pa1, pa2);
}

#[test]
fn dma_injection_delays_misses() {
    let mut a = small_machine();
    let mut b = small_machine();
    a.tb_fill(0x3000, 0).unwrap();
    b.tb_fill(0x3000, 0).unwrap();
    let pa = a.translate(0x3000, Stream::Data).unwrap();
    let _ = b.translate(0x3000, Stream::Data).unwrap();
    // Same read, but machine B has a DMA transfer in flight.
    b.inject_dma(99, 20);
    let ra = a.read(pa, Width::Long, 100);
    let rb = b.read(pa, Width::Long, 100);
    assert!(ra.miss && rb.miss);
    assert!(rb.stall > ra.stall, "{} vs {}", rb.stall, ra.stall);
}

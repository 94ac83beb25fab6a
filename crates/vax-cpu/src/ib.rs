//! The 8-byte instruction buffer and its prefetcher.
//!
//! "The 8-byte IB makes a cache reference whenever one or more bytes are
//! empty. When the requested longword arrives — possibly much later, if
//! there was a cache miss — the IB accepts as many bytes as it has room
//! for then. Thus the IB can make repeated references (as many as four) to
//! the same longword" (paper §4.1). This module reproduces exactly that
//! behaviour, which is what yields the ≈2.2 IB references and ≈1.7 bytes
//! per reference of the paper.

use vax_mem::{MemorySubsystem, Stream};

/// Maximum IB capacity in bytes.
const IB_BYTES: usize = 8;

#[derive(Debug, Clone, Copy)]
struct PendingFill {
    data: u32,
    ready_at: u64,
    /// VA of the first byte the IB wants out of this longword.
    va: u32,
}

/// The instruction buffer.
#[derive(Debug, Clone)]
pub struct InstructionBuffer {
    /// FIFO of fetched bytes, packed little-endian: the next byte to
    /// consume is the low byte, byte `i` of the queue is bits
    /// `8i..8i+8`. One shift consumes (or accepts) any number of bytes.
    buf: u64,
    len: usize,
    /// VA of the next byte to *fetch* (not the next to consume).
    fetch_va: u32,
    pending: Option<PendingFill>,
    /// An I-stream translation missed; the EBOX services it when it
    /// starves (paper §2.1: the flag is recognised when the decode finds
    /// insufficient bytes).
    tb_miss_va: Option<u32>,
    /// Host-side translation shortcut: the last page the prefetcher
    /// translated and its frame base, valid while the TB generation is
    /// unchanged (any TB mutation could have evicted the entry). A
    /// shortcut hit counts as a TB hit — it *is* one: with the
    /// generation unchanged the real lookup would find the same entry.
    tpage: u32,
    tframe: u32,
    tgen: u64,
    /// Use the host-side shortcuts ([`CpuConfig::fast_paths`]): the
    /// cheap tick gate and the same-page translation shortcut. `false`
    /// runs the straight-line reference body every cycle.
    ///
    /// [`CpuConfig::fast_paths`]: crate::CpuConfig::fast_paths
    shortcuts: bool,
}

impl InstructionBuffer {
    /// An empty IB that will fetch from `pc`.
    pub fn new(pc: u32, shortcuts: bool) -> InstructionBuffer {
        InstructionBuffer {
            buf: 0,
            len: 0,
            fetch_va: pc,
            pending: None,
            tb_miss_va: None,
            tpage: 0,
            tframe: 0,
            tgen: 0,
            shortcuts,
        }
    }

    /// Bytes currently available for decode (diagnostics and tests).
    #[allow(dead_code)]
    #[inline]
    pub fn available(&self) -> usize {
        self.len
    }

    /// The pending I-stream TB miss, if any.
    #[inline]
    pub fn tb_miss(&self) -> Option<u32> {
        self.tb_miss_va
    }

    /// Clear the I-stream TB miss flag (after the EBOX services it).
    pub fn clear_tb_miss(&mut self) {
        self.tb_miss_va = None;
    }

    /// When the in-flight fill completes, if any. While `now` is before
    /// this time a [`tick`] is a guaranteed no-op.
    ///
    /// [`tick`]: InstructionBuffer::tick
    #[inline]
    pub fn pending_ready_at(&self) -> Option<u64> {
        self.pending.map(|f| f.ready_at)
    }

    /// True when, with no fill in flight, ticks are no-ops until the
    /// EBOX consumes bytes or services the TB miss: the IB is full, or
    /// an I-stream TB miss is waiting.
    #[inline]
    pub fn quiescent(&self) -> bool {
        debug_assert!(self.pending.is_none());
        self.tb_miss_va.is_some() || self.len >= IB_BYTES
    }

    /// Discard everything and refetch from `pc` (taken branch / REI /
    /// context switch). The in-flight fill, if any, is dropped — its bus
    /// occupancy already happened, as on the real machine.
    pub fn flush(&mut self, pc: u32) {
        self.buf = 0;
        self.len = 0;
        self.fetch_va = pc;
        self.pending = None;
        self.tb_miss_va = None;
    }

    /// Consume one byte.
    #[inline]
    pub fn take_byte(&mut self) -> Option<u8> {
        if self.len == 0 {
            return None;
        }
        let b = self.buf as u8;
        self.buf >>= 8;
        self.len -= 1;
        Some(b)
    }

    /// Discard up to `n` buffered bytes in one step, returning how many
    /// were consumed. Timing-equivalent to that many [`take_byte`]
    /// calls: consuming an available byte costs no cycles, so only the
    /// count left when the buffer runs dry is observable.
    ///
    /// [`take_byte`]: InstructionBuffer::take_byte
    #[inline]
    pub fn skip_bytes(&mut self, n: usize) -> usize {
        let k = n.min(self.len);
        // k == 8 would shift by the full width; `buf = 0` is the intent.
        self.buf = if k < IB_BYTES { self.buf >> (8 * k) } else { 0 };
        self.len -= k;
        k
    }

    /// Append `take` bytes of `data` (starting at byte `offset`) behind
    /// the buffered ones.
    #[inline]
    fn push_bytes(&mut self, data: u32, offset: usize, take: usize) {
        debug_assert!((1..=4).contains(&take) && self.len + take <= IB_BYTES && offset + take <= 4);
        let chunk = (u64::from(data) >> (8 * offset)) & ((1u64 << (8 * take)) - 1);
        self.buf |= chunk << (8 * self.len);
        self.len += take;
    }

    /// One prefetcher cycle at time `now`. `port_free` is false when the
    /// EBOX is using the cache this cycle (the EBOX has priority).
    ///
    /// Returns `Some(miss)` when a cache reference was issued this cycle
    /// (so the caller can attribute the I-stream cache/SBI activity to
    /// its observers), `None` otherwise.
    ///
    /// This wrapper is the cheap inline gate: most cycles the prefetcher
    /// has nothing to do (a fill is in flight but not ready, or the IB is
    /// full), and those ticks return without touching the slow body.
    #[inline]
    pub fn tick(&mut self, mem: &mut MemorySubsystem, now: u64, port_free: bool) -> Option<bool> {
        if !self.shortcuts {
            return self.tick_work(mem, now, port_free);
        }
        match self.pending {
            Some(fill) if fill.ready_at > now => None,
            Some(_) => self.tick_work(mem, now, port_free),
            None => {
                if self.tb_miss_va.is_some() || self.len >= IB_BYTES || !port_free {
                    None
                } else {
                    self.tick_work(mem, now, port_free)
                }
            }
        }
    }

    /// The prefetcher cycle proper; only reached when [`tick`] decided
    /// there is real work (a ready fill to accept and/or a reference to
    /// issue).
    ///
    /// [`tick`]: InstructionBuffer::tick
    fn tick_work(&mut self, mem: &mut MemorySubsystem, now: u64, port_free: bool) -> Option<bool> {
        // Accept a completed fill first.
        if let Some(fill) = self.pending {
            if fill.ready_at <= now {
                self.pending = None;
                let offset = (fill.va & 3) as usize;
                let avail = 4 - offset;
                let room = IB_BYTES - self.len;
                let take = avail.min(room);
                self.push_bytes(fill.data, offset, take);
                self.fetch_va = fill.va.wrapping_add(take as u32);
                mem.note_ib_bytes(take as u32);
            }
        }
        // Issue a new reference if there is room, no fill in flight, no
        // unserviced TB miss, and the cache port is free.
        if self.pending.is_none() && self.tb_miss_va.is_none() && self.len < IB_BYTES && port_free {
            // Same-page shortcut: while the TB generation is unchanged,
            // the last translation's entry is still resident, so a real
            // lookup would hit with the same frame. Count the hit and
            // skip the set scan.
            let page = self.fetch_va & !(vax_mem::PAGE_BYTES - 1);
            let pa = if self.shortcuts && self.tgen == mem.tb_generation() && self.tpage == page {
                mem.counters_mut().tb_hits += 1;
                self.tframe + (self.fetch_va & (vax_mem::PAGE_BYTES - 1))
            } else {
                match mem.translate(self.fetch_va, Stream::IFetch) {
                    Ok(pa) => {
                        self.tpage = page;
                        self.tframe = pa - (self.fetch_va & (vax_mem::PAGE_BYTES - 1));
                        self.tgen = mem.tb_generation();
                        pa
                    }
                    Err(_) => {
                        self.tb_miss_va = Some(self.fetch_va);
                        return None;
                    }
                }
            };
            let outcome = mem.ifetch(pa & !3, now);
            self.pending = Some(PendingFill {
                data: outcome.data,
                ready_at: outcome.ready_at,
                va: self.fetch_va,
            });
            return Some(outcome.miss);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vax_mem::{load_virtual, MapBuilder, MemConfig, SystemMap};

    fn machine_with_code(code: &[u8]) -> (MemorySubsystem, u32) {
        let mut mem = MemorySubsystem::new(MemConfig::default());
        let mut mb = MapBuilder::new(mem.phys(), 4096);
        mb.map_system(mem.phys_mut(), 16);
        let space = mb.create_process(mem.phys_mut(), 32, 4);
        let sys: SystemMap = mb.system_map();
        mem.set_system_map(sys);
        mem.switch_address_space(space);
        load_virtual(mem.phys_mut(), &sys, &space, 0x200, code);
        (mem, 0x200)
    }

    #[test]
    fn fills_and_delivers_bytes_in_order() {
        let code: Vec<u8> = (1..=16).collect();
        let (mut mem, pc) = machine_with_code(&code);
        mem.tb_fill(pc, 0).unwrap();
        let mut ib = InstructionBuffer::new(pc, true);
        let mut now = 10;
        let mut got = Vec::new();
        while got.len() < 8 && now < 200 {
            let _ = ib.tick(&mut mem, now, true);
            if let Some(b) = ib.take_byte() {
                got.push(b);
            }
            now += 1;
        }
        assert_eq!(got, (1..=8).collect::<Vec<u8>>());
    }

    #[test]
    fn sets_tb_miss_flag_instead_of_fetching() {
        let code = [0u8; 4];
        let (mut mem, pc) = machine_with_code(&code);
        // No tb_fill: the first reference misses.
        let mut ib = InstructionBuffer::new(pc, true);
        let _ = ib.tick(&mut mem, 0, true);
        assert_eq!(ib.tb_miss(), Some(pc));
        assert_eq!(ib.available(), 0);
        // Service it; fetching resumes.
        mem.tb_fill(pc, 0).unwrap();
        ib.clear_tb_miss();
        let mut now = 20;
        while ib.available() == 0 && now < 100 {
            let _ = ib.tick(&mut mem, now, true);
            now += 1;
        }
        assert!(ib.available() > 0);
    }

    #[test]
    fn flush_discards_and_refetches() {
        let code: Vec<u8> = (1..=32).collect();
        let (mut mem, pc) = machine_with_code(&code);
        mem.tb_fill(pc, 0).unwrap();
        let mut ib = InstructionBuffer::new(pc, true);
        for now in 10..40 {
            let _ = ib.tick(&mut mem, now, true);
        }
        assert!(ib.available() > 0);
        ib.flush(pc + 16);
        assert_eq!(ib.available(), 0);
        let mut now = 50;
        while ib.available() == 0 && now < 150 {
            let _ = ib.tick(&mut mem, now, true);
            now += 1;
        }
        assert_eq!(ib.take_byte(), Some(17), "refetched from the new PC");
    }

    #[test]
    fn respects_port_busy() {
        let code = [0xAAu8; 8];
        let (mut mem, pc) = machine_with_code(&code);
        mem.tb_fill(pc, 0).unwrap();
        let mut ib = InstructionBuffer::new(pc, true);
        let _ = ib.tick(&mut mem, 0, false);
        assert_eq!(mem.counters().ib_requests, 0, "no request while port busy");
        let _ = ib.tick(&mut mem, 1, true);
        assert_eq!(mem.counters().ib_requests, 1);
    }

    #[test]
    fn repeated_references_to_same_longword_when_full() {
        // Fill the IB to 8 bytes, drain 1, and watch the next request
        // re-reference the longword at the partially-consumed position.
        let code: Vec<u8> = (1..=24).collect();
        let (mut mem, pc) = machine_with_code(&code);
        mem.tb_fill(pc, 0).unwrap();
        let mut ib = InstructionBuffer::new(pc, true);
        let mut now = 0;
        while ib.available() < 8 {
            let _ = ib.tick(&mut mem, now, true);
            now += 1;
            assert!(now < 100);
        }
        let reqs_full = mem.counters().ib_requests;
        // Full: ticks issue no new requests.
        let _ = ib.tick(&mut mem, now, true);
        assert_eq!(mem.counters().ib_requests, reqs_full);
        // One byte of room: a new request goes out even though the target
        // longword was already referenced (partial acceptance).
        ib.take_byte();
        let _ = ib.tick(&mut mem, now + 1, true);
        assert_eq!(mem.counters().ib_requests, reqs_full + 1);
    }
}

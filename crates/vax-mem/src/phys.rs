//! Physical memory array.

/// The smallest written prefix [`PhysMem`] allocates.
const MIN_RESIDENT: usize = 64 * 1024;

/// Byte-addressable physical memory.
///
/// Addresses wrap modulo the (power-of-two) size, mirroring the fact that
/// this model's page tables are the only source of physical addresses, so
/// an out-of-range address indicates a mis-built machine image rather than
/// a runtime condition to propagate; `debug_assert!`s catch it in test
/// builds. The later bytes of an access that straddles the top of memory
/// wrap to address 0.
///
/// Only the prefix written so far is held: a read past it returns 0, and
/// a write past it grows it to the next power of two (at least 64 KiB, at
/// most the size). Machine images are laid out upward from address 0, so
/// a machine is resident only where it has written, not across its whole
/// address space.
#[derive(Debug, Clone)]
pub struct PhysMem {
    bytes: Vec<u8>,
    mask: u32,
}

impl PhysMem {
    /// Memory of `size` bytes (must be a power of two), reading as zero.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not a power of two.
    pub fn new(size: u32) -> PhysMem {
        assert!(
            size.is_power_of_two(),
            "physical memory size must be a power of two"
        );
        PhysMem {
            bytes: Vec::new(),
            mask: size - 1,
        }
    }

    /// Size in bytes.
    pub fn size(&self) -> u32 {
        self.mask + 1
    }

    #[inline]
    fn idx(&self, pa: u32) -> usize {
        debug_assert!(pa <= self.mask, "physical address {pa:#x} out of range");
        (pa & self.mask) as usize
    }

    /// The index `k` bytes past index `i`, wrapping at the top of memory.
    #[inline]
    fn after(&self, i: usize, k: usize) -> usize {
        (i + k) & self.mask as usize
    }

    /// The byte at index `i`: 0 beyond the written prefix.
    #[inline]
    fn byte(&self, i: usize) -> u8 {
        self.bytes.get(i).copied().unwrap_or(0)
    }

    /// Store the byte at index `i`, growing the written prefix to hold it.
    #[inline]
    fn set(&mut self, i: usize, v: u8) {
        if i >= self.bytes.len() {
            self.grow(i + 1);
        }
        self.bytes[i] = v;
    }

    /// Grow the written prefix to hold at least `len` bytes: the next
    /// power of two, at least [`MIN_RESIDENT`], at most the size.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, len: usize) {
        let size = self.size() as usize;
        self.bytes
            .resize(len.next_power_of_two().max(MIN_RESIDENT).min(size), 0);
    }

    /// Read one byte.
    #[inline]
    pub fn read_u8(&self, pa: u32) -> u8 {
        self.byte(self.idx(pa))
    }

    /// Read a little-endian word (may straddle, handled bytewise).
    #[inline]
    pub fn read_u16(&self, pa: u32) -> u16 {
        let i = self.idx(pa);
        u16::from_le_bytes([self.byte(i), self.byte(self.after(i, 1))])
    }

    /// Read a little-endian longword: one slice load when the four bytes
    /// are contiguous in the written prefix, bytewise otherwise (past the
    /// prefix, or wrapping at the end of memory).
    #[inline]
    pub fn read_u32(&self, pa: u32) -> u32 {
        let i = self.idx(pa);
        match self.bytes.get(i..i + 4) {
            Some(b) => u32::from_le_bytes([b[0], b[1], b[2], b[3]]),
            None => u32::from_le_bytes(std::array::from_fn(|k| self.byte(self.after(i, k)))),
        }
    }

    /// Read a little-endian quadword.
    #[inline]
    pub fn read_u64(&self, pa: u32) -> u64 {
        let high = self.after(self.idx(pa), 4) as u32;
        u64::from(self.read_u32(pa)) | (u64::from(self.read_u32(high)) << 32)
    }

    /// Write one byte.
    #[inline]
    pub fn write_u8(&mut self, pa: u32, v: u8) {
        self.set(self.idx(pa), v);
    }

    /// Write a little-endian word.
    #[inline]
    pub fn write_u16(&mut self, pa: u32, v: u16) {
        let i = self.idx(pa);
        let [a, b] = v.to_le_bytes();
        self.set(i, a);
        self.set(self.after(i, 1), b);
    }

    /// Write a little-endian longword: one slice store when the four
    /// bytes are contiguous in the written prefix, bytewise otherwise.
    #[inline]
    pub fn write_u32(&mut self, pa: u32, v: u32) {
        let i = self.idx(pa);
        match self.bytes.get_mut(i..i + 4) {
            Some(b) => b.copy_from_slice(&v.to_le_bytes()),
            None => {
                for (k, b) in v.to_le_bytes().into_iter().enumerate() {
                    self.set(self.after(i, k), b);
                }
            }
        }
    }

    /// Write a little-endian quadword.
    #[inline]
    pub fn write_u64(&mut self, pa: u32, v: u64) {
        let high = self.after(self.idx(pa), 4) as u32;
        self.write_u32(pa, v as u32);
        self.write_u32(high, (v >> 32) as u32);
    }

    /// Copy a slice into memory at `pa`: one slice copy unless the range
    /// wraps past the end of memory.
    pub fn load(&mut self, pa: u32, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        let i = self.idx(pa);
        let end = i + data.len();
        if end > self.size() as usize {
            for (k, &b) in data.iter().enumerate() {
                self.set(self.after(i, k), b);
            }
            return;
        }
        if end > self.bytes.len() {
            self.grow(end);
        }
        self.bytes[i..end].copy_from_slice(data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_all_widths() {
        let mut m = PhysMem::new(1 << 16);
        m.write_u8(0x10, 0xAB);
        assert_eq!(m.read_u8(0x10), 0xAB);
        m.write_u16(0x20, 0x1234);
        assert_eq!(m.read_u16(0x20), 0x1234);
        m.write_u32(0x30, 0xDEADBEEF);
        assert_eq!(m.read_u32(0x30), 0xDEADBEEF);
        m.write_u64(0x40, 0x0123_4567_89AB_CDEF);
        assert_eq!(m.read_u64(0x40), 0x0123_4567_89AB_CDEF);
    }

    #[test]
    fn little_endian_layout() {
        let mut m = PhysMem::new(1 << 12);
        m.write_u32(0, 0x0403_0201);
        assert_eq!(m.read_u8(0), 1);
        assert_eq!(m.read_u8(1), 2);
        assert_eq!(m.read_u8(2), 3);
        assert_eq!(m.read_u8(3), 4);
    }

    #[test]
    fn loads_slices() {
        let mut m = PhysMem::new(1 << 12);
        m.load(0x100, &[1, 2, 3]);
        assert_eq!(m.read_u8(0x102), 3);
    }

    #[test]
    fn grows_only_where_written() {
        let mut m = PhysMem::new(8 << 20);
        assert_eq!(m.size(), 8 << 20);
        assert_eq!(m.read_u32(0x40_0000), 0);
        assert!(m.bytes.is_empty(), "reads allocate nothing");
        m.write_u8(0x10, 1);
        assert_eq!(m.bytes.len(), MIN_RESIDENT);
        m.write_u32(0x10_0000, 0xDEAD_BEEF);
        assert_eq!(m.bytes.len(), 2 << 20);
        assert_eq!(m.read_u32(0x10_0000), 0xDEAD_BEEF);
        assert_eq!(m.read_u32(0x7F_FFFC), 0);
        assert_eq!(m.size(), 8 << 20);
        // Memories smaller than the minimum prefix cap it at their size.
        let mut small = PhysMem::new(1 << 12);
        small.write_u8(0xFFF, 7);
        assert_eq!(small.bytes.len(), 1 << 12);
        assert_eq!(small.read_u8(0xFFF), 7);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_odd_sizes() {
        let _ = PhysMem::new(1000);
    }
}

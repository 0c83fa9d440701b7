//! Model-based test of `TaggedMemory`: random operation sequences run
//! against a naive oracle that keeps the plain representation — a byte
//! vector, one `bool` per granule and a `HashMap` side table — and
//! implements every operation granule by granule. After each step every
//! observable facet of the two must agree, in both capability formats and
//! under both unrepresentable-capability policies.

use cheri_cap::{
    decode_capability, encode_capability, CapFormat, Capability, CompressedCapability,
    CompressionStats, Perms, CAP128_SIZE_BYTES, CAP_ALIGN, CAP_SIZE_BYTES,
};
use cheri_mem::{MemError, TaggedMemory, UnrepresentablePolicy};
use proptest::prelude::*;
use std::collections::HashMap;

/// 131 granules: two full tag words and a partly used third.
const SIZE: u64 = 131 * CAP_ALIGN;

/// The Cap128 escape slot: an impossible metadata word.
const ESCAPE: [u8; CAP128_SIZE_BYTES] = {
    let mut e = [0u8; CAP128_SIZE_BYTES];
    e[15] = 0x80;
    e
};

type Full = [u8; CAP_SIZE_BYTES];

#[derive(Clone)]
struct Oracle {
    bytes: Vec<u8>,
    tags: Vec<bool>,
    side: HashMap<u64, Full>,
    format: CapFormat,
    policy: UnrepresentablePolicy,
    stats: CompressionStats,
}

impl Oracle {
    fn new(format: CapFormat, policy: UnrepresentablePolicy) -> Oracle {
        Oracle {
            bytes: vec![0; SIZE as usize],
            tags: vec![false; (SIZE / CAP_ALIGN) as usize],
            side: HashMap::new(),
            format,
            policy,
            stats: CompressionStats::default(),
        }
    }

    fn check(&self, addr: u64, len: u64) -> Result<usize, MemError> {
        if addr.checked_add(len).is_none_or(|end| end > SIZE) {
            return Err(MemError::OutOfRange { addr, len });
        }
        Ok(addr as usize)
    }

    /// A plain data write over `[addr, addr+len)`: every touched granule
    /// loses its tag and its side-table entry.
    fn scribble(&mut self, addr: u64, len: u64) {
        if len == 0 {
            return;
        }
        for g in addr / CAP_ALIGN..=(addr + len - 1) / CAP_ALIGN {
            self.tags[g as usize] = false;
            self.side.remove(&(g * CAP_ALIGN));
        }
    }

    fn write_bytes(&mut self, addr: u64, data: &[u8]) -> Result<(), MemError> {
        let a = self.check(addr, data.len() as u64)?;
        self.bytes[a..a + data.len()].copy_from_slice(data);
        self.scribble(addr, data.len() as u64);
        Ok(())
    }

    fn write_uint(&mut self, addr: u64, v: u64, width: u8) -> Result<(), MemError> {
        if !matches!(width, 1 | 2 | 4 | 8) {
            return Err(MemError::UnsupportedWidth { width });
        }
        self.write_bytes(addr, &v.to_le_bytes()[..width as usize])
    }

    fn fill(&mut self, addr: u64, len: u64, value: u8) -> Result<(), MemError> {
        let a = self.check(addr, len)?;
        self.bytes[a..a + len as usize].fill(value);
        self.scribble(addr, len);
        Ok(())
    }

    fn write_cap(&mut self, addr: u64, cap: &Capability) -> Result<(), MemError> {
        if addr % CAP_ALIGN != 0 {
            return Err(MemError::Misaligned { addr });
        }
        let a = self.check(addr, CAP_SIZE_BYTES as u64)?;
        match self.format {
            CapFormat::Cap256 => {
                self.bytes[a..a + CAP_SIZE_BYTES].copy_from_slice(&encode_capability(cap));
            }
            CapFormat::Cap128 => {
                let z = if cap.tag() {
                    self.stats.try_compress(cap)
                } else {
                    CompressedCapability::compress(cap)
                };
                let slot = match z {
                    Some(z) => {
                        self.side.remove(&addr);
                        z.to_bytes()
                    }
                    None if cap.tag() && self.policy == UnrepresentablePolicy::Trap => {
                        return Err(MemError::Unrepresentable { addr });
                    }
                    None => {
                        self.side.insert(addr, encode_capability(cap));
                        ESCAPE
                    }
                };
                self.bytes[a..a + CAP128_SIZE_BYTES].copy_from_slice(&slot);
                self.bytes[a + CAP128_SIZE_BYTES..a + CAP_SIZE_BYTES].fill(0);
            }
        }
        self.tags[(addr / CAP_ALIGN) as usize] = cap.tag();
        Ok(())
    }

    fn read_cap(&self, addr: u64) -> Result<Capability, MemError> {
        if addr % CAP_ALIGN != 0 {
            return Err(MemError::Misaligned { addr });
        }
        let a = self.check(addr, CAP_SIZE_BYTES as u64)?;
        let tag = self.tags[(addr / CAP_ALIGN) as usize];
        Ok(match self.format {
            CapFormat::Cap256 => {
                let mut full = [0u8; CAP_SIZE_BYTES];
                full.copy_from_slice(&self.bytes[a..a + CAP_SIZE_BYTES]);
                decode_capability(&full, tag)
            }
            CapFormat::Cap128 => {
                let mut slot = [0u8; CAP128_SIZE_BYTES];
                slot.copy_from_slice(&self.bytes[a..a + CAP128_SIZE_BYTES]);
                match self.side.get(&addr) {
                    Some(full) if slot == ESCAPE => decode_capability(full, tag),
                    _ => CompressedCapability::from_bytes(&slot).decompress_with_tag(tag),
                }
            }
        })
    }

    /// Bytes move like `memmove`; a destination granule keeps the tag
    /// (and side entry) of its source granule exactly when both are whole
    /// granules of an alignment-preserving copy.
    fn memcpy(&mut self, dst: u64, src: u64, len: u64) -> Result<(), MemError> {
        let s = self.check(src, len)?;
        let d = self.check(dst, len)?;
        let mut inherited = Vec::new();
        if dst % CAP_ALIGN == src % CAP_ALIGN {
            let mut a = src.next_multiple_of(CAP_ALIGN);
            while a + CAP_ALIGN <= src + len {
                let g = dst + (a - src);
                inherited.push((
                    g,
                    self.tags[(a / CAP_ALIGN) as usize],
                    self.side.get(&a).copied(),
                ));
                a += CAP_ALIGN;
            }
        }
        self.bytes.copy_within(s..s + len as usize, d);
        self.scribble(dst, len);
        for (g, tag, full) in inherited {
            self.tags[(g / CAP_ALIGN) as usize] = tag;
            if let Some(full) = full {
                self.side.insert(g, full);
            }
        }
        Ok(())
    }

    fn clear_tag_at(&mut self, addr: u64) -> Result<(), MemError> {
        self.check(addr, 1)?;
        self.tags[(addr / CAP_ALIGN) as usize] = false;
        Ok(())
    }

    fn reset(&mut self) {
        *self = Oracle::new(self.format, self.policy);
    }

    fn footprint(&self) -> u64 {
        let tagged = self.tags.iter().filter(|&&t| t).count() as u64;
        tagged * self.format.stored_bytes() + self.side.len() as u64 * CAP_SIZE_BYTES as u64
    }
}

/// Capabilities worth storing: representable with and without an offset,
/// unrepresentable in 128 bits (odd base, sealed, far cursor), and
/// untagged copies and integers.
fn cap_shape(i: u64) -> Capability {
    let obj = Capability::new_mem(0x100, 0x40, Perms::data());
    let sealer = Capability::new_mem(7, 1, Perms::all());
    let shapes = [
        obj,
        obj.set_offset(0x13).unwrap(),
        Capability::new_mem(0x1_0000, 0x2000, Perms::data()),
        Capability::new_mem(0x1_0001, 0x2_0000, Perms::data()),
        obj.seal(&sealer).unwrap(),
        obj.set_offset(1 << 40).unwrap(),
        obj.clear_tag(),
        Capability::new_mem(0x1_0001, 0x2_0000, Perms::data()).clear_tag(),
        Capability::null(),
        Capability::from_int(0x8000_0000_0000_0000),
    ];
    shapes[(i % shapes.len() as u64) as usize]
}

/// Applies one generated step to both, asserting equal results.
fn step(m: &mut TaggedMemory, o: &mut Oracle, (kind, a, b, c): (u8, u64, u64, u64)) {
    match kind {
        0..=2 => {
            // A run of capability stores: mostly aligned slots, some
            // misaligned or past the end.
            let first = if a % 4 == 0 {
                a % (SIZE + 8)
            } else {
                (a >> 2) % (SIZE / CAP_ALIGN + 2) * CAP_ALIGN
            };
            for i in 0..1 + c % 12 {
                let addr = first + i * CAP_ALIGN;
                let cap = cap_shape(b + i);
                assert_eq!(
                    m.write_cap(addr, &cap),
                    o.write_cap(addr, &cap),
                    "write_cap {addr:#x} {cap:?}"
                );
            }
        }
        3 => {
            let addr = a % (SIZE + 16);
            let data: Vec<u8> = (0..b % 80)
                .map(|i| (c >> (i % 8 * 8)) as u8 ^ i as u8)
                .collect();
            assert_eq!(
                m.write_bytes(addr, &data),
                o.write_bytes(addr, &data),
                "write_bytes {addr:#x}"
            );
        }
        4 | 5 => {
            let addr = a % (SIZE + 16);
            let width = [1, 2, 4, 8, 8, 3, 0, 16][(b % 8) as usize];
            assert_eq!(
                m.write_uint(addr, c, width),
                o.write_uint(addr, c, width),
                "write_uint {addr:#x} w{width}"
            );
        }
        6 => {
            let (addr, len) = (a % (SIZE + 16), b % 700);
            assert_eq!(
                m.fill(addr, len, c as u8),
                o.fill(addr, len, c as u8),
                "fill {addr:#x}+{len}"
            );
        }
        7..=9 => {
            // Up to 80 granules, so tag moves span more than one word.
            let len = b % 2600;
            let room = SIZE - len;
            let src = a % (room + 8);
            let shift = (c >> 2) % 96;
            let dst = match c % 4 {
                0 => (c >> 2) % (room / CAP_ALIGN + 1) * CAP_ALIGN + src % CAP_ALIGN,
                1 => (c >> 2) % (room + 8),
                2 => src + shift,
                _ => src.saturating_sub(shift),
            };
            assert_eq!(
                m.memcpy(dst, src, len),
                o.memcpy(dst, src, len),
                "memcpy {dst:#x} <- {src:#x}+{len}"
            );
        }
        10 => {
            let addr = a % (SIZE + 8);
            assert_eq!(
                m.clear_tag_at(addr),
                o.clear_tag_at(addr),
                "clear_tag_at {addr:#x}"
            );
        }
        11 => {
            m.reset();
            o.reset();
        }
        _ => *m = m.snapshot().fork(),
    }
}

fn assert_agree(m: &TaggedMemory, o: &Oracle) {
    assert_eq!(m.read_bytes(0, SIZE).unwrap(), &o.bytes[..], "bytes");
    let tagged: Vec<u64> = (0..SIZE / CAP_ALIGN)
        .filter(|&g| o.tags[g as usize])
        .map(|g| g * CAP_ALIGN)
        .collect();
    assert_eq!(
        m.tagged_granules().collect::<Vec<_>>(),
        tagged,
        "tagged granules"
    );
    for g in 0..SIZE / CAP_ALIGN {
        let addr = g * CAP_ALIGN;
        assert_eq!(m.read_cap(addr), o.read_cap(addr), "read_cap {addr:#x}");
    }
    assert_eq!(m.side_table_len(), o.side.len(), "side table");
    assert_eq!(m.cap_footprint_bytes(), o.footprint(), "footprint");
    assert_eq!(m.compression_stats(), o.stats, "compression stats");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tagged_memory_matches_the_naive_model(
        steps in proptest::collection::vec((0u8..13, any::<u64>(), any::<u64>(), any::<u64>()), 1..64),
    ) {
        for format in [CapFormat::Cap256, CapFormat::Cap128] {
            for policy in [UnrepresentablePolicy::SideTable, UnrepresentablePolicy::Trap] {
                let mut m = TaggedMemory::with_format(SIZE, format, policy);
                let mut o = Oracle::new(format, policy);
                for &s in &steps {
                    step(&mut m, &mut o, s);
                    assert_agree(&m, &o);
                }
            }
        }
    }
}

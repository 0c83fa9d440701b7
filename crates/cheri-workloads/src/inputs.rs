//! Deterministic input generators.
//!
//! The paper feeds tcpdump "the first 100,000 packets" of a CRAWDAD OSDI'06
//! trace and compresses "files of varying sizes" with zlib. Neither input
//! is redistributable, so we synthesize equivalents with seeded generators:
//! what the experiments measure is parsing/compression *work*, not trace
//! content.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a packet trace in the tcpdump-lite wire format:
/// `[count:u32 BE] ([caplen:u16 BE] [bytes…])*`.
///
/// The mix is realistic-ish: mostly TCP, some UDP, a little ICMP, a few
/// non-IP frames, and ~1% malformed (truncated) packets to exercise the
/// bounds-check paths that make tcpdump a memory-safety poster child.
pub fn packet_trace(packets: u32, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = vec![0u8; 4];
    out[0..4].copy_from_slice(&packets.to_be_bytes());
    for _ in 0..packets {
        let kind = rng.gen_range(0..100);
        let mut pkt = Vec::with_capacity(128);
        // Ethernet header: two MACs and an ethertype.
        for _ in 0..12 {
            pkt.push(rng.gen());
        }
        if kind >= 97 {
            // Non-IP frame (ARP-ish).
            pkt.extend_from_slice(&[0x08, 0x06]);
            for _ in 0..rng.gen_range(16..40) {
                pkt.push(rng.gen());
            }
        } else {
            pkt.extend_from_slice(&[0x08, 0x00]);
            let proto: u8 = if kind < 70 {
                6
            } else if kind < 90 {
                17
            } else {
                1
            };
            let payload = rng.gen_range(8..120usize);
            let ihl = 20;
            let l4 = if proto == 6 { 20 } else { 8 };
            let tot = ihl + l4 + payload;
            let mut ip = vec![0u8; ihl];
            ip[0] = 0x45; // v4, ihl=5
            ip[2] = (tot >> 8) as u8;
            ip[3] = (tot & 0xff) as u8;
            ip[8] = 64; // ttl
            ip[9] = proto;
            for b in &mut ip[12..20] {
                *b = rng.gen();
            }
            pkt.extend_from_slice(&ip);
            let sport: u16 = rng.gen_range(1024..60000);
            let dport: u16 = *[80u16, 443, 53, 22, 8080]
                .get(rng.gen_range(0..5usize))
                .unwrap();
            pkt.extend_from_slice(&sport.to_be_bytes());
            pkt.extend_from_slice(&dport.to_be_bytes());
            for _ in 4..l4 + payload {
                pkt.push(rng.gen());
            }
        }
        // ~1% malformed: truncate below the Ethernet header.
        if rng.gen_range(0..100) < 1 {
            pkt.truncate(rng.gen_range(0..14));
        }
        let caplen = pkt.len() as u16;
        out.extend_from_slice(&caplen.to_be_bytes());
        out.extend_from_slice(&pkt);
    }
    out
}

/// Builds a compressible file of `size` bytes: a mix of repeated phrases
/// (long matches), runs, and noise — gzip-meaningful structure.
pub fn compressible_file(size: usize, seed: u64) -> Vec<u8> {
    const PHRASES: [&str; 4] = [
        "the quick brown fox jumps over the lazy dog. ",
        "pack my box with five dozen liquor jugs: ",
        "0123456789abcdef",
        "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA",
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(size);
    while out.len() < size {
        match rng.gen_range(0..10) {
            0..=5 => {
                let p = PHRASES[rng.gen_range(0..PHRASES.len())].as_bytes();
                out.extend_from_slice(p);
            }
            6..=7 => {
                let b: u8 = rng.gen_range(b'a'..=b'z');
                let n = rng.gen_range(4..40);
                out.extend(std::iter::repeat_n(b, n));
            }
            _ => {
                for _ in 0..rng.gen_range(2..10) {
                    out.push(rng.gen());
                }
            }
        }
    }
    out.truncate(size);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_deterministic_and_well_formed() {
        let a = packet_trace(50, 7);
        let b = packet_trace(50, 7);
        assert_eq!(a, b);
        assert_ne!(a, packet_trace(50, 8));
        let count = u32::from_be_bytes([a[0], a[1], a[2], a[3]]);
        assert_eq!(count, 50);
        // Walk the framing.
        let mut off = 4usize;
        for _ in 0..count {
            let caplen = u16::from_be_bytes([a[off], a[off + 1]]) as usize;
            off += 2 + caplen;
        }
        assert_eq!(off, a.len());
    }

    #[test]
    fn file_is_deterministic_and_sized() {
        let f = compressible_file(4096, 3);
        assert_eq!(f.len(), 4096);
        assert_eq!(f, compressible_file(4096, 3));
        // Compressible: repeated phrases should make many byte pairs recur.
        let mut pairs = std::collections::HashSet::new();
        for w in f.windows(2) {
            pairs.insert([w[0], w[1]]);
        }
        assert!(pairs.len() < 3000, "structure should repeat");
    }
}

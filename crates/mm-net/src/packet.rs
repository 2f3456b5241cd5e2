//! The packet model.
//!
//! Packets carry TCP segments between virtual hosts. Sizes follow the wire:
//! a 20-byte IP header plus 20-byte TCP header plus payload, with an MTU of
//! 1500 bytes — the unit of packet-delivery opportunities in Mahimahi's
//! trace format.

use bytes::Bytes;
use std::fmt;

use crate::addr::SocketAddr;

/// Maximum transmission unit, matching the trace format's
/// "MTU-sized packet" delivery opportunity.
pub const MTU: usize = 1500;

/// Combined IP + TCP header overhead per packet.
pub(crate) const HEADER_BYTES: usize = 40;

/// Maximum segment size: MTU minus headers.
pub const MSS: usize = MTU - HEADER_BYTES;

/// TCP header flags (only those the model uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags {
    pub syn: bool,
    pub ack: bool,
    pub fin: bool,
    pub rst: bool,
}

impl TcpFlags {
    /// A pure SYN.
    pub(crate) const SYN: TcpFlags = TcpFlags {
        syn: true,
        ack: false,
        fin: false,
        rst: false,
    };
    /// SYN+ACK.
    pub(crate) const SYN_ACK: TcpFlags = TcpFlags {
        syn: true,
        ack: true,
        fin: false,
        rst: false,
    };
    /// A pure ACK.
    pub const ACK: TcpFlags = TcpFlags {
        syn: false,
        ack: true,
        fin: false,
        rst: false,
    };
    /// FIN+ACK.
    pub(crate) const FIN_ACK: TcpFlags = TcpFlags {
        syn: false,
        ack: true,
        fin: true,
        rst: false,
    };
    /// RST.
    pub(crate) const RST: TcpFlags = TcpFlags {
        syn: false,
        ack: false,
        fin: false,
        rst: true,
    };
}

impl fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = Vec::new();
        if self.syn {
            parts.push("SYN");
        }
        if self.ack {
            parts.push("ACK");
        }
        if self.fin {
            parts.push("FIN");
        }
        if self.rst {
            parts.push("RST");
        }
        if parts.is_empty() {
            parts.push("-");
        }
        write!(f, "{}", parts.join("|"))
    }
}

/// One selective-acknowledgment block: bytes `[start, end)` have been
/// received above the cumulative ACK (RFC 2018).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SackBlock {
    pub start: u64,
    pub end: u64,
}

impl SackBlock {
    /// A block covering `[start, end)`. Panics on empty/inverted ranges.
    pub fn new(start: u64, end: u64) -> SackBlock {
        assert!(start < end, "SACK block [{start}, {end}) is empty");
        SackBlock { start, end }
    }

    /// Bytes covered by this block.
    pub(crate) fn len(&self) -> u64 {
        self.end - self.start
    }
}

/// A real TCP header fits at most 4 SACK blocks in its options (3 when a
/// timestamp option is present, as it was on era Linux). The model keeps
/// the era-Linux limit.
pub(crate) const MAX_SACK_BLOCKS: usize = 3;

/// Up to `MAX_SACK_BLOCKS` SACK blocks as the option carries them on the
/// wire: 32-bit edges, read against the segment's `ack`. Inline, so an ACK
/// with blocks allocates nothing and a [`Packet`] stays 128 bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SackBlocks {
    edges: [[u32; 2]; MAX_SACK_BLOCKS],
    len: u8,
}

impl SackBlocks {
    /// Blocks carried, as encoded (before [`decode`](SackBlocks::decode)
    /// drops empty or inverted pairs).
    pub fn len(&self) -> usize {
        self.len as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append a block: its edges' low 32 bits, as a real option keeps
    /// them. Exact for edges within 2³¹ bytes of the `ack` it is decoded
    /// against.
    pub(crate) fn push(&mut self, b: SackBlock) {
        self.edges[self.len as usize] = [b.start as u32, b.end as u32];
        self.len += 1;
    }

    /// The blocks as `[start, end)` byte offsets: each edge is the offset
    /// nearest `ack` with those low 32 bits (serial arithmetic, RFC 1982).
    /// Pairs that decode empty or inverted are skipped; the first `n` of
    /// the array are the blocks.
    pub fn decode(&self, ack: u64) -> ([SackBlock; MAX_SACK_BLOCKS], usize) {
        let unwrap =
            |edge: u32| ack.wrapping_add_signed(edge.wrapping_sub(ack as u32) as i32 as i64);
        let mut out = [SackBlock { start: 0, end: 0 }; MAX_SACK_BLOCKS];
        let mut n = 0;
        for &[start, end] in &self.edges[..self.len()] {
            let (start, end) = (unwrap(start), unwrap(end));
            if start < end {
                out[n] = SackBlock { start, end };
                n += 1;
            }
        }
        (out, n)
    }
}

/// The SACK portion of the segment header's option space (RFC 2018).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SackOption {
    /// On SYN / SYN-ACK: the "SACK-permitted" option — this endpoint is
    /// willing to receive SACK blocks.
    pub permitted: bool,
    /// On ACKs while the receiver holds out-of-order data: up to
    /// `MAX_SACK_BLOCKS` received-above-cumulative ranges, the block
    /// containing the most recently received segment first.
    pub blocks: SackBlocks,
}

/// A TCP segment. Sequence numbers are 64-bit byte offsets into the flow
/// (no 32-bit wraparound — a documented simulation simplification).
#[derive(Debug, Clone)]
pub struct TcpSegment {
    pub flags: TcpFlags,
    /// First byte offset carried by this segment (or the SYN/FIN's
    /// sequence slot).
    pub seq: u64,
    /// Cumulative acknowledgement: the next byte expected from the peer.
    /// Only meaningful when `flags.ack` is set.
    pub ack: u64,
    /// Receiver advertised window in bytes.
    pub window: u64,
    /// SACK option space (negotiation flag on SYNs, blocks on ACKs).
    pub sack: SackOption,
    /// Application payload.
    pub payload: Bytes,
}

impl TcpSegment {
    /// Sequence space consumed by this segment (payload plus one slot each
    /// for SYN and FIN).
    pub(crate) fn seq_len(&self) -> u64 {
        self.payload.len() as u64
            + if self.flags.syn { 1 } else { 0 }
            + if self.flags.fin { 1 } else { 0 }
    }

    /// The sequence number immediately after this segment.
    pub(crate) fn seq_end(&self) -> u64 {
        self.seq + self.seq_len()
    }
}

/// A packet in flight: a TCP segment plus addressing and bookkeeping the
/// emulation layer reads (wire size, corruption flag, unique id).
#[derive(Debug, Clone)]
pub struct Packet {
    /// Monotonically increasing per-simulation id; lets captures and tests
    /// track a specific packet through shell chains.
    pub id: u64,
    pub src: SocketAddr,
    pub dst: SocketAddr,
    pub segment: TcpSegment,
    /// Set by fault-injection devices; a corrupted packet is dropped by the
    /// receiving host (checksum failure), exactly like real TCP.
    pub corrupted: bool,
}

impl Packet {
    /// Bytes this packet occupies on the wire (headers + payload).
    pub fn wire_size(&self) -> usize {
        HEADER_BYTES + self.segment.payload.len()
    }

    /// Direction-insensitive fingerprint of the packet's 4-tuple: both
    /// directions of one connection hash identically, so captures and
    /// conformance audits can group a flow's packets without parsing
    /// addresses. FNV-1a over the (min, max)-ordered endpoints; 0 is
    /// never returned (reserved for "no flow identity").
    pub fn flow_key(&self) -> u64 {
        let (a, b) = (self.src.conn_id(), self.dst.conn_id());
        let (lo, hi) = (a.min(b), a.max(b));
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in lo.to_le_bytes().iter().chain(hi.to_le_bytes().iter()) {
            h ^= *byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::IpAddr;

    fn pkt(payload_len: usize, flags: TcpFlags) -> Packet {
        Packet {
            id: 1,
            src: SocketAddr::new(IpAddr::new(10, 0, 0, 1), 40000),
            dst: SocketAddr::new(IpAddr::new(93, 184, 216, 34), 80),
            segment: TcpSegment {
                flags,
                seq: 100,
                ack: 0,
                window: 65535,
                sack: Default::default(),
                payload: Bytes::from(vec![0u8; payload_len]),
            },
            corrupted: false,
        }
    }

    #[test]
    fn wire_size_includes_headers() {
        assert_eq!(pkt(0, TcpFlags::ACK).wire_size(), 40);
        assert_eq!(pkt(1460, TcpFlags::ACK).wire_size(), 1500);
    }

    #[test]
    fn mss_fits_mtu() {
        assert_eq!(MSS + HEADER_BYTES, MTU);
    }

    #[test]
    fn seq_len_counts_syn_and_fin() {
        let mut p = pkt(10, TcpFlags::SYN);
        assert_eq!(p.segment.seq_len(), 11);
        p.segment.flags = TcpFlags::FIN_ACK;
        assert_eq!(p.segment.seq_len(), 11);
        p.segment.flags = TcpFlags::ACK;
        assert_eq!(p.segment.seq_len(), 10);
        assert_eq!(p.segment.seq_end(), 110);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_packet_is_two_cache_lines() {
        // Every hop moves a packet by value. Storing three `u64` SACK
        // blocks inline made it 160 bytes, and `transfer_clean` ran 17–20 %
        // fewer transfers per second for it.
        assert_eq!(std::mem::size_of::<Packet>(), 128);
    }

    proptest::proptest! {
        /// Blocks whose edges lie within 2^31 bytes of the ack — above it,
        /// or below it, as a retransmission carries its original's blocks
        /// under a newer ack — decode to exactly the blocks encoded, across
        /// a 2^32 boundary.
        #[test]
        fn sack_blocks_round_trip_near_the_ack(
            ack in (1u64 << 31)..(1 << 48),
            offsets in proptest::collection::vec((-(1i64 << 31)..(1 << 31) - 1, 1u64..1 << 20), 0..4),
        ) {
            let sent: Vec<SackBlock> = offsets
                .iter()
                .map(|&(offset, len)| {
                    let start = ack.wrapping_add_signed(offset);
                    SackBlock::new(start, (start + len).min(ack + (1 << 31) - 1))
                })
                .collect();
            let mut blocks = SackBlocks::default();
            for b in &sent {
                blocks.push(*b);
            }
            let (decoded, n) = blocks.decode(ack);
            proptest::prop_assert_eq!(blocks.len(), sent.len());
            proptest::prop_assert_eq!(&decoded[..n], &sent[..]);
        }

        /// Whatever 32-bit edges a peer sends decode without panicking, to
        /// non-empty blocks only.
        #[test]
        fn any_sack_edges_decode_to_nonempty_blocks(
            ack in proptest::strategy::any::<u64>(),
            edges in proptest::collection::vec(
                (proptest::strategy::any::<u32>(), proptest::strategy::any::<u32>()),
                0..4,
            ),
        ) {
            let mut blocks = SackBlocks::default();
            for (slot, &(start, end)) in blocks.edges.iter_mut().zip(&edges) {
                *slot = [start, end];
            }
            blocks.len = edges.len() as u8;
            let (decoded, n) = blocks.decode(ack);
            proptest::prop_assert!(n <= edges.len());
            proptest::prop_assert!(decoded[..n].iter().all(|b| b.start < b.end));
        }
    }

    #[test]
    fn flags_display() {
        assert_eq!(TcpFlags::SYN_ACK.to_string(), "SYN|ACK");
        assert_eq!(TcpFlags::default().to_string(), "-");
    }
}

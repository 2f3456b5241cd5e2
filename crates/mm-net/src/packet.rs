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

/// The SACK portion of the segment header's option space (RFC 2018).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SackOption {
    /// On SYN / SYN-ACK: the "SACK-permitted" option — this endpoint is
    /// willing to receive SACK blocks.
    pub permitted: bool,
    /// On ACKs while the receiver holds out-of-order data: up to
    /// `MAX_SACK_BLOCKS` received-above-cumulative ranges, the block
    /// containing the most recently received segment first.
    pub blocks: Vec<SackBlock>,
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
        let endpoint = |a: &SocketAddr| ((a.ip.0 as u64) << 16) | a.port as u64;
        let (a, b) = (endpoint(&self.src), endpoint(&self.dst));
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
    fn flags_display() {
        assert_eq!(TcpFlags::SYN_ACK.to_string(), "SYN|ACK");
        assert_eq!(TcpFlags::default().to_string(), "-");
    }
}

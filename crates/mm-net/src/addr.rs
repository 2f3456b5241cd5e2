//! Addressing: virtual IPv4 addresses, socket addresses, and origins.
//!
//! ReplayShell's transparency guarantee — servers bound to *the same IP and
//! port as their recorded counterparts* — makes addresses first-class data
//! in the store format, so these types carry serde derives.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// A virtual IPv4 address.
///
/// A thin wrapper over the 32-bit value rather than `std::net::Ipv4Addr`
/// so we control ordering, serde encoding, and arithmetic (sequential
/// allocation of server addresses).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct IpAddr(pub u32);

impl IpAddr {
    /// Construct from dotted-quad octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        IpAddr(((a as u32) << 24) | ((b as u32) << 16) | ((c as u32) << 8) | d as u32)
    }

    /// The four octets, most significant first.
    pub(crate) const fn octets(self) -> [u8; 4] {
        [
            (self.0 >> 24) as u8,
            (self.0 >> 16) as u8,
            (self.0 >> 8) as u8,
            self.0 as u8,
        ]
    }
}

impl fmt::Display for IpAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.octets();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

impl fmt::Debug for IpAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// Error parsing an address from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddrParseError(pub String);

impl fmt::Display for AddrParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid address: {}", self.0)
    }
}

impl std::error::Error for AddrParseError {}

impl FromStr for IpAddr {
    type Err = AddrParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let parts: Vec<&str> = s.split('.').collect();
        if parts.len() != 4 {
            return Err(AddrParseError(s.into()));
        }
        let mut octets = [0u8; 4];
        for (i, p) in parts.iter().enumerate() {
            octets[i] = p.parse().map_err(|_| AddrParseError(s.into()))?;
        }
        Ok(IpAddr::new(octets[0], octets[1], octets[2], octets[3]))
    }
}

/// An (IP, port) endpoint.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SocketAddr {
    pub ip: IpAddr,
    pub port: u16,
}

impl SocketAddr {
    /// Construct from parts.
    pub const fn new(ip: IpAddr, port: u16) -> Self {
        SocketAddr { ip, port }
    }

    /// This endpoint packed as `ip << 16 | port`. Of a connection's
    /// initiator, it is the span layer's connection id: the browser and
    /// the socket stamp it from their local address, a server from its
    /// peer's, which is how `mmpath` joins the two sides. A packet's
    /// flow key hashes the pair of them.
    pub const fn conn_id(self) -> u64 {
        ((self.ip.0 as u64) << 16) | self.port as u64
    }
}

impl fmt::Display for SocketAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.ip, self.port)
    }
}

impl fmt::Debug for SocketAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl FromStr for SocketAddr {
    type Err = AddrParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (ip, port) = s.rsplit_once(':').ok_or_else(|| AddrParseError(s.into()))?;
        Ok(SocketAddr {
            ip: ip.parse()?,
            port: port.parse().map_err(|_| AddrParseError(s.into()))?,
        })
    }
}

/// An origin server identity: the distinct `ip:port` pair the paper's
/// ReplayShell spawns one Apache instance for. Identical to [`SocketAddr`]
/// in content but kept as its own type in store files for clarity.
pub type Origin = SocketAddr;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_round_trips() {
        let a = IpAddr::new(93, 184, 216, 34);
        assert_eq!(a.to_string(), "93.184.216.34");
        assert_eq!("93.184.216.34".parse::<IpAddr>().unwrap(), a);
    }

    #[test]
    fn socket_addr_round_trips() {
        let sa = SocketAddr::new(IpAddr::new(10, 0, 0, 1), 443);
        assert_eq!(sa.to_string(), "10.0.0.1:443");
        assert_eq!("10.0.0.1:443".parse::<SocketAddr>().unwrap(), sa);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("1.2.3".parse::<IpAddr>().is_err());
        assert!("1.2.3.256".parse::<IpAddr>().is_err());
        assert!("a.b.c.d".parse::<IpAddr>().is_err());
        assert!("1.2.3.4".parse::<SocketAddr>().is_err());
        assert!("1.2.3.4:99999".parse::<SocketAddr>().is_err());
    }

    #[test]
    fn octets_round_trip() {
        let a = IpAddr::new(1, 2, 3, 4);
        assert_eq!(a.octets(), [1, 2, 3, 4]);
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(IpAddr::new(10, 0, 0, 1) < IpAddr::new(10, 0, 0, 2));
        assert!(IpAddr::new(9, 255, 255, 255) < IpAddr::new(10, 0, 0, 0));
    }
}

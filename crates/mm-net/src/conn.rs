//! The slab connection table: flat, index-stable storage for a host's
//! live sockets.
//!
//! A population-scale world holds thousands of concurrent connections per
//! server host. Keying every socket operation off a
//! `HashMap<(SocketAddr, SocketAddr), TcpHandle>` means rehash churn on
//! every accept/reap cycle and no stable identity a diagnostic can hold
//! across the socket's life. The slab fixes both: sockets live in a flat
//! `Vec` of slots reused through a free list, addressed by a [`ConnId`]
//! — a `(index, generation)` pair. The generation increments on every
//! slot reuse, so a stale `ConnId` held across a reap can never alias a
//! newer connection: lookups on dead ids return `None` instead of the
//! wrong socket.
//!
//! Wire demultiplexing still needs address-pair lookup, so the table
//! keeps a side map from `(local, remote)` to `ConnId`; that map is only
//! ever point-queried and its iteration order is never observed, keeping
//! the slab refactor invisible to simulation event ordering.

use crate::addr::SocketAddr;
use crate::hash::AddrMap;
use crate::tcp::socket::TcpHandle;

/// Stable, generation-checked identity of one connection slot in a
/// [`ConnTable`]. Copyable and cheap; safe to hold across reaps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConnId {
    index: u32,
    generation: u32,
}

struct Slot {
    generation: u32,
    /// The connection occupying the slot, or `None` while on the free
    /// list. The address pair is kept alongside so removal can clean the
    /// demux map without borrowing the handle.
    entry: Option<((SocketAddr, SocketAddr), TcpHandle)>,
}

/// Flat slab of live connections with `(local, remote)` demultiplexing.
#[derive(Default)]
pub struct ConnTable {
    slots: Vec<Slot>,
    free: Vec<u32>,
    live: usize,
    demux: AddrMap<(SocketAddr, SocketAddr), ConnId>,
}

impl ConnTable {
    /// Empty table.
    pub fn new() -> Self {
        ConnTable::default()
    }

    /// Number of live connections.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Insert a connection under its address pair, returning its id.
    /// Panics if the pair is already present — two live sockets on one
    /// four-tuple is a demux bug.
    pub fn insert(&mut self, key: (SocketAddr, SocketAddr), handle: TcpHandle) -> ConnId {
        let index = match self.free.pop() {
            Some(i) => i,
            None => {
                let i = u32::try_from(self.slots.len()).expect("connection slab overflow");
                self.slots.push(Slot {
                    generation: 0,
                    entry: None,
                });
                i
            }
        };
        let slot = &mut self.slots[index as usize];
        debug_assert!(slot.entry.is_none());
        slot.entry = Some((key, handle));
        let id = ConnId {
            index,
            generation: slot.generation,
        };
        let prev = self.demux.insert(key, id);
        assert!(prev.is_none(), "duplicate connection {key:?}");
        self.live += 1;
        id
    }

    /// The connection for `id`, if that exact incarnation is still live.
    pub fn get(&self, id: ConnId) -> Option<&TcpHandle> {
        let slot = self.slots.get(id.index as usize)?;
        if slot.generation != id.generation {
            return None;
        }
        slot.entry.as_ref().map(|(_, h)| h)
    }

    /// The id currently bound to an address pair.
    pub fn lookup(&self, key: &(SocketAddr, SocketAddr)) -> Option<ConnId> {
        self.demux.get(key).copied()
    }

    /// The connection bound to an address pair.
    pub(crate) fn get_by_addr(&self, key: &(SocketAddr, SocketAddr)) -> Option<&TcpHandle> {
        self.lookup(key).and_then(|id| self.get(id))
    }

    /// True if an address pair is bound.
    pub(crate) fn contains_addr(&self, key: &(SocketAddr, SocketAddr)) -> bool {
        self.demux.contains_key(key)
    }

    /// Remove a connection by id, returning its handle. The slot's
    /// generation bumps so the id (and any copies) go permanently stale.
    pub fn remove(&mut self, id: ConnId) -> Option<TcpHandle> {
        let slot = self.slots.get_mut(id.index as usize)?;
        if slot.generation != id.generation || slot.entry.is_none() {
            return None;
        }
        let (key, handle) = slot.entry.take().expect("checked above");
        slot.generation += 1;
        self.free.push(id.index);
        self.demux.remove(&key);
        self.live -= 1;
        Some(handle)
    }

    /// Drop every connection failing the predicate (slab `retain`). Slots
    /// are scanned in index order; the predicate must not call back into
    /// the table.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&TcpHandle) -> bool) {
        for index in 0..self.slots.len() {
            let dead = match &self.slots[index].entry {
                Some((_, h)) => !keep(h),
                None => false,
            };
            if dead {
                let slot = &mut self.slots[index];
                let generation = slot.generation;
                let id = ConnId {
                    index: index as u32,
                    generation,
                };
                self.remove(id);
            }
        }
    }

    /// Iterate live connection ids in slot order (diagnostics).
    pub(crate) fn ids(&self) -> impl Iterator<Item = ConnId> + '_ {
        self.slots.iter().enumerate().filter_map(|(i, s)| {
            s.entry.as_ref().map(|_| ConnId {
                index: i as u32,
                generation: s.generation,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::IpAddr;
    use crate::tcp::socket::{HostLinks, SocketApp, SocketEvent, TcpConfig};
    use mm_sim::Simulator;
    use std::rc::Rc;

    struct NoApp;
    impl SocketApp for NoApp {
        fn on_event(&self, _: &mut Simulator, _: &TcpHandle, _: SocketEvent) {}
    }

    fn addr(last: u8, port: u16) -> SocketAddr {
        SocketAddr::new(IpAddr::new(10, 0, 0, last), port)
    }

    fn handle(sim: &mut Simulator, port: u16) -> ((SocketAddr, SocketAddr), TcpHandle) {
        let key = (addr(1, port), addr(2, 80));
        let h = TcpHandle::connect(
            sim,
            key.0,
            key.1,
            TcpConfig::default(),
            HostLinks::detached(),
            Rc::new(NoApp),
        );
        (key, h)
    }

    #[test]
    fn insert_lookup_remove_roundtrip() {
        let mut sim = Simulator::new();
        let mut table = ConnTable::new();
        let (key, h) = handle(&mut sim, 1000);
        let id = table.insert(key, h);
        assert_eq!(table.len(), 1);
        assert!(table.get(id).is_some());
        assert_eq!(table.lookup(&key), Some(id));
        assert!(table.contains_addr(&key));
        assert!(table.remove(id).is_some());
        assert_eq!(table.len(), 0);
        assert!(table.get(id).is_none());
        assert!(!table.contains_addr(&key));
    }

    #[test]
    fn stale_id_never_aliases_reused_slot() {
        let mut sim = Simulator::new();
        let mut table = ConnTable::new();
        let (k1, h1) = handle(&mut sim, 1000);
        let old = table.insert(k1, h1);
        table.remove(old);
        // The slot is reused for a different connection...
        let (k2, h2) = handle(&mut sim, 1001);
        let new = table.insert(k2, h2);
        assert_eq!(new.index, old.index);
        // ...but the stale id stays dead: generation check.
        assert!(table.get(old).is_none());
        assert!(table.remove(old).is_none());
        assert!(table.get(new).is_some());
    }

    #[test]
    fn retain_reaps_and_frees_slots() {
        let mut sim = Simulator::new();
        let mut table = ConnTable::new();
        let ids: Vec<ConnId> = (0..4)
            .map(|i| {
                let (k, h) = handle(&mut sim, 1000 + i);
                table.insert(k, h)
            })
            .collect();
        let victim = table.get(ids[1]).unwrap().clone();
        table.retain(|h| h.local_addr() != victim.local_addr());
        assert_eq!(table.len(), 3);
        assert!(table.get(ids[1]).is_none());
        assert!(table.get(ids[0]).is_some() && table.get(ids[3]).is_some());
        assert_eq!(table.ids().count(), 3);
    }

    #[test]
    #[should_panic(expected = "duplicate connection")]
    fn duplicate_addr_pair_panics() {
        let mut sim = Simulator::new();
        let mut table = ConnTable::new();
        let (k, h) = handle(&mut sim, 1000);
        let h2 = h.clone();
        table.insert(k, h);
        table.insert(k, h2);
    }
}

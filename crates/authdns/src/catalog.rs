//! The global zone catalog: which zones exist and which server addresses
//! are authoritative for each.
//!
//! The catalog is the simulator's equivalent of "the state of the DNS" on a
//! given day. Authoritative servers serve zones *through* it (sharing the
//! same `Arc<RwLock<Zone>>` handles), the ecosystem mutates zones in place,
//! and the bulk resolver walks it directly.

use crate::zone::Zone;
use dps_dns::Name;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::net::IpAddr;
use std::sync::Arc;

/// Shared handle to a mutable zone.
pub type ZoneHandle = Arc<RwLock<Zone>>;

/// Global zone directory.
#[derive(Default)]
pub struct Catalog {
    zones: RwLock<HashMap<Name, ZoneHandle>>,
    servers: RwLock<HashMap<Name, Vec<IpAddr>>>,
    root_hints: RwLock<Vec<IpAddr>>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `zone`, served at `servers`. Returns the shared handle.
    /// Re-registering an origin replaces both zone and server list.
    pub fn add_zone(&self, zone: Zone, servers: Vec<IpAddr>) -> ZoneHandle {
        let origin = zone.origin().clone();
        let handle = Arc::new(RwLock::new(zone));
        self.zones
            .write()
            .insert(origin.clone(), Arc::clone(&handle));
        self.servers.write().insert(origin, servers);
        handle
    }

    /// Removes a zone (e.g. a delegated domain whose registration lapsed).
    pub fn remove_zone(&self, origin: &Name) {
        self.zones.write().remove(origin);
        self.servers.write().remove(origin);
    }

    /// Handle to the zone with exactly this origin.
    pub fn zone(&self, origin: &Name) -> Option<ZoneHandle> {
        self.zones.read().get(origin).cloned()
    }

    /// The deepest zone whose origin is a suffix of `qname`.
    pub fn find_zone(&self, qname: &Name) -> Option<(Name, ZoneHandle)> {
        let zones = self.zones.read();
        let mut cur = Some(qname.clone());
        while let Some(c) = cur {
            if let Some(h) = zones.get(&c) {
                return Some((c, Arc::clone(h)));
            }
            cur = c.parent();
        }
        // The root zone has the root name as origin.
        zones
            .get(&Name::root())
            .map(|h| (Name::root(), Arc::clone(h)))
    }

    /// Addresses authoritative for the zone with this origin.
    pub fn servers_for(&self, origin: &Name) -> Vec<IpAddr> {
        self.servers.read().get(origin).cloned().unwrap_or_default()
    }

    /// Sets the root-hint addresses used by iterative resolvers.
    pub fn set_root_hints(&self, hints: Vec<IpAddr>) {
        *self.root_hints.write() = hints;
    }

    /// Root-hint addresses.
    pub fn root_hints(&self) -> Vec<IpAddr> {
        self.root_hints.read().clone()
    }

    /// Number of registered zones.
    pub fn zone_count(&self) -> usize {
        self.zones.read().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn ip(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    #[test]
    fn find_zone_picks_deepest() {
        let cat = Catalog::new();
        cat.add_zone(Zone::new(Name::root()), vec![ip("10.0.0.1")]);
        cat.add_zone(Zone::new(n("le")), vec![ip("10.0.0.2")]);
        cat.add_zone(Zone::new(n("examp.le")), vec![ip("10.0.0.3")]);

        let (origin, _) = cat.find_zone(&n("www.examp.le")).unwrap();
        assert_eq!(origin, n("examp.le"));
        let (origin, _) = cat.find_zone(&n("other.le")).unwrap();
        assert_eq!(origin, n("le"));
        let (origin, _) = cat.find_zone(&n("foo.bar")).unwrap();
        assert_eq!(origin, Name::root());
    }

    #[test]
    fn find_zone_without_root_returns_none_for_strays() {
        let cat = Catalog::new();
        cat.add_zone(Zone::new(n("le")), vec![]);
        assert!(cat.find_zone(&n("foo.bar")).is_none());
    }

    #[test]
    fn zone_handles_are_shared() {
        let cat = Catalog::new();
        let h = cat.add_zone(Zone::new(n("examp.le")), vec![]);
        h.write().bump_serial();
        let again = cat.zone(&n("examp.le")).unwrap();
        assert_eq!(again.read().soa().serial, h.read().soa().serial);
    }

    #[test]
    fn remove_zone_unregisters() {
        let cat = Catalog::new();
        cat.add_zone(Zone::new(n("examp.le")), vec![ip("10.0.0.3")]);
        cat.remove_zone(&n("examp.le"));
        assert!(cat.zone(&n("examp.le")).is_none());
        assert!(cat.servers_for(&n("examp.le")).is_empty());
    }
}

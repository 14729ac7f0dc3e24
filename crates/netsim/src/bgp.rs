//! A BGP-like global routing view and Routeviews-style `pfx2as` snapshots.
//!
//! The simulator does not model BGP path propagation — the study only ever
//! consumes the *outcome*: which origin AS(es) announce the most-specific
//! prefix covering an address on a given day. [`Rib`] is that global view;
//! providers and hosters announce/withdraw customer prefixes on it to
//! implement BGP-based traffic diversion (paper §2.2), and [`Pfx2As`] is the
//! immutable daily snapshot the analysis joins against (paper §3.2).

use crate::asn::Asn;
use crate::prefix::Prefix;
use crate::trie::LpmTrie;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::net::IpAddr;

/// Mutable global routing table: prefix → set of origin ASes.
///
/// Multiple origins for one prefix (MOAS) are kept as a set; the paper's
/// methodology "for multi-origin AS adds all the involved AS numbers"
/// (footnote 4), and [`Pfx2As::origins`] preserves that.
#[derive(Debug, Default, Clone)]
pub struct Rib {
    origins: BTreeMap<Prefix, BTreeSet<Asn>>,
}

impl Rib {
    /// An empty RIB.
    pub fn new() -> Self {
        Self::default()
    }

    /// Announces `prefix` with origin `asn`. Idempotent.
    pub fn announce(&mut self, prefix: Prefix, asn: Asn) {
        self.origins.entry(prefix).or_default().insert(asn);
    }

    /// Withdraws `asn`'s announcement of `prefix`. The prefix disappears
    /// from the table when its last origin withdraws.
    pub fn withdraw(&mut self, prefix: Prefix, asn: Asn) {
        if let Some(set) = self.origins.get_mut(&prefix) {
            set.remove(&asn);
            if set.is_empty() {
                self.origins.remove(&prefix);
            }
        }
    }

    /// Number of announced prefixes.
    pub fn len(&self) -> usize {
        self.origins.len()
    }

    /// True if nothing is announced.
    pub fn is_empty(&self) -> bool {
        self.origins.is_empty()
    }

    /// Freezes the current table into an immutable lookup snapshot.
    pub fn snapshot(&self) -> Pfx2As {
        let mut v4 = LpmTrie::new();
        let mut v6 = LpmTrie::new();
        for (prefix, origins) in &self.origins {
            let val: Vec<Asn> = origins.iter().copied().collect();
            if prefix.is_v4() {
                v4.insert(prefix, val);
            } else {
                v6.insert(prefix, val);
            }
        }
        let entries = self
            .origins
            .iter()
            .map(|(p, o)| (*p, o.iter().copied().collect::<Vec<_>>()))
            .collect();
        Pfx2As { v4, v6, entries }
    }
}

/// An immutable prefix-to-origin-AS mapping for one day, equivalent to the
/// CAIDA Routeviews `pfx2as` data set the paper supplements addresses with.
#[derive(Debug, Clone)]
pub struct Pfx2As {
    v4: LpmTrie<Vec<Asn>>,
    v6: LpmTrie<Vec<Asn>>,
    entries: Vec<(Prefix, Vec<Asn>)>,
}

impl Pfx2As {
    /// Origin AS(es) of the most-specific prefix covering `addr`, with the
    /// matched prefix length. `None` if the address is unrouted.
    pub fn origins(&self, addr: IpAddr) -> Option<(&[Asn], u8)> {
        let key = Prefix::align(addr);
        let (table, max) = if addr.is_ipv4() {
            (&self.v4, 32)
        } else {
            (&self.v6, 128)
        };
        table.lookup(key, max).map(|(v, l)| (v.as_slice(), l))
    }

    /// The single origin when there is no MOAS ambiguity.
    pub fn single_origin(&self, addr: IpAddr) -> Option<Asn> {
        match self.origins(addr) {
            Some((asns, _)) if asns.len() == 1 => Some(asns[0]),
            _ => None,
        }
    }

    /// Number of prefixes in the snapshot.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over all `(prefix, origins)` entries.
    pub fn entries(&self) -> impl Iterator<Item = (Prefix, &[Asn])> {
        self.entries.iter().map(|(p, o)| (*p, o.as_slice()))
    }

    /// Serialises in the Routeviews text format: one line per prefix,
    /// `network<TAB>length<TAB>origin[_origin…]` with `_` joining MOAS sets.
    pub fn to_routeviews_text(&self) -> String {
        let mut out = String::new();
        for (prefix, origins) in &self.entries {
            let joined = origins
                .iter()
                .map(|a| a.0.to_string())
                .collect::<Vec<_>>()
                .join("_");
            let _ = writeln!(out, "{}\t{}\t{}", prefix.network(), prefix.len(), joined);
        }
        out
    }

    /// Parses the Routeviews text format produced by
    /// [`to_routeviews_text`](Self::to_routeviews_text).
    pub fn from_routeviews_text(text: &str) -> Result<Self, String> {
        let mut rib = Rib::new();
        for (lineno, line) in text.lines().enumerate() {
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split('\t');
            let (net, len, origins) = (
                parts
                    .next()
                    .ok_or_else(|| format!("line {lineno}: missing network"))?,
                parts
                    .next()
                    .ok_or_else(|| format!("line {lineno}: missing length"))?,
                parts
                    .next()
                    .ok_or_else(|| format!("line {lineno}: missing origins"))?,
            );
            let prefix: Prefix = format!("{net}/{len}")
                .parse()
                .map_err(|e| format!("line {lineno}: {e}"))?;
            for asn in origins.split('_') {
                let asn: u32 = asn.parse().map_err(|_| format!("line {lineno}: bad ASN"))?;
                rib.announce(prefix, Asn(asn));
            }
        }
        Ok(rib.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn ip(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    #[test]
    fn announce_lookup_withdraw_cycle() {
        let mut rib = Rib::new();
        rib.announce(p("198.51.100.0/24"), Asn(19551));
        let snap = rib.snapshot();
        assert_eq!(snap.single_origin(ip("198.51.100.7")), Some(Asn(19551)));

        rib.withdraw(p("198.51.100.0/24"), Asn(19551));
        let snap = rib.snapshot();
        assert_eq!(snap.origins(ip("198.51.100.7")), None);
        assert!(rib.is_empty());
    }

    #[test]
    fn most_specific_prefix_wins() {
        let mut rib = Rib::new();
        rib.announce(p("203.0.0.0/8"), Asn(100)); // hoster's supernet
        rib.announce(p("203.0.113.0/24"), Asn(19551)); // DPS announces the /24
        let snap = rib.snapshot();
        let (origins, len) = snap.origins(ip("203.0.113.9")).unwrap();
        assert_eq!((origins, len), (&[Asn(19551)][..], 24));
        // Outside the /24, the hoster still originates.
        assert_eq!(snap.single_origin(ip("203.0.5.9")), Some(Asn(100)));
    }

    #[test]
    fn moas_keeps_all_origins() {
        let mut rib = Rib::new();
        rib.announce(p("192.0.2.0/24"), Asn(1));
        rib.announce(p("192.0.2.0/24"), Asn(2));
        let snap = rib.snapshot();
        let (origins, _) = snap.origins(ip("192.0.2.1")).unwrap();
        assert_eq!(origins, &[Asn(1), Asn(2)]);
        assert_eq!(snap.single_origin(ip("192.0.2.1")), None);

        // Withdrawing one origin keeps the other.
        rib.withdraw(p("192.0.2.0/24"), Asn(1));
        assert_eq!(rib.snapshot().single_origin(ip("192.0.2.1")), Some(Asn(2)));
    }

    #[test]
    fn routeviews_text_roundtrip() {
        let mut rib = Rib::new();
        rib.announce(p("10.0.0.0/8"), Asn(64500));
        rib.announce(p("192.0.2.0/24"), Asn(1));
        rib.announce(p("192.0.2.0/24"), Asn(2));
        rib.announce(p("2001:db8::/32"), Asn(64501));
        let snap = rib.snapshot();
        let text = snap.to_routeviews_text();
        assert!(text.contains("192.0.2.0\t24\t1_2"), "{text}");
        let reparsed = Pfx2As::from_routeviews_text(&text).unwrap();
        assert_eq!(reparsed.len(), snap.len());
        assert_eq!(
            reparsed.origins(ip("192.0.2.9")).unwrap().0,
            snap.origins(ip("192.0.2.9")).unwrap().0
        );
        assert_eq!(reparsed.single_origin(ip("2001:db8::1")), Some(Asn(64501)));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Pfx2As::from_routeviews_text("not\ta\tline").is_err());
        assert!(Pfx2As::from_routeviews_text("10.0.0.0\t8\tx").is_err());
        assert!(Pfx2As::from_routeviews_text("10.0.0.0\t99\t1").is_err());
    }

    #[test]
    fn snapshot_is_immutable_view() {
        let mut rib = Rib::new();
        rib.announce(p("10.0.0.0/8"), Asn(7));
        let snap = rib.snapshot();
        rib.withdraw(p("10.0.0.0/8"), Asn(7));
        // The earlier snapshot still answers.
        assert_eq!(snap.single_origin(ip("10.1.1.1")), Some(Asn(7)));
    }
}

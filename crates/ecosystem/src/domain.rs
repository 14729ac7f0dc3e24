//! Per-domain state and the diversion taxonomy (paper §2).

use crate::ids::{BasketId, DomainId, HosterId, ProviderId, Tld};
use dps_dns::Name;
use dps_netsim::Day;
use serde::{Deserialize, Serialize};

/// How (and whether) a domain's traffic relates to a DPS right now.
///
/// These variants are the ground-truth counterpart of the method
/// combinations the detection methodology infers from CNAME/NS/ASN
/// references (paper §3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Diversion {
    /// No DPS involvement: ordinary hosting.
    #[default]
    None,
    /// Owner pointed A records at a provider cloud address
    /// (ASN reference only).
    ARecord(ProviderId),
    /// `www` is an alias into the provider's domain; the apex A also lands
    /// in the provider cloud (CNAME + ASN references, no NS).
    Cname(ProviderId),
    /// The zone is delegated to the provider *and* traffic is diverted
    /// (NS + ASN references).
    NsDelegation(ProviderId),
    /// The zone is delegated (e.g. a managed-DNS product) but addresses
    /// still point at the original hoster: NS reference only, no diversion.
    NsOnly(ProviderId),
    /// Addresses unchanged; the covering prefix is originated by the
    /// provider's AS (BGP diversion: ASN reference with stable address).
    Bgp(ProviderId),
}

impl Diversion {
    /// The provider involved, if any.
    pub fn provider(self) -> Option<ProviderId> {
        match self {
            Diversion::None => None,
            Diversion::ARecord(p)
            | Diversion::Cname(p)
            | Diversion::NsDelegation(p)
            | Diversion::NsOnly(p)
            | Diversion::Bgp(p) => Some(p),
        }
    }

    /// True if traffic actually flows through the provider (everything but
    /// `None` and the no-diversion managed-DNS case).
    pub fn diverts_traffic(self) -> bool {
        !matches!(self, Diversion::None | Diversion::NsOnly(_))
    }

    /// True if the provider serves the domain's zone (NS reference).
    pub fn delegates_dns(self) -> bool {
        matches!(self, Diversion::NsDelegation(_) | Diversion::NsOnly(_))
    }
}

/// Mutable state of one second-level domain.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DomainState {
    /// Zone the domain is registered under.
    pub tld: Tld,
    /// Hosting company of its baseline (non-diverted) address.
    pub hoster: HosterId,
    /// First day the domain appears in the zone file.
    pub registered: Day,
    /// First day the domain is *absent* again, if it was ever deleted.
    pub deleted: Option<Day>,
    /// Scripted basket membership (Wix, ENOM, …), with the member index
    /// used for stable basket addressing.
    pub basket: Option<(BasketId, u32)>,
    /// Current protection state.
    pub diversion: Diversion,
    /// Whether `www` publishes an AAAA when the serving side supports IPv6.
    pub wants_aaaa: bool,
    /// Baseline `www` posture: alias into the hoster's platform domain
    /// (Wix-style) instead of a direct A record.
    pub www_cname_to_hoster: bool,
    /// The domain's DNS is broken today (models the Sedo incident: queries
    /// fail, the domain drops out of that day's measurement).
    pub outage: bool,
}

impl DomainState {
    /// True if the domain is in its TLD zone file on `day`.
    pub fn alive_on(&self, day: Day) -> bool {
        self.registered <= day && self.deleted.map_or(true, |d| day < d)
    }
}

/// Ground truth for one domain-day, used to score the detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroundTruth {
    /// The provider whose services the domain uses (any mechanism).
    pub provider: Option<ProviderId>,
    /// The exact mechanism.
    pub diversion: Diversion,
}

/// Builds the apex presentation name of domain `id`: `d<id>.<tld>`.
pub fn domain_label(id: DomainId) -> String {
    format!("d{}", id.0)
}

/// A `<prefix><id>` label (`d42`, `e7`) written into a stack buffer, so
/// the bulk answer path can name a domain without allocating a string.
pub(crate) struct IdLabel {
    buf: [u8; 11],
    len: usize,
}

impl IdLabel {
    pub(crate) fn new(prefix: u8, id: u32) -> Self {
        let len = 2 + id.checked_ilog10().unwrap_or(0) as usize;
        let mut buf = [prefix; 11];
        let mut n = id;
        for slot in buf.iter_mut().take(len).skip(1).rev() {
            *slot = b'0' + (n % 10) as u8;
            n /= 10;
        }
        Self { buf, len }
    }

    pub(crate) fn as_bytes(&self) -> &[u8] {
        self.buf.get(..self.len).unwrap_or_default()
    }
}

/// The wire form of a domain apex `d<id>.<tld>` in a stack buffer, so the
/// wire path's authority can test a name against a customer zone without
/// building the zone's origin.
pub(crate) struct ApexWire {
    buf: [u8; 1 + 11 + 1 + 63 + 1],
    len: usize,
}

impl ApexWire {
    pub(crate) fn new(id: DomainId, tld: Tld) -> Self {
        let mut out = Self {
            buf: [0; 77],
            len: 0,
        };
        let label = IdLabel::new(b'd', id.0);
        for part in [label.as_bytes(), tld.label().as_bytes()] {
            let end = out.len + 1 + part.len();
            if let Some(slot) = out.buf.get_mut(out.len..end) {
                slot[0] = part.len() as u8;
                slot[1..].copy_from_slice(part);
            }
            out.len = end;
        }
        // The root octet is the buffer's zero fill.
        out.len += 1;
        out
    }

    pub(crate) fn as_bytes(&self) -> &[u8] {
        self.buf.get(..self.len).unwrap_or_default()
    }
}

/// `<prefix><id>.<suffix>` (`d42.edgekey.net`), built from labels with no
/// presentation-format round trip. `suffix` is a dotted static name.
pub(crate) fn id_name(prefix: u8, id: u32, suffix: &str) -> Name {
    let label = IdLabel::new(prefix, id);
    Name::from_labels(std::iter::once(label.as_bytes()).chain(suffix.split('.').map(str::as_bytes)))
        .expect("generated names are valid")
}

/// The apex name of domain `id` in `tld`: `d<id>.<tld>`.
pub fn domain_apex(id: DomainId, tld: Tld) -> Name {
    id_name(b'd', id.0, tld.label())
}

/// Parses a `d<id>` label back to the id.
pub fn parse_domain_label(label: &[u8]) -> Option<DomainId> {
    parse_id_label(b'd', label)
}

/// Parses a `<prefix><id>` label (at most nine digits) back to the id.
pub(crate) fn parse_id_label(prefix: u8, label: &[u8]) -> Option<DomainId> {
    let (first, digits) = label.split_first()?;
    if *first != prefix || digits.is_empty() || digits.len() > 9 {
        return None;
    }
    let mut v: u32 = 0;
    for &b in digits {
        if !b.is_ascii_digit() {
            return None;
        }
        v = v.checked_mul(10)?.checked_add(u32::from(b - b'0'))?;
    }
    Some(DomainId(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::pid;

    #[test]
    fn label_roundtrip() {
        for id in [0u32, 7, 123_456, 999_999_999] {
            let label = domain_label(DomainId(id));
            assert_eq!(parse_domain_label(label.as_bytes()), Some(DomainId(id)));
        }
        assert_eq!(parse_domain_label(b"x123"), None);
        assert_eq!(parse_domain_label(b"d"), None);
        assert_eq!(parse_domain_label(b"d12a"), None);
        assert_eq!(parse_domain_label(b"d9999999999"), None);
        assert_eq!(parse_id_label(b'e', b"e42"), Some(DomainId(42)));
        assert_eq!(parse_id_label(b'e', b"d42"), None);
    }

    #[test]
    fn id_labels_match_formatting() {
        for id in [0u32, 1, 9, 10, 99, 100, 123_456, 999_999_999, u32::MAX] {
            assert_eq!(
                IdLabel::new(b'd', id).as_bytes(),
                domain_label(DomainId(id)).as_bytes()
            );
            assert_eq!(
                IdLabel::new(b'e', id).as_bytes(),
                format!("e{id}").as_bytes()
            );
        }
    }

    #[test]
    fn domain_apex_is_d_id_dot_tld() {
        for id in [0u32, 9, 10, u32::MAX] {
            for tld in [Tld::Com, Tld::Nl] {
                let want: Name = format!("d{id}.{}", tld.label()).parse().unwrap();
                assert_eq!(domain_apex(DomainId(id), tld), want);
            }
        }
        assert_eq!(
            domain_apex(DomainId(u32::MAX), Tld::Biz).to_string(),
            "d4294967295.biz."
        );
        for id in [0u32, 9, 10, 123_456, u32::MAX] {
            for tld in [Tld::Com, Tld::Net, Tld::Org, Tld::Nl, Tld::Biz] {
                assert_eq!(
                    ApexWire::new(DomainId(id), tld).as_bytes(),
                    domain_apex(DomainId(id), tld).as_wire()
                );
            }
        }
        let compute: Name = "d7.compute.amazonaws.com".parse().unwrap();
        assert_eq!(id_name(b'd', 7, "compute.amazonaws.com"), compute);
    }

    #[test]
    fn diversion_predicates() {
        assert!(!Diversion::None.diverts_traffic());
        assert!(!Diversion::NsOnly(pid::VERISIGN).diverts_traffic());
        assert!(Diversion::Bgp(pid::F5).diverts_traffic());
        assert!(Diversion::NsOnly(pid::VERISIGN).delegates_dns());
        assert!(!Diversion::Cname(pid::AKAMAI).delegates_dns());
        assert_eq!(Diversion::Cname(pid::AKAMAI).provider(), Some(pid::AKAMAI));
        assert_eq!(Diversion::None.provider(), None);
    }

    #[test]
    fn alive_window() {
        let d = DomainState {
            tld: Tld::Com,
            hoster: HosterId(0),
            registered: Day(10),
            deleted: Some(Day(20)),
            basket: None,
            diversion: Diversion::None,
            wants_aaaa: false,
            www_cname_to_hoster: false,
            outage: false,
        };
        assert!(!d.alive_on(Day(9)));
        assert!(d.alive_on(Day(10)));
        assert!(d.alive_on(Day(19)));
        assert!(!d.alive_on(Day(20)));
    }
}

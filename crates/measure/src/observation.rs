//! Measurement sources, the snapshot schema, and row packing.

use dps_columnar::Schema;
use dps_ecosystem::Tld;

/// A measurement input list (paper Table 1 rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Source {
    /// The full `.com` zone.
    Com,
    /// The full `.net` zone.
    Net,
    /// The full `.org` zone.
    Org,
    /// The full `.nl` zone.
    Nl,
    /// The Alexa-style popularity list.
    Alexa,
}

/// All sources, in Table 1 order.
pub const SOURCES: [Source; 5] = [
    Source::Com,
    Source::Net,
    Source::Org,
    Source::Nl,
    Source::Alexa,
];

impl Source {
    /// Dense index.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Table 1 label.
    pub fn label(self) -> &'static str {
        match self {
            Source::Com => ".com",
            Source::Net => ".net",
            Source::Org => ".org",
            Source::Nl => ".nl",
            Source::Alexa => "Alexa 1M",
        }
    }

    /// The zone this source sweeps, if it is a zone source.
    pub fn tld(self) -> Option<Tld> {
        match self {
            Source::Com => Some(Tld::Com),
            Source::Net => Some(Tld::Net),
            Source::Org => Some(Tld::Org),
            Source::Nl => Some(Tld::Nl),
            Source::Alexa => None,
        }
    }

    /// From a dense index.
    pub fn from_index(i: u32) -> Option<Self> {
        SOURCES.get(i as usize).copied()
    }
}

/// Column order of daily snapshot tables.
///
/// All values are u32. `entry` is the zone-entry code
/// (see [`entry_code`]); `sld`, `cname*`, `ns*` and `nsh*` are
/// string-dictionary ids with 0 = absent; `apex_v4` is the packed IPv4
/// address (0 = absent); `www_v4x` and `wasnx` are XOR-deltas against the
/// apex values so the common "www equals apex" case compresses to runs of
/// zero.
///
/// `sld` is set only on infrastructure rows (odd `entry`). A customer row
/// (even `entry`, `2·id`) stores `sld = 0`: its measured apex is
/// `d<id>.<tld>` (see [`dps_ecosystem::domain_label`]), a pure function of
/// `entry` and the row's zone, so readers derive it from `entry` and the
/// dictionary holds infrastructure names only.
pub const COLUMNS: [&str; 18] = [
    "day", "source", "entry", "sld", "apex_v4", "www_v4x", "aaaa", "cname1", "cname2", "ns1",
    "ns2", "nsh1", "nsh2", "asn1", "asn2", "wasnx", "aaaa_asn", "failed",
];

/// The columns the classification kernel reads, a projection of
/// [`COLUMNS`]: a row's zone entry, its reference keys (CNAME and NS SLD
/// ids, origin ASes, `www` as an XOR-delta against `asn1`) and whether it
/// failed. Scans decode only these.
pub const SCAN_COLUMNS: [&str; 10] = [
    "entry", "cname1", "cname2", "ns1", "ns2", "asn1", "asn2", "wasnx", "aaaa_asn", "failed",
];

/// Builds the snapshot schema.
pub fn schema() -> Schema {
    Schema::new(&COLUMNS)
}

/// Encodes a zone entry as a u32: customer domains are `2·id`,
/// infrastructure SLDs are `2·idx + 1`.
pub fn entry_code(entry: dps_ecosystem::ZoneEntry) -> u32 {
    match entry {
        dps_ecosystem::ZoneEntry::Domain(id) => id.0 * 2,
        dps_ecosystem::ZoneEntry::Infra(i) => (i as u32) * 2 + 1,
    }
}

/// True if `code` encodes a customer domain (even codes, `2·id`).
pub fn is_customer_entry(code: u32) -> bool {
    code % 2 == 0
}

/// The `(source, entry code)` under which the rows of the customer
/// domain `sld` names are stored, if it names one: `d<id>.<tld>` for the
/// zone of a zone source. Customer rows store `sld = 0`, so this is how a
/// reader finds a customer SLD's own rows.
pub fn customer_entry(sld: &str) -> Option<(Source, u32)> {
    let (label, tld) = sld.split_once('.')?;
    let id = dps_ecosystem::parse_domain_label(label.as_bytes())?;
    let source = SOURCES
        .into_iter()
        .find(|s| s.tld().is_some_and(|t| t.label() == tld))?;
    Some((source, entry_code(dps_ecosystem::ZoneEntry::Domain(id))))
}

/// Decodes an entry code.
pub fn decode_entry(code: u32) -> dps_ecosystem::ZoneEntry {
    if is_customer_entry(code) {
        dps_ecosystem::ZoneEntry::Domain(dps_ecosystem::DomainId(code / 2))
    } else {
        dps_ecosystem::ZoneEntry::Infra((code / 2) as usize)
    }
}

/// One collected and supplemented measurement row, pre-dictionary.
#[derive(Debug, Clone, Default)]
pub struct Row {
    /// Zone-entry code.
    pub entry: u32,
    /// Dictionary id of the measured SLD itself, for infrastructure rows
    /// (e.g. `cloudflare.com`). 0 on customer rows, whose apex is derived
    /// from `entry` instead.
    pub sld: u32,
    /// Apex IPv4 (packed, 0 = none).
    pub apex_v4: u32,
    /// `www` IPv4 (packed, 0 = none).
    pub www_v4: u32,
    /// AAAA present on apex or www.
    pub aaaa: bool,
    /// First CNAME-chain SLD dictionary id.
    pub cname1: u32,
    /// Second distinct CNAME-chain SLD dictionary id.
    pub cname2: u32,
    /// First NS SLD dictionary id.
    pub ns1: u32,
    /// Second distinct NS SLD dictionary id.
    pub ns2: u32,
    /// Full host name of the first NS record (dictionary id; paper
    /// footnote 10 analyses these, e.g. `kate.ns.cloudflare.com`).
    pub nsh1: u32,
    /// Full host name of the second NS record.
    pub nsh2: u32,
    /// First origin AS of the apex address.
    pub asn1: u32,
    /// Second origin AS (multi-origin prefixes), 0 otherwise.
    pub asn2: u32,
    /// First origin AS of the `www` address.
    pub www_asn: u32,
    /// Origin AS of the AAAA address, when one was answered (the paper
    /// supplements v6 addresses against the v6 `pfx2as` table too).
    pub aaaa_asn: u32,
    /// Measurement failed (SERVFAIL / timeout): data columns are zero.
    pub failed: bool,
    /// Resource records observed for this name today (data points).
    pub data_points: u32,
}

impl Row {
    /// Packs into schema order for a given day/source.
    pub fn pack(&self, day: u32, source: Source) -> [u32; 18] {
        [
            day,
            source.index() as u32,
            self.entry,
            self.sld,
            self.apex_v4,
            self.www_v4 ^ self.apex_v4,
            self.aaaa as u32,
            self.cname1,
            self.cname2,
            self.ns1,
            self.ns2,
            self.nsh1,
            self.nsh2,
            self.asn1,
            self.asn2,
            self.www_asn ^ self.asn1,
            self.aaaa_asn,
            self.failed as u32,
        ]
    }

    /// Unpacks the row at index `i` from decoded columns. The day and
    /// source columns are not read: a page's day and source are its
    /// catalog key.
    pub fn unpack(cols: &[&[u32]], i: usize) -> Row {
        let apex_v4 = cols[4][i];
        let asn1 = cols[13][i];
        Row {
            entry: cols[2][i],
            sld: cols[3][i],
            apex_v4,
            www_v4: cols[5][i] ^ apex_v4,
            aaaa: cols[6][i] != 0,
            cname1: cols[7][i],
            cname2: cols[8][i],
            ns1: cols[9][i],
            ns2: cols[10][i],
            nsh1: cols[11][i],
            nsh2: cols[12][i],
            asn1,
            asn2: cols[14][i],
            www_asn: cols[15][i] ^ asn1,
            aaaa_asn: cols[16][i],
            failed: cols[17][i] != 0,
            data_points: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dps_ecosystem::{DomainId, ZoneEntry};

    #[test]
    fn entry_code_roundtrip() {
        for e in [
            ZoneEntry::Domain(DomainId(0)),
            ZoneEntry::Domain(DomainId(77)),
            ZoneEntry::Infra(0),
            ZoneEntry::Infra(12),
        ] {
            assert_eq!(decode_entry(entry_code(e)), e);
        }
    }

    #[test]
    fn customer_entry_parses_customer_apexes_only() {
        assert_eq!(customer_entry("d5.com"), Some((Source::Com, 10)));
        assert_eq!(customer_entry("d0.nl"), Some((Source::Nl, 0)));
        assert_eq!(customer_entry("cloudflare.com"), None);
        assert_eq!(customer_entry("d5.biz"), None);
        assert_eq!(customer_entry("www.d5.com"), None);
    }

    #[test]
    fn row_pack_unpack() {
        let row = Row {
            entry: 42,
            sld: 3,
            apex_v4: 0x0A000001,
            www_v4: 0x0A000002,
            aaaa: true,
            cname1: 5,
            cname2: 0,
            ns1: 9,
            ns2: 10,
            nsh1: 21,
            nsh2: 22,
            asn1: 13335,
            asn2: 0,
            www_asn: 19551,
            aaaa_asn: 13335,
            failed: false,
            data_points: 7,
        };
        let packed = row.pack(17, Source::Org);
        let cols: Vec<Vec<u32>> = (0..18).map(|c| vec![packed[c]]).collect();
        let refs: Vec<&[u32]> = cols.iter().map(Vec::as_slice).collect();
        let back = Row::unpack(&refs, 0);
        assert_eq!(refs[0][0], 17);
        assert_eq!(Source::from_index(refs[1][0]), Some(Source::Org));
        assert_eq!(back.apex_v4, row.apex_v4);
        assert_eq!(back.www_v4, row.www_v4);
        assert_eq!(back.www_asn, row.www_asn);
        assert_eq!(back.aaaa, row.aaaa);
        assert_eq!(back.aaaa_asn, row.aaaa_asn);
        assert_eq!(back.ns2, row.ns2);
        assert_eq!(back.nsh1, row.nsh1);
        assert_eq!(back.nsh2, row.nsh2);
    }

    #[test]
    fn sources_index_roundtrip() {
        for s in SOURCES {
            assert_eq!(Source::from_index(s.index() as u32), Some(s));
        }
        assert_eq!(Source::from_index(9), None);
    }
}

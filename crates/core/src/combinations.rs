//! Reference-combination analysis (§3.3).
//!
//! > "Based on combinations of references and non-references we can
//! > analyze not only if, but also how a domain uses a DPS. Take for
//! > example a domain that references a DPS by CNAME and ASN, but not by
//! > NS record. This combination of references shows us not only that the
//! > domain uses CNAME-based redirection … Moreover, we learn that the
//! > DNS zone of this domain has not been delegated to the DPS."
//!
//! This module counts, per provider, how many domains exhibit each of the
//! seven non-empty (CNAME, NS, ASN) combinations on a given day, and maps
//! each combination to its §2.1 interpretation.

use crate::references::{CompiledRefs, RefKind};
use dps_measure::observation::Row;
use dps_measure::{SnapshotStore, Source};
use std::fmt::Write as _;

/// The seven observable combinations, densely indexed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Combo {
    /// ASN only: A-record diversion or BGP diversion, own DNS.
    AsnOnly,
    /// CNAME only: alias into the provider but traffic not currently
    /// diverted (e.g. mid-migration or stale alias).
    CnameOnly,
    /// NS only: zone delegated (managed DNS) but no traffic diversion —
    /// the Verisign Managed DNS pattern.
    NsOnly,
    /// CNAME + ASN, no NS: redirection without delegation (the paper's
    /// worked example; the customer keeps DNS control).
    CnameAsn,
    /// NS + ASN, no CNAME: full delegation with diversion.
    NsAsn,
    /// CNAME + NS, no ASN: delegated and aliased but not diverted today
    /// (an on-demand customer in the off state).
    CnameNs,
    /// All three references at once.
    All,
}

/// All combinations in display order.
pub const COMBOS: [Combo; 7] = [
    Combo::AsnOnly,
    Combo::CnameOnly,
    Combo::NsOnly,
    Combo::CnameAsn,
    Combo::NsAsn,
    Combo::CnameNs,
    Combo::All,
];

impl Combo {
    /// Classifies a non-empty reference kind set.
    pub fn from_kinds(kinds: RefKind) -> Combo {
        let c = kinds.contains(RefKind::CNAME);
        let n = kinds.contains(RefKind::NS);
        let a = kinds.contains(RefKind::ASN);
        match (c, n, a) {
            (false, false, true) => Combo::AsnOnly,
            (true, false, false) => Combo::CnameOnly,
            (false, true, false) => Combo::NsOnly,
            (true, false, true) => Combo::CnameAsn,
            (false, true, true) => Combo::NsAsn,
            (true, true, false) => Combo::CnameNs,
            (true, true, true) => Combo::All,
            (false, false, false) => unreachable!("empty kinds are not a combination"),
        }
    }

    /// Short column label.
    pub fn label(self) -> &'static str {
        match self {
            Combo::AsnOnly => "AS",
            Combo::CnameOnly => "CN",
            Combo::NsOnly => "NS",
            Combo::CnameAsn => "CN+AS",
            Combo::NsAsn => "NS+AS",
            Combo::CnameNs => "CN+NS",
            Combo::All => "all",
        }
    }

    /// The §2/§3.3 interpretation of this combination.
    pub fn interpretation(self) -> &'static str {
        match self {
            Combo::AsnOnly => "address diversion (A record or BGP), customer-run DNS",
            Combo::CnameOnly => "alias into the provider without active diversion",
            Combo::NsOnly => "managed DNS / delegation without diversion",
            Combo::CnameAsn => "CNAME redirection; zone NOT delegated to the DPS",
            Combo::NsAsn => "full delegation with active diversion",
            Combo::CnameNs => "delegated + aliased, diversion currently off",
            Combo::All => "delegation and CNAME redirection simultaneously",
        }
    }

    /// Dense index.
    pub fn index(self) -> usize {
        // dps: allow(taint-panic, reason = "COMBOS enumerates every Combo variant, so position() is total over self regardless of input")
        COMBOS.iter().position(|&c| c == self).expect("in table")
    }
}

/// Per-provider combination counts for one day.
#[derive(Debug, Clone)]
pub struct ComboBreakdown {
    /// The analysed day.
    pub day: u32,
    /// `counts[provider][combo]`.
    pub counts: Vec<[u32; 7]>,
}

/// Counts reference combinations over the gTLD sources for one day.
pub fn analyze_day(store: &SnapshotStore, refs: &CompiledRefs, day: u32) -> ComboBreakdown {
    let mut counts = vec![[0u32; 7]; refs.n];
    for source in [Source::Com, Source::Net, Source::Org] {
        let Some(table) = store.table(day, source) else {
            continue;
        };
        let cols: Vec<&[u32]> = (0..table.schema().width())
            .map(|c| table.column(c))
            .collect();
        for i in 0..table.rows() {
            let row = Row::unpack(&cols, i);
            for &(p, kinds) in refs.classify(&row).iter() {
                counts[p as usize][Combo::from_kinds(kinds).index()] += 1;
            }
        }
    }
    ComboBreakdown { day, counts }
}

/// Renders the breakdown as a table.
pub fn render(breakdown: &ComboBreakdown, names: &[String]) -> String {
    let mut out = String::new();
    let _ = write!(out, "{:<14}", "provider");
    for combo in COMBOS {
        let _ = write!(out, " {:>7}", combo.label());
    }
    out.push('\n');
    for (p, name) in names.iter().enumerate() {
        let _ = write!(out, "{name:<14}");
        for combo in COMBOS {
            let _ = write!(out, " {:>7}", breakdown.counts[p][combo.index()]);
        }
        out.push('\n');
    }
    out.push('\n');
    for combo in COMBOS {
        let _ = writeln!(out, "{:>6} = {}", combo.label(), combo.interpretation());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(c: bool, n: bool, a: bool) -> RefKind {
        let mut k = RefKind::empty();
        if c {
            k.insert(RefKind::CNAME);
        }
        if n {
            k.insert(RefKind::NS);
        }
        if a {
            k.insert(RefKind::ASN);
        }
        k
    }

    #[test]
    fn combo_classification_covers_all_seven() {
        assert_eq!(Combo::from_kinds(kinds(false, false, true)), Combo::AsnOnly);
        assert_eq!(
            Combo::from_kinds(kinds(true, false, false)),
            Combo::CnameOnly
        );
        assert_eq!(Combo::from_kinds(kinds(false, true, false)), Combo::NsOnly);
        assert_eq!(Combo::from_kinds(kinds(true, false, true)), Combo::CnameAsn);
        assert_eq!(Combo::from_kinds(kinds(false, true, true)), Combo::NsAsn);
        assert_eq!(Combo::from_kinds(kinds(true, true, false)), Combo::CnameNs);
        assert_eq!(Combo::from_kinds(kinds(true, true, true)), Combo::All);
    }

    #[test]
    fn indices_are_dense_and_stable() {
        for (i, c) in COMBOS.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn small_world_breakdown_matches_postures() {
        use dps_ecosystem::{ScenarioParams, World};
        use dps_measure::StudyConfig;
        let params = ScenarioParams {
            seed: 13,
            scale: 0.1,
            gtld_days: 2,
            cc_start_day: 2,
        };
        let mut world = World::imc2016(params);
        let store = crate::testing::swept(
            &mut world,
            StudyConfig {
                days: 1,
                cc_start_day: 99,
                stride: 1,
            },
        );
        let refs = crate::references::CompiledRefs::compile(
            &crate::references::ProviderRefs::paper_table2(),
            &store.dict,
        );
        let b = analyze_day(&store, &refs, 0);

        // CloudFlare (index 2) is delegation-heavy: NS+AS dominates.
        let cf = &b.counts[2];
        assert!(cf[Combo::NsAsn.index()] > cf[Combo::CnameAsn.index()]);
        // Incapsula (index 5) is CNAME-heavy: CN+AS dominates, almost no NS.
        let inc = &b.counts[5];
        assert!(inc[Combo::CnameAsn.index()] >= inc[Combo::NsAsn.index()]);
        // Verisign (index 8) has a significant NS-only population.
        let vrsn = &b.counts[8];
        assert!(vrsn[Combo::NsOnly.index()] > 0);
        // DOSarrest (index 3) sells no DNS product: ASN-only exclusively.
        let dos = &b.counts[3];
        for combo in COMBOS {
            if combo != Combo::AsnOnly {
                assert_eq!(dos[combo.index()], 0, "{combo:?}");
            }
        }
        let rendered = render(&b, &refs.names);
        assert!(rendered.contains("managed DNS"));
    }
}

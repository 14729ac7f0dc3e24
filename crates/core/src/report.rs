//! Text and CSV builders for every table and figure in the paper.

use crate::flux::FluxSeries;
use crate::growth::GrowthAnalysis;
use crate::peaks::PeakDistribution;
use crate::quality::QualityMask;
use crate::references::ProviderRefs;
use crate::scan::SeriesSet;
use dps_measure::{SnapshotStore, SOURCES};
use dps_netsim::Day;
use std::fmt::Write as _;

/// Pretty-prints a count like the paper (`161.2M`, `534.5G`).
pub fn human_count(v: f64) -> String {
    let (val, unit) = if v >= 1e9 {
        (v / 1e9, "G")
    } else if v >= 1e6 {
        (v / 1e6, "M")
    } else if v >= 1e3 {
        (v / 1e3, "k")
    } else {
        (v, "")
    };
    format!("{val:.1}{unit}")
}

/// Pretty-prints a byte size (`17.5TiB`, `2.1GiB`).
pub fn human_bytes(v: u64) -> String {
    let v = v as f64;
    for (limit, unit) in [
        (1u64 << 40, "TiB"),
        (1 << 30, "GiB"),
        (1 << 20, "MiB"),
        (1 << 10, "KiB"),
    ] {
        if v >= limit as f64 {
            return format!("{:.1}{unit}", v / limit as f64);
        }
    }
    format!("{v:.0}B")
}

/// Table 1: data-set statistics per source.
pub fn table1(store: &SnapshotStore) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:>10} {:>6} {:>9} {:>9} {:>10} {:>10}",
        "Source", "start", "days", "#SLDs", "#DPs", "size", "(raw)"
    );
    let mut total_slds = 0u64;
    let mut total_dps = 0u64;
    let mut total_size = 0u64;
    for source in SOURCES {
        let st = store.stats(source);
        let start = st
            .first_day
            .map(|d| Day(d).date().to_string())
            .unwrap_or_else(|| "-".into());
        let _ = writeln!(
            out,
            "{:<10} {:>10} {:>6} {:>9} {:>9} {:>10} {:>10}",
            source.label(),
            start,
            st.days,
            human_count(st.unique_slds.len() as f64),
            human_count(st.data_points as f64),
            human_bytes(st.stored_bytes),
            human_bytes(st.raw_bytes),
        );
        total_slds += st.unique_slds.len() as u64;
        total_dps += st.data_points;
        total_size += st.stored_bytes;
    }
    let _ = writeln!(
        out,
        "{:<10} {:>10} {:>6} {:>9} {:>9} {:>10}",
        "Total",
        "",
        "",
        human_count(total_slds as f64),
        human_count(total_dps as f64),
        human_bytes(total_size),
    );
    out
}

/// Data-quality summary: per-source coverage, failure census, and the
/// days a [`QualityMask`] gates out (the automated §4.2 cleaning log).
pub fn quality_summary(store: &SnapshotStore, mask: &QualityMask) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:>5} {:>9} {:>8} {:>8} {:>8} {:>7} {:>7} {:>7}  masked days",
        "Source", "days", "min cov", "failed", "retried", "recov", "t/o", "unrch", "hedges"
    );
    for source in SOURCES {
        let qualities = store.qualities(source);
        if qualities.is_empty() {
            continue;
        }
        let min_cov = qualities
            .iter()
            .map(|q| q.coverage())
            .fold(f64::INFINITY, f64::min);
        let sum = |f: fn(&dps_measure::DayQuality) -> u32| -> u64 {
            qualities.iter().map(|q| u64::from(f(q))).sum()
        };
        let masked = mask.masked_days(source);
        let masked_str = if masked.is_empty() {
            "-".to_string()
        } else {
            masked
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        let _ = writeln!(
            out,
            "{:<10} {:>5} {:>8.2}% {:>8} {:>8} {:>8} {:>7} {:>7} {:>7}  {}",
            source.label(),
            qualities.len(),
            min_cov * 100.0,
            sum(|q| q.failed),
            sum(|q| q.retried),
            sum(|q| q.recovered),
            sum(|q| q.causes.timeouts),
            sum(|q| q.causes.unreachable),
            sum(|q| q.hedges),
            masked_str,
        );
    }
    if out.lines().count() <= 1 {
        out.push_str("(no quality records in this archive)\n");
    } else {
        let _ = writeln!(
            out,
            "mask: coverage < {:.1}% on {} (day, source) cells",
            mask.min_coverage() * 100.0,
            mask.len()
        );
    }
    out
}

/// Table 2: provider references.
pub fn table2(refs: &[ProviderRefs]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:<28} {:<44} NS SLD(s)",
        "Provider", "AS number(s)", "CNAME SLD(s)"
    );
    for r in refs {
        let asns = r
            .asns
            .iter()
            .map(u32::to_string)
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(
            out,
            "{:<14} {:<28} {:<44} {}",
            r.name,
            asns,
            if r.cname_slds.is_empty() {
                "—".into()
            } else {
                r.cname_slds.join(", ")
            },
            if r.ns_slds.is_empty() {
                "—".into()
            } else {
                r.ns_slds.join(", ")
            },
        );
    }
    out
}

/// Table 2 discovered-vs-truth comparison; returns the text and the number
/// of exact per-provider matches.
pub fn table2_comparison(found: &[ProviderRefs], truth: &[ProviderRefs]) -> (String, usize) {
    let mut out = String::new();
    let mut exact = 0usize;
    for (f, t) in found.iter().zip(truth) {
        let mut fa = f.asns.clone();
        fa.sort_unstable();
        let mut ta = t.asns.clone();
        ta.sort_unstable();
        let sort = |v: &[String]| {
            let mut v = v.to_vec();
            v.sort();
            v
        };
        let asns_ok = fa == ta;
        let cname_ok = sort(&f.cname_slds) == sort(&t.cname_slds);
        let ns_ok = sort(&f.ns_slds) == sort(&t.ns_slds);
        if asns_ok && cname_ok && ns_ok {
            exact += 1;
        }
        let mark = |ok: bool| if ok { "ok" } else { "DIFF" };
        let _ = writeln!(
            out,
            "{:<14} asns:{:<5} cname:{:<5} ns:{:<5}",
            t.name,
            mark(asns_ok),
            mark(cname_ok),
            mark(ns_ok)
        );
        if !asns_ok {
            let _ = writeln!(out, "    asns found {fa:?} vs truth {ta:?}");
        }
        if !cname_ok {
            let _ = writeln!(
                out,
                "    cname found {:?} vs truth {:?}",
                sort(&f.cname_slds),
                sort(&t.cname_slds)
            );
        }
        if !ns_ok {
            let _ = writeln!(
                out,
                "    ns found {:?} vs truth {:?}",
                sort(&f.ns_slds),
                sort(&t.ns_slds)
            );
        }
    }
    (out, exact)
}

/// Footnote-10 analysis: the distinct NS host names referenced by one
/// provider's delegated domains on a single day, with reference counts —
/// "There are 403 such names on April 30th, 2016, with
/// kate.ns.cloudflare.com the most-referenced (by 112k domains)".
pub fn ns_host_census(
    store: &SnapshotStore,
    refs: &crate::references::CompiledRefs,
    provider: u8,
    day: u32,
) -> Vec<(String, u32)> {
    use dps_measure::observation::Row;
    use dps_measure::Source;
    let mut hist: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
    for source in [Source::Com, Source::Net, Source::Org] {
        if let Some(table) = store.table(day, source) {
            let cols: Vec<&[u32]> = (0..table.schema().width())
                .map(|c| table.column(c))
                .collect();
            for i in 0..table.rows() {
                let row = Row::unpack(&cols, i);
                let delegated = [row.ns1, row.ns2]
                    .iter()
                    .any(|&sld| refs.provider_of_ns(sld) == Some(provider));
                if delegated {
                    for host in [row.nsh1, row.nsh2] {
                        if host != 0 {
                            *hist.entry(host).or_default() += 1;
                        }
                    }
                }
            }
        }
    }
    let mut out: Vec<(String, u32)> = hist
        .into_iter()
        .map(|(id, c)| (store.dict.resolve(id).unwrap_or("?").to_string(), c))
        .collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    out
}

fn date_of(day: u32) -> String {
    Day(day).date().to_string()
}

/// Fig. 2 CSV: date, com, net, org, combined.
pub fn fig2_csv(series: &SeriesSet) -> String {
    let mut out = String::from("date,com,net,org,combined\n");
    let combined = series.combined_any();
    for (i, &day) in series.days.iter().enumerate() {
        let _ = writeln!(
            out,
            "{},{},{},{},{}",
            date_of(day),
            series.tld_any[0][i],
            series.tld_any[1][i],
            series.tld_any[2][i],
            combined[i]
        );
    }
    out
}

/// Fig. 3 CSV: per provider, total plus AS/CNAME/NS breakdown.
pub fn fig3_csv(series: &SeriesSet, names: &[String]) -> String {
    let mut out = String::from("date,provider,any,asn,cname,ns\n");
    for (p, name) in names.iter().enumerate() {
        for (i, &day) in series.days.iter().enumerate() {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{}",
                date_of(day),
                name,
                series.provider_any[p][i],
                series.provider_asn[p][i],
                series.provider_cname[p][i],
                series.provider_ns[p][i]
            );
        }
    }
    out
}

/// Fig. 4: average namespace distribution vs DPS-use distribution over the
/// three gTLDs. Returns `((ns_com, ns_net, ns_org), (dps_com, dps_net,
/// dps_org))` as percentages, plus a text rendering.
pub fn fig4(series: &SeriesSet) -> (([f64; 3], [f64; 3]), String) {
    let mut ns = [0f64; 3];
    let mut dps = [0f64; 3];
    let n = series.days.len().max(1) as f64;
    for i in 0..series.days.len() {
        let zone_total: f64 = (0..3).map(|s| f64::from(series.zone_sizes[s][i])).sum();
        let dps_total: f64 = (0..3).map(|s| f64::from(series.tld_any[s][i])).sum();
        for s in 0..3 {
            if zone_total > 0.0 {
                ns[s] += f64::from(series.zone_sizes[s][i]) / zone_total / n;
            }
            if dps_total > 0.0 {
                dps[s] += f64::from(series.tld_any[s][i]) / dps_total / n;
            }
        }
    }
    let text = format!(
        "Namespace distribution: com {:.2}%  net {:.2}%  org {:.2}%\n\
         DPS use distribution:   com {:.2}%  net {:.2}%  org {:.2}%\n",
        ns[0] * 100.0,
        ns[1] * 100.0,
        ns[2] * 100.0,
        dps[0] * 100.0,
        dps[1] * 100.0,
        dps[2] * 100.0
    );
    ((ns.map(|v| v * 100.0), dps.map(|v| v * 100.0)), text)
}

/// Growth CSV (Figs. 5–6): date and the normalised series of each labelled
/// analysis.
pub fn growth_csv(analyses: &[(&str, &GrowthAnalysis)]) -> String {
    let mut out = String::from("date");
    for (label, _) in analyses {
        let _ = write!(out, ",{label}");
    }
    out.push('\n');
    if let Some((_, first)) = analyses.first() {
        for (i, &day) in first.days.iter().enumerate() {
            let _ = write!(out, "{}", date_of(day));
            for (_, g) in analyses {
                let v = g.normalized.get(i).copied().unwrap_or(f64::NAN);
                let _ = write!(out, ",{v:.4}");
            }
            out.push('\n');
        }
    }
    out
}

/// Fig. 7 CSV: per provider, window start date, influx, outflux, delta.
pub fn fig7_csv(flux: &[FluxSeries], names: &[String], days: &[u32]) -> String {
    let mut out = String::from("provider,window_start,influx,outflux,delta\n");
    for (p, series) in flux.iter().enumerate() {
        for (w, &start) in series.window_starts.iter().enumerate() {
            let day = days.get(start).copied().unwrap_or(0);
            let _ = writeln!(
                out,
                "{},{},{},{},{}",
                names[p],
                date_of(day),
                series.influx[w],
                series.outflux[w],
                i64::from(series.influx[w]) - i64::from(series.outflux[w])
            );
        }
    }
    out
}

/// Fig. 8: per-provider peak-duration CDFs with the paper-style
/// 80th-percentile marker; text summary plus CSV of the CDF points.
pub fn fig8(dists: &[PeakDistribution], names: &[String]) -> (String, String) {
    let mut summary = String::new();
    let mut csv = String::from("provider,duration_days,cdf\n");
    for (p, dist) in dists.iter().enumerate() {
        let p80 = dist.quantile(0.8);
        let _ = writeln!(
            summary,
            "{:<14} on-demand domains: {:>5}  always-on: {:>5}  peaks: {:>6}  p80: {}",
            names[p],
            dist.domains,
            dist.always_on,
            dist.durations.len(),
            p80.map(|d| format!("{d}d")).unwrap_or_else(|| "-".into()),
        );
        let maxd = dist.durations.last().copied().unwrap_or(0);
        let mut d = 1u32;
        while d <= maxd {
            let _ = writeln!(csv, "{},{},{:.4}", names[p], d, dist.cdf(d));
            d += 1.max(maxd / 120);
        }
    }
    (summary, csv)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn humanize() {
        assert_eq!(human_count(161_200_000.0), "161.2M");
        assert_eq!(human_count(534.0), "534.0");
        assert_eq!(human_count(62_400.0), "62.4k");
        assert_eq!(human_bytes(19_241_453_486_080), "17.5TiB");
        assert_eq!(human_bytes(100), "100B");
    }

    #[test]
    fn table2_renders_paper_truth() {
        let truth = ProviderRefs::paper_table2();
        let text = table2(&truth);
        assert!(text.contains("CloudFlare"));
        assert!(text.contains("13335"));
        assert!(text.contains("incapdns.net"));
        assert!(text.contains("—"), "providers without SLDs render a dash");
    }

    #[test]
    fn table2_comparison_counts_matches() {
        let truth = ProviderRefs::paper_table2();
        let (text, exact) = table2_comparison(&truth, &truth);
        assert_eq!(exact, 9);
        assert!(!text.contains("DIFF"));
        let mut broken = truth.clone();
        broken[0].asns.pop();
        let (text, exact) = table2_comparison(&broken, &truth);
        assert_eq!(exact, 8);
        assert!(text.contains("DIFF"));
    }

    #[test]
    fn fig4_percentages_sum_to_100() {
        let mut series = SeriesSet {
            days: vec![0, 1],
            zone_sizes: vec![
                vec![80, 80],
                vec![12, 12],
                vec![8, 8],
                vec![0, 0],
                vec![0, 0],
            ],
            provider_any: vec![],
            provider_asn: vec![],
            provider_cname: vec![],
            provider_ns: vec![],
            tld_any: vec![vec![9, 9], vec![1, 1], vec![0, 0]],
            source_any: vec![vec![0, 0]; 5],
        };
        series.source_any[0] = vec![9, 9];
        let ((ns, dps), text) = fig4(&series);
        assert!((ns.iter().sum::<f64>() - 100.0).abs() < 1e-6);
        assert!((dps.iter().sum::<f64>() - 100.0).abs() < 1e-6);
        assert!((ns[0] - 80.0).abs() < 1e-6);
        assert!((dps[0] - 90.0).abs() < 1e-6);
        assert!(text.contains("com"));
    }
}

//! Regenerating every table and figure of the paper.
//!
//! [`Context::build`] runs the whole pipeline once (world → study →
//! classification scan); each `exp_*` function then derives one artifact,
//! returning a printable summary and writing machine-readable CSV into the
//! output directory.

use dps_core::discovery::{discover, seeds_from_registry, DiscoveryConfig};
use dps_core::growth::{self, GrowthConfig};
use dps_core::references::{CompiledRefs, ProviderRefs};
use dps_core::scan::{ScanOutput, Scanner};
use dps_core::{attribution, combinations, flux, mechanism, peaks, report};
use dps_ecosystem::{ScenarioParams, World};
use dps_measure::{SnapshotStore, Source, Study, StudyConfig};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

/// The nine provider marketing names used to seed discovery.
pub const PROVIDER_KEYWORDS: [&str; 9] = [
    "Akamai",
    "CenturyLink",
    "CloudFlare",
    "DOSarrest",
    "F5",
    "Incapsula",
    "Level 3",
    "Neustar",
    "VeriSign",
];

/// Paper values for the Fig. 8 per-provider 80th-percentile markers.
pub const PAPER_P80: [(usize, u32); 9] = [
    (0, 10), // Akamai
    (1, 6),  // CenturyLink
    (2, 31), // CloudFlare
    (3, 27), // DOSarrest
    (4, 79), // F5
    (5, 11), // Incapsula
    (6, 4),  // Level 3
    (7, 4),  // Neustar
    (8, 16), // Verisign
];

/// Experiment-run configuration.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// World seed.
    pub seed: u64,
    /// Population scale (1.0 = 1/1000 of the real namespace).
    pub scale: f64,
    /// Days of gTLD measurement.
    pub days: u32,
    /// First day of .nl / Alexa measurement.
    pub cc_start: u32,
    /// Measure every n-th day.
    pub stride: u32,
    /// Where CSV artifacts go.
    pub out_dir: PathBuf,
    /// Optional archive cache: resume/load the `dps-store` archive under
    /// this directory (a killed sweep restarts from its last committed
    /// day). Without it the study sweeps into a temporary directory that
    /// is removed once the archive is loaded.
    pub store_dir: Option<PathBuf>,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            seed: 2016,
            scale: 1.0,
            days: 550,
            cc_start: 366,
            stride: 1,
            out_dir: PathBuf::from("target/experiments"),
            store_dir: None,
        }
    }
}

impl ExperimentConfig {
    /// A quick configuration for smoke runs and benches.
    pub fn quick() -> Self {
        Self {
            scale: 0.05,
            days: 120,
            cc_start: 80,
            out_dir: PathBuf::from("target/experiments-quick"),
            ..Self::default()
        }
    }
}

/// A fresh, empty temporary directory for a study run without a store
/// directory.
fn scratch_dir() -> PathBuf {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("dps-study-{}-{n}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Everything the experiments share: one study, one scan.
pub struct Context {
    /// The configuration used.
    pub config: ExperimentConfig,
    /// The world, advanced to the final day.
    pub world: World,
    /// The measurement archive.
    pub store: SnapshotStore,
    /// Compiled paper references.
    pub refs: CompiledRefs,
    /// Series + timelines.
    pub scan: ScanOutput,
}

impl Context {
    /// Runs world + study + scan. This is the expensive step (minutes at
    /// full scale); every experiment below is cheap afterwards.
    pub fn build(config: ExperimentConfig) -> std::io::Result<Self> {
        let t0 = std::time::Instant::now();
        let params = ScenarioParams {
            seed: config.seed,
            scale: config.scale,
            gtld_days: config.days,
            cc_start_day: config.cc_start,
        };
        let mut world = World::imc2016(params);
        eprintln!(
            "[{:>7.1?}] world built: {} domains",
            t0.elapsed(),
            world.domains().len()
        );
        let study = Study::new(StudyConfig {
            days: config.days,
            cc_start_day: config.cc_start,
            stride: config.stride,
        });
        // The study always sweeps into an archive: a complete one is left
        // as it is, a partial one (killed sweep) resumes from its last
        // committed day, a missing one is measured and written as we go.
        // Without a store directory the archive lives in a temporary
        // directory that is removed once loaded.
        let dir = match &config.store_dir {
            Some(dir) => dir.clone(),
            None => scratch_dir(),
        };
        let path = dir.join(dps_measure::ARCHIVE_FILE);
        let store = std::fs::create_dir_all(&dir)
            .and_then(|()| study.run_archived(&mut world, &path, None))
            .and_then(|()| SnapshotStore::load_archive(&path))
            .map_err(|e| std::io::Error::new(e.kind(), format!("{}: {e}", dir.display())));
        if config.store_dir.is_none() {
            std::fs::remove_dir_all(&dir).ok();
        }
        let store = store?;
        eprintln!(
            "[{:>7.1?}] study archived: {} (exact data-point counts)",
            t0.elapsed(),
            report::human_bytes(store.total_stored_bytes()),
        );
        let refs = CompiledRefs::compile(&ProviderRefs::paper_table2(), &store.dict);
        let scan = Scanner::new(&refs).run(&store);
        eprintln!(
            "[{:>7.1?}] scan complete: {} referencing (domain, provider) pairs",
            t0.elapsed(),
            scan.timelines.map.len()
        );
        std::fs::create_dir_all(&config.out_dir)?;
        Ok(Self {
            config,
            world,
            store,
            refs,
            scan,
        })
    }

    fn write(&self, name: &str, content: &str) {
        let path = self.config.out_dir.join(name);
        std::fs::write(&path, content).expect("write artifact");
        eprintln!("  wrote {}", path.display());
    }

    /// Growth config adjusted for the measurement stride.
    fn growth_config(&self) -> GrowthConfig {
        let stride = self.config.stride.max(1) as usize;
        GrowthConfig {
            median_window: (28 / stride).max(3),
            max_excursion_days: (240 / stride).max(10),
            ..GrowthConfig::default()
        }
    }
}

/// Table 1: data-set statistics.
pub fn exp_table1(ctx: &Context) -> String {
    let text = report::table1(&ctx.store);
    ctx.write("table1.txt", &text);
    let mut out = String::from("== Table 1: data set ==\n");
    out.push_str(&text);
    let _ = writeln!(
        out,
        "\npaper (at 1000x our scale): .com 161.2M SLDs / 534.5G DPs, total 203.3M SLDs / 655.7G DPs / 23.3TiB"
    );
    out
}

/// Table 2: reference discovery vs ground truth.
pub fn exp_table2(ctx: &Context) -> String {
    let seeds = seeds_from_registry(ctx.world.as_registry(), &PROVIDER_KEYWORDS);
    let dconfig = DiscoveryConfig {
        day_stride: (14 / ctx.config.stride.max(1) as usize).max(1),
        ..DiscoveryConfig::default()
    };
    let found = discover(&ctx.store, &seeds, &dconfig);
    let truth = ProviderRefs::paper_table2();
    let rendered = report::table2(&found);
    let (diff, exact) = report::table2_comparison(&found, &truth);
    ctx.write("table2.txt", &format!("{rendered}\n{diff}"));
    format!(
        "== Table 2: discovered references ==\n{rendered}\n{diff}\nexact provider matches: {exact}/9\n"
    )
}

/// Figure 2: DPS use per gTLD over time.
pub fn exp_fig2(ctx: &Context) -> String {
    let csv = report::fig2_csv(&ctx.scan.series);
    ctx.write("fig2.csv", &csv);
    let series = &ctx.scan.series;
    let combined = series.combined_any();
    let (max_i, max_v) = combined
        .iter()
        .enumerate()
        .max_by_key(|(_, &v)| v)
        .map(|(i, &v)| (i, v))
        .unwrap();
    let mut out = String::from("== Fig. 2: DPS use and zone breakdown ==\n");
    let _ = writeln!(
        out,
        "combined series: start {}, end {}, peak {} on {}",
        combined[0],
        combined.last().unwrap(),
        max_v,
        dps_netsim::Day(series.days[max_i])
    );
    let _ = writeln!(
        out,
        "paper shape: many anomalous peaks/troughs, e.g. ~1.1M names on 2015-03-05 — ours peaks near that date at scale"
    );
    let tlds: Vec<&[u32]> = (0..3).map(|s| series.tld_any[s].as_slice()).collect();
    let t = attribution::transversality(&tlds, 8.0, 30);
    let _ = writeln!(
        out,
        "transversality: {:.0}% of .com anomaly days replicate in .net/.org (paper: anomalies are transversal to the zones)",
        t * 100.0
    );
    out
}

/// Figure 3: per-provider breakdown with AS/CNAME/NS lines.
pub fn exp_fig3(ctx: &Context) -> String {
    let csv = report::fig3_csv(&ctx.scan.series, &ctx.refs.names);
    ctx.write("fig3.csv", &csv);
    let s = &ctx.scan.series;
    let last = s.days.len() - 1;
    let mut out =
        String::from("== Fig. 3: per-provider use and protection methods (last day) ==\n");
    let _ = writeln!(
        out,
        "{:<14} {:>8} {:>8} {:>8} {:>8}",
        "provider", "any", "AS", "CNAME", "NS"
    );
    for (p, name) in ctx.refs.names.iter().enumerate() {
        let _ = writeln!(
            out,
            "{:<14} {:>8} {:>8} {:>8} {:>8}",
            name,
            s.provider_any[p][last],
            s.provider_asn[p][last],
            s.provider_cname[p][last],
            s.provider_ns[p][last]
        );
    }
    // Headline observations from §4.3.
    let cf = 2;
    let ns_share = f64::from(s.provider_ns[cf][last]) / f64::from(s.provider_any[cf][last].max(1));
    let _ = writeln!(
        out,
        "\nCloudFlare delegation share: {:.0}% (paper: ~75%)",
        ns_share * 100.0
    );
    let inc = 5;
    let inc_ns_share =
        f64::from(s.provider_ns[inc][last]) / f64::from(s.provider_any[inc][last].max(1));
    let _ = writeln!(
        out,
        "Incapsula delegation share: {:.2}% (paper: ~0.02%)",
        inc_ns_share * 100.0
    );
    out
}

/// Figure 4: namespace vs DPS-use distribution over the gTLDs.
pub fn exp_fig4(ctx: &Context) -> String {
    let ((ns, dps), text) = report::fig4(&ctx.scan.series);
    ctx.write(
        "fig4.csv",
        &format!(
            "distribution,com,net,org\nnamespace,{:.2},{:.2},{:.2}\ndps_use,{:.2},{:.2},{:.2}\n",
            ns[0], ns[1], ns[2], dps[0], dps[1], dps[2]
        ),
    );
    format!(
        "== Fig. 4: distribution over the namespace ==\n{text}paper: namespace 82.47/10.33/7.21, DPS use 85.71/8.22/6.07\n"
    )
}

/// Figure 5: growth of DPS use vs overall expansion (gTLDs).
pub fn exp_fig5(ctx: &Context) -> String {
    let series = &ctx.scan.series;
    let gconf = ctx.growth_config();
    let combined = series.combined_any();
    let g_dps = growth::analyze(&series.days, &combined, &gconf);
    let g_zone = growth::analyze(&series.days, &series.combined_zone_size(), &gconf);
    let csv = report::growth_csv(&[("dps_adoption", &g_dps), ("overall_expansion", &g_zone)]);
    ctx.write("fig5.csv", &csv);
    format!(
        "== Fig. 5: growth in ~50% of the DNS ==\n\
         DPS adoption growth:   {:.3}x   (paper: 1.24x)\n\
         overall expansion:     {:.3}x   (paper: 1.09x)\n\
         large anomalies cleaned: {}\n",
        g_dps.factor,
        g_zone.factor,
        g_dps.shifts.len()
    )
}

/// Figure 6: growth for .nl and the Alexa list over their 6-month window.
pub fn exp_fig6(ctx: &Context) -> String {
    let series = &ctx.scan.series;
    // Restrict to the cc window: days where .nl was actually measured.
    let idx: Vec<usize> = (0..series.days.len())
        .filter(|&i| series.zone_sizes[Source::Nl.index()][i] > 0)
        .collect();
    if idx.is_empty() {
        return "== Fig. 6: skipped (no .nl window in this run) ==\n".into();
    }
    let days: Vec<u32> = idx.iter().map(|&i| series.days[i]).collect();
    let pick = |v: &[u32]| -> Vec<u32> { idx.iter().map(|&i| v[i]).collect() };
    let gconf = ctx.growth_config();
    let g_nl = growth::analyze(&days, &pick(&series.source_any[Source::Nl.index()]), &gconf);
    let g_nl_zone = growth::analyze(&days, &pick(&series.zone_sizes[Source::Nl.index()]), &gconf);
    let g_alexa = growth::analyze(
        &days,
        &pick(&series.source_any[Source::Alexa.index()]),
        &gconf,
    );
    let csv = report::growth_csv(&[
        ("nl_dps", &g_nl),
        ("nl_expansion", &g_nl_zone),
        ("alexa_dps", &g_alexa),
    ]);
    ctx.write("fig6.csv", &csv);
    format!(
        "== Fig. 6: growth in .nl and Alexa ==\n\
         .nl DPS adoption:    {:.3}x   (paper: ~1.105x)\n\
         .nl expansion:       {:.3}x   (paper: ~1.018x)\n\
         Alexa DPS adoption:  {:.3}x   (paper: ~1.118x)\n",
        g_nl.factor, g_nl_zone.factor, g_alexa.factor
    )
}

/// Figure 7: per-provider flux in two-week windows.
pub fn exp_fig7(ctx: &Context) -> String {
    let window = (14 / ctx.config.stride.max(1) as usize).max(1);
    let fl = flux::analyze(&ctx.scan.timelines, ctx.refs.n, window);
    let csv = report::fig7_csv(&fl, &ctx.refs.names, &ctx.scan.series.days);
    ctx.write("fig7.csv", &csv);
    let mut out = String::from("== Fig. 7: flux of DPS use per provider ==\n");
    for (p, series) in fl.iter().enumerate() {
        let delta = series.delta();
        let max_in = delta.iter().max().copied().unwrap_or(0);
        let max_out = delta.iter().min().copied().unwrap_or(0);
        let (total, _) = flux::total_domains(series);
        let _ = writeln!(
            out,
            "{:<14} domains: {:>6}  max window delta: {:+}/{:+}",
            ctx.refs.names[p], total, max_in, max_out
        );
    }
    out.push_str("paper shape: repeated anomalies collapse to one influx/outflux pair; CloudFlare influx is spread out\n");
    out
}

/// Figure 8: on-demand peak-duration CDFs.
pub fn exp_fig8(ctx: &Context) -> String {
    let dists = peaks::analyze(&ctx.scan.timelines, ctx.refs.n, ctx.config.stride.max(1));
    let (summary, csv) = report::fig8(&dists, &ctx.refs.names);
    ctx.write("fig8.csv", &csv);
    let mut out = String::from("== Fig. 8: on-demand peak duration occurrences ==\n");
    out.push_str(&summary);
    out.push_str("\npaper p80 markers: ");
    for &(p, days) in &PAPER_P80 {
        let measured = dists[p]
            .quantile(0.8)
            .map(|d| d.to_string())
            .unwrap_or_else(|| "-".into());
        let _ = write!(out, "{} {}d/{}d  ", ctx.refs.names[p], measured, days);
    }
    out.push_str("(measured/paper)\n");
    out
}

/// Anomaly attribution demo on the three largest swings.
pub fn exp_anomalies(ctx: &Context) -> String {
    let mut out = String::from("== Anomaly attribution (§4.4.1) ==\n");
    let mut all: Vec<(usize, attribution::Anomaly)> = Vec::new();
    for p in 0..ctx.refs.n {
        for a in attribution::find_anomalies(&ctx.scan.series.provider_any[p], 8.0, 30) {
            all.push((p, a));
        }
    }
    all.sort_by_key(|(_, a)| std::cmp::Reverse(a.delta.abs()));
    for (p, a) in all.iter().take(8) {
        let day = ctx.scan.series.days[a.day_index];
        let prev = ctx.scan.series.days[a.day_index - 1];
        let att = attribution::explain(&ctx.store, &ctx.refs, *p as u8, prev, day);
        let party = att.dominant_party().unwrap_or("(mixed)").to_string();
        let _ = writeln!(
            out,
            "{:<14} {}: Δ{:+}  (+{} -{})  dominant party: {}",
            ctx.refs.names[*p],
            dps_netsim::Day(day),
            a.delta,
            att.joined,
            att.left,
            party
        );
    }
    let _ = writeln!(out, "({} anomalies total)", all.len());
    out
}

/// Reference-combination breakdown (§3.3, "not only if, but how"),
/// evaluated on the last measured day.
pub fn exp_combos(ctx: &Context) -> String {
    let last = *ctx.scan.series.days.last().expect("days");
    let breakdown = combinations::analyze_day(&ctx.store, &ctx.refs, last);
    let text = combinations::render(&breakdown, &ctx.refs.names);
    ctx.write("combinations.txt", &text);
    format!(
        "== Reference combinations on {} (§3.3) ==\n{text}",
        dps_netsim::Day(last)
    )
}

/// On-demand mechanism identification (§3.4).
pub fn exp_mechanisms(ctx: &Context) -> String {
    let breakdowns = mechanism::analyze(&ctx.store, &ctx.refs, &ctx.scan.timelines);
    let text = mechanism::render(&breakdowns, &ctx.refs.names);
    ctx.write("mechanisms.txt", &text);
    format!(
        "== On-demand diversion mechanisms (§3.4) ==\n{text}\
         scenario design: CloudFlare/Verisign flip via managed DNS, Akamai/Incapsula/Neustar\n\
         via CNAME changes, the rest via A-record changes; ENOM/ZOHO baskets divert via BGP.\n"
    )
}

/// Ablation: ASN-only detection vs the full CNAME+NS+ASN methodology.
pub fn exp_ablation(ctx: &Context) -> String {
    let s = &ctx.scan.series;
    let last = s.days.len() - 1;
    let mut out = String::from("== Ablation: ASN-only vs full detection (last day) ==\n");
    let _ = writeln!(
        out,
        "{:<14} {:>8} {:>9} {:>8}",
        "provider", "ASN-only", "full", "missed"
    );
    for (p, name) in ctx.refs.names.iter().enumerate() {
        let asn_only = s.provider_asn[p][last];
        let full = s.provider_any[p][last];
        let _ = writeln!(
            out,
            "{:<14} {:>8} {:>9} {:>7.1}%",
            name,
            asn_only,
            full,
            100.0 * f64::from(full - asn_only) / f64::from(full.max(1))
        );
    }
    out.push_str(
        "ASN-only detection misses managed-DNS/no-diversion customers (Verisign's NS-only\n\
         population) and any domain measured while diversion was off — the reason the\n\
         paper combines CNAME, NS and ASN references.\n",
    );
    out
}

/// Ablation: smoothing window and anomaly-cleaning sweep on Fig. 5.
pub fn exp_smoothing(ctx: &Context) -> String {
    let series = &ctx.scan.series;
    let combined = series.combined_any();
    let mut out =
        String::from("== Ablation: smoothing window / cleaning on the Fig. 5 factor ==\n");
    let _ = writeln!(out, "{:>8} {:>10} {:>10}", "window", "cleaned", "raw");
    let stride = ctx.config.stride.max(1) as usize;
    for window in [7usize, 14, 28, 56] {
        let factors: Vec<f64> = [true, false]
            .iter()
            .map(|&clean| {
                let config = GrowthConfig {
                    median_window: (window / stride).max(1),
                    clean_anomalies: clean,
                    max_excursion_days: (240 / stride).max(10),
                    ..GrowthConfig::default()
                };
                growth::analyze(&series.days, &combined, &config).factor
            })
            .collect();
        let _ = writeln!(
            out,
            "{:>7}d {:>9.3}x {:>9.3}x",
            window, factors[0], factors[1]
        );
    }
    out.push_str(
        "the cleaned factor is stable across windows; without cleaning, window choice matters\n",
    );
    out
}

/// Ablation: per-day data-quality gating (the automated §4.2 cleaning).
///
/// A sweep that collapses in the final stretch of the window fakes a mass
/// provider exodus: the tail level shift is unpaired, so anomaly cleaning
/// (correctly) keeps it and the growth factor craters. Masking those days
/// via their low-coverage `DayQuality` records bridges them instead and
/// restores the true factor. Also prints the store's real per-day quality
/// summary, as `dpscope store info` would.
pub fn exp_quality(ctx: &Context) -> String {
    use dps_core::{QualityMask, DEFAULT_MIN_COVERAGE};
    let series = &ctx.scan.series;
    let combined = series.combined_any();
    let stride = ctx.config.stride.max(1) as usize;
    let config = GrowthConfig {
        median_window: (28 / stride).max(1),
        max_excursion_days: (240 / stride).max(10),
        ..GrowthConfig::default()
    };
    let reference = growth::analyze(&series.days, &combined, &config);

    // Simulated outage: the last `k` measured days lose ~95% coverage —
    // long enough that median smoothing cannot out-vote the tail.
    let n = combined.len();
    let k = (config.median_window / 2 + 2).min(n / 4).max(1);
    let mut degraded = combined.clone();
    let mut masked_days = Vec::new();
    for (i, v) in degraded.iter_mut().enumerate().skip(n - k) {
        *v /= 20;
        masked_days.push(series.days[i]);
    }
    let unmasked = growth::analyze(&series.days, &degraded, &config);
    let masked = growth::analyze_masked(&series.days, &degraded, &config, &masked_days);

    let mask = QualityMask::from_store(&ctx.store, DEFAULT_MIN_COVERAGE);
    let mut out = String::from("== Ablation: data-quality gating on the Fig. 5 factor (§4.2) ==\n");
    let _ = writeln!(out, "{:<34} {:>8}", "arm", "factor");
    let _ = writeln!(
        out,
        "{:<34} {:>7.3}x",
        "clean series (reference)", reference.factor
    );
    let _ = writeln!(
        out,
        "{:<34} {:>7.3}x",
        format!("last {k} days degraded, no mask"),
        unmasked.factor
    );
    let _ = writeln!(
        out,
        "{:<34} {:>7.3}x",
        format!("last {k} days degraded, masked"),
        masked.factor
    );
    out.push_str(
        "an unpaired tail shift looks like a permanent exodus, so anomaly cleaning keeps\n\
         it; only the coverage mask can tell missing data from real churn.\n\n",
    );
    out.push_str(&report::quality_summary(&ctx.store, &mask));
    out
}

/// Footnote 10: census of CloudFlare's authoritative name-server host
/// names on one day, most-referenced first.
pub fn exp_nsnames(ctx: &Context) -> String {
    let last = *ctx.scan.series.days.last().expect("days");
    let cloudflare = 2u8;
    let census = report::ns_host_census(&ctx.store, &ctx.refs, cloudflare, last);
    let mut out = format!(
        "== NS host census (paper footnote 10) on {} ==\n{} distinct CloudFlare NS host names\n",
        dps_netsim::Day(last),
        census.len()
    );
    for (host, count) in census.iter().take(8) {
        let _ = writeln!(out, "  {host:<28} referenced by {count} domains");
    }
    out.push_str(
        "paper: 403 names on 2016-04-30, kate.ns.cloudflare.com most-referenced (112k domains)\n",
    );
    let csv: String = std::iter::once("host,domains".to_string())
        .chain(census.iter().map(|(h, c)| format!("{h},{c}")))
        .collect::<Vec<_>>()
        .join("\n");
    ctx.write("nsnames.csv", &csv);
    out
}

/// Ground-truth validation (beyond the paper): per-domain-day detection
/// precision/recall, computable only because the simulator knows the
/// truth. Steps a fresh copy of the world through sampled days.
pub fn exp_validation(ctx: &Context) -> String {
    use dps_ecosystem::Tld;
    use std::collections::HashSet;
    let params = ScenarioParams {
        seed: ctx.config.seed,
        scale: ctx.config.scale,
        gtld_days: ctx.config.days,
        cc_start_day: ctx.config.cc_start,
    };
    let mut fresh = World::imc2016(params);
    let sample: Vec<u32> = ctx.scan.series.days.iter().copied().step_by(14).collect();
    let sampled: HashSet<u32> = sample.iter().copied().collect();

    // Truth on sampled days.
    let mut truth: HashSet<(u32, u32, u8)> = HashSet::new();
    for &day in &sample {
        fresh.advance_to(dps_netsim::Day(day));
        for (i, st) in fresh.domains().iter().enumerate() {
            let measured = matches!(st.tld, Tld::Com | Tld::Net | Tld::Org);
            if !measured || !st.alive_on(dps_netsim::Day(day)) || st.outage {
                continue;
            }
            let in_outage_basket = st
                .basket
                .is_some_and(|(b, _)| fresh.baskets()[b.0 as usize].outage);
            if in_outage_basket {
                continue;
            }
            if let Some(p) = st.diversion.provider() {
                truth.insert((day, i as u32, p.0));
            }
        }
    }
    // Detection on the same days (customer domains only — infrastructure
    // SLDs self-reference by design).
    let mut detected: HashSet<(u32, u32, u8)> = HashSet::new();
    for (&(entry, p), tl) in &ctx.scan.timelines.map {
        if entry % 2 == 1 {
            continue;
        }
        for di in 0..tl.any.len() {
            let day = ctx.scan.timelines.days[di];
            if tl.any.get(di) && sampled.contains(&day) {
                detected.insert((day, entry / 2, p));
            }
        }
    }
    let tp = detected.intersection(&truth).count() as f64;
    let precision = if detected.is_empty() {
        1.0
    } else {
        tp / detected.len() as f64
    };
    let recall = if truth.is_empty() {
        1.0
    } else {
        tp / truth.len() as f64
    };
    format!(
        "== Ground-truth validation (beyond the paper) ==\n\
         sampled days: {} (every 14th)\n\
         truth (domain, day, provider) triples: {}\n\
         detected: {}\n\
         precision: {:.4}   recall: {:.4}\n",
        sample.len(),
        truth.len(),
        detected.len(),
        precision,
        recall
    )
}

/// Pipeline demo (the paper's Fig. 1 architecture, with live stats).
pub fn exp_pipeline(ctx: &Context) -> String {
    let mut out = String::from("== Fig. 1: measurement pipeline ==\n");
    out.push_str(
        "TLD zone repositories → Stage I collection (worker cloud)\n\
         → Stage II storage (columnar snapshots) → Stage III ASN supplement → analysis\n\n",
    );
    let mut dps = 0u64;
    let mut stored = 0u64;
    let mut raw = 0u64;
    for source in dps_measure::SOURCES {
        let st = ctx.store.stats(source);
        dps += st.data_points;
        stored += st.stored_bytes;
        raw += st.raw_bytes;
    }
    let _ = writeln!(
        out,
        "data points collected: {}",
        report::human_count(dps as f64)
    );
    let _ = writeln!(
        out,
        "storage: {} columnar ({} raw, {:.1}x compression)",
        report::human_bytes(stored),
        report::human_bytes(raw),
        raw as f64 / stored as f64
    );
    let _ = writeln!(out, "dictionary entries: {}", ctx.store.dict.len());
    out
}

/// Runs one experiment by id; `all` runs everything.
pub fn run(ctx: &Context, id: &str) -> Option<String> {
    let all = [
        ("table1", exp_table1 as fn(&Context) -> String),
        ("table2", exp_table2),
        ("fig2", exp_fig2),
        ("fig3", exp_fig3),
        ("fig4", exp_fig4),
        ("fig5", exp_fig5),
        ("fig6", exp_fig6),
        ("fig7", exp_fig7),
        ("fig8", exp_fig8),
        ("anomalies", exp_anomalies),
        ("combos", exp_combos),
        ("mechanisms", exp_mechanisms),
        ("nsnames", exp_nsnames),
        ("ablation", exp_ablation),
        ("smoothing", exp_smoothing),
        ("quality", exp_quality),
        ("validation", exp_validation),
        ("pipeline", exp_pipeline),
    ];
    if id == "all" {
        let mut out = String::new();
        for (_, f) in all {
            out.push_str(&f(ctx));
            out.push('\n');
        }
        return Some(out);
    }
    all.iter()
        .find(|(name, _)| *name == id)
        .map(|(_, f)| f(ctx))
}

/// The experiment ids `run` understands.
pub fn experiment_ids() -> Vec<&'static str> {
    vec![
        "table1",
        "table2",
        "fig2",
        "fig3",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "anomalies",
        "combos",
        "mechanisms",
        "nsnames",
        "ablation",
        "smoothing",
        "quality",
        "validation",
        "pipeline",
        "all",
    ]
}

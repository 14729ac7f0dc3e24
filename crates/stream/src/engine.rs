//! The incremental analysis engine.
//!
//! `StreamEngine` hooks the day-commit path ([`dps_measure::DayObserver`])
//! and maintains DPS-use, growth, and flux state one day-delta at a
//! time, never rescanning the archive. It owns no classification code:
//! a day's pages go through the scan's row kernel
//! ([`Scanner::classify_table`]) and the day's delta goes into the
//! scan's day-ordered fold ([`ScanFold`]), so the engine's output is the
//! full scan's by construction. Every live day flows through *exactly*
//! the same `delta → apply_delta` path a resumed day replays from its
//! persisted checkpoint page, which is what makes crash/resume
//! byte-identical to an uninterrupted run.
//!
//! Classifying each day against the *growing* dictionary is exact:
//! interning is append-only, so a day-`d` row can never contain a
//! dictionary id assigned after day `d` — the compiled reference set at
//! day `d` classifies day-`d` rows identically to the final dictionary.

use crate::page::{decode_delta, encode_delta, DayDelta};
use crate::sketch::{flag_onsets, AttackFlag, KmvSketch, DEFAULT_K, SKETCH_SEED};
use dps_columnar::{StringDict, Table};
use dps_core::{
    CompiledRefs, DayPartial, ProviderRefs, RefKind, ScanFold, ScanOutput, Scanner,
    DEFAULT_MIN_COVERAGE,
};
use dps_measure::{DayObserver, DayQuality, Source, SourcePage};
use std::collections::BTreeMap;

/// Incremental analysis state over the day-delta stream.
#[derive(Debug, Clone)]
pub struct StreamEngine {
    refs: Vec<ProviderRefs>,
    /// The scan's day-ordered fold; it also holds the observed days.
    fold: ScanFold,
    /// `(day, source) → (attempted, failed)` — the only quality inputs
    /// coverage masking depends on.
    coverage: BTreeMap<(u32, u8), (u32, u32)>,
    /// `(provider, day) → distinct-touch sketch`.
    sketches: BTreeMap<(u8, u32), KmvSketch>,
}

impl StreamEngine {
    /// An engine over the paper's Table 2 provider references.
    pub fn new() -> Self {
        let refs = ProviderRefs::paper_table2();
        Self {
            fold: ScanFold::new(refs.len()),
            refs,
            coverage: BTreeMap::new(),
            sketches: BTreeMap::new(),
        }
    }

    /// Number of providers tracked.
    pub fn n_providers(&self) -> usize {
        self.refs.len()
    }

    /// Provider display names, Table 2 order.
    pub fn provider_names(&self) -> Vec<String> {
        self.refs.iter().map(|r| r.name.clone()).collect()
    }

    /// Days observed so far, ascending.
    pub fn days(&self) -> &[u32] {
        self.fold.days()
    }

    /// Classifies one committed day's pages into its delta with the
    /// scan's row kernel. Pure: does not mutate the engine (the caller
    /// applies the delta separately, through the same path resume uses).
    fn delta_from_pages(&self, day: u32, pages: &[SourcePage], dict: &StringDict) -> DayDelta {
        let compiled = CompiledRefs::compile(&self.refs, dict);
        let scanner = Scanner::new(&compiled);
        let n = self.refs.len();
        let mut sum = DayPartial::new(n);
        let mut sources = Vec::new();
        for page in pages {
            let partial = scanner.classify_table(page.source, &page.table);
            let src = page.source.index();
            sources.push((
                src as u8,
                partial.rows[src],
                partial.source_any[src],
                page.quality.attempted,
                page.quality.failed,
            ));
            sum += partial;
        }
        let mut references = BTreeMap::new();
        let mut sketches = vec![KmvSketch::new(DEFAULT_K); n];
        for &(entry, p, kinds) in &sum.references {
            *references.entry((entry, p)).or_insert(0) |= kinds.bits();
            sketches[usize::from(p)].insert(SKETCH_SEED, u64::from(entry));
        }
        DayDelta {
            day,
            sources,
            providers: sum.providers,
            references,
            sketches,
        }
    }

    /// Applies one day delta — the single state-mutation path shared by
    /// live commits and checkpoint replay — by folding it as the day's
    /// scan partial. Deltas must arrive in strictly ascending day order.
    fn apply_delta(&mut self, delta: &DayDelta) -> std::io::Result<()> {
        if self.days().last().is_some_and(|&d| d >= delta.day) {
            return Err(std::io::Error::other(
                "analysis checkpoints must replay in ascending day order",
            ));
        }
        if delta.providers.len() != self.refs.len() {
            return Err(std::io::Error::other(
                "analysis checkpoint provider count does not match this build",
            ));
        }
        let mut partial = DayPartial {
            providers: delta.providers.clone(),
            references: delta
                .references
                .iter()
                .map(|(&(entry, p), &bits)| (entry, p, RefKind::from_bits(bits)))
                .collect(),
            ..DayPartial::new(0)
        };
        for &(source, rows, any, attempted, failed) in &delta.sources {
            let src = usize::from(source);
            if let (Some(r), Some(a)) = (partial.rows.get_mut(src), partial.source_any.get_mut(src))
            {
                *r = rows;
                *a = any;
            }
            self.coverage
                .insert((delta.day, source), (attempted, failed));
        }
        self.fold.push(delta.day, &partial);
        for (p, sketch) in delta.sketches.iter().enumerate() {
            self.sketches.insert((p as u8, delta.day), sketch.clone());
        }
        Ok(())
    }

    /// gTLD day *values* whose coverage fell below the default masking
    /// threshold — bit-for-bit the days `QualityMask::from_store` +
    /// `masked_gtld_days` would report, because coverage depends only on
    /// the `(attempted, failed)` pair the delta carries.
    pub fn masked_gtld_days(&self) -> Vec<u32> {
        let mut out: Vec<u32> = Vec::new();
        for (&(day, source), &(attempted, failed)) in &self.coverage {
            if source > 2 {
                continue;
            }
            let Some(src) = Source::from_index(u32::from(source)) else {
                continue;
            };
            let q = DayQuality::perfect(day, src, attempted, failed);
            if q.coverage() < DEFAULT_MIN_COVERAGE && !out.contains(&day) {
                out.push(day);
            }
        }
        out.sort_unstable();
        out
    }

    /// Materialises the accumulated state as the exact [`ScanOutput`]
    /// the full-rescan `dps-core` scanner would produce over the same
    /// archive: both finish the same fold.
    pub fn finalize(&self) -> ScanOutput {
        self.fold.clone().finish()
    }

    /// Per-provider `(day, distinct-estimate)` series, ascending.
    pub fn distinct_series(&self, provider: u8) -> Vec<(u32, u64)> {
        self.sketches
            .range((provider, 0)..=(provider, u32::MAX))
            .map(|(&(_, day), sketch)| (day, sketch.estimate()))
            .collect()
    }

    /// Attack-onset flags across all providers, ordered by (provider,
    /// day).
    pub fn attack_flags(&self) -> Vec<AttackFlag> {
        let mut flags = Vec::new();
        for p in 0..self.refs.len() as u8 {
            flags.extend(flag_onsets(p, &self.distinct_series(p)));
        }
        flags
    }
}

impl Default for StreamEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl DayObserver for StreamEngine {
    fn on_day(
        &mut self,
        day: u32,
        pages: &[SourcePage],
        dict: &StringDict,
    ) -> std::io::Result<(Table, Vec<(&'static str, u64)>)> {
        let delta = self.delta_from_pages(day, pages, dict);
        let table = encode_delta(&delta);
        let counters = vec![
            ("stream.checkpoint.bytes", table.to_bytes().len() as u64),
            ("stream.refs", delta.references.len() as u64),
            (
                "stream.rows",
                delta.sources.iter().map(|&(_, r, ..)| u64::from(r)).sum(),
            ),
            (
                "stream.sketch.hashes",
                delta.sketches.iter().map(|s| s.len() as u64).sum(),
            ),
        ];
        self.apply_delta(&delta)?;
        Ok((table, counters))
    }

    fn on_resume(&mut self, day: u32, table: &Table) -> std::io::Result<()> {
        let delta = decode_delta(table).ok_or_else(|| {
            std::io::Error::other("archive holds an undecodable analysis checkpoint page")
        })?;
        if delta.day != day {
            return Err(std::io::Error::other(
                "analysis checkpoint day does not match its catalog entry",
            ));
        }
        self.apply_delta(&delta)
    }
}

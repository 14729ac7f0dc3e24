//! The deterministic `imc2016` scenario: populations, churn, organic DPS
//! adoption, on-demand customers, and the third-party basket scripts that
//! reproduce the paper's anomalies.
//!
//! All counts are expressed at **reference scale 1.0 = 1/1000 of the real
//! 2015–2016 namespace** and multiplied by [`ScenarioParams::scale`], so a
//! test can run the same world at 1/100 000 of reality and the experiment
//! harness at 1/1000.

use crate::domain::{Diversion, DomainState};
use crate::ids::{BasketId, DomainId, HosterId, ProviderId, Tld};
use crate::schedule::{Action, Event, Schedule};
use crate::spec::{hid, pid, HOSTERS, PROVIDERS};
use dps_netsim::{Asn, Day};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Scenario knobs.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioParams {
    /// World seed; every derived RNG stream is deterministic in it.
    pub seed: u64,
    /// Population multiplier; 1.0 ≈ 1/1000 of the real namespace.
    pub scale: f64,
    /// Days of gTLD measurement (paper: 550).
    pub gtld_days: u32,
    /// First day of .nl / Alexa measurement (paper: 2016-03-01 = day 366).
    pub cc_start_day: u32,
}

impl Default for ScenarioParams {
    fn default() -> Self {
        Self {
            seed: 2016,
            scale: 1.0,
            gtld_days: 550,
            cc_start_day: 366,
        }
    }
}

impl ScenarioParams {
    /// A small world for unit/integration tests: 1/100 of reference scale,
    /// 60 days, cc sources from day 20.
    pub fn tiny(seed: u64) -> Self {
        Self {
            seed,
            scale: 0.01,
            gtld_days: 60,
            cc_start_day: 20,
        }
    }

    /// Applies the scale factor to a reference count.
    pub fn scaled(&self, reference: f64) -> u32 {
        (reference * self.scale).round() as u32
    }

    /// Last measured day (exclusive bound is `gtld_days`).
    pub fn last_day(&self) -> Day {
        Day(self.gtld_days - 1)
    }
}

/// Reference-scale population numbers for one TLD.
#[derive(Debug, Clone, Copy)]
pub struct TldCalibration {
    /// The zone.
    pub tld: Tld,
    /// Zone size on day 0.
    pub start: f64,
    /// Registrations over the whole period.
    pub registrations: f64,
    /// Deletions over the whole period.
    pub deletions: f64,
    /// First day churn applies (used to confine .nl churn to its
    /// measurement window).
    pub churn_from: u32,
}

/// Organic (always-on) adoption curve of one provider.
#[derive(Debug, Clone, Copy)]
pub struct ProviderCalibration {
    /// The provider.
    pub provider: ProviderId,
    /// Customers on day 0 (gTLD population).
    pub start: f64,
    /// Customers on the last day.
    pub end: f64,
    /// Extra customers that both join *and* leave during the period
    /// (adds first/last-seen flux without changing the trend).
    pub turnover: f64,
    /// On-demand customers with ≥3 protection peaks (Fig. 8 population).
    pub on_demand: f64,
    /// 80th percentile of on-demand peak durations, days (Fig. 8 marker).
    pub peak_p80_days: f64,
}

/// The paper-calibrated reference numbers.
///
/// Organic curves are chosen so the smoothed, anomaly-cleaned combined
/// series grows ≈1.24× while the overall namespace grows ≈1.09× (paper
/// §4.2), with CloudFlare/DOSarrest/Incapsula/Verisign driving growth and
/// F5/CenturyLink contributing incidental decline.
pub fn default_providers() -> Vec<ProviderCalibration> {
    vec![
        ProviderCalibration {
            provider: pid::AKAMAI,
            start: 200.0,
            end: 240.0,
            turnover: 20.0,
            on_demand: 60.0,
            peak_p80_days: 10.0,
        },
        ProviderCalibration {
            provider: pid::CENTURYLINK,
            start: 80.0,
            end: 90.0,
            turnover: 8.0,
            on_demand: 50.0,
            peak_p80_days: 6.0,
        },
        ProviderCalibration {
            provider: pid::CLOUDFLARE,
            start: 1800.0,
            end: 2820.0,
            turnover: 150.0,
            on_demand: 120.0,
            peak_p80_days: 31.0,
        },
        ProviderCalibration {
            provider: pid::DOSARREST,
            start: 50.0,
            end: 210.0,
            turnover: 10.0,
            on_demand: 45.0,
            peak_p80_days: 27.0,
        },
        ProviderCalibration {
            provider: pid::F5,
            start: 900.0,
            end: 780.0,
            turnover: 40.0,
            on_demand: 30.0,
            peak_p80_days: 79.0,
        },
        ProviderCalibration {
            provider: pid::INCAPSULA,
            start: 70.0,
            end: 205.0,
            turnover: 15.0,
            on_demand: 80.0,
            peak_p80_days: 11.0,
        },
        ProviderCalibration {
            provider: pid::LEVEL3,
            start: 45.0,
            end: 50.0,
            turnover: 5.0,
            on_demand: 25.0,
            peak_p80_days: 4.0,
        },
        ProviderCalibration {
            provider: pid::NEUSTAR,
            start: 480.0,
            end: 500.0,
            turnover: 25.0,
            on_demand: 150.0,
            peak_p80_days: 4.0,
        },
        ProviderCalibration {
            provider: pid::VERISIGN,
            start: 280.0,
            end: 520.0,
            turnover: 20.0,
            on_demand: 70.0,
            peak_p80_days: 16.0,
        },
    ]
}

/// Reference TLD populations: .com/.net/.org sizes and churn are the
/// paper's Table 1 and §4.2 figures divided by 1000; .nl churn is confined
/// to its 6-month window (growth ≈1.8%).
pub fn default_tlds(cc_start: u32) -> Vec<TldCalibration> {
    vec![
        TldCalibration {
            tld: Tld::Com,
            start: 115_400.0,
            registrations: 45_800.0,
            deletions: 35_800.0,
            churn_from: 1,
        },
        TldCalibration {
            tld: Tld::Net,
            start: 14_460.0,
            registrations: 5_740.0,
            deletions: 4_490.0,
            churn_from: 1,
        },
        TldCalibration {
            tld: Tld::Org,
            start: 10_090.0,
            registrations: 3_700.0,
            deletions: 2_790.0,
            churn_from: 1,
        },
        TldCalibration {
            tld: Tld::Nl,
            start: 5_750.0,
            registrations: 150.0,
            deletions: 45.0,
            churn_from: cc_start,
        },
    ]
}

/// How a basket's members get their addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BasketAddressing {
    /// Members answer addresses in the basket's dedicated prefix
    /// (whose BGP origin the script flips).
    DedicatedPrefix,
    /// Members answer hoster/provider addresses like ordinary domains.
    Shared,
    /// Wix: shared AWS addresses when not diverted, dedicated prefix when
    /// diverted.
    WixStyle,
}

/// A scripted third-party population.
#[derive(Debug, Clone)]
pub struct BasketSpec {
    /// Display name (matches the paper's attribution).
    pub name: &'static str,
    /// Hosting-side owner.
    pub hoster: HosterId,
    /// Members present on day 0 (reference scale).
    pub initial_members: f64,
    /// Members registered later: `(day, additional count)`.
    pub growth: Vec<(u32, f64)>,
    /// Addressing mode.
    pub addressing: BasketAddressing,
    /// Initial protection state of members.
    pub initial_diversion: Diversion,
    /// Script: `(day, action)` basket-wide changes.
    pub script: Vec<(u32, BasketMove)>,
    /// TLD mix: fraction of members in .com (rest split net/org 60/40).
    pub com_share: f64,
}

/// A basket-wide scripted move.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BasketMove {
    /// All members switch protection state (with any BGP origin change
    /// implied by the addressing mode).
    Divert(Diversion),
    /// DNS outage starts (true) or ends (false).
    Outage(bool),
}

/// The third-party scripts behind the paper's §4.4.1 anomalies.
///
/// Days reference the paper's calendar: day 0 = 2015-03-01.
pub fn default_baskets() -> Vec<BasketSpec> {
    let wix_f5 = Diversion::Bgp(pid::F5);
    let wix_inc = Diversion::Bgp(pid::INCAPSULA);
    vec![
        // ① ⑥ ⑦ Wix: ~1.1M-domain swings between F5 and Incapsula in
        // March 2015, the May–September 2015 Incapsula plateau, and the
        // April 2016 peak of 1.76M names. The baseline posture is AWS
        // (undiverted); every provider stint is a transient excursion the
        // growth analysis must clean (the paper removed these manually).
        BasketSpec {
            name: "Wix",
            hoster: hid::WIX,
            initial_members: 1_100.0,
            growth: vec![(120, 220.0), (260, 220.0), (380, 220.0)],
            addressing: BasketAddressing::WixStyle,
            initial_diversion: Diversion::None,
            script: vec![
                (2, BasketMove::Divert(wix_f5)),  // short F5 stint ⑥⑦
                (4, BasketMove::Divert(wix_inc)), // 2015-03-05 peak
                (6, BasketMove::Divert(wix_f5)),
                (20, BasketMove::Divert(Diversion::None)),
                (66, BasketMove::Divert(wix_inc)), // plateau May..Sep '15
                (190, BasketMove::Divert(Diversion::None)),
                (285, BasketMove::Divert(wix_f5)), // winter stint on F5
                (340, BasketMove::Divert(Diversion::None)),
                (405, BasketMove::Divert(wix_inc)), // ① April 2016 peak
                (435, BasketMove::Divert(Diversion::None)),
            ],
            com_share: 0.86,
        },
        // ② SiteMatrix: a domainer moving ~170k names onto Incapsula in
        // June 2016, permanently.
        BasketSpec {
            name: "SiteMatrix",
            hoster: HosterId(3),
            initial_members: 170.0,
            growth: vec![],
            addressing: BasketAddressing::Shared,
            initial_diversion: Diversion::None,
            script: vec![(470, BasketMove::Divert(Diversion::ARecord(pid::INCAPSULA)))],
            com_share: 0.9,
        },
        // ENOM: /24s flipping AS21740 ↔ Verisign AS26415, repeatedly
        // (up to 700k-domain swings).
        BasketSpec {
            name: "ENOM",
            hoster: hid::ENOM,
            initial_members: 700.0,
            growth: vec![],
            addressing: BasketAddressing::DedicatedPrefix,
            initial_diversion: Diversion::None,
            script: vec![
                (30, BasketMove::Divert(Diversion::Bgp(pid::VERISIGN))),
                (45, BasketMove::Divert(Diversion::None)),
                (150, BasketMove::Divert(Diversion::Bgp(pid::VERISIGN))),
                (170, BasketMove::Divert(Diversion::None)),
                (250, BasketMove::Divert(Diversion::Bgp(pid::VERISIGN))),
                (265, BasketMove::Divert(Diversion::None)),
                (330, BasketMove::Divert(Diversion::Bgp(pid::VERISIGN))),
                (360, BasketMove::Divert(Diversion::None)),
                (430, BasketMove::Divert(Diversion::Bgp(pid::VERISIGN))),
                (445, BasketMove::Divert(Diversion::None)),
            ],
            com_share: 0.85,
        },
        // ZOHO: two prefixes normally in AS2639, diverted to Verisign.
        BasketSpec {
            name: "ZOHO",
            hoster: hid::ZOHO,
            initial_members: 200.0,
            growth: vec![],
            addressing: BasketAddressing::DedicatedPrefix,
            initial_diversion: Diversion::None,
            script: vec![
                (90, BasketMove::Divert(Diversion::Bgp(pid::VERISIGN))),
                (120, BasketMove::Divert(Diversion::None)),
                (380, BasketMove::Divert(Diversion::Bgp(pid::VERISIGN))),
                (400, BasketMove::Divert(Diversion::None)),
            ],
            com_share: 0.8,
        },
        // ③ Namecheap: ~247k domains on registrar-servers.com NS whose A
        // records land in CloudFlare space in February 2016.
        BasketSpec {
            name: "Namecheap",
            hoster: hid::NAMECHEAP,
            initial_members: 247.0,
            growth: vec![],
            addressing: BasketAddressing::Shared,
            initial_diversion: Diversion::None,
            script: vec![
                (337, BasketMove::Divert(Diversion::ARecord(pid::CLOUDFLARE))),
                (365, BasketMove::Divert(Diversion::None)),
            ],
            com_share: 0.88,
        },
        // ⑥→④ Sedo Domain Parking: always on Akamai; single-day DNS issue
        // on 2015-11-22 (day 266) removes ~716k names from the measurement.
        BasketSpec {
            name: "Sedo",
            hoster: hid::SEDO,
            initial_members: 716.0,
            growth: vec![],
            addressing: BasketAddressing::Shared,
            initial_diversion: Diversion::ARecord(pid::AKAMAI),
            script: vec![
                (266, BasketMove::Outage(true)),
                (267, BasketMove::Outage(false)),
            ],
            com_share: 0.84,
        },
        // ⑤ Fabulous: ~355k parked names leaving CenturyLink space in
        // February 2016, permanently.
        BasketSpec {
            name: "Fabulous",
            hoster: hid::FABULOUS,
            initial_members: 355.0,
            growth: vec![],
            addressing: BasketAddressing::Shared,
            initial_diversion: Diversion::ARecord(pid::CENTURYLINK),
            script: vec![(345, BasketMove::Divert(Diversion::None))],
            com_share: 0.87,
        },
    ]
}

/// Runtime info about one basket inside a built scenario.
#[derive(Debug, Clone)]
pub struct BasketInfo {
    /// The spec it was built from.
    pub spec: BasketSpec,
    /// Member domains (index = stable member number for addressing).
    pub members: Vec<DomainId>,
    /// Current outage state (maintained by the world).
    pub outage: bool,
}

/// An Alexa-list membership interval.
#[derive(Debug, Clone, Copy)]
pub struct AlexaEntry {
    /// The listed domain.
    pub domain: DomainId,
    /// First day on the list.
    pub from: Day,
    /// First day off the list again (exclusive), if it rotates out.
    pub until: Option<Day>,
}

/// A fully generated world description, ready for [`crate::World`].
pub struct Scenario {
    /// Parameters it was built with.
    pub params: ScenarioParams,
    /// All domains ever existing (index = [`DomainId`]).
    pub domains: Vec<DomainState>,
    /// Day-ordered events.
    pub schedule: Schedule,
    /// Third-party baskets.
    pub baskets: Vec<BasketInfo>,
    /// Alexa list membership intervals.
    pub alexa: Vec<AlexaEntry>,
}

/// Picks an organic diversion mechanism for a provider, matching the per-
/// provider product mixes discussed in §4.3 (e.g. ~75% of CloudFlare
/// domains use its authoritative DNS; ~0.02% of Incapsula's delegate).
fn organic_method(p: ProviderId, rng: &mut SmallRng) -> Diversion {
    let x: f64 = rng.gen();
    match p {
        _ if p == pid::AKAMAI => {
            if x < 0.90 {
                Diversion::Cname(p)
            } else {
                Diversion::NsDelegation(p)
            }
        }
        _ if p == pid::CENTURYLINK => {
            if x < 0.40 {
                Diversion::NsDelegation(p)
            } else {
                Diversion::ARecord(p)
            }
        }
        _ if p == pid::CLOUDFLARE => {
            if x < 0.75 {
                Diversion::NsDelegation(p)
            } else if x < 0.95 {
                Diversion::Cname(p)
            } else {
                Diversion::ARecord(p)
            }
        }
        _ if p == pid::INCAPSULA => {
            if x < 0.0002 {
                Diversion::NsDelegation(p)
            } else if x < 0.85 {
                Diversion::Cname(p)
            } else {
                Diversion::ARecord(p)
            }
        }
        _ if p == pid::LEVEL3 => {
            if x < 0.50 {
                Diversion::NsDelegation(p)
            } else {
                Diversion::ARecord(p)
            }
        }
        _ if p == pid::NEUSTAR => {
            if x < 0.30 {
                Diversion::Cname(p)
            } else if x < 0.70 {
                Diversion::NsDelegation(p)
            } else {
                Diversion::ARecord(p)
            }
        }
        _ if p == pid::VERISIGN => {
            if x < 0.50 {
                Diversion::NsOnly(p)
            } else if x < 0.80 {
                Diversion::NsDelegation(p)
            } else {
                Diversion::ARecord(p)
            }
        }
        // DOSarrest & F5 sell no DNS product: plain address diversion.
        _ => Diversion::ARecord(p),
    }
}

/// The on-demand mechanism pair `(off-state, on-state)` per provider.
fn on_demand_states(p: ProviderId) -> (Diversion, Diversion) {
    if p == pid::CLOUDFLARE || p == pid::VERISIGN {
        // Hybrid/managed-DNS style: delegation persists, diversion flips.
        (Diversion::NsOnly(p), Diversion::NsDelegation(p))
    } else if p == pid::AKAMAI || p == pid::INCAPSULA || p == pid::NEUSTAR {
        (Diversion::None, Diversion::Cname(p))
    } else {
        (Diversion::None, Diversion::ARecord(p))
    }
}

impl Scenario {
    /// Builds the full IMC-2016 world at the given parameters.
    pub fn imc2016(params: ScenarioParams) -> Self {
        Builder::new(params).build()
    }
}

/// Incremental scenario builder (private).
struct Builder {
    params: ScenarioParams,
    rng: SmallRng,
    domains: Vec<DomainState>,
    events: Vec<Event>,
    baskets: Vec<BasketInfo>,
    /// Filler domains alive from day 0, eligible for deletion.
    deletable: Vec<DomainId>,
    /// Organic adoption events `(domain, provider, day)` for Alexa biasing.
    adoptions_in_window: Vec<DomainId>,
    /// Domains protected on the cc start day (for Alexa biasing).
    protected_at_cc: Vec<DomainId>,
}

impl Builder {
    fn new(params: ScenarioParams) -> Self {
        Self {
            params,
            rng: SmallRng::seed_from_u64(params.seed),
            domains: Vec::new(),
            events: Vec::new(),
            baskets: Vec::new(),
            deletable: Vec::new(),
            adoptions_in_window: Vec::new(),
            protected_at_cc: Vec::new(),
        }
    }

    fn generic_hoster(&mut self, tld: Tld) -> HosterId {
        if tld == Tld::Nl {
            HosterId(8) // "NL Hosting"
        } else {
            HosterId(self.rng.gen_range(0..8))
        }
    }

    fn spawn(&mut self, tld: Tld, registered: Day, diversion: Diversion) -> DomainId {
        let hoster = self.generic_hoster(tld);
        let id = DomainId(self.domains.len() as u32);
        let wants_aaaa = self.rng.gen::<f64>() < 0.3;
        self.domains.push(DomainState {
            tld,
            hoster,
            registered,
            deleted: None,
            basket: None,
            diversion,
            wants_aaaa,
            www_cname_to_hoster: false,
            outage: false,
        });
        id
    }

    /// The paper's Fig. 4: DPS users distribute 85.7/8.2/6.1 over
    /// .com/.net/.org.
    fn dps_tld(&mut self) -> Tld {
        let x: f64 = self.rng.gen();
        if x < 0.857 {
            Tld::Com
        } else if x < 0.939 {
            Tld::Net
        } else {
            Tld::Org
        }
    }

    fn build(mut self) -> Scenario {
        self.fillers_and_churn();
        self.organic_adopters();
        self.on_demand_customers();
        self.basket_populations();
        let alexa = self.alexa_list();

        // Keep Register events for schedule traceability, even though the
        // world derives zone membership from `registered`/`deleted`.
        let schedule = Schedule::new(std::mem::take(&mut self.events));
        Scenario {
            params: self.params,
            domains: self.domains,
            schedule,
            baskets: self.baskets,
            alexa,
        }
    }

    fn fillers_and_churn(&mut self) {
        let days = self.params.gtld_days;
        for cal in default_tlds(self.params.cc_start_day) {
            let start = self.params.scaled(cal.start);
            for _ in 0..start {
                let id = self.spawn(cal.tld, Day(0), Diversion::None);
                self.deletable.push(id);
            }
            // Spread registrations/deletions over the churn window.
            let window = days.saturating_sub(cal.churn_from).max(1);
            let regs = self.params.scaled(cal.registrations);
            let dels = self.params.scaled(cal.deletions).min(start + regs);
            let mut reg_days: Vec<u32> = (0..regs)
                .map(|_| cal.churn_from + self.rng.gen_range(0..window))
                .collect();
            reg_days.sort_unstable();
            let mut new_ids = Vec::with_capacity(regs as usize);
            for d in reg_days {
                let id = self.spawn(cal.tld, Day(d), Diversion::None);
                self.events.push(Event {
                    day: Day(d),
                    action: Action::Register(id),
                });
                new_ids.push((id, d));
            }
            // Deletions pick random deletable domains of this TLD.
            let mut del_days: Vec<u32> = (0..dels)
                .map(|_| cal.churn_from + self.rng.gen_range(0..window))
                .collect();
            del_days.sort_unstable();
            let mut candidates: Vec<DomainId> = self
                .deletable
                .iter()
                .copied()
                .filter(|id| self.domains[id.0 as usize].tld == cal.tld)
                .collect();
            candidates.extend(new_ids.iter().map(|(id, _)| *id));
            candidates.shuffle(&mut self.rng);
            for d in del_days {
                // Find a candidate already registered before `d`.
                while let Some(id) = candidates.pop() {
                    let st = &mut self.domains[id.0 as usize];
                    if st.registered.0 < d && st.deleted.is_none() {
                        st.deleted = Some(Day(d));
                        self.events.push(Event {
                            day: Day(d),
                            action: Action::Delete(id),
                        });
                        break;
                    }
                }
            }
            // Remove now-deleted domains from the deletable pool.
            self.deletable
                .retain(|id| self.domains[id.0 as usize].deleted.is_none());
        }
    }

    /// Draws a never-deleted filler to become a protected domain, or spawns
    /// a new day-0 domain if the pool ran dry (tiny scales).
    fn claim_filler(&mut self, tld: Tld) -> DomainId {
        for _ in 0..32 {
            if self.deletable.is_empty() {
                break;
            }
            let k = self.rng.gen_range(0..self.deletable.len());
            let id = self.deletable[k];
            let st = &self.domains[id.0 as usize];
            if st.tld == tld && st.deleted.is_none() && st.registered == Day(0) {
                self.deletable.swap_remove(k);
                return id;
            }
        }
        self.spawn(tld, Day(0), Diversion::None)
    }

    fn organic_adopters(&mut self) {
        let days = self.params.gtld_days;
        let cc = self.params.cc_start_day;
        // Adoption changes land on a day in 1..days. A one-day run has no
        // such day; the draw then lands past the end, on day 1, and never
        // applies. From two days on the range, and every draw, is unchanged.
        let change_span = days.saturating_sub(1).max(1);
        for cal in default_providers() {
            let p = cal.provider;
            let start = self.params.scaled(cal.start);
            let end = self.params.scaled(cal.end);

            // Day-0 customers.
            let mut members = Vec::new();
            for _ in 0..start {
                let tld = self.dps_tld();
                let id = self.claim_filler(tld);
                let method = organic_method(p, &mut self.rng);
                self.domains[id.0 as usize].diversion = method;
                members.push(id);
            }

            // Net growth or decline, spread over the period.
            if end > start {
                for _ in 0..end - start {
                    let tld = self.dps_tld();
                    let id = self.claim_filler(tld);
                    let day = Day(1 + self.rng.gen_range(0..change_span));
                    let method = organic_method(p, &mut self.rng);
                    self.events.push(Event {
                        day,
                        action: Action::SetDiversion(id, method),
                    });
                    if day.0 <= cc {
                        self.protected_at_cc.push(id);
                    } else {
                        self.adoptions_in_window.push(id);
                    }
                }
            } else {
                members.shuffle(&mut self.rng);
                for id in members.iter().take((start - end) as usize) {
                    let day = Day(1 + self.rng.gen_range(0..change_span));
                    self.events.push(Event {
                        day,
                        action: Action::SetDiversion(*id, Diversion::None),
                    });
                }
            }
            self.protected_at_cc.extend(members.iter().copied());

            // Turnover: join then leave inside the period.
            let turnover = self.params.scaled(cal.turnover);
            for _ in 0..turnover {
                let tld = self.dps_tld();
                let id = self.claim_filler(tld);
                let join = 1 + self.rng.gen_range(0..days.saturating_sub(90).max(1));
                let leave = (join + 30 + self.rng.gen_range(0..120)).min(days - 1);
                let method = organic_method(p, &mut self.rng);
                self.events.push(Event {
                    day: Day(join),
                    action: Action::SetDiversion(id, method),
                });
                self.events.push(Event {
                    day: Day(leave),
                    action: Action::SetDiversion(id, Diversion::None),
                });
            }
        }

        // .nl adopters: ~200 → ~221 over the cc window (growth ≈1.105×).
        let nl_start = self.params.scaled(200.0);
        let nl_new = self.params.scaled(21.0);
        let window = self.params.gtld_days.saturating_sub(cc).max(3);
        for i in 0..nl_start + nl_new {
            let id = self.claim_filler(Tld::Nl);
            // Spread over providers roughly like the gTLD mix.
            let p = match i % 10 {
                0..=5 => pid::CLOUDFLARE,
                6 => pid::INCAPSULA,
                7 => pid::AKAMAI,
                8 => pid::VERISIGN,
                _ => pid::NEUSTAR,
            };
            let method = organic_method(p, &mut self.rng);
            if i < nl_start {
                self.domains[id.0 as usize].diversion = method;
                self.protected_at_cc.push(id);
            } else {
                let day = Day(cc + 1 + self.rng.gen_range(0..window - 1));
                self.events.push(Event {
                    day,
                    action: Action::SetDiversion(id, method),
                });
                self.adoptions_in_window.push(id);
            }
        }
    }

    fn on_demand_customers(&mut self) {
        let days = self.params.gtld_days;
        for cal in default_providers() {
            let p = cal.provider;
            let (off, on) = on_demand_states(p);
            let count = self.params.scaled(cal.on_demand);
            // P(duration > p80) = 0.2 under a geometric tail.
            let lambda = (5.0f64).ln() / cal.peak_p80_days;
            for _ in 0..count {
                let tld = self.dps_tld();
                let id = self.claim_filler(tld);
                self.domains[id.0 as usize].diversion = off;
                let peaks = 3 + self.rng.gen_range(0..5);
                let mut day = 5 + self.rng.gen_range(0..70);
                for _ in 0..peaks {
                    if day >= days.saturating_sub(2) {
                        break;
                    }
                    let u: f64 = self.rng.gen_range(1e-9..1.0);
                    let dur = (1.0 + (-u.ln() / lambda)).floor() as u32;
                    let dur = dur.clamp(1, days / 3);
                    self.events.push(Event {
                        day: Day(day),
                        action: Action::SetDiversion(id, on),
                    });
                    let end = (day + dur).min(days - 1);
                    self.events.push(Event {
                        day: Day(end),
                        action: Action::SetDiversion(id, off),
                    });
                    day = end + 7 + self.rng.gen_range(0..45);
                }
            }
        }
    }

    fn basket_populations(&mut self) {
        for (b, spec) in default_baskets().into_iter().enumerate() {
            let basket_id = BasketId(b as u8);
            let mut members = Vec::new();
            let mut add_members = |builder: &mut Self, n: u32, registered: Day| {
                for _ in 0..n {
                    let x: f64 = builder.rng.gen();
                    let tld = if x < spec.com_share {
                        Tld::Com
                    } else if x < spec.com_share + (1.0 - spec.com_share) * 0.6 {
                        Tld::Net
                    } else {
                        Tld::Org
                    };
                    let id = builder.spawn(tld, registered, spec.initial_diversion);
                    let st = &mut builder.domains[id.0 as usize];
                    st.hoster = spec.hoster;
                    st.basket = Some((basket_id, members.len() as u32));
                    st.www_cname_to_hoster = spec.addressing == BasketAddressing::WixStyle;
                    if registered > Day(0) {
                        builder.events.push(Event {
                            day: registered,
                            action: Action::Register(id),
                        });
                    }
                    members.push(id);
                }
            };

            let initial = self.params.scaled(spec.initial_members);
            add_members(&mut *self, initial, Day(0));
            for &(day, n) in &spec.growth {
                if day >= self.params.gtld_days {
                    continue;
                }
                let n = self.params.scaled(n);
                add_members(&mut *self, n, Day(day));
            }

            // Script → events (with BGP origin changes for dedicated/Wix
            // addressing).
            let mut current = spec.initial_diversion;
            if let Some(asn) = Self::basket_origin(&spec, current) {
                // Initial announcement happens at world boot; encode as a
                // day-0 event so `World::new` applies it uniformly.
                self.events.push(Event {
                    day: Day(0),
                    action: Action::PrefixOrigin {
                        prefix: crate::spec::basket_prefix(basket_id),
                        from: None,
                        to: Some(asn),
                    },
                });
            }
            for &(day, mv) in &spec.script {
                if day >= self.params.gtld_days {
                    continue;
                }
                match mv {
                    BasketMove::Divert(next) => {
                        let from = Self::basket_origin(&spec, current);
                        let to = Self::basket_origin(&spec, next);
                        if from != to {
                            self.events.push(Event {
                                day: Day(day),
                                action: Action::PrefixOrigin {
                                    prefix: crate::spec::basket_prefix(basket_id),
                                    from,
                                    to,
                                },
                            });
                        }
                        self.events.push(Event {
                            day: Day(day),
                            action: Action::BasketDiversion(basket_id, next),
                        });
                        current = next;
                    }
                    BasketMove::Outage(on) => {
                        self.events.push(Event {
                            day: Day(day),
                            action: Action::BasketOutage(basket_id, on),
                        });
                    }
                }
            }

            self.baskets.push(BasketInfo {
                spec,
                members,
                outage: false,
            });
        }
    }

    /// Which AS originates a basket's dedicated prefix in a given state.
    fn basket_origin(spec: &BasketSpec, diversion: Diversion) -> Option<Asn> {
        match spec.addressing {
            BasketAddressing::Shared => None,
            BasketAddressing::DedicatedPrefix => Some(match diversion.provider() {
                Some(p) if diversion.diverts_traffic() => Asn(PROVIDERS[p.0 as usize].asns[0]),
                _ => Asn(HOSTERS[spec.hoster.0 as usize].asn),
            }),
            BasketAddressing::WixStyle => match diversion.provider() {
                Some(p) if diversion.diverts_traffic() => {
                    Some(Asn(PROVIDERS[p.0 as usize].asns[0]))
                }
                // Undiverted Wix answers AWS addresses; the dedicated
                // prefix is withdrawn entirely.
                _ => None,
            },
        }
    }

    fn alexa_list(&mut self) -> Vec<AlexaEntry> {
        let cc = Day(self.params.cc_start_day);
        let days = self.params.gtld_days;
        let list_size = self.params.scaled(2_000.0) as usize;
        let protected_quota = self.params.scaled(170.0) as usize;
        let adopting_quota = self.params.scaled(20.0) as usize;

        let mut entries = Vec::with_capacity(list_size + list_size / 10);
        let mut used = std::collections::BTreeSet::new();

        self.protected_at_cc.shuffle(&mut self.rng);
        for id in self.protected_at_cc.iter().take(protected_quota) {
            if used.insert(*id) {
                entries.push(AlexaEntry {
                    domain: *id,
                    from: cc,
                    until: None,
                });
            }
        }
        self.adoptions_in_window.shuffle(&mut self.rng);
        for id in self.adoptions_in_window.iter().take(adopting_quota) {
            if used.insert(*id) {
                entries.push(AlexaEntry {
                    domain: *id,
                    from: cc,
                    until: None,
                });
            }
        }
        // Fill with random long-lived domains; ~10% rotate out mid-window
        // and are replaced (uniques > list size, as in Table 1).
        let mut pool = self.deletable.clone();
        pool.shuffle(&mut self.rng);
        let mut pool = pool.into_iter();
        while entries.len() < list_size {
            let Some(id) = pool.next() else { break };
            if !used.insert(id) {
                continue;
            }
            if self.rng.gen::<f64>() < 0.1 {
                let leave = cc.0 + self.rng.gen_range(1..days.saturating_sub(cc.0).max(2));
                entries.push(AlexaEntry {
                    domain: id,
                    from: cc,
                    until: Some(Day(leave)),
                });
                // Replacement joins when this one leaves.
                if let Some(repl) = pool.next() {
                    if used.insert(repl) {
                        entries.push(AlexaEntry {
                            domain: repl,
                            from: Day(leave),
                            until: None,
                        });
                    }
                }
            } else {
                entries.push(AlexaEntry {
                    domain: id,
                    from: cc,
                    until: None,
                });
            }
        }
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_scenario_builds_deterministically() {
        let a = Scenario::imc2016(ScenarioParams::tiny(7));
        let b = Scenario::imc2016(ScenarioParams::tiny(7));
        assert_eq!(a.domains.len(), b.domains.len());
        assert_eq!(a.schedule.len(), b.schedule.len());
        let c = Scenario::imc2016(ScenarioParams::tiny(8));
        assert_ne!(
            a.domains.iter().map(|d| d.hoster.0 as u64).sum::<u64>(),
            c.domains.iter().map(|d| d.hoster.0 as u64).sum::<u64>()
        );
    }

    #[test]
    fn populations_scale_linearly() {
        let small = Scenario::imc2016(ScenarioParams {
            scale: 0.01,
            ..ScenarioParams::tiny(1)
        });
        let big = Scenario::imc2016(ScenarioParams {
            scale: 0.05,
            ..ScenarioParams::tiny(1)
        });
        let ratio = big.domains.len() as f64 / small.domains.len() as f64;
        assert!((3.5..6.5).contains(&ratio), "ratio={ratio}");
    }

    #[test]
    fn baskets_have_expected_shape() {
        let s = Scenario::imc2016(ScenarioParams {
            scale: 0.1,
            ..Default::default()
        });
        let names: Vec<&str> = s.baskets.iter().map(|b| b.spec.name).collect();
        assert_eq!(
            names,
            vec![
                "Wix",
                "SiteMatrix",
                "ENOM",
                "ZOHO",
                "Namecheap",
                "Sedo",
                "Fabulous"
            ]
        );
        let wix = &s.baskets[0];
        assert!(wix.members.len() >= 100, "wix={}", wix.members.len());
        for &m in &wix.members {
            let st = &s.domains[m.0 as usize];
            assert_eq!(st.basket.map(|(b, _)| b), Some(BasketId(0)));
            assert!(st.www_cname_to_hoster);
        }
    }

    #[test]
    fn day_zero_population_matches_calibration() {
        let p = ScenarioParams {
            scale: 0.1,
            ..Default::default()
        };
        let s = Scenario::imc2016(p);
        let day0_com = s
            .domains
            .iter()
            .filter(|d| d.tld == Tld::Com && d.registered == Day(0))
            .count() as f64;
        // 11 540 fillers + DPS populations & baskets mostly in .com.
        assert!(
            (11_000.0..13_500.0).contains(&day0_com),
            "day0 com = {day0_com}"
        );
    }

    #[test]
    fn on_demand_events_alternate() {
        let s = Scenario::imc2016(ScenarioParams {
            scale: 0.5,
            ..Default::default()
        });
        // Find a domain with ≥6 SetDiversion events (an on-demand one) and
        // check they alternate on/off.
        use std::collections::HashMap;
        let mut per_domain: HashMap<DomainId, Vec<&Event>> = HashMap::new();
        let mut sched = s.schedule.clone();
        for e in sched.take_through(Day(10_000)) {
            if let Action::SetDiversion(id, _) = e.action {
                per_domain.entry(id).or_default().push(e);
            }
        }
        let ondemand = per_domain
            .values()
            .find(|v| v.len() >= 6)
            .expect("some on-demand domain");
        let mut last_on = None;
        for e in ondemand {
            if let Action::SetDiversion(_, div) = &e.action {
                let on = div.diverts_traffic();
                if let Some(prev) = last_on {
                    assert_ne!(prev, on, "events must alternate");
                }
                last_on = Some(on);
            }
        }
    }

    #[test]
    fn alexa_list_has_quota_and_rotation() {
        let s = Scenario::imc2016(ScenarioParams {
            scale: 0.5,
            ..Default::default()
        });
        let list = &s.alexa;
        assert!(list.len() >= 900, "len={}", list.len());
        assert!(
            list.iter().any(|e| e.until.is_some()),
            "some rotation expected"
        );
        // Every entry is a real domain.
        for e in list {
            assert!((e.domain.0 as usize) < s.domains.len());
        }
    }
}

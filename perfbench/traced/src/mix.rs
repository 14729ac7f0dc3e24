//! The serve workload's zones and query mix. A query is a pure function
//! of (seed, query number), so the load generator and the in-process
//! traced run send the same queries.

use dps_scope::authdns::{zonefile, AuthServer};
use dps_scope::prelude::*;
use dps_scope::serve::edns::opt_record;
use std::path::Path;
use std::sync::Arc;

/// Origin of the generated zone with large RRsets.
const FAT_ORIGIN: &str = "bulk.test";
/// Owner names `fat0` … in the fat zone. Even ones carry 24 TXT records
/// (about 1.3 KB: truncated at 512 and 1232 bytes, whole at 4096), odd
/// ones 10 (truncated only at 512 bytes).
const FAT_NAMES: usize = 16;

/// EDNS buffer sizes the fat queries rotate through (`None` = no EDNS).
const FAT_EDNS: [Option<u16>; 4] = [None, Some(512), Some(1232), Some(4096)];
/// EDNS buffer sizes the other queries rotate through.
const PLAIN_EDNS: [Option<u16>; 3] = [None, Some(1232), Some(4096)];

/// Shares of the mix: malformed and NXDOMAIN per mille of the draws, and
/// one fat query in every [`FAT_EVERY`]; the rest are delegation hits.
/// They are not measured traffic shares. They are set so that every path
/// the checks cover gets enough queries in one run, while the delegation
/// lookup, the path a TLD server mostly serves, sets the latency:
/// - NXDOMAIN at 17% makes the negative-answer path (a miss in the zone
///   and its SOA in the authority section) a sizeable part of the work;
/// - malformed at 1% gives a few hundred FORMERR checks per run;
/// - fat at 0.1%: each truncated answer costs a TCP exchange, which takes
///   about 40 ms today (the server writes the length prefix and the body
///   separately, so Nagle waits for the client's delayed ACK), and more
///   of them would queue behind the single TCP connection and set the
///   p99 by themselves.
const MALFORMED_PERMILLE: u64 = 10;
const NXDOMAIN_PERMILLE: u64 = 170;
/// Query `k` is fat when `k % FAT_EVERY == FAT_EVERY / 2`. Fat queries
/// sit at fixed places rather than being drawn, because at this share a
/// short phase could otherwise draw none that truncate. The j-th fat
/// query asks `fat{j / 4 % 16}` with `FAT_EDNS[j % 4]`, so the first one
/// (query 500: `fat0` without EDNS) is always truncated and every
/// name/size pair comes round.
const FAT_EVERY: u64 = 1000;

/// What a query asks for, which decides the answer it must get.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Hit,
    NxDomain,
    Fat,
    Malformed,
}

/// One generated query.
pub struct Query {
    pub kind: Kind,
    pub id: u16,
    pub question: Option<Question>,
    pub edns: Option<u16>,
    pub payload: Vec<u8>,
}

/// Writes `bulk.test.zone` into `dir`.
pub fn write_fat_zone(dir: &Path) -> Result<(), String> {
    use std::fmt::Write as _;
    let mut text =
        format!("$ORIGIN {FAT_ORIGIN}.\n$TTL 300\n@ IN NS ns1.{FAT_ORIGIN}.\nns1 IN A 10.9.0.53\n");
    for i in 0..FAT_NAMES {
        let records = if i % 2 == 0 { 24 } else { 10 };
        for r in 0..records {
            let _ = writeln!(text, "fat{i} IN TXT \"{}\"", format!("{r:02}").repeat(20));
        }
    }
    crate::io(std::fs::write(dir.join(format!("{FAT_ORIGIN}.zone")), text))
}

/// Serves every `*.zone` file in `dir` from `auth` (the file stem is the
/// default origin, as `dpscope serve` does) and returns the delegation
/// names of the zones other than the fat one.
pub fn load_zones(dir: &Path, auth: &AuthServer) -> Result<Vec<Name>, String> {
    let mut paths: Vec<_> = crate::io(std::fs::read_dir(dir))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("zone"))
        .collect();
    paths.sort();
    let mut names = Vec::new();
    for path in paths {
        let text = crate::io(std::fs::read_to_string(&path))?;
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
        let origin: Name = stem.parse().map_err(|e| format!("{stem}: {e:?}"))?;
        let zone =
            zonefile::parse_zone(&origin, &text).map_err(|e| format!("{}: {e}", path.display()))?;
        auth.serve_zone(Arc::new(parking_lot::RwLock::new(zone)));
        if stem == FAT_ORIGIN {
            continue;
        }
        let mut last = String::new();
        for line in text.lines() {
            let mut tokens = line.split_whitespace();
            let (Some(owner), Some("IN"), Some("NS")) =
                (tokens.next(), tokens.next(), tokens.next())
            else {
                continue;
            };
            if owner != last && !owner.starts_with('$') {
                names.push(owner.parse().map_err(|e| format!("{owner}: {e:?}"))?);
                last = owner.to_string();
            }
        }
    }
    if names.is_empty() {
        return Err(format!("no delegations in {}", dir.display()));
    }
    Ok(names)
}

/// splitmix64: the mix's only source of randomness.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The query mix over one set of zones.
pub struct Mix {
    seed: u64,
    names: Vec<Name>,
    fat: Vec<Name>,
    tlds: Vec<String>,
}

impl Mix {
    pub fn new(seed: u64, names: Vec<Name>) -> Result<Self, String> {
        let fat = (0..FAT_NAMES)
            .map(|i| format!("fat{i}.{FAT_ORIGIN}").parse())
            .collect::<Result<Vec<Name>, _>>()
            .map_err(|e| format!("{e:?}"))?;
        Ok(Self {
            seed,
            names,
            fat,
            tlds: ["com", "net", "org"].map(String::from).to_vec(),
        })
    }

    /// Query number `k`. Its id is `k` mod 2^16, so ids in flight on one
    /// source only collide after 2^16 / sources outstanding queries.
    pub fn query(&self, k: u64) -> Query {
        let h = splitmix64(self.seed ^ splitmix64(k));
        let id = (k & 0xFFFF) as u16;
        let roll = h % 1000;
        let pick = (h >> 20) as usize;
        let (kind, qname, qtype, edns) = if k % FAT_EVERY == FAT_EVERY / 2 {
            let j = (k / FAT_EVERY) as usize;
            (
                Kind::Fat,
                self.fat[(j / FAT_EDNS.len()) % self.fat.len()].clone(),
                RrType::Txt,
                FAT_EDNS[j % FAT_EDNS.len()],
            )
        } else if roll < MALFORMED_PERMILLE {
            (
                Kind::Malformed,
                self.names[pick % self.names.len()].clone(),
                RrType::A,
                None,
            )
        } else if roll < MALFORMED_PERMILLE + NXDOMAIN_PERMILLE {
            let tld = &self.tlds[pick % self.tlds.len()];
            let name = format!("nx{:x}.{tld}", h >> 24)
                .parse()
                .expect("generated NXDOMAIN names are valid");
            let edns = PLAIN_EDNS[(h >> 12) as usize % PLAIN_EDNS.len()];
            (Kind::NxDomain, name, RrType::A, edns)
        } else {
            let edns = PLAIN_EDNS[(h >> 12) as usize % PLAIN_EDNS.len()];
            (
                Kind::Hit,
                self.names[pick % self.names.len()].clone(),
                RrType::A,
                edns,
            )
        };
        let question = Question::new(qname, qtype);
        let mut msg = Message::query(id, question.clone());
        if let Some(size) = edns {
            msg.additionals.push(opt_record(size, 0));
        }
        let mut payload = msg.to_bytes().expect("generated queries encode");
        if kind == Kind::Malformed {
            // Cut inside the 12-byte header: the id survives, parsing fails.
            payload.truncate(3 + (h >> 8) as usize % 9);
        }
        Query {
            kind,
            id,
            question: (kind != Kind::Malformed).then_some(question),
            edns,
            payload,
        }
    }

    /// The query the over-rate source repeats: a delegation hit, no EDNS.
    pub fn abuse_query(&self, k: u64) -> Vec<u8> {
        let name = self.names[0].clone();
        Message::query((k & 0xFFFF) as u16, Question::new(name, RrType::A))
            .to_bytes()
            .expect("generated queries encode")
    }
}

/// True when `resp` is a well-formed answer to `q`: it parses, echoes the
/// id and (for parseable queries) the question, and has the rcode the
/// query kind calls for.
pub fn answer_ok(q: &Query, resp: &[u8]) -> bool {
    let Ok(msg) = Message::parse(resp) else {
        return false;
    };
    if msg.header.id != q.id || !msg.header.qr {
        return false;
    }
    match (&q.question, q.kind) {
        (None, _) => msg.header.rcode == Rcode::FormErr,
        (Some(question), kind) => {
            let want = if kind == Kind::NxDomain {
                Rcode::NxDomain
            } else {
                Rcode::NoError
            };
            msg.questions.len() == 1 && msg.questions[0] == *question && msg.header.rcode == want
        }
    }
}

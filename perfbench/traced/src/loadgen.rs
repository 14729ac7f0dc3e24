//! Open-loop load generator for `dpscope serve`.
//!
//! One thread sends each query at its scheduled time and checks, without
//! blocking, only the sockets that have queries in flight (std has no
//! `poll`). A second thread carries truncated answers over one TCP
//! connection. Legitimate load is spread over [`SOURCES`] loopback
//! addresses so each stays under the server's default response-rate
//! limit of 200/s; one extra source sends above it on purpose and its
//! answers are counted apart from latency.
//!
//! Commands arrive on stdin, one per line:
//! `phase RATE SECONDS CHECK` runs one open-loop phase and prints a JSON
//! line; CHECK=1 also compares a sample of answers byte for byte with an
//! in-process `Frontend` and `AuthServer`. `burst WINDOW SECONDS` runs a
//! closed loop that keeps WINDOW queries in flight and prints answers per
//! slice of [`SLICE`]. `quit` ends the run.

use crate::mix::{answer_ok, load_zones, Kind, Mix, Query};
use crate::spans::ns_since;
use crate::Args;
use dps_scope::authdns::AuthServer;
use dps_scope::prelude::*;
use dps_scope::serve::{Decision, Frontend, FrontendConfig, RrlConfig, Transport};
use dps_scope::telemetry::Registry;
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead as _, Read as _, Write as _};
use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Legitimate source addresses. At 200 responses/s each this allows
/// about 200k q/s before the server's rate limiter would interfere.
const SOURCES: usize = 1000;
/// A closed-loop burst counts its answers per slice of this length.
const SLICE: Duration = Duration::from_millis(100);
/// A burst query unanswered for this long is lost and its slot reused.
const BURST_TIMEOUT: Duration = Duration::from_millis(100);
/// A burst cycles through this many pre-built queries (ids 0..2^16).
const BURST_POOL: u64 = 1 << 16;
/// The over-rate source sends at twice the default limit.
const ABUSE_RATE: f64 = 400.0;
/// Every n-th answer of a checked phase is compared byte for byte.
const SAMPLE_EVERY: usize = 16;
/// How long after the last scheduled send unanswered queries are awaited.
const GRACE: Duration = Duration::from_millis(300);

fn source_ip(i: usize) -> IpAddr {
    IpAddr::V4(Ipv4Addr::new(127, 1, (i / 250) as u8, (i % 250) as u8 + 1))
}

fn abuser_ip() -> IpAddr {
    IpAddr::V4(Ipv4Addr::new(127, 2, 0, 1))
}

struct TcpJob {
    phase: u64,
    idx: usize,
    payload: Vec<u8>,
}

struct TcpDone {
    phase: u64,
    idx: usize,
    at_ns: u64,
    answer: Option<Vec<u8>>,
}

/// Everything a phase needs that outlives it.
struct Client {
    mix: Mix,
    auth: Arc<AuthServer>,
    reference: Frontend,
    server: SocketAddr,
    sockets: Vec<UdpSocket>,
    abuser: UdpSocket,
    epoch: Instant,
    jobs: mpsc::Sender<TcpJob>,
    done: mpsc::Receiver<TcpDone>,
    next_query: u64,
    /// The phase running now; the TCP thread skips jobs of earlier ones.
    phase: Arc<AtomicU64>,
}

/// Per-phase tallies printed as JSON.
#[derive(Default)]
struct Tally {
    sent: u64,
    answered: u64,
    send_errors: u64,
    bytes: u64,
    truncated: u64,
    tcp: u64,
    tcp_errors: u64,
    bad: u64,
    checked: u64,
    mismatched: u64,
    abuse_sent: u64,
    abuse_answered: u64,
    abuse_truncated: u64,
}

fn bind_nonblocking(ip: IpAddr) -> Result<UdpSocket, String> {
    let sock = crate::io(UdpSocket::bind(SocketAddr::new(ip, 0)))?;
    crate::io(sock.set_nonblocking(true))?;
    Ok(sock)
}

pub fn run(args: &Args) -> Result<(), String> {
    let server: SocketAddr = args.num("udp")?;
    let tcp: SocketAddr = args.num("tcp")?;
    let seed: u64 = args.num("seed")?;
    let auth = AuthServer::new();
    let names = load_zones(std::path::Path::new(args.str("zones")?), &auth)?;
    let mix = Mix::new(seed, names)?;
    let config = FrontendConfig {
        rrl: RrlConfig {
            rate: 0,
            ..RrlConfig::default()
        },
        ..FrontendConfig::default()
    };
    let reference = Frontend::new(Arc::clone(&auth), config, &Registry::new());
    let sockets = (0..SOURCES)
        .map(|i| bind_nonblocking(source_ip(i)))
        .collect::<Result<Vec<_>, _>>()?;
    let abuser = bind_nonblocking(abuser_ip())?;
    let epoch = Instant::now();
    let (jobs, job_rx) = mpsc::channel();
    let (done_tx, done) = mpsc::channel();
    let phase = Arc::new(AtomicU64::new(0));
    let current = Arc::clone(&phase);
    let tcp_thread =
        std::thread::spawn(move || tcp_worker(tcp, epoch, &current, &job_rx, &done_tx));
    let mut client = Client {
        mix,
        auth,
        reference,
        server,
        sockets,
        abuser,
        epoch,
        jobs,
        done,
        next_query: 0,
        phase,
    };
    println!("ready");
    crate::io(std::io::stdout().flush())?;
    for line in std::io::stdin().lock().lines() {
        let line = crate::io(line)?;
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            ["phase", rate, secs, check] => {
                let rate: f64 = rate.parse().map_err(|_| "bad rate")?;
                let secs: f64 = secs.parse().map_err(|_| "bad seconds")?;
                let report = client.phase(rate, secs, *check == "1");
                println!("{report}");
                crate::io(std::io::stdout().flush())?;
            }
            ["burst", window, secs] => {
                let window: usize = window.parse().map_err(|_| "bad window")?;
                let secs: f64 = secs.parse().map_err(|_| "bad seconds")?;
                let report = client.burst(window.clamp(1, SOURCES / 2), secs);
                println!("{report}");
                crate::io(std::io::stdout().flush())?;
            }
            ["quit"] => break,
            _ => return Err(format!("unknown command {line:?}")),
        }
    }
    drop(client);
    tcp_thread
        .join()
        .map_err(|_| "TCP thread panicked".to_string())
}

/// Carries truncated queries over one persistent TCP connection,
/// reconnecting once if the server closed it. Jobs left over from an
/// earlier phase are dropped, so a backlog never spills into the next.
fn tcp_worker(
    addr: SocketAddr,
    epoch: Instant,
    current: &AtomicU64,
    jobs: &mpsc::Receiver<TcpJob>,
    done: &mpsc::Sender<TcpDone>,
) {
    let mut conn: Option<TcpStream> = None;
    for job in jobs {
        let mut answer = None;
        let tries = if job.phase == current.load(Ordering::SeqCst) {
            2
        } else {
            0
        };
        for _ in 0..tries {
            if conn.is_none() {
                conn = TcpStream::connect(addr).ok().filter(|c| {
                    c.set_nodelay(true).is_ok()
                        && c.set_read_timeout(Some(Duration::from_secs(2))).is_ok()
                });
            }
            let Some(c) = conn.as_mut() else { break };
            match tcp_exchange(c, &job.payload) {
                Ok(bytes) => {
                    answer = Some(bytes);
                    break;
                }
                Err(_) => conn = None,
            }
        }
        let result = TcpDone {
            phase: job.phase,
            idx: job.idx,
            at_ns: ns_since(epoch),
            answer,
        };
        if done.send(result).is_err() {
            return;
        }
    }
}

fn tcp_exchange(conn: &mut TcpStream, query: &[u8]) -> std::io::Result<Vec<u8>> {
    let len = u16::try_from(query.len()).map_err(std::io::Error::other)?;
    let mut frame = len.to_be_bytes().to_vec();
    frame.extend_from_slice(query);
    conn.write_all(&frame)?;
    let mut hdr = [0u8; 2];
    conn.read_exact(&mut hdr)?;
    let mut body = vec![0u8; usize::from(u16::from_be_bytes(hdr))];
    conn.read_exact(&mut body)?;
    Ok(body)
}

impl Client {
    /// Sends `rate × secs` queries on a fixed schedule and reports every
    /// answered query's latency from its scheduled send time.
    fn phase(&mut self, rate: f64, secs: f64, check: bool) -> String {
        let phase = self.phase.fetch_add(1, Ordering::SeqCst) + 1;
        let n = (rate * secs).round().max(1.0) as usize;
        let queries: Vec<Query> = (0..n as u64)
            .map(|i| self.mix.query(self.next_query + i))
            .collect();
        self.next_query += n as u64;
        let gap_ns = 1e9 / rate;
        let t0 = ns_since(self.epoch) + 2_000_000;
        let sched = |i: usize| t0 + (i as f64 * gap_ns) as u64;
        let abuse_n = (secs * ABUSE_RATE) as u64;
        let abuse_gap = 1e9 / ABUSE_RATE;
        let deadline = sched(n) + GRACE.as_nanos() as u64;

        let mut latency: Vec<u64> = vec![u64::MAX; n];
        let mut late: Vec<u64> = Vec::with_capacity(n);
        let mut pending: HashMap<(usize, u16), usize> = HashMap::new();
        let mut inflight = vec![0u32; SOURCES];
        let mut active: Vec<usize> = Vec::new();
        let mut tcp_outstanding = 0usize;
        let mut samples: Vec<(usize, Vec<u8>)> = Vec::new();
        let mut t = Tally::default();
        let mut next = 0usize;
        let mut abuse_next = 0u64;
        let mut buf = vec![0u8; 65_535];
        loop {
            let now = ns_since(self.epoch);
            while next < n && sched(next) <= now {
                let q = &queries[next];
                let src = next % SOURCES;
                late.push(now - sched(next));
                if self.sockets[src].send_to(&q.payload, self.server).is_ok() {
                    t.sent += 1;
                    if pending.insert((src, q.id), next).is_none() {
                        inflight[src] += 1;
                        if inflight[src] == 1 {
                            active.push(src);
                        }
                    }
                } else {
                    t.send_errors += 1;
                }
                next += 1;
            }
            while abuse_next < abuse_n && t0 + (abuse_next as f64 * abuse_gap) as u64 <= now {
                let payload = self.mix.abuse_query(abuse_next);
                if self.abuser.send_to(&payload, self.server).is_ok() {
                    t.abuse_sent += 1;
                }
                abuse_next += 1;
            }
            let mut i = 0;
            while i < active.len() {
                let src = active[i];
                while let Ok((len, _)) = self.sockets[src].recv_from(&mut buf) {
                    let at = ns_since(self.epoch);
                    let answer = &buf[..len];
                    let Some(id) = answer.get(..2).map(|b| u16::from_be_bytes([b[0], b[1]])) else {
                        continue;
                    };
                    let Some(idx) = pending.remove(&(src, id)) else {
                        continue;
                    };
                    inflight[src] -= 1;
                    let q = &queries[idx];
                    let truncated = answer.get(2).is_some_and(|b| b & 0x02 != 0);
                    if truncated && q.kind != Kind::Malformed {
                        t.truncated += 1;
                        tcp_outstanding += 1;
                        let job = TcpJob {
                            phase,
                            idx,
                            payload: q.payload.clone(),
                        };
                        if self.jobs.send(job).is_err() {
                            tcp_outstanding -= 1;
                            t.tcp_errors += 1;
                        }
                        continue;
                    }
                    latency[idx] = at - sched(idx);
                    t.answered += 1;
                    t.bytes += len as u64;
                    if !answer_ok(q, answer) {
                        t.bad += 1;
                    }
                    if check && idx % SAMPLE_EVERY == 0 {
                        samples.push((idx, answer.to_vec()));
                    }
                }
                if inflight[src] == 0 {
                    active.swap_remove(i);
                } else {
                    i += 1;
                }
            }
            while let Ok((len, _)) = self.abuser.recv_from(&mut buf) {
                t.abuse_answered += 1;
                if buf.get(2).is_some_and(|b| b & 0x02 != 0) && len > 0 {
                    t.abuse_truncated += 1;
                }
            }
            while let Ok(d) = self.done.try_recv() {
                if d.phase != phase {
                    continue;
                }
                tcp_outstanding -= 1;
                match d.answer {
                    Some(answer) => {
                        latency[d.idx] = d.at_ns.saturating_sub(sched(d.idx));
                        t.answered += 1;
                        t.tcp += 1;
                        t.bytes += answer.len() as u64;
                        if !answer_ok(&queries[d.idx], &answer) {
                            t.bad += 1;
                        }
                    }
                    None => t.tcp_errors += 1,
                }
            }
            let all_sent = next == n && abuse_next == abuse_n;
            if all_sent && pending.is_empty() && tcp_outstanding == 0 {
                break;
            }
            if now > deadline && (tcp_outstanding == 0 || now > deadline + 2_000_000_000) {
                break;
            }
            if next < n && sched(next) > now + 200_000 && pending.is_empty() {
                std::thread::sleep(Duration::from_micros(50));
            } else {
                std::hint::spin_loop();
            }
        }
        for (idx, answer) in &samples {
            t.checked += 1;
            if !self.matches_reference(&queries[*idx], *idx, answer) {
                t.mismatched += 1;
            }
        }
        let lost = latency.iter().filter(|&&l| l == u64::MAX).count();
        let answered: Vec<String> = latency
            .iter()
            .filter(|&&l| l != u64::MAX)
            .map(u64::to_string)
            .collect();
        late.sort_unstable();
        let late_p99 = late.get(late.len() * 99 / 100).copied().unwrap_or(0);
        format!(
            "{{\"rate\": {rate}, \"queries\": {n}, \"sent\": {}, \"send_errors\": {}, \"answered\": {}, \
             \"lost\": {lost}, \"bytes\": {}, \"truncated\": {}, \"tcp\": {}, \"tcp_errors\": {}, \
             \"bad\": {}, \"checked\": {}, \"mismatched\": {}, \"abuse_sent\": {}, \
             \"abuse_answered\": {}, \"abuse_truncated\": {}, \"late_p99_ns\": {late_p99}, \
             \"latency_ns\": [{}]}}",
            t.sent,
            t.send_errors,
            t.answered,
            t.bytes,
            t.truncated,
            t.tcp,
            t.tcp_errors,
            t.bad,
            t.checked,
            t.mismatched,
            t.abuse_sent,
            t.abuse_answered,
            t.abuse_truncated,
            answered.join(",")
        )
    }

    /// Closed loop for `secs` seconds: keeps `window` queries in flight,
    /// each from the next source in turn, and sends a new one as soon as
    /// one is answered. A truncated answer counts as answered here (the
    /// TCP retry is the open-loop phase's business). Every 16th answer is
    /// checked with [`answer_ok`].
    fn burst(&mut self, window: usize, secs: f64) -> String {
        let pool: Vec<Query> = (0..BURST_POOL)
            .map(|k| self.mix.query(self.next_query + k))
            .collect();
        self.next_query += BURST_POOL;
        let slice_ns = SLICE.as_nanos() as u64;
        let timeout_ns = BURST_TIMEOUT.as_nanos() as u64;
        let start = ns_since(self.epoch);
        let end = start + (secs * 1e9) as u64;
        let mut slices = vec![0u64; usize::try_from((end - start).div_ceil(slice_ns)).unwrap_or(0)];
        // (source, index into pool, send time), oldest first. The server
        // answers in arrival order, so while the oldest query is
        // unanswered the younger ones are too, and only its socket is
        // polled: the client stays cheaper per query than the server.
        let mut in_flight: VecDeque<(usize, usize, u64)> = VecDeque::with_capacity(window);
        let (mut k, mut sent, mut answered, mut lost, mut bad) = (0u64, 0u64, 0u64, 0u64, 0u64);
        let mut buf = vec![0u8; 65_535];
        loop {
            let now = ns_since(self.epoch);
            while in_flight.len() < window && now < end {
                let src = (k % SOURCES as u64) as usize;
                let idx = (k % BURST_POOL) as usize;
                k += 1;
                if self.sockets[src]
                    .send_to(&pool[idx].payload, self.server)
                    .is_ok()
                {
                    sent += 1;
                    in_flight.push_back((src, idx, now));
                }
            }
            while let Some(&(src, idx, at)) = in_flight.front() {
                match self.sockets[src].recv_from(&mut buf) {
                    // A late answer to a query given up on has another id.
                    Ok((_, _)) if buf.get(..2) != Some(&pool[idx].id.to_be_bytes()[..]) => {}
                    Ok((len, _)) => {
                        let t = ns_since(self.epoch);
                        if t < end {
                            slices[usize::try_from((t - start) / slice_ns).unwrap_or(0)] += 1;
                        }
                        answered += 1;
                        if answered % 16 == 0 && !answer_ok(&pool[idx], &buf[..len]) {
                            bad += 1;
                        }
                        in_flight.pop_front();
                    }
                    Err(_) if now.saturating_sub(at) > timeout_ns => {
                        lost += 1;
                        in_flight.pop_front();
                    }
                    Err(_) => break,
                }
            }
            if now >= end && in_flight.is_empty() {
                break;
            }
            std::hint::spin_loop();
        }
        let slices: Vec<String> = slices.iter().map(u64::to_string).collect();
        format!(
            "{{\"window\": {window}, \"sent\": {sent}, \"answered\": {answered}, \"lost\": {lost}, \
             \"bad\": {bad}, \"slice_s\": {}, \"slices\": [{}]}}",
            SLICE.as_secs_f64(),
            slices.join(",")
        )
    }

    /// The sampled check: the server's UDP answer equals what an
    /// in-process `Frontend` (rate limiting off) produces for the same
    /// payload and, for queries without EDNS, what `AuthServer::answer`
    /// produces.
    fn matches_reference(&self, q: &Query, idx: usize, answer: &[u8]) -> bool {
        let client = source_ip(idx % SOURCES);
        let frontend_ok = match self.reference.handle(Transport::Udp, client, 0, &q.payload) {
            Decision::Respond(bytes) => bytes == answer,
            Decision::Drop(_) => false,
        };
        if !frontend_ok {
            return false;
        }
        if q.edns.is_some() || q.kind == Kind::Malformed {
            return true;
        }
        let Ok(msg) = Message::parse(&q.payload) else {
            return false;
        };
        self.auth
            .answer(&msg)
            .and_then(|resp| resp.to_bytes().ok())
            .is_some_and(|bytes| bytes == answer)
    }
}

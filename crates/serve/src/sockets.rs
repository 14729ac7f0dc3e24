//! Real sockets around the [`Frontend`]: UDP datagram loop, length-framed
//! TCP with slowloris deadlines and a connection cap, and a zone-directory
//! watcher for hot reload.
//!
//! Unlike every other crate in the workspace this module touches the
//! actual network stack and the wall clock — it is the one deliberate
//! boundary between the deterministic simulation world and the operating
//! system. Everything decision-shaped stays in [`Frontend`]; this module
//! only moves bytes and time.
//!
//! Zone hot-reload is file-watch based (mtime/length polling): the
//! workspace denies `unsafe`, which rules out installing a SIGHUP handler,
//! and polling behaves identically on every platform. Editing or adding a
//! `*.zone` file in the served directory swaps the zone in place within
//! one poll interval; a file that stops parsing keeps the previous zone
//! and bumps `serve_zone_reload_errors`.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::frontend::{Decision, Frontend, FrontendConfig, Transport};
use dps_authdns::server::AuthServer;
use dps_authdns::zonefile;
use dps_dns::Name;
use dps_telemetry::Registry;
use std::collections::HashMap;
use std::io::{self, Read as _, Write as _};
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime};

/// Largest DNS-over-TCP frame (the 2-byte length prefix's ceiling).
const MAX_TCP_FRAME: usize = u16::MAX as usize;

/// How often blocking socket calls wake up to check the stop flag.
const POLL_TICK: Duration = Duration::from_millis(50);

/// Everything `Server::start` needs.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// UDP listen address (port 0 picks an ephemeral port).
    pub udp_addr: SocketAddr,
    /// TCP listen address.
    pub tcp_addr: SocketAddr,
    /// Directory of `*.zone` master files; the file stem is the default
    /// origin when the file has no `$ORIGIN` directive.
    pub zone_dir: PathBuf,
    /// Decision-pipeline tunables.
    pub frontend: FrontendConfig,
    /// Concurrent TCP connections beyond which new ones are closed.
    pub max_tcp_conns: usize,
    /// A TCP connection idle longer than this is closed (slowloris cap).
    pub tcp_read_deadline: Duration,
    /// Zone-directory poll interval for hot reload.
    pub reload_poll: Duration,
}

impl ServeOptions {
    /// Loopback defaults with ephemeral ports, serving `zone_dir`.
    pub fn new(zone_dir: PathBuf) -> Self {
        let loopback: IpAddr = std::net::Ipv4Addr::LOCALHOST.into();
        Self {
            udp_addr: SocketAddr::new(loopback, 0),
            tcp_addr: SocketAddr::new(loopback, 0),
            zone_dir,
            frontend: FrontendConfig::default(),
            max_tcp_conns: 32,
            tcp_read_deadline: Duration::from_secs(5),
            reload_poll: Duration::from_millis(250),
        }
    }
}

/// Per-file state the reload watcher tracks.
struct FileStamp {
    mtime: SystemTime,
    len: u64,
    origin: Name,
}

/// A running server: three background threads (UDP, TCP accept, reload
/// watcher) plus one detached thread per live TCP connection.
pub struct Server {
    frontend: Arc<Frontend>,
    udp_addr: SocketAddr,
    tcp_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    tcp_live: Arc<AtomicUsize>,
}

impl Server {
    /// Loads the zone directory, binds both sockets, and spawns the loops.
    pub fn start(opts: ServeOptions, registry: &Registry) -> io::Result<Self> {
        let auth = AuthServer::new();
        let stamps = load_zone_dir(&opts.zone_dir, &auth)?;
        registry
            .gauge("serve_zones")
            .set(i64::try_from(auth.zone_count()).unwrap_or(i64::MAX));

        let frontend = Arc::new(Frontend::new(Arc::clone(&auth), opts.frontend, registry));
        let udp = UdpSocket::bind(opts.udp_addr)?;
        udp.set_read_timeout(Some(POLL_TICK))?;
        let tcp = TcpListener::bind(opts.tcp_addr)?;
        tcp.set_nonblocking(true)?;
        let udp_addr = udp.local_addr()?;
        let tcp_addr = tcp.local_addr()?;

        let stop = Arc::new(AtomicBool::new(false));
        let epoch = Instant::now();
        let tcp_live = Arc::new(AtomicUsize::new(0));
        let mut threads = Vec::new();

        {
            let frontend = Arc::clone(&frontend);
            let stop = Arc::clone(&stop);
            threads.push(std::thread::spawn(move || {
                udp_loop(&udp, &frontend, &stop, epoch);
            }));
        }
        {
            let frontend = Arc::clone(&frontend);
            let stop = Arc::clone(&stop);
            let live = Arc::clone(&tcp_live);
            let registry = registry.clone();
            let deadline = opts.tcp_read_deadline;
            let max_conns = opts.max_tcp_conns.max(1);
            threads.push(std::thread::spawn(move || {
                tcp_loop(
                    &tcp, &frontend, &stop, epoch, &live, &registry, deadline, max_conns,
                );
            }));
        }
        {
            let stop = Arc::clone(&stop);
            let registry = registry.clone();
            let dir = opts.zone_dir.clone();
            let poll = opts.reload_poll.max(Duration::from_millis(20));
            threads.push(std::thread::spawn(move || {
                reload_loop(&dir, &auth, stamps, &stop, &registry, poll);
            }));
        }

        Ok(Self {
            frontend,
            udp_addr,
            tcp_addr,
            stop,
            threads,
            tcp_live,
        })
    }

    /// Bound UDP address (with the real port when 0 was requested).
    pub fn udp_addr(&self) -> SocketAddr {
        self.udp_addr
    }

    /// Bound TCP address.
    pub fn tcp_addr(&self) -> SocketAddr {
        self.tcp_addr
    }

    /// The decision pipeline (for tests and in-process callers).
    pub fn frontend(&self) -> &Arc<Frontend> {
        &self.frontend
    }

    /// Live TCP connections right now.
    pub fn tcp_connections(&self) -> usize {
        self.tcp_live.load(Ordering::SeqCst)
    }

    /// Signals every loop to stop and joins the listener threads.
    /// Connection threads notice the flag within one poll tick.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Monotonic nanoseconds since the server started (RRL timebase).
fn now_ns(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Loads every `*.zone` file in `dir` into `auth`. The file stem is the
/// default origin (`examp.le.zone` ⇒ `examp.le`); a `$ORIGIN` directive
/// inside the file wins. Returns the per-file stamps the watcher starts
/// from.
fn load_zone_dir(dir: &Path, auth: &Arc<AuthServer>) -> io::Result<HashMap<PathBuf, FileStamp>> {
    let mut stamps = HashMap::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("zone") {
            continue;
        }
        let meta = std::fs::metadata(&path)?;
        let origin = load_zone_file(&path, auth)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        stamps.insert(
            path,
            FileStamp {
                mtime: meta.modified().unwrap_or(SystemTime::UNIX_EPOCH),
                len: meta.len(),
                origin,
            },
        );
    }
    Ok(stamps)
}

/// Parses one zone file and serves it; returns the zone's origin.
fn load_zone_file(path: &Path, auth: &Arc<AuthServer>) -> Result<Name, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let default_origin: Name = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("")
        .parse()
        .map_err(|e| format!("{}: bad origin in file name: {e}", path.display()))?;
    let zone = zonefile::parse_zone(&default_origin, &text)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let origin = zone.origin().clone();
    auth.serve_zone(Arc::new(parking_lot::RwLock::new(zone)));
    Ok(origin)
}

fn udp_loop(udp: &UdpSocket, frontend: &Frontend, stop: &AtomicBool, epoch: Instant) {
    let mut buf = [0u8; MAX_TCP_FRAME];
    while !stop.load(Ordering::SeqCst) {
        // An Err is a timeout tick (re-check the stop flag) or a transient
        // datagram error (e.g. ICMP unreachable bleed-through) — loop on.
        if let Ok((n, peer)) = udp.recv_from(&mut buf) {
            let payload = buf.get(..n).unwrap_or(&[]);
            if let Decision::Respond(bytes) =
                frontend.handle(Transport::Udp, peer.ip(), now_ns(epoch), payload)
            {
                let _ = udp.send_to(&bytes, peer);
            }
        }
    }
}

// Reason: the accept loop threads every shared handle by reference; a
// one-use config struct would only add indirection.
#[allow(clippy::too_many_arguments)]
fn tcp_loop(
    listener: &TcpListener,
    frontend: &Arc<Frontend>,
    stop: &Arc<AtomicBool>,
    epoch: Instant,
    live: &Arc<AtomicUsize>,
    registry: &Registry,
    deadline: Duration,
    max_conns: usize,
) {
    let conns_refused = registry.counter("serve_tcp_conn_refused");
    let conns_total = registry.counter("serve_tcp_conns");
    let slowloris = registry.counter("serve_tcp_slowloris");
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, peer)) => {
                if live.load(Ordering::SeqCst) >= max_conns {
                    // Over the cap: close immediately, count it.
                    conns_refused.inc();
                    drop(stream);
                    continue;
                }
                conns_total.inc();
                live.fetch_add(1, Ordering::SeqCst);
                let frontend = Arc::clone(frontend);
                let stop = Arc::clone(stop);
                let live = Arc::clone(live);
                let slowloris = slowloris.clone();
                std::thread::spawn(move || {
                    let timed_out =
                        serve_conn(stream, peer.ip(), &frontend, &stop, epoch, deadline);
                    if timed_out {
                        slowloris.inc();
                    }
                    live.fetch_sub(1, Ordering::SeqCst);
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_TICK.min(Duration::from_millis(10)));
            }
            Err(_) => std::thread::sleep(POLL_TICK),
        }
    }
}

/// Serves length-framed queries on one TCP connection until EOF, error,
/// server stop, or the idle deadline (slowloris). Returns whether the
/// deadline fired.
fn serve_conn(
    mut stream: TcpStream,
    peer: IpAddr,
    frontend: &Frontend,
    stop: &AtomicBool,
    epoch: Instant,
    deadline: Duration,
) -> bool {
    // Short socket timeout so the loop stays responsive to `stop`; the
    // slowloris deadline is enforced by accumulated idle time.
    // Answers go out as soon as they are written: with Nagle's algorithm
    // a reply could wait for the client's delayed ACK.
    if stream.set_read_timeout(Some(POLL_TICK)).is_err() || stream.set_nodelay(true).is_err() {
        return false;
    }
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut idle = Duration::ZERO;
    loop {
        if stop.load(Ordering::SeqCst) {
            return false;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return false, // clean EOF
            Ok(n) => {
                idle = Duration::ZERO;
                buf.extend_from_slice(chunk.get(..n).unwrap_or(&[]));
                if buf.len() > MAX_TCP_FRAME + 2 {
                    // A frame can never legitimately grow this large
                    // before completing; treat as hostile and hang up.
                    return false;
                }
                while let Some((frame, rest)) = split_frame(&buf) {
                    let decision = frontend.handle(Transport::Tcp, peer, now_ns(epoch), &frame);
                    buf = rest;
                    if let Decision::Respond(bytes) = decision {
                        if write_frame(&mut stream, &bytes).is_err() {
                            return false;
                        }
                    }
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                idle += POLL_TICK;
                if idle >= deadline {
                    return true; // slowloris: too slow, hang up
                }
            }
            Err(_) => return false,
        }
    }
}

/// Splits one complete `[len u16][payload]` frame off the front of `buf`.
fn split_frame(buf: &[u8]) -> Option<(Vec<u8>, Vec<u8>)> {
    let len = usize::from(u16::from_be_bytes([*buf.first()?, *buf.get(1)?]));
    let frame = buf.get(2..2 + len)?.to_vec();
    let rest = buf.get(2 + len..).unwrap_or(&[]).to_vec();
    Some((frame, rest))
}

/// Writes one length-prefixed frame in a single write, so the prefix
/// and the body leave in one segment.
fn write_frame(stream: &mut TcpStream, payload: &[u8]) -> io::Result<()> {
    let len = u16::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    let mut frame = Vec::with_capacity(2 + payload.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(payload);
    stream.write_all(&frame)?;
    stream.flush()
}

/// Polls the zone directory, reloading changed files, serving new ones,
/// and dropping zones whose files disappeared.
fn reload_loop(
    dir: &Path,
    auth: &Arc<AuthServer>,
    mut stamps: HashMap<PathBuf, FileStamp>,
    stop: &AtomicBool,
    registry: &Registry,
    poll: Duration,
) {
    let reloads = registry.counter("serve_zone_reloads");
    let reload_errors = registry.counter("serve_zone_reload_errors");
    let zones = registry.gauge("serve_zones");
    while !stop.load(Ordering::SeqCst) {
        std::thread::sleep(poll);
        let Ok(entries) = std::fs::read_dir(dir) else {
            continue;
        };
        let mut seen: Vec<PathBuf> = Vec::new();
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("zone") {
                continue;
            }
            let Ok(meta) = std::fs::metadata(&path) else {
                continue;
            };
            let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
            let len = meta.len();
            seen.push(path.clone());
            let changed = match stamps.get(&path) {
                Some(s) => s.mtime != mtime || s.len != len,
                None => true,
            };
            if !changed {
                continue;
            }
            match load_zone_file(&path, auth) {
                Ok(origin) => {
                    reloads.inc();
                    stamps.insert(path, FileStamp { mtime, len, origin });
                }
                Err(_) => {
                    // Keep serving the previous zone contents.
                    reload_errors.inc();
                    if let Some(s) = stamps.get_mut(&path) {
                        s.mtime = mtime;
                        s.len = len;
                    }
                }
            }
        }
        // Files that vanished take their zones with them.
        let gone: Vec<PathBuf> = stamps
            .keys()
            .filter(|p| !seen.contains(p))
            .cloned()
            .collect();
        for path in gone {
            if let Some(s) = stamps.remove(&path) {
                auth.drop_zone(&s.origin);
                reloads.inc();
            }
        }
        zones.set(i64::try_from(auth.zone_count()).unwrap_or(i64::MAX));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dps_dns::{Message, Question, Rcode, RrType};

    fn write_zone(dir: &Path, stem: &str, body: &str) {
        std::fs::write(dir.join(format!("{stem}.zone")), body).unwrap();
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dps-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn start(dir: PathBuf) -> (Server, Registry) {
        let registry = Registry::new();
        let mut opts = ServeOptions::new(dir);
        opts.reload_poll = Duration::from_millis(30);
        let server = Server::start(opts, &registry).unwrap();
        (server, registry)
    }

    fn udp_ask(addr: SocketAddr, msg: &Message) -> Message {
        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        sock.send_to(&msg.to_bytes().unwrap(), addr).unwrap();
        let mut buf = [0u8; 65535];
        let (n, _) = sock.recv_from(&mut buf).unwrap();
        Message::parse(&buf[..n]).unwrap()
    }

    fn q(name: &str, qtype: RrType) -> Message {
        Message::query(7, Question::new(name.parse().unwrap(), qtype))
    }

    #[test]
    fn serves_zone_dir_over_udp() {
        let dir = temp_dir("udp");
        write_zone(&dir, "examp.le", "@ IN A 10.1.2.3\n");
        let (server, _reg) = start(dir.clone());
        let r = udp_ask(server.udp_addr(), &q("examp.le", RrType::A));
        assert_eq!(r.header.rcode, Rcode::NoError);
        assert_eq!(r.answers.len(), 1);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serves_over_tcp_with_framing() {
        let dir = temp_dir("tcp");
        write_zone(&dir, "examp.le", "@ IN A 10.1.2.3\n");
        let (server, _reg) = start(dir.clone());
        let mut stream = TcpStream::connect(server.tcp_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let query = q("examp.le", RrType::A).to_bytes().unwrap();
        write_frame(&mut stream, &query).unwrap();
        let mut len = [0u8; 2];
        stream.read_exact(&mut len).unwrap();
        let mut body = vec![0u8; usize::from(u16::from_be_bytes(len))];
        stream.read_exact(&mut body).unwrap();
        let r = Message::parse(&body).unwrap();
        assert_eq!(r.answers.len(), 1);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hot_reload_swaps_zone_contents() {
        let dir = temp_dir("reload");
        write_zone(&dir, "examp.le", "@ IN A 10.1.2.3\n");
        let (server, reg) = start(dir.clone());
        let r = udp_ask(server.udp_addr(), &q("www.examp.le", RrType::A));
        assert_eq!(r.header.rcode, Rcode::NxDomain);
        // Rewrite the file; the watcher should pick it up.
        std::thread::sleep(Duration::from_millis(50));
        write_zone(&dir, "examp.le", "@ IN A 10.1.2.3\nwww IN A 10.1.2.4\n");
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let r = udp_ask(server.udp_addr(), &q("www.examp.le", RrType::A));
            if r.header.rcode == Rcode::NoError && !r.answers.is_empty() {
                break;
            }
            assert!(Instant::now() < deadline, "reload never happened");
            std::thread::sleep(Duration::from_millis(30));
        }
        assert!(reg.snapshot().to_text().contains("serve_zone_reloads"));
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn broken_reload_keeps_previous_zone() {
        let dir = temp_dir("badreload");
        write_zone(&dir, "examp.le", "@ IN A 10.1.2.3\n");
        let (server, reg) = start(dir.clone());
        std::thread::sleep(Duration::from_millis(50));
        write_zone(&dir, "examp.le", "@ IN A not-an-ip\n");
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let snap = reg.snapshot().to_text();
            if snap.contains("serve_zone_reload_errors 1") {
                break;
            }
            assert!(Instant::now() < deadline, "error never counted: {snap}");
            std::thread::sleep(Duration::from_millis(30));
        }
        // Old contents still served.
        let r = udp_ask(server.udp_addr(), &q("examp.le", RrType::A));
        assert_eq!(r.answers.len(), 1);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn slowloris_connection_is_closed() {
        let dir = temp_dir("slowloris");
        write_zone(&dir, "examp.le", "@ IN A 10.1.2.3\n");
        let registry = Registry::new();
        let mut opts = ServeOptions::new(dir.clone());
        opts.tcp_read_deadline = Duration::from_millis(120);
        let server = Server::start(opts, &registry).unwrap();
        let mut stream = TcpStream::connect(server.tcp_addr()).unwrap();
        // Send half a length prefix, then stall.
        stream.write_all(&[0x00]).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut buf = [0u8; 16];
        // The server must hang up (read returns Ok(0)) rather than wait
        // forever for the rest of the frame.
        let n = stream.read(&mut buf).unwrap_or(0);
        assert_eq!(n, 0, "connection should be closed");
        let snap = registry.snapshot().to_text();
        assert!(snap.contains("serve_tcp_slowloris 1"), "{snap}");
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn connection_cap_refuses_extras() {
        let dir = temp_dir("conncap");
        write_zone(&dir, "examp.le", "@ IN A 10.1.2.3\n");
        let registry = Registry::new();
        let mut opts = ServeOptions::new(dir.clone());
        opts.max_tcp_conns = 1;
        opts.tcp_read_deadline = Duration::from_secs(5);
        let server = Server::start(opts, &registry).unwrap();
        let _first = TcpStream::connect(server.tcp_addr()).unwrap();
        // Give the accept loop time to register the first connection.
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.tcp_connections() < 1 {
            assert!(Instant::now() < deadline, "first connection not accepted");
            std::thread::sleep(Duration::from_millis(10));
        }
        let mut second = TcpStream::connect(server.tcp_addr()).unwrap();
        second
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut buf = [0u8; 16];
        let n = second.read(&mut buf).unwrap_or(0);
        assert_eq!(n, 0, "over-cap connection should be closed immediately");
        let snap = registry.snapshot().to_text();
        assert!(snap.contains("serve_tcp_conn_refused 1"), "{snap}");
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pipelined_tcp_queries_in_one_write() {
        let dir = temp_dir("pipeline");
        write_zone(&dir, "examp.le", "@ IN A 10.1.2.3\n");
        let (server, _reg) = start(dir.clone());
        let mut stream = TcpStream::connect(server.tcp_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let query = q("examp.le", RrType::A).to_bytes().unwrap();
        // Two frames in a single write.
        let mut batch = Vec::new();
        let len = u16::try_from(query.len()).unwrap().to_be_bytes();
        batch.extend_from_slice(&len);
        batch.extend_from_slice(&query);
        batch.extend_from_slice(&len);
        batch.extend_from_slice(&query);
        stream.write_all(&batch).unwrap();
        for _ in 0..2 {
            let mut lb = [0u8; 2];
            stream.read_exact(&mut lb).unwrap();
            let mut body = vec![0u8; usize::from(u16::from_be_bytes(lb))];
            stream.read_exact(&mut body).unwrap();
            assert_eq!(Message::parse(&body).unwrap().answers.len(), 1);
        }
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Back-to-back queries on one connection, each sent after the last
    /// answer: a reply split over two writes would wait out the client's
    /// delayed ACK (about 40 ms) under Nagle's algorithm.
    #[test]
    fn back_to_back_tcp_queries_are_answered_promptly() {
        let dir = temp_dir("nodelay");
        write_zone(&dir, "examp.le", "@ IN A 10.1.2.3\n");
        let (server, _reg) = start(dir.clone());
        let mut stream = TcpStream::connect(server.tcp_addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let query = q("examp.le", RrType::A).to_bytes().unwrap();
        let mut slowest = Duration::ZERO;
        for _ in 0..50 {
            let sent = Instant::now();
            write_frame(&mut stream, &query).unwrap();
            let mut lb = [0u8; 2];
            stream.read_exact(&mut lb).unwrap();
            let mut body = vec![0u8; usize::from(u16::from_be_bytes(lb))];
            stream.read_exact(&mut body).unwrap();
            slowest = slowest.max(sent.elapsed());
            assert_eq!(Message::parse(&body).unwrap().answers.len(), 1);
        }
        assert!(
            slowest < Duration::from_millis(20),
            "slowest answer took {slowest:?}"
        );
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

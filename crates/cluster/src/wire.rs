//! The cluster wire protocol: compact, versioned, length-framed binary
//! messages between the manager and worker agents.
//!
//! Every frame on a transport is `[u32 LE payload length][payload]`; every
//! payload is `[u16 LE magic][u8 version][u8 message type][body]`. Bodies
//! are fixed-order little-endian fields with length-prefixed strings, so
//! the encoding of a message is a pure function of its value — no maps, no
//! padding, no ambient state.
//!
//! Decoding is **checked throughout**: frames off a socket are untrusted
//! input, so every read is bounds-checked, every length prefix is capped,
//! and malformed bytes yield `None`/`Err` — never a panic. The proptests
//! in `tests/wire_props.rs` drive truncated and bit-flipped frames through
//! the decoder to hold that line, mirroring the DNS wire-format tests.

use dps_dns::Name;
use dps_measure::collector::RawRow;
use dps_measure::quality::CauseCounts;

/// First two payload bytes of every message.
pub const MAGIC: u16 = 0xD5C7;
/// Protocol version; bumped on any frame-layout change.
pub const PROTO_VERSION: u8 = 1;
/// Upper bound on a single frame's payload. A full-source lease result at
/// paper scale stays far below this; anything larger is hostile or corrupt.
pub const MAX_FRAME: usize = 64 << 20;
/// Upper bound on rows in one lease result.
pub const MAX_ROWS: u32 = 1 << 22;
/// Upper bound on one length-prefixed string (the Hello display name;
/// row names travel in bounded DNS wire form instead).
pub const MAX_STR: usize = 4096;
/// Upper bound on telemetry entries in one lease result.
pub const MAX_TELEMETRY: usize = 1024;

// Observation rows cross the wire as [`RawRow`] directly: every name is
// encoded in its uncompressed DNS wire form (`Name::as_wire`) and decoded
// through the checked `Name::from_wire`, so no presentation-format
// rendering or parsing happens on the hot path. A row that decodes equals
// the row the worker collected, which is what lets the manager intern
// worker rows exactly as the single-process sweep would.

/// A finished lease: the rows the worker collected plus its telemetry
/// deltas as `(catalog index, value)` pairs against the measure metric
/// catalog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaseResult {
    /// Lease id being answered.
    pub lease: u64,
    /// Epoch the lease was granted under; stale epochs are rejected.
    pub epoch: u32,
    /// Day of the work unit.
    pub day: u32,
    /// Source index of the work unit.
    pub source: u8,
    /// Shard index within the source.
    pub shard: u32,
    /// Collected rows, in input-list order.
    pub rows: Vec<RawRow>,
    /// Telemetry deltas keyed by measure-catalog index.
    pub telemetry: Vec<(u16, u64)>,
}

/// Every protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Worker → manager greeting; `proto` must match [`PROTO_VERSION`].
    Hello {
        /// Worker's protocol version.
        proto: u8,
        /// Worker display name for provenance records.
        name: String,
    },
    /// Manager → worker admission: the worker id plus the scenario the
    /// worker must rebuild (same seed ⇒ same world ⇒ same rows).
    Welcome {
        /// Manager's protocol version.
        proto: u8,
        /// Assigned worker id.
        worker: u32,
        /// Scenario seed.
        seed: u64,
        /// Scenario scale as IEEE-754 bits (exact transport of the f64).
        scale_bits: u64,
        /// Scenario gTLD window length in days.
        gtld_days: u32,
        /// First day the ccTLD/Alexa sources are due.
        cc_start_day: u32,
    },
    /// Manager → worker work grant: sweep `count` entries of `source`
    /// starting at `start` for `day`.
    Lease {
        /// Lease id (unique per grant).
        lease: u64,
        /// Grant epoch; results from older epochs are stale.
        epoch: u32,
        /// Day to sweep.
        day: u32,
        /// Source index to sweep.
        source: u8,
        /// Shard index within the source.
        shard: u32,
        /// First entry offset of the shard.
        start: u32,
        /// Entry count of the shard.
        count: u32,
    },
    /// Worker → manager finished lease.
    Result(Box<LeaseResult>),
    /// Worker → manager liveness beacon.
    Heartbeat {
        /// Monotonic per-worker sequence number.
        seq: u64,
    },
    /// Worker → manager refusal of a lease it cannot serve (bad bounds,
    /// unknown source); the manager dead-letters the unit.
    Reject {
        /// Refused lease id.
        lease: u64,
        /// Epoch of the refused lease.
        epoch: u32,
    },
    /// Manager → worker orderly shutdown request.
    Drain,
    /// Worker → manager goodbye after draining.
    Bye,
}

const T_HELLO: u8 = 1;
const T_WELCOME: u8 = 2;
const T_LEASE: u8 = 3;
const T_RESULT: u8 = 4;
const T_HEARTBEAT: u8 = 5;
const T_REJECT: u8 = 6;
const T_DRAIN: u8 = 7;
const T_BYE: u8 = 8;

/// Little-endian payload builder. Encoding cannot fail: lengths written
/// by this process are within every cap by construction.
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new(tag: u8) -> Self {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&MAGIC.to_le_bytes());
        buf.push(PROTO_VERSION);
        buf.push(tag);
        Self { buf }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        let bytes = s.as_bytes();
        let len = bytes.len().min(MAX_STR);
        self.u16(len as u16);
        self.buf.extend_from_slice(bytes.get(..len).unwrap_or(&[]));
    }

    /// Optional name as `[tag][u8 wire length][wire bytes]` — the wire
    /// form is at most 255 octets by construction.
    fn opt_name(&mut self, n: &Option<Name>) {
        match n {
            None => self.u8(0),
            Some(name) => {
                self.u8(1);
                let wire = name.as_wire();
                self.u8(wire.len().min(255) as u8);
                self.buf
                    .extend_from_slice(wire.get(..wire.len().min(255)).unwrap_or(&[]));
            }
        }
    }

    fn row(&mut self, r: &RawRow) {
        self.u32(r.entry);
        let flags = u8::from(r.failed) | (u8::from(r.retryable) << 1) | (u8::from(r.aaaa) << 2);
        self.u8(flags);
        self.u32(r.apex_v4);
        self.u32(r.www_v4);
        self.u32(r.asn1);
        self.u32(r.asn2);
        self.u32(r.www_asn);
        self.u32(r.aaaa_asn);
        self.u32(r.data_points);
        self.u32(r.causes.timeouts);
        self.u32(r.causes.unreachable);
        self.u32(r.causes.corrupt);
        self.u32(r.causes.servfail);
        self.u32(r.causes.other);
        self.opt_name(&r.apex);
        for n in &r.cnames {
            self.opt_name(n);
        }
        for n in &r.ns {
            self.opt_name(n);
        }
        for n in &r.ns_hosts {
            self.opt_name(n);
        }
    }
}

/// Checked little-endian payload reader over untrusted bytes.
struct Cur<'a> {
    buf: &'a [u8],
}

impl<'a> Cur<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let head = self.buf.get(..n)?;
        self.buf = self.buf.get(n..)?;
        Some(head)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1)?.first().copied()
    }

    fn u16(&mut self) -> Option<u16> {
        Some(u16::from_le_bytes(self.take(2)?.try_into().ok()?))
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn str(&mut self) -> Option<String> {
        let len = usize::from(self.u16()?);
        if len > MAX_STR {
            return None;
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }

    /// Optional wire-form name; structural validation happens in
    /// [`Name::from_wire`].
    fn opt_name(&mut self) -> Option<Option<Name>> {
        match self.u8()? {
            0 => Some(None),
            1 => {
                let len = usize::from(self.u8()?);
                let bytes = self.take(len)?;
                Name::from_wire(bytes).ok().map(Some)
            }
            _ => None,
        }
    }

    fn row(&mut self) -> Option<RawRow> {
        let entry = self.u32()?;
        let flags = self.u8()?;
        if flags > 0b111 {
            return None;
        }
        let apex_v4 = self.u32()?;
        let www_v4 = self.u32()?;
        let asn1 = self.u32()?;
        let asn2 = self.u32()?;
        let www_asn = self.u32()?;
        let aaaa_asn = self.u32()?;
        let data_points = self.u32()?;
        let causes = CauseCounts {
            timeouts: self.u32()?,
            unreachable: self.u32()?,
            corrupt: self.u32()?,
            servfail: self.u32()?,
            other: self.u32()?,
        };
        let apex = self.opt_name()?;
        let cnames = [self.opt_name()?, self.opt_name()?];
        let ns = [self.opt_name()?, self.opt_name()?];
        let ns_hosts = [self.opt_name()?, self.opt_name()?];
        Some(RawRow {
            entry,
            apex,
            apex_v4,
            www_v4,
            aaaa: flags & 0b100 != 0,
            cnames,
            ns,
            ns_hosts,
            asn1,
            asn2,
            www_asn,
            aaaa_asn,
            failed: flags & 0b001 != 0,
            data_points,
            retryable: flags & 0b010 != 0,
            causes,
        })
    }

    fn done(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Encodes a message as a frame payload (header + body, no length
/// prefix — see [`frame`]).
pub fn encode(msg: &Msg) -> Vec<u8> {
    let mut e = match msg {
        Msg::Hello { .. } => Enc::new(T_HELLO),
        Msg::Welcome { .. } => Enc::new(T_WELCOME),
        Msg::Lease { .. } => Enc::new(T_LEASE),
        Msg::Result(_) => Enc::new(T_RESULT),
        Msg::Heartbeat { .. } => Enc::new(T_HEARTBEAT),
        Msg::Reject { .. } => Enc::new(T_REJECT),
        Msg::Drain => Enc::new(T_DRAIN),
        Msg::Bye => Enc::new(T_BYE),
    };
    match msg {
        Msg::Hello { proto, name } => {
            e.u8(*proto);
            e.str(name);
        }
        Msg::Welcome {
            proto,
            worker,
            seed,
            scale_bits,
            gtld_days,
            cc_start_day,
        } => {
            e.u8(*proto);
            e.u32(*worker);
            e.u64(*seed);
            e.u64(*scale_bits);
            e.u32(*gtld_days);
            e.u32(*cc_start_day);
        }
        Msg::Lease {
            lease,
            epoch,
            day,
            source,
            shard,
            start,
            count,
        } => {
            e.u64(*lease);
            e.u32(*epoch);
            e.u32(*day);
            e.u8(*source);
            e.u32(*shard);
            e.u32(*start);
            e.u32(*count);
        }
        Msg::Result(r) => {
            e.u64(r.lease);
            e.u32(r.epoch);
            e.u32(r.day);
            e.u8(r.source);
            e.u32(r.shard);
            e.u32(r.rows.len().min(MAX_ROWS as usize) as u32);
            for row in r.rows.iter().take(MAX_ROWS as usize) {
                e.row(row);
            }
            e.u16(r.telemetry.len().min(MAX_TELEMETRY) as u16);
            for (idx, v) in r.telemetry.iter().take(MAX_TELEMETRY) {
                e.u16(*idx);
                e.u64(*v);
            }
        }
        Msg::Heartbeat { seq } => e.u64(*seq),
        Msg::Reject { lease, epoch } => {
            e.u64(*lease);
            e.u32(*epoch);
        }
        Msg::Drain | Msg::Bye => {}
    }
    e.buf
}

/// Decodes a frame payload. `None` on any malformation: bad magic or
/// version, unknown type, truncated body, oversized length prefix, or
/// trailing garbage.
pub fn decode(payload: &[u8]) -> Option<Msg> {
    let mut c = Cur { buf: payload };
    if c.u16()? != MAGIC || c.u8()? != PROTO_VERSION {
        return None;
    }
    let tag = c.u8()?;
    let msg = match tag {
        T_HELLO => Msg::Hello {
            proto: c.u8()?,
            name: c.str()?,
        },
        T_WELCOME => Msg::Welcome {
            proto: c.u8()?,
            worker: c.u32()?,
            seed: c.u64()?,
            scale_bits: c.u64()?,
            gtld_days: c.u32()?,
            cc_start_day: c.u32()?,
        },
        T_LEASE => Msg::Lease {
            lease: c.u64()?,
            epoch: c.u32()?,
            day: c.u32()?,
            source: c.u8()?,
            shard: c.u32()?,
            start: c.u32()?,
            count: c.u32()?,
        },
        T_RESULT => {
            let lease = c.u64()?;
            let epoch = c.u32()?;
            let day = c.u32()?;
            let source = c.u8()?;
            let shard = c.u32()?;
            let n_rows = c.u32()?;
            if n_rows > MAX_ROWS {
                return None;
            }
            let mut rows = Vec::with_capacity(n_rows.min(4096) as usize);
            for _ in 0..n_rows {
                rows.push(c.row()?);
            }
            let n_tel = usize::from(c.u16()?);
            if n_tel > MAX_TELEMETRY {
                return None;
            }
            let mut telemetry = Vec::with_capacity(n_tel);
            for _ in 0..n_tel {
                telemetry.push((c.u16()?, c.u64()?));
            }
            Msg::Result(Box::new(LeaseResult {
                lease,
                epoch,
                day,
                source,
                shard,
                rows,
                telemetry,
            }))
        }
        T_HEARTBEAT => Msg::Heartbeat { seq: c.u64()? },
        T_REJECT => Msg::Reject {
            lease: c.u64()?,
            epoch: c.u32()?,
        },
        T_DRAIN => Msg::Drain,
        T_BYE => Msg::Bye,
        _ => return None,
    };
    if !c.done() {
        return None;
    }
    Some(msg)
}

/// Wraps a payload in its transport frame: `[u32 LE length][payload]`.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 4);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Frame-reassembly error: the stream is unrecoverable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// A length prefix exceeded [`MAX_FRAME`].
    Oversize(u32),
}

/// Incremental frame reassembly over a byte stream. Feed arbitrary read
/// chunks with [`extend`](FrameBuf::extend); [`next_frame`](FrameBuf::next_frame)
/// yields complete payloads as they become available. Length prefixes
/// beyond [`MAX_FRAME`] poison the stream (the peer is hostile or the
/// framing is lost — there is no resynchronisation).
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
}

impl FrameBuf {
    /// An empty reassembly buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw stream bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete frame payload, `Ok(None)` while incomplete.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        let Some(len_bytes) = self.buf.get(..4) else {
            return Ok(None);
        };
        let Ok(len_arr) = <[u8; 4]>::try_from(len_bytes) else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(len_arr);
        if len as usize > MAX_FRAME {
            return Err(FrameError::Oversize(len));
        }
        let total = 4 + len as usize;
        let Some(payload) = self.buf.get(4..total) else {
            return Ok(None);
        };
        let payload = payload.to_vec();
        self.buf.drain(..total);
        Ok(Some(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_row() -> RawRow {
        let name = |s: &str| -> Option<Name> { s.parse().ok() };
        RawRow {
            entry: 7,
            apex: name("examp.le"),
            apex_v4: 0x0a000001,
            www_v4: 0x0a000002,
            aaaa: true,
            cnames: [name("cdn.examp.le"), None],
            ns: [name("ns1.examp.le"), name("ns2.examp.le")],
            ns_hosts: [None, None],
            asn1: 64500,
            asn2: 0,
            www_asn: 64501,
            aaaa_asn: 64502,
            failed: false,
            data_points: 9,
            retryable: false,
            causes: CauseCounts {
                timeouts: 0,
                unreachable: 1,
                corrupt: 0,
                servfail: 0,
                other: 2,
            },
        }
    }

    #[test]
    fn every_message_roundtrips() {
        let msgs = vec![
            Msg::Hello {
                proto: PROTO_VERSION,
                name: "agent-1".to_owned(),
            },
            Msg::Welcome {
                proto: PROTO_VERSION,
                worker: 3,
                seed: 42,
                scale_bits: 0.01f64.to_bits(),
                gtld_days: 60,
                cc_start_day: 20,
            },
            Msg::Lease {
                lease: 11,
                epoch: 2,
                day: 5,
                source: 0,
                shard: 1,
                start: 128,
                count: 64,
            },
            Msg::Result(Box::new(LeaseResult {
                lease: 11,
                epoch: 2,
                day: 5,
                source: 0,
                shard: 1,
                rows: vec![sample_row()],
                telemetry: vec![(5, 64), (3, 1024)],
            })),
            Msg::Heartbeat { seq: 99 },
            Msg::Reject { lease: 4, epoch: 1 },
            Msg::Drain,
            Msg::Bye,
        ];
        for msg in msgs {
            let bytes = encode(&msg);
            assert_eq!(decode(&bytes).as_ref(), Some(&msg), "{msg:?}");
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = encode(&Msg::Drain);
        bytes.push(0);
        assert_eq!(decode(&bytes), None);
    }

    #[test]
    fn wrong_magic_and_version_rejected() {
        let mut bytes = encode(&Msg::Bye);
        if let Some(b) = bytes.first_mut() {
            *b ^= 0xff;
        }
        assert_eq!(decode(&bytes), None);
        let mut bytes = encode(&Msg::Bye);
        if let Some(b) = bytes.get_mut(2) {
            *b = PROTO_VERSION + 1;
        }
        assert_eq!(decode(&bytes), None);
    }

    #[test]
    fn corrupt_name_bytes_reject_the_row() {
        let msg = Msg::Result(Box::new(LeaseResult {
            lease: 1,
            epoch: 1,
            day: 0,
            source: 0,
            shard: 0,
            rows: vec![sample_row()],
            telemetry: vec![],
        }));
        let bytes = encode(&msg);
        // Find the apex name's first label length (the "examp" label, 5)
        // and inflate it past the remaining buffer.
        let pos = bytes
            .windows(6)
            .position(|w| w == b"\x05examp")
            .expect("apex label on the wire");
        let mut bad = bytes.clone();
        if let Some(b) = bad.get_mut(pos) {
            *b = 63;
        }
        assert_eq!(decode(&bad), None, "inflated label length must reject");
    }

    #[test]
    fn framing_reassembles_across_arbitrary_chunks() {
        let a = encode(&Msg::Heartbeat { seq: 1 });
        let b = encode(&Msg::Drain);
        let mut stream = frame(&a);
        stream.extend_from_slice(&frame(&b));
        for chunk_len in [1, 2, 3, stream.len()] {
            let mut fb = FrameBuf::new();
            let mut got = Vec::new();
            for chunk in stream.chunks(chunk_len) {
                fb.extend(chunk);
                while let Some(p) = fb.next_frame().expect("no oversize") {
                    got.push(p);
                }
            }
            assert_eq!(got, vec![a.clone(), b.clone()], "chunk {chunk_len}");
        }
    }

    #[test]
    fn oversize_length_prefix_poisons_stream() {
        let mut fb = FrameBuf::new();
        fb.extend(&(MAX_FRAME as u32 + 1).to_le_bytes());
        assert!(matches!(fb.next_frame(), Err(FrameError::Oversize(_))));
    }
}

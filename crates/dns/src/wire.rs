//! RFC 1035 wire-format encoding and decoding.
//!
//! The encoder performs full domain-name compression (every name and every
//! name embedded in RDATA of well-known types is eligible as a compression
//! target, matching common server behaviour). The decoder chases compression
//! pointers with strict backward-only and hop-count protection, so malformed
//! or adversarial messages cannot loop it.

// Untrusted-input module: decoders must return errors, never panic
// (enforced by dps-analyzer's panic-safety family and these lints).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::error::{NameError, WireError};
use crate::name::{Name, MAX_NAME_LEN};
use crate::rr::{Class, RData, Record, RrType, Soa};
use std::net::{Ipv4Addr, Ipv6Addr};

/// Upper bound on an encoded message (the 16-bit length framing limit).
pub const MAX_MESSAGE_LEN: usize = u16::MAX as usize;

/// Maximum compression-pointer hops we tolerate when decoding one name.
/// A valid chain can never exceed the 127 labels a 255-octet name allows.
const MAX_POINTER_HOPS: usize = 127;

/// Highest offset a 14-bit compression pointer can reach.
const MAX_POINTER_OFFSET: usize = 0x3FFF;

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// A name suffix registered for compression: written at `offset` in the
/// output, `len` octets long uncompressed.
#[derive(Clone, Copy, Default)]
struct Suffix {
    offset: u16,
    len: u16,
}

/// Registered suffixes an encoder holds inline before it spills to the
/// heap; a typical response registers well under this many.
const INLINE_SUFFIXES: usize = 32;

/// Streaming encoder with name compression.
///
/// Every suffix written at an offset a pointer can reach is registered
/// once, at its first write, as its offset and uncompressed length: the
/// output itself holds its bytes, read back through any pointers when a
/// later name is compared with it. A lookup scans the few registered
/// suffixes of a message, and the first 32 of them sit
/// inline, so encoding a typical message allocates nothing beyond the
/// output.
pub struct Encoder {
    buf: Vec<u8>,
    inline: [Suffix; INLINE_SUFFIXES],
    /// Suffixes registered so far; those past the inline table are in
    /// `spill`.
    registered: usize,
    spill: Vec<Suffix>,
}

impl Encoder {
    /// Creates an encoder with a reasonable initial capacity.
    pub fn new() -> Self {
        Self {
            buf: Vec::with_capacity(512),
            inline: [Suffix::default(); INLINE_SUFFIXES],
            registered: 0,
            spill: Vec::new(),
        }
    }

    /// Finishes encoding and returns the message bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Current output length.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a big-endian u16.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends raw octets.
    pub fn put_slice(&mut self, s: &[u8]) {
        self.buf.extend_from_slice(s);
    }

    fn register(&mut self, suffix: Suffix) {
        match self.inline.get_mut(self.registered) {
            Some(slot) => *slot = suffix,
            None => self.spill.push(suffix),
        }
        self.registered += 1;
    }

    /// True if the name written at `offset` in the output spells the
    /// uncompressed wire form `rest`. Every pointer this encoder writes
    /// points before itself, so the walk ends.
    fn spells(&self, mut offset: usize, rest: &[u8]) -> bool {
        let mut pos = 0usize;
        loop {
            let Some(&len) = self.buf.get(offset) else {
                return false;
            };
            if len & 0xC0 == 0xC0 {
                let Some(&low) = self.buf.get(offset + 1) else {
                    return false;
                };
                offset = (usize::from(len & 0x3F) << 8) | usize::from(low);
                continue;
            }
            let end = 1 + usize::from(len);
            if self.buf.get(offset..offset + end) != rest.get(pos..pos + end) {
                return false;
            }
            if len == 0 {
                return pos + 1 == rest.len();
            }
            pos += end;
            offset += end;
        }
    }

    /// The output offset of the first registered suffix equal to `rest`.
    fn lookup(&self, rest: &[u8]) -> Option<u16> {
        let inline = self.inline.get(..self.registered).unwrap_or(&self.inline);
        inline
            .iter()
            .chain(&self.spill)
            .find(|s| usize::from(s.len) == rest.len() && self.spells(usize::from(s.offset), rest))
            .map(|s| s.offset)
    }

    /// Appends a domain name, emitting a compression pointer for the longest
    /// suffix already written, and registering every new suffix.
    pub fn put_name(&mut self, name: &Name) -> Result<(), WireError> {
        let wire = name.as_wire();
        let mut pos = 0usize;
        // Walk label by label; at each step either emit a pointer to an
        // already-written suffix, or write this label and register the
        // suffix starting here for future message parts.
        while let Some(&len) = wire.get(pos).filter(|&&len| len != 0) {
            let rest = wire.get(pos..).unwrap_or(&[]);
            if let Some(offset) = self.lookup(rest) {
                self.put_u16(0xC000 | offset);
                return self.check_len();
            }
            let here = self.buf.len();
            if here <= MAX_POINTER_OFFSET {
                self.register(Suffix {
                    offset: here as u16,
                    len: rest.len() as u16,
                });
            }
            let end = pos + 1 + usize::from(len);
            let label = wire.get(pos..end).ok_or(WireError::Truncated)?;
            self.buf.extend_from_slice(label);
            pos = end;
        }
        self.buf.push(0);
        self.check_len()
    }

    fn check_len(&self) -> Result<(), WireError> {
        if self.buf.len() > MAX_MESSAGE_LEN {
            Err(WireError::MessageTooLarge)
        } else {
            Ok(())
        }
    }

    /// Appends a full resource record (owner, type, class, TTL, RDATA).
    pub fn put_record(&mut self, rec: &Record) -> Result<(), WireError> {
        self.put_name(&rec.name)?;
        self.put_u16(rec.rtype().code());
        self.put_u16(rec.class.code());
        self.put_u32(rec.ttl);
        // Reserve RDLENGTH, encode RDATA, then patch the length.
        let len_at = self.buf.len();
        self.put_u16(0);
        let start = self.buf.len();
        self.put_rdata(&rec.rdata)?;
        let rdlen = self.buf.len() - start;
        if rdlen > u16::MAX as usize {
            return Err(WireError::MessageTooLarge);
        }
        self.buf
            .get_mut(len_at..len_at + 2)
            .ok_or(WireError::Truncated)?
            .copy_from_slice(&(rdlen as u16).to_be_bytes());
        self.check_len()
    }

    fn put_rdata(&mut self, rdata: &RData) -> Result<(), WireError> {
        match rdata {
            RData::A(a) => self.put_slice(&a.octets()),
            RData::Aaaa(a) => self.put_slice(&a.octets()),
            RData::Ns(n) | RData::Cname(n) => self.put_name(n)?,
            RData::Soa(s) => {
                self.put_name(&s.mname)?;
                self.put_name(&s.rname)?;
                self.put_u32(s.serial);
                self.put_u32(s.refresh);
                self.put_u32(s.retry);
                self.put_u32(s.expire);
                self.put_u32(s.minimum);
            }
            RData::Mx {
                preference,
                exchange,
            } => {
                self.put_u16(*preference);
                self.put_name(exchange)?;
            }
            RData::Txt(strings) => {
                for s in strings {
                    if s.len() > 255 {
                        return Err(WireError::StringTooLong(s.len()));
                    }
                    self.buf.push(s.len() as u8);
                    self.put_slice(s);
                }
            }
            RData::Raw { data, .. } => self.put_slice(data),
        }
        Ok(())
    }
}

impl Default for Encoder {
    fn default() -> Self {
        Self::new()
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Cursor-based decoder over a full message buffer.
///
/// The whole message must be available because compression pointers refer to
/// absolute offsets from the message start.
pub struct Decoder<'a> {
    msg: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder positioned at the start of `msg`.
    pub fn new(msg: &'a [u8]) -> Self {
        Self { msg, pos: 0 }
    }

    /// Current offset from message start.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Remaining octets.
    pub fn remaining(&self) -> usize {
        self.msg.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        let s = self.msg.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    /// Reads a big-endian u8.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        self.take(1)?.first().copied().ok_or(WireError::Truncated)
    }

    /// Reads a big-endian u16.
    pub fn get_u16(&mut self) -> Result<u16, WireError> {
        let s = self.take(2)?;
        Ok(u16::from_be_bytes(
            s.try_into().map_err(|_| WireError::Truncated)?,
        ))
    }

    /// Reads a big-endian u32.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        let s = self.take(4)?;
        Ok(u32::from_be_bytes(
            s.try_into().map_err(|_| WireError::Truncated)?,
        ))
    }

    /// Decodes a (possibly compressed) domain name at the cursor.
    pub fn get_name(&mut self) -> Result<Name, WireError> {
        let mut wire = Vec::with_capacity(32);
        let mut pos = self.pos;
        let mut followed: Option<usize> = None; // cursor resume point
        let mut hops = 0usize;

        loop {
            let len = *self.msg.get(pos).ok_or(WireError::Truncated)? as usize;
            match len & 0xC0 {
                0x00 => {
                    if len == 0 {
                        wire.push(0);
                        pos += 1;
                        break;
                    }
                    let end = pos + 1 + len;
                    let label = self.msg.get(pos + 1..end).ok_or(WireError::Truncated)?;
                    wire.push(len as u8);
                    for &b in label {
                        wire.push(b.to_ascii_lowercase());
                    }
                    if wire.len() > MAX_NAME_LEN {
                        return Err(WireError::BadName(NameError::NameTooLong(wire.len())));
                    }
                    pos = end;
                }
                0xC0 => {
                    let second = *self.msg.get(pos + 1).ok_or(WireError::Truncated)? as usize;
                    let target = ((len & 0x3F) << 8) | second;
                    // Pointers must go strictly backwards: this both matches
                    // every sane encoder and guarantees termination together
                    // with the hop counter.
                    if target >= pos {
                        return Err(WireError::BadPointer);
                    }
                    hops += 1;
                    if hops > MAX_POINTER_HOPS {
                        return Err(WireError::BadPointer);
                    }
                    if followed.is_none() {
                        followed = Some(pos + 2);
                    }
                    pos = target;
                }
                other => return Err(WireError::ReservedLabelType(other as u8)),
            }
        }

        self.pos = followed.unwrap_or(pos);
        Name::from_wire_unchecked(wire).map_err(WireError::BadName)
    }

    /// Decodes a full resource record at the cursor.
    pub fn get_record(&mut self) -> Result<Record, WireError> {
        let name = self.get_name()?;
        let rtype = RrType::from_code(self.get_u16()?);
        let class = Class::from_code(self.get_u16()?);
        let ttl = self.get_u32()?;
        let rdlen = self.get_u16()? as usize;
        if self.remaining() < rdlen {
            return Err(WireError::Truncated);
        }
        let rdata_start = self.pos;
        let rdata = self.get_rdata(rtype, rdlen)?;
        if self.pos != rdata_start + rdlen {
            return Err(WireError::BadRdataLength {
                rtype: rtype.code(),
                declared: rdlen,
                actual: self.pos - rdata_start,
            });
        }
        Ok(Record {
            name,
            class,
            ttl,
            rdata,
        })
    }

    fn get_rdata(&mut self, rtype: RrType, rdlen: usize) -> Result<RData, WireError> {
        let mismatch = |actual: usize| WireError::BadRdataLength {
            rtype: rtype.code(),
            declared: rdlen,
            actual,
        };
        match rtype {
            RrType::A => {
                if rdlen != 4 {
                    return Err(mismatch(4));
                }
                let &[a, b, c, d] = self.take(4)? else {
                    return Err(WireError::Truncated);
                };
                Ok(RData::A(Ipv4Addr::new(a, b, c, d)))
            }
            RrType::Aaaa => {
                if rdlen != 16 {
                    return Err(mismatch(16));
                }
                let a: [u8; 16] = self
                    .take(16)?
                    .try_into()
                    .map_err(|_| WireError::Truncated)?;
                Ok(RData::Aaaa(Ipv6Addr::from(a)))
            }
            RrType::Ns => Ok(RData::Ns(self.get_name()?)),
            RrType::Cname => Ok(RData::Cname(self.get_name()?)),
            RrType::Soa => Ok(RData::Soa(Soa {
                mname: self.get_name()?,
                rname: self.get_name()?,
                serial: self.get_u32()?,
                refresh: self.get_u32()?,
                retry: self.get_u32()?,
                expire: self.get_u32()?,
                minimum: self.get_u32()?,
            })),
            RrType::Mx => Ok(RData::Mx {
                preference: self.get_u16()?,
                exchange: self.get_name()?,
            }),
            RrType::Txt => {
                let end = self.pos + rdlen;
                let mut strings = Vec::new();
                while self.pos < end {
                    let n = self.get_u8()? as usize;
                    if self.pos + n > end {
                        return Err(mismatch(n));
                    }
                    strings.push(self.take(n)?.to_vec());
                }
                Ok(RData::Txt(strings))
            }
            _ => Ok(RData::Raw {
                rtype: rtype.code(),
                data: self.take(rdlen)?.to_vec(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn roundtrip_name_pair(a: &Name, b: &Name) -> (Vec<u8>, Name, Name) {
        let mut enc = Encoder::new();
        enc.put_name(a).unwrap();
        enc.put_name(b).unwrap();
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        let da = dec.get_name().unwrap();
        let db = dec.get_name().unwrap();
        (bytes, da, db)
    }

    #[test]
    fn name_roundtrip_plain() {
        let (_, da, db) = roundtrip_name_pair(&n("www.examp.le"), &n("other.test"));
        assert_eq!(da, n("www.examp.le"));
        assert_eq!(db, n("other.test"));
    }

    #[test]
    fn compression_reuses_suffix() {
        let a = n("www.examp.le");
        let b = n("mail.examp.le");
        let (bytes, da, db) = roundtrip_name_pair(&a, &b);
        assert_eq!(da, a);
        assert_eq!(db, b);
        // Second name should be `\x04mail` + 2-byte pointer = 7 octets,
        // instead of 15 uncompressed.
        assert_eq!(bytes.len(), a.wire_len() + 7);
    }

    /// The compressor the encoder replaced, kept as an oracle: each
    /// registered suffix's uncompressed bytes copied into an arena.
    fn compress_with_arena(prefix: usize, names: &[Name]) -> Vec<u8> {
        let mut buf = vec![0u8; prefix];
        let mut arena: Vec<u8> = Vec::new();
        let mut suffixes: Vec<(usize, usize, u16)> = Vec::new();
        'names: for name in names {
            let wire = name.as_wire();
            let mut pos = 0;
            let base = arena.len();
            arena.extend_from_slice(wire);
            while wire[pos] != 0 {
                let rest = &wire[pos..];
                if let Some(&(.., offset)) = suffixes
                    .iter()
                    .find(|&&(at, len, _)| &arena[at..at + len] == rest)
                {
                    buf.extend_from_slice(&(0xC000 | offset).to_be_bytes());
                    continue 'names;
                }
                if buf.len() <= MAX_POINTER_OFFSET {
                    suffixes.push((base + pos, rest.len(), buf.len() as u16));
                }
                let end = pos + 1 + usize::from(wire[pos]);
                buf.extend_from_slice(&wire[pos..end]);
                pos = end;
            }
            buf.push(0);
        }
        buf
    }

    #[test]
    fn compression_matches_the_arena_encoder() {
        // Names over a tiny label alphabet share many suffixes; enough of
        // them per message to spill past the inline suffix table, and
        // every other message starts near the last offset a pointer can
        // reach, so registration stops partway through.
        let labels = ["a", "b", "www", "examp", "le", "ns1", "d1", "com", "net"];
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        for round in 0..500 {
            let names: Vec<Name> = (0..1 + round % 60)
                .map(|_| {
                    let count = next(5);
                    Name::from_labels((0..count).map(|_| labels[next(labels.len())].as_bytes()))
                        .unwrap()
                })
                .collect();
            let prefix = if round % 2 == 0 {
                12
            } else {
                MAX_POINTER_OFFSET - 40
            };
            let mut enc = Encoder::new();
            enc.put_slice(&vec![0; prefix]);
            for name in &names {
                enc.put_name(name).unwrap();
            }
            let want = compress_with_arena(prefix, &names);
            assert_eq!(enc.finish(), want, "{names:?}");
        }
    }

    #[test]
    fn identical_name_collapses_to_pointer() {
        let a = n("examp.le");
        let (bytes, ..) = roundtrip_name_pair(&a, &a);
        assert_eq!(bytes.len(), a.wire_len() + 2);
    }

    #[test]
    fn root_name_roundtrips() {
        let (_, da, _) = roundtrip_name_pair(&Name::root(), &n("x.y"));
        assert!(da.is_root());
    }

    #[test]
    fn forward_pointer_rejected() {
        // Pointer to offset 2 from offset 0 (forward).
        let bytes = [0xC0, 0x02, 0x00];
        assert_eq!(Decoder::new(&bytes).get_name(), Err(WireError::BadPointer));
    }

    #[test]
    fn self_pointer_rejected() {
        // First write a valid name so offset 2 exists, then point 2 -> 2.
        let bytes = [0x01, b'a', 0xC0, 0x02];
        let mut dec = Decoder::new(&bytes);
        dec.pos = 2;
        assert_eq!(dec.get_name(), Err(WireError::BadPointer));
    }

    #[test]
    fn reserved_label_bits_rejected() {
        let bytes = [0x80, 0x00];
        assert!(matches!(
            Decoder::new(&bytes).get_name(),
            Err(WireError::ReservedLabelType(_))
        ));
    }

    #[test]
    fn truncated_label_rejected() {
        let bytes = [0x05, b'a', b'b'];
        assert_eq!(Decoder::new(&bytes).get_name(), Err(WireError::Truncated));
    }

    #[test]
    fn record_roundtrip_all_types() {
        let recs = vec![
            Record::new(
                n("a.test"),
                Class::In,
                60,
                RData::A("10.1.2.3".parse().unwrap()),
            ),
            Record::new(
                n("a.test"),
                Class::In,
                60,
                RData::Aaaa("2001:db8::1".parse().unwrap()),
            ),
            Record::new(n("a.test"), Class::In, 60, RData::Ns(n("ns1.a.test"))),
            Record::new(
                n("w.a.test"),
                Class::In,
                60,
                RData::Cname(n("edge.dps.net")),
            ),
            Record::new(
                n("a.test"),
                Class::In,
                60,
                RData::Soa(Soa {
                    mname: n("ns1.a.test"),
                    rname: n("hostmaster.a.test"),
                    serial: 20_160_305,
                    refresh: 7200,
                    retry: 900,
                    expire: 1209600,
                    minimum: 300,
                }),
            ),
            Record::new(
                n("a.test"),
                Class::In,
                60,
                RData::Mx {
                    preference: 10,
                    exchange: n("mx.a.test"),
                },
            ),
            Record::new(
                n("a.test"),
                Class::In,
                60,
                RData::Txt(vec![b"v=spf1 -all".to_vec(), b"second".to_vec()]),
            ),
            Record::new(
                n("a.test"),
                Class::In,
                60,
                RData::Raw {
                    rtype: 99,
                    data: vec![1, 2, 3],
                },
            ),
        ];
        let mut enc = Encoder::new();
        for r in &recs {
            enc.put_record(r).unwrap();
        }
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        for r in &recs {
            assert_eq!(&dec.get_record().unwrap(), r);
        }
        assert_eq!(dec.remaining(), 0);
    }

    #[test]
    fn a_record_with_wrong_rdlen_rejected() {
        // Hand-craft: name "x." + type A + class IN + ttl + rdlen 3 + 3 bytes.
        let mut bytes = vec![0x01, b'x', 0x00];
        bytes.extend_from_slice(&1u16.to_be_bytes()); // type A
        bytes.extend_from_slice(&1u16.to_be_bytes()); // class IN
        bytes.extend_from_slice(&60u32.to_be_bytes());
        bytes.extend_from_slice(&3u16.to_be_bytes()); // bad rdlen
        bytes.extend_from_slice(&[10, 0, 0]);
        assert!(matches!(
            Decoder::new(&bytes).get_record(),
            Err(WireError::BadRdataLength { rtype: 1, .. })
        ));
    }

    #[test]
    fn txt_string_too_long_rejected_on_encode() {
        let r = Record::new(n("x.y"), Class::In, 0, RData::Txt(vec![vec![0u8; 300]]));
        let mut enc = Encoder::new();
        assert!(matches!(
            enc.put_record(&r),
            Err(WireError::StringTooLong(300))
        ));
    }

    #[test]
    fn decoded_names_are_lowercased() {
        // Encode a name with uppercase octets by hand.
        let bytes = [0x03, b'W', b'W', b'W', 0x02, b'E', b'X', 0x00];
        let name = Decoder::new(&bytes).get_name().unwrap();
        assert_eq!(name, n("www.ex"));
    }
}

//! DNS messages: header, questions, and the four record sections.

// Untrusted-input module: decoders must return errors, never panic
// (enforced by dps-analyzer's panic-safety family and these lints).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::error::WireError;
use crate::name::Name;
use crate::rr::{Class, Record, RrType};
use crate::wire::{Decoder, Encoder};
use std::fmt;

/// Header opcodes (we only originate `Query`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Opcode {
    /// Standard query.
    Query,
    /// Anything else, preserved numerically.
    Other(u8),
}

impl Opcode {
    fn code(self) -> u8 {
        match self {
            Self::Query => 0,
            Self::Other(c) => c & 0x0F,
        }
    }

    fn from_code(c: u8) -> Self {
        match c & 0x0F {
            0 => Self::Query,
            o => Self::Other(o),
        }
    }
}

/// Response codes (RFC 1035 §4.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rcode {
    /// No error.
    NoError,
    /// The query was malformed.
    FormErr,
    /// The server failed internally.
    ServFail,
    /// The queried name does not exist (authoritative).
    NxDomain,
    /// The server does not implement the request.
    NotImp,
    /// The server refuses to answer.
    Refused,
    /// Any other code, preserved numerically.
    Other(u8),
}

impl Rcode {
    /// Numeric code.
    pub fn code(self) -> u8 {
        match self {
            Self::NoError => 0,
            Self::FormErr => 1,
            Self::ServFail => 2,
            Self::NxDomain => 3,
            Self::NotImp => 4,
            Self::Refused => 5,
            Self::Other(c) => c & 0x0F,
        }
    }

    /// Maps a numeric code back to a variant.
    pub fn from_code(c: u8) -> Self {
        match c & 0x0F {
            0 => Self::NoError,
            1 => Self::FormErr,
            2 => Self::ServFail,
            3 => Self::NxDomain,
            4 => Self::NotImp,
            5 => Self::Refused,
            o => Self::Other(o),
        }
    }
}

impl fmt::Display for Rcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoError => write!(f, "NOERROR"),
            Self::FormErr => write!(f, "FORMERR"),
            Self::ServFail => write!(f, "SERVFAIL"),
            Self::NxDomain => write!(f, "NXDOMAIN"),
            Self::NotImp => write!(f, "NOTIMP"),
            Self::Refused => write!(f, "REFUSED"),
            Self::Other(c) => write!(f, "RCODE{c}"),
        }
    }
}

/// Decoded message header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Header {
    /// Transaction identifier, echoed by the responder.
    pub id: u16,
    /// True for responses.
    pub qr: bool,
    /// Operation code.
    pub opcode: Opcode,
    /// Authoritative answer.
    pub aa: bool,
    /// Truncation: the response did not fit the transport.
    pub tc: bool,
    /// Recursion desired (copied into responses).
    pub rd: bool,
    /// Recursion available.
    pub ra: bool,
    /// Response code.
    pub rcode: Rcode,
}

impl Header {
    /// A query header with the given id, RD clear (we resolve iteratively).
    pub fn query(id: u16) -> Self {
        Self {
            id,
            qr: false,
            opcode: Opcode::Query,
            aa: false,
            tc: false,
            rd: false,
            ra: false,
            rcode: Rcode::NoError,
        }
    }

    fn flags(&self) -> u16 {
        let mut f = 0u16;
        if self.qr {
            f |= 1 << 15;
        }
        f |= (self.opcode.code() as u16) << 11;
        if self.aa {
            f |= 1 << 10;
        }
        if self.tc {
            f |= 1 << 9;
        }
        if self.rd {
            f |= 1 << 8;
        }
        if self.ra {
            f |= 1 << 7;
        }
        f |= self.rcode.code() as u16;
        f
    }

    fn from_flags(id: u16, f: u16) -> Self {
        Self {
            id,
            qr: f & (1 << 15) != 0,
            opcode: Opcode::from_code((f >> 11) as u8),
            aa: f & (1 << 10) != 0,
            tc: f & (1 << 9) != 0,
            rd: f & (1 << 8) != 0,
            ra: f & (1 << 7) != 0,
            rcode: Rcode::from_code(f as u8),
        }
    }
}

/// A question-section entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Question {
    /// Name being queried.
    pub qname: Name,
    /// Requested record type.
    pub qtype: RrType,
    /// Requested class (always `IN` here).
    pub qclass: Class,
}

impl Question {
    /// An `IN`-class question.
    pub fn new(qname: Name, qtype: RrType) -> Self {
        Self {
            qname,
            qtype,
            qclass: Class::In,
        }
    }
}

/// A complete DNS message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Header with flags.
    pub header: Header,
    /// Question section.
    pub questions: Vec<Question>,
    /// Answer section.
    pub answers: Vec<Record>,
    /// Authority section (NS/SOA records).
    pub authorities: Vec<Record>,
    /// Additional section (glue).
    pub additionals: Vec<Record>,
}

impl Message {
    /// Builds a single-question query.
    pub fn query(id: u16, question: Question) -> Self {
        Self {
            header: Header::query(id),
            questions: vec![question],
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
        }
    }

    /// Writes the wire form of `Message::query(id, Question::new(qname,
    /// qtype))` into `out` (cleared first) without building the message:
    /// a resolver's per-exchange query. The question's name is the
    /// message's first, so it is never compressed.
    pub fn write_query(id: u16, qname: &Name, qtype: RrType, out: &mut Vec<u8>) {
        out.clear();
        for field in [id, Header::query(id).flags(), 1, 0, 0, 0] {
            out.extend_from_slice(&field.to_be_bytes());
        }
        out.extend_from_slice(qname.as_wire());
        out.extend_from_slice(&qtype.code().to_be_bytes());
        out.extend_from_slice(&Class::In.code().to_be_bytes());
    }

    /// Starts a response to this query: same id and question, QR set,
    /// empty record sections for the responder to fill.
    pub fn answer_template(&self) -> Self {
        let mut header = self.header.clone();
        header.qr = true;
        header.ra = false;
        Self {
            header,
            questions: self.questions.clone(),
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
        }
    }

    /// [`answer_template`](Self::answer_template) for a query the
    /// responder owns: the question moves into the response instead of
    /// being copied.
    pub fn into_answer_template(mut self) -> Self {
        self.header.qr = true;
        self.header.ra = false;
        self.answers.clear();
        self.authorities.clear();
        self.additionals.clear();
        self
    }

    /// Encodes to wire format.
    pub fn to_bytes(&self) -> Result<Vec<u8>, WireError> {
        let mut enc = Encoder::new();
        enc.put_u16(self.header.id);
        enc.put_u16(self.header.flags());
        let count = |n: usize| -> Result<u16, WireError> {
            u16::try_from(n).map_err(|_| WireError::MessageTooLarge)
        };
        enc.put_u16(count(self.questions.len())?);
        enc.put_u16(count(self.answers.len())?);
        enc.put_u16(count(self.authorities.len())?);
        enc.put_u16(count(self.additionals.len())?);
        for q in &self.questions {
            enc.put_name(&q.qname)?;
            enc.put_u16(q.qtype.code());
            enc.put_u16(q.qclass.code());
        }
        for r in self
            .answers
            .iter()
            .chain(&self.authorities)
            .chain(&self.additionals)
        {
            enc.put_record(r)?;
        }
        Ok(enc.finish())
    }

    /// Decodes from wire format. Trailing octets after the declared sections
    /// are tolerated (some middleboxes pad), but truncated sections are not.
    pub fn parse(bytes: &[u8]) -> Result<Self, WireError> {
        let mut dec = Decoder::new(bytes);
        let id = dec.get_u16()?;
        let flags = dec.get_u16()?;
        let header = Header::from_flags(id, flags);
        let qd = dec.get_u16()? as usize;
        let an = dec.get_u16()? as usize;
        let ns = dec.get_u16()? as usize;
        let ar = dec.get_u16()? as usize;

        let mut questions = Vec::with_capacity(qd.min(16));
        for _ in 0..qd {
            let qname = dec.get_name()?;
            let qtype = RrType::from_code(dec.get_u16()?);
            let qclass = Class::from_code(dec.get_u16()?);
            questions.push(Question {
                qname,
                qtype,
                qclass,
            });
        }
        let mut section = |n: usize| -> Result<Vec<Record>, WireError> {
            let mut v = Vec::with_capacity(n.min(64));
            for _ in 0..n {
                v.push(dec.get_record()?);
            }
            Ok(v)
        };
        let answers = section(an)?;
        let authorities = section(ns)?;
        let additionals = section(ar)?;

        Ok(Self {
            header,
            questions,
            answers,
            authorities,
            additionals,
        })
    }

    /// All answer-section records of the given type.
    pub fn answers_of(&self, rtype: RrType) -> impl Iterator<Item = &Record> {
        self.answers.iter().filter(move |r| r.rtype() == rtype)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rr::RData;
    use std::net::Ipv4Addr;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    #[test]
    fn query_roundtrip() {
        let q = Message::query(0xBEEF, Question::new(n("www.examp.le"), RrType::Aaaa));
        let bytes = q.to_bytes().unwrap();
        let p = Message::parse(&bytes).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn write_query_matches_the_encoded_query() {
        let mut out = vec![0xAA; 3];
        for (id, name, qtype) in [
            (1u16, n("www.examp.le"), RrType::A),
            (0xFFFF, Name::root(), RrType::Ns),
            (77, n("d1.com"), RrType::Other(99)),
        ] {
            Message::write_query(id, &name, qtype, &mut out);
            let want = Message::query(id, Question::new(name, qtype))
                .to_bytes()
                .unwrap();
            assert_eq!(out, want);
        }
    }

    #[test]
    fn response_roundtrip_with_all_sections() {
        let q = Message::query(7, Question::new(n("www.examp.le"), RrType::A));
        let mut r = q.answer_template();
        r.header.aa = true;
        r.answers.push(Record::new(
            n("www.examp.le"),
            Class::In,
            60,
            RData::Cname(n("edge.foob.ar")),
        ));
        r.answers.push(Record::new(
            n("edge.foob.ar"),
            Class::In,
            60,
            RData::A(Ipv4Addr::new(10, 0, 0, 2)),
        ));
        r.authorities.push(Record::new(
            n("foob.ar"),
            Class::In,
            3600,
            RData::Ns(n("ns.foob.ar")),
        ));
        r.additionals.push(Record::new(
            n("ns.foob.ar"),
            Class::In,
            3600,
            RData::A(Ipv4Addr::new(10, 9, 9, 9)),
        ));
        let bytes = r.to_bytes().unwrap();
        let p = Message::parse(&bytes).unwrap();
        assert_eq!(p, r);
        assert!(p.header.aa);
        assert_eq!(p.answers_of(RrType::A).count(), 1);
        assert_eq!(p.answers_of(RrType::Cname).count(), 1);
    }

    #[test]
    fn flags_roundtrip_all_bits() {
        let mut h = Header::query(1);
        h.qr = true;
        h.aa = true;
        h.tc = true;
        h.rd = true;
        h.ra = true;
        h.rcode = Rcode::NxDomain;
        let rebuilt = Header::from_flags(1, h.flags());
        assert_eq!(rebuilt, h);
    }

    #[test]
    fn answer_template_echoes_question_and_id() {
        let q = Message::query(99, Question::new(n("a.b"), RrType::Ns));
        let r = q.answer_template();
        assert!(r.header.qr);
        assert_eq!(r.header.id, 99);
        assert_eq!(r.questions, q.questions);
    }

    #[test]
    fn owned_answer_template_matches_the_borrowed_one() {
        let mut q = Message::query(99, Question::new(n("a.b"), RrType::Ns));
        q.header.rd = true;
        q.header.ra = true;
        q.additionals.push(Record::new(
            n("a.b"),
            Class::In,
            0,
            RData::A(Ipv4Addr::new(10, 0, 0, 1)),
        ));
        assert_eq!(q.clone().into_answer_template(), q.answer_template());
    }

    #[test]
    fn short_buffer_is_truncated_error() {
        assert_eq!(Message::parse(&[0, 1, 2]), Err(WireError::Truncated));
    }

    #[test]
    fn compression_shrinks_realistic_response() {
        let q = Message::query(7, Question::new(n("www.verylongdomainname.com"), RrType::A));
        let mut r = q.answer_template();
        for i in 0..4 {
            r.answers.push(Record::new(
                n("www.verylongdomainname.com"),
                Class::In,
                60,
                RData::A(Ipv4Addr::new(10, 0, 0, i)),
            ));
        }
        let bytes = r.to_bytes().unwrap();
        // Owner name occurs 5 times (1 question + 4 answers); compression
        // should make each repetition 2 octets instead of 28.
        let uncompressed_estimate = 12 + 5 * (28 + 4) + 4 * (4 + 6);
        assert!(
            bytes.len() < uncompressed_estimate - 3 * 26,
            "len={}",
            bytes.len()
        );
        assert_eq!(Message::parse(&bytes).unwrap(), r);
    }

    #[test]
    fn trailing_garbage_tolerated() {
        let q = Message::query(3, Question::new(n("x.y"), RrType::A));
        let mut bytes = q.to_bytes().unwrap();
        bytes.extend_from_slice(&[0xAA; 7]);
        assert_eq!(Message::parse(&bytes).unwrap(), q);
    }
}

//! # dps-dns — a from-scratch DNS implementation
//!
//! This crate implements the subset of the Domain Name System needed by the
//! IMC 2016 reproduction: domain names, the RFC 1035 wire format (including
//! name compression), the resource-record types used by DDoS-protection
//! detection (`A`, `AAAA`, `NS`, `CNAME`, `SOA`, `MX`, `TXT`) and full
//! message encoding/decoding.
//!
//! It is written in the spirit of `smoltcp`: no dependencies,
//! explicit error types, no panics on untrusted input, and exhaustive tests
//! (unit tests per module plus property-based round-trip tests).
//!
//! ## Quick tour
//!
//! ```
//! use dps_dns::{Name, Message, Question, RrType, Class, Record, RData};
//! use std::net::Ipv4Addr;
//!
//! // Build a query.
//! let q = Message::query(0x1234, Question::new("www.examp.le".parse().unwrap(), RrType::A));
//! let bytes = q.to_bytes().unwrap();
//!
//! // Parse it back.
//! let parsed = Message::parse(&bytes).unwrap();
//! assert_eq!(parsed.header.id, 0x1234);
//! assert_eq!(parsed.questions[0].qtype, RrType::A);
//!
//! // Build a response with an answer.
//! let mut resp = q.answer_template();
//! resp.answers.push(Record::new(
//!     "www.examp.le".parse::<Name>().unwrap(),
//!     Class::In,
//!     300,
//!     RData::A(Ipv4Addr::new(10, 0, 0, 1)),
//! ));
//! let wire = resp.to_bytes().unwrap();
//! assert!(Message::parse(&wire).is_ok());
//! ```

pub mod error;
pub mod message;
pub mod name;
pub mod psl;
pub mod rr;
pub mod wire;

pub use error::{NameError, WireError};
pub use message::{Header, Message, Opcode, Question, Rcode};
pub use name::Name;
pub use psl::PublicSuffixList;
pub use rr::{Class, RData, Record, RrType, Soa};

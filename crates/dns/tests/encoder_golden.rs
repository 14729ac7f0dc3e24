//! Golden encoder bytes: the exact wire form of messages that exercise
//! every compression rule. Suffixes must register at the offset where they
//! are first written, names inside NS, CNAME, SOA and MX RDATA are both
//! compression targets and compressed, the root name is a lone zero octet,
//! and a suffix first written past offset 0x3FFF is never registered (a
//! 14-bit pointer cannot reach it), so every later copy of it is written
//! out in full. A change to any of these bytes changes every packet the
//! simulator and the server send: re-pin only with a deliberate encoder
//! change.

use dps_dns::{Class, Message, Name, Question, RData, Record, RrType, Soa};
use std::net::Ipv4Addr;

fn n(s: &str) -> Name {
    s.parse().expect("valid name")
}

fn rec(owner: &str, rdata: RData) -> Record {
    Record::new(n(owner), Class::In, 300, rdata)
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// FNV-1a (64-bit) over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Encodes `msg` and checks that it parses back to itself.
fn encode(msg: &Message) -> Vec<u8> {
    let bytes = msg.to_bytes().expect("encodes");
    assert_eq!(&Message::parse(&bytes).expect("parses"), msg);
    bytes
}

#[test]
fn shared_suffixes_and_rdata_names_compress_at_first_write() {
    let mut msg =
        Message::query(0x2016, Question::new(n("www.examp.le"), RrType::A)).answer_template();
    msg.header.aa = true;
    msg.answers = vec![
        rec("www.examp.le", RData::Cname(n("edge.cdn.examp.le"))),
        rec("edge.cdn.examp.le", RData::A(Ipv4Addr::new(10, 0, 0, 1))),
    ];
    msg.authorities = vec![
        rec("examp.le", RData::Ns(n("ns1.examp.le"))),
        rec("examp.le", RData::Ns(n("ns2.hoster.test"))),
        rec(
            "examp.le",
            RData::Soa(Soa {
                mname: n("ns1.examp.le"),
                rname: n("hostmaster.hoster.test"),
                serial: 20_160_305,
                refresh: 7200,
                retry: 900,
                expire: 1_209_600,
                minimum: 300,
            }),
        ),
        rec(
            "examp.le",
            RData::Mx {
                preference: 10,
                exchange: n("mx.hoster.test"),
            },
        ),
    ];
    msg.additionals = vec![
        rec("ns1.examp.le", RData::A(Ipv4Addr::new(10, 0, 0, 53))),
        rec("mx.hoster.test", RData::A(Ipv4Addr::new(10, 0, 0, 25))),
    ];
    assert_eq!(hex(&encode(&msg)), "20168400000100020004000203777777056578616d70026c650000010001c00c000500010000012c000b04656467650363646ec010c02a000100010000012c00040a000001c010000200010000012c0006036e7331c010c010000200010000012c0011036e733206686f73746572047465737400c010000600010000012c0023c0510a686f73746d6173746572c06701339f3100001c2000000384001275000000012cc010000f00010000012c0007000a026d78c067c051000100010000012c00040a000035c0b1000100010000012c00040a000019"
    );
}

#[test]
fn the_root_name_is_one_zero_octet_and_never_a_pointer() {
    let mut msg = Message::query(7, Question::new(Name::root(), RrType::Ns)).answer_template();
    msg.answers = vec![
        rec(".", RData::Ns(n("a.root-servers.net"))),
        rec(".", RData::Ns(n("b.root-servers.net"))),
    ];
    msg.additionals = vec![rec(
        "a.root-servers.net",
        RData::A(Ipv4Addr::new(198, 41, 0, 4)),
    )];
    assert_eq!(hex(&encode(&msg)), "000780000001000200000001000002000100000200010000012c001401610c726f6f742d73657276657273036e65740000000200010000012c00040162c01ec01c000100010000012c0004c6290004"
    );
}

#[test]
fn suffixes_past_the_pointer_range_are_written_in_full() {
    // Twenty 1,020-byte TXT records push the output past 16 KiB.
    let mut msg =
        Message::query(9, Question::new(n("big.zone.test"), RrType::Txt)).answer_template();
    let chunk = vec![b'x'; 255];
    for i in 0..20 {
        let owner = format!("t{i}.big.zone.test");
        msg.answers
            .push(rec(&owner, RData::Txt(vec![chunk.clone(); 4])));
    }
    // First written past 0x3FFF, so never registered: both copies of
    // `late.other.example` and the name under it are written in full,
    // while `zone.test`, registered by the question, is still a pointer.
    for owner in [
        "late.other.example",
        "late.other.example",
        "tail.late.other.example",
        "zz.zone.test",
    ] {
        msg.additionals
            .push(rec(owner, RData::A(Ipv4Addr::new(10, 9, 9, 9))));
    }
    let bytes = encode(&msg);
    assert!(bytes.len() > 0x4000);
    assert_eq!(
        (bytes.len(), fnv1a(&bytes)),
        (20_947, 0xcb7b_66a5_5bb8_6957)
    );
    // The additional section: 34 + 34 + 39 + 19 octets.
    assert_eq!(
        hex(&bytes[bytes.len() - 126..]),
        "046c617465056f74686572076578616d706c6500000100010000012c00040a090909046c617465056f74686572076578616d706c6500000100010000012c00040a090909047461696c046c617465056f74686572076578616d706c6500000100010000012c00040a090909027a7ac010000100010000012c00040a090909"
    );
}

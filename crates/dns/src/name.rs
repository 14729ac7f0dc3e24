//! Domain names.
//!
//! A [`Name`] is stored in uncompressed wire form: a sequence of
//! length-prefixed labels terminated by the root label (a zero octet). All
//! labels are normalised to ASCII lowercase at construction, which makes
//! equality and hashing case-insensitive as required by RFC 1035 §2.3.3 —
//! the property the detection methodology relies on when matching
//! second-level domains in `CNAME`/`NS` records.

use crate::error::NameError;
use std::fmt;
use std::str::FromStr;

/// Maximum octets of a single label.
pub const MAX_LABEL_LEN: usize = 63;
/// Maximum octets of a whole name in wire form (including the root octet).
pub const MAX_NAME_LEN: usize = 255;

/// An absolute domain name (always rooted).
///
/// ```
/// use dps_dns::Name;
/// let a: Name = "WWW.Examp.LE".parse().unwrap();
/// let b: Name = "www.examp.le.".parse().unwrap();
/// assert_eq!(a, b); // case-insensitive, trailing dot optional
/// assert_eq!(a.label_count(), 3);
/// assert_eq!(a.to_string(), "www.examp.le.");
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Name {
    /// Uncompressed wire form: `\x03www\x05examp\x02le\x00`.
    wire: Vec<u8>,
}

impl Name {
    /// The root name (`.`).
    pub fn root() -> Self {
        Self { wire: vec![0] }
    }

    /// Builds a name from an iterator of label byte-slices, most-specific
    /// first (`["www", "examp", "le"]`).
    pub fn from_labels<'a, I>(labels: I) -> Result<Self, NameError>
    where
        I: IntoIterator<Item = &'a [u8]>,
    {
        let mut wire = Vec::with_capacity(32);
        for label in labels {
            if label.is_empty() {
                return Err(NameError::EmptyLabel);
            }
            if label.len() > MAX_LABEL_LEN {
                return Err(NameError::LabelTooLong(label.len()));
            }
            wire.push(label.len() as u8);
            for &b in label {
                wire.push(b.to_ascii_lowercase());
            }
        }
        wire.push(0);
        if wire.len() > MAX_NAME_LEN {
            return Err(NameError::NameTooLong(wire.len()));
        }
        Ok(Self { wire })
    }

    /// Constructs a name directly from validated uncompressed wire bytes.
    ///
    /// Used by the wire decoder, which has already validated structure; this
    /// still re-checks the length invariants cheaply.
    pub(crate) fn from_wire_unchecked(wire: Vec<u8>) -> Result<Self, NameError> {
        if wire.len() > MAX_NAME_LEN {
            return Err(NameError::NameTooLong(wire.len()));
        }
        debug_assert_eq!(wire.last(), Some(&0));
        Ok(Self { wire })
    }

    /// The uncompressed wire representation (always ends with `0x00`).
    pub fn as_wire(&self) -> &[u8] {
        &self.wire
    }

    /// Parses an untrusted uncompressed wire-form name (length-prefixed
    /// labels terminated by the root octet), normalising labels to ASCII
    /// lowercase. Checked throughout: bad structure is an error, never a
    /// panic. The inverse of [`as_wire`](Self::as_wire) — much cheaper
    /// than a presentation-format round-trip.
    pub fn from_wire(bytes: &[u8]) -> Result<Self, NameError> {
        if bytes.len() > MAX_NAME_LEN {
            return Err(NameError::NameTooLong(bytes.len()));
        }
        let mut i = 0usize;
        loop {
            match bytes.get(i) {
                // Ran past the end without meeting the root octet.
                None => return Err(NameError::MalformedWire),
                Some(0) => {
                    if i + 1 != bytes.len() {
                        // Trailing bytes after the root octet.
                        return Err(NameError::MalformedWire);
                    }
                    break;
                }
                Some(&len) => {
                    if usize::from(len) > MAX_LABEL_LEN {
                        return Err(NameError::LabelTooLong(usize::from(len)));
                    }
                    i += 1 + usize::from(len);
                }
            }
        }
        Ok(Self {
            wire: bytes.to_ascii_lowercase(),
        })
    }

    /// Number of labels, excluding the root label. The root name has 0.
    pub fn label_count(&self) -> usize {
        self.labels().count()
    }

    /// Iterates over the labels, most-specific first.
    pub fn labels(&self) -> Labels<'_> {
        Labels { rest: &self.wire }
    }

    /// True for the root name.
    pub fn is_root(&self) -> bool {
        self.wire.len() == 1
    }

    /// The name with the most-specific label removed; `None` for the root.
    ///
    /// `www.examp.le.` → `examp.le.`
    pub fn parent(&self) -> Option<Self> {
        if self.is_root() {
            return None;
        }
        let skip = 1 + *self.wire.first()? as usize;
        Some(Self {
            wire: self.wire.get(skip..)?.to_vec(),
        })
    }

    /// True if `self` equals `other` or is underneath it in the tree.
    ///
    /// Every name is a subdomain of the root. `examp.le.` is a subdomain of
    /// `le.` and of itself, but not of `ample.` (comparison is per label, not
    /// per substring).
    pub fn is_subdomain_of(&self, other: &Name) -> bool {
        self.wire.ends_with(&other.wire)
    }

    /// Prepends a single label: `prepend("www")` on `examp.le.` gives
    /// `www.examp.le.`.
    /// The label is lowercased and checked like any [`from_labels`]
    /// label; the wire form is written in one allocation.
    ///
    /// [`from_labels`]: Self::from_labels
    pub fn prepend(&self, label: &str) -> Result<Self, NameError> {
        let label = label.as_bytes();
        if label.is_empty() {
            return Err(NameError::EmptyLabel);
        }
        if label.len() > MAX_LABEL_LEN {
            return Err(NameError::LabelTooLong(label.len()));
        }
        let len = 1 + label.len() + self.wire.len();
        if len > MAX_NAME_LEN {
            return Err(NameError::NameTooLong(len));
        }
        let mut wire = Vec::with_capacity(len);
        wire.push(label.len() as u8);
        wire.extend(label.iter().map(u8::to_ascii_lowercase));
        wire.extend_from_slice(&self.wire);
        Ok(Self { wire })
    }

    /// The suffix of `self` keeping only the last `n` labels.
    ///
    /// `www.examp.le.` with `n = 2` gives `examp.le.`; if the name has fewer
    /// than `n` labels the whole name is returned.
    pub fn suffix(&self, n: usize) -> Self {
        Self {
            wire: self.suffix_wire(n).to_vec(),
        }
    }

    /// The wire form of [`suffix`](Self::suffix), borrowed from `self`:
    /// comparing two names' `suffix_wire(2)` compares their SLDs without
    /// building either.
    pub fn suffix_wire(&self, n: usize) -> &[u8] {
        let count = self.label_count();
        let mut rest = self.wire.as_slice();
        for _ in 0..count.saturating_sub(n) {
            let Some(&len) = rest.first() else { break };
            rest = rest.get(1 + len as usize..).unwrap_or(&[]);
        }
        rest
    }

    /// The registered-domain heuristic used throughout the paper: the last
    /// two labels of a name (`second-level domain` + TLD), e.g.
    /// `edge.cdn.incapdns.net.` → `incapdns.net.`.
    ///
    /// The real study uses knowledge of public suffixes; our simulated
    /// namespace only uses single-label public suffixes, so two labels is
    /// exact. Names with fewer than two labels are returned unchanged.
    pub fn sld(&self) -> Self {
        self.suffix(2)
    }

    /// Wire length in octets (including the root octet).
    pub fn wire_len(&self) -> usize {
        self.wire.len()
    }
}

impl FromStr for Name {
    type Err = NameError;

    /// Parses presentation format. A trailing dot is optional; `"."` and
    /// `""` both give the root. Allowed characters: ASCII alphanumerics,
    /// `-` and `_` (seen in e.g. `_dmarc` labels).
    fn from_str(s: &str) -> Result<Self, NameError> {
        let s = s.strip_suffix('.').unwrap_or(s);
        if s.is_empty() {
            return Ok(Self::root());
        }
        for c in s.chars() {
            if !(c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.') {
                return Err(NameError::InvalidCharacter(c));
            }
        }
        Self::from_labels(s.split('.').map(str::as_bytes))
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_root() {
            return write!(f, ".");
        }
        for label in self.labels() {
            // Labels are normalised ASCII; lossy conversion never triggers.
            f.write_str(&String::from_utf8_lossy(label))?;
            f.write_str(".")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// Iterator over the labels of a [`Name`], most-specific first.
pub struct Labels<'a> {
    rest: &'a [u8],
}

impl<'a> Labels<'a> {
    /// The labels of an uncompressed wire-form name as [`Name::as_wire`]
    /// or [`Name::suffix_wire`] lend it, without building a [`Name`].
    pub fn of_wire(wire: &'a [u8]) -> Self {
        Self { rest: wire }
    }
}

impl<'a> Iterator for Labels<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let len = *self.rest.first()? as usize;
        if len == 0 {
            return None;
        }
        let label = self.rest.get(1..1 + len)?;
        self.rest = self.rest.get(1 + len..).unwrap_or(&[]);
        Some(label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display_roundtrip() {
        assert_eq!(n("www.examp.le").to_string(), "www.examp.le.");
        assert_eq!(n("www.examp.le.").to_string(), "www.examp.le.");
        assert_eq!(n(".").to_string(), ".");
        assert_eq!(n("").to_string(), ".");
    }

    #[test]
    fn case_insensitive_eq_and_hash() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(n("Examp.LE"));
        assert!(set.contains(&n("examp.le")));
        assert_eq!(n("A.B"), n("a.b"));
    }

    #[test]
    fn label_limits_enforced() {
        let long = "a".repeat(64);
        assert_eq!(long.parse::<Name>(), Err(NameError::LabelTooLong(64)));
        let ok = "a".repeat(63);
        assert!(ok.parse::<Name>().is_ok());
    }

    #[test]
    fn name_length_limit_enforced() {
        // 4 labels of 63 octets = 4*64 + 1 = 257 wire octets > 255.
        let l = "a".repeat(63);
        let s = format!("{l}.{l}.{l}.{l}");
        assert!(matches!(s.parse::<Name>(), Err(NameError::NameTooLong(_))));
    }

    #[test]
    fn empty_label_rejected() {
        assert_eq!("a..b".parse::<Name>(), Err(NameError::EmptyLabel));
    }

    #[test]
    fn invalid_characters_rejected() {
        assert_eq!("a b".parse::<Name>(), Err(NameError::InvalidCharacter(' ')));
        assert!("xn--caf-dma.example".parse::<Name>().is_ok()); // punycode form ok
    }

    #[test]
    fn parent_chain_terminates_at_root() {
        let mut cur = Some(n("www.examp.le"));
        let mut seen = Vec::new();
        while let Some(c) = cur {
            seen.push(c.to_string());
            cur = c.parent();
        }
        assert_eq!(seen, vec!["www.examp.le.", "examp.le.", "le.", "."]);
    }

    #[test]
    fn subdomain_is_per_label() {
        assert!(n("www.examp.le").is_subdomain_of(&n("examp.le")));
        assert!(n("examp.le").is_subdomain_of(&n("examp.le")));
        assert!(n("examp.le").is_subdomain_of(&Name::root()));
        assert!(!n("examp.le").is_subdomain_of(&n("amp.le")));
        assert!(!n("le").is_subdomain_of(&n("examp.le")));
    }

    #[test]
    fn sld_takes_last_two_labels() {
        assert_eq!(n("edge.cdn.incapdns.net").sld(), n("incapdns.net"));
        assert_eq!(n("examp.le").sld(), n("examp.le"));
        assert_eq!(n("le").sld(), n("le"));
    }

    #[test]
    fn prepend_builds_child() {
        assert_eq!(n("examp.le").prepend("www").unwrap(), n("www.examp.le"));
        assert_eq!(Name::root().prepend("le").unwrap(), n("le"));
    }

    /// The label-list construction `prepend` replaced: every result and
    /// every error must stay the same.
    fn prepend_via_labels(name: &Name, label: &str) -> Result<Name, NameError> {
        Name::from_labels(std::iter::once(label.as_bytes()).chain(name.labels()))
    }

    #[test]
    fn prepend_lowercases_and_keeps_its_errors() {
        let base = n("Examp.LE");
        let got = base.prepend("WwW").unwrap();
        assert_eq!(got.as_wire(), b"\x03www\x05examp\x02le\x00");
        assert_eq!(got, prepend_via_labels(&base, "WwW").unwrap());

        assert_eq!(base.prepend(""), Err(NameError::EmptyLabel));
        assert_eq!(
            base.prepend(&"a".repeat(64)),
            Err(NameError::LabelTooLong(64))
        );
        assert!(base.prepend(&"a".repeat(63)).is_ok());

        // Three 63-octet labels + root = 193 octets; a fourth label of
        // 61 fits exactly (255), one of 62 does not.
        let l = "a".repeat(63);
        let long = n(&format!("{l}.{l}.{l}"));
        assert_eq!(
            long.prepend(&"b".repeat(61)).unwrap().wire_len(),
            MAX_NAME_LEN
        );
        assert_eq!(
            long.prepend(&"b".repeat(62)),
            Err(NameError::NameTooLong(256))
        );
        for label in [
            "",
            "x",
            "MiXeD",
            &"c".repeat(62),
            &"c".repeat(63),
            &"c".repeat(64),
        ] {
            for name in [&base, &long, &Name::root()] {
                assert_eq!(
                    name.prepend(label),
                    prepend_via_labels(name, label),
                    "{label}"
                );
            }
        }
    }

    #[test]
    fn suffix_wire_matches_suffix() {
        for s in ["a.b.c.d", "b.c", "c", "."] {
            let x = n(s);
            for k in 0..6 {
                assert_eq!(x.suffix_wire(k), x.suffix(k).as_wire(), "{s} {k}");
            }
        }
    }

    #[test]
    fn suffix_counts_labels() {
        let x = n("a.b.c.d");
        assert_eq!(x.suffix(1), n("d"));
        assert_eq!(x.suffix(4), x);
        assert_eq!(x.suffix(9), x);
        assert_eq!(x.suffix(0), Name::root());
    }

    #[test]
    fn labels_iterate_most_specific_first() {
        let name = n("www.examp.le");
        let collected: Vec<&[u8]> = name.labels().collect();
        assert_eq!(collected, vec![b"www".as_slice(), b"examp", b"le"]);
        let suffix: Vec<&[u8]> = Labels::of_wire(name.suffix_wire(2)).collect();
        assert_eq!(suffix, vec![b"examp".as_slice(), b"le"]);
    }

    #[test]
    fn from_wire_inverts_as_wire() {
        for s in ["www.examp.le", "a.b.c.d", "le"] {
            let name = n(s);
            assert_eq!(Name::from_wire(name.as_wire()).unwrap(), name);
        }
        assert_eq!(Name::from_wire(&[0]).unwrap(), Name::root());
        // Uppercase wire bytes normalise like every other constructor.
        assert_eq!(Name::from_wire(b"\x03WWW\x02le\x00").unwrap(), n("www.le"));
    }

    #[test]
    fn from_wire_rejects_malformed_bytes() {
        assert_eq!(Name::from_wire(&[]), Err(NameError::MalformedWire));
        // Label length runs past the end.
        assert_eq!(Name::from_wire(b"\x05ab"), Err(NameError::MalformedWire));
        // Missing root octet.
        assert_eq!(Name::from_wire(b"\x02ab"), Err(NameError::MalformedWire));
        // Trailing bytes after the root octet.
        assert_eq!(
            Name::from_wire(b"\x01a\x00x"),
            Err(NameError::MalformedWire)
        );
        // Oversized label (64) and oversized name.
        let mut long = vec![64u8];
        long.extend(std::iter::repeat_n(b'a', 64));
        long.push(0);
        assert_eq!(Name::from_wire(&long), Err(NameError::LabelTooLong(64)));
        let big = [1u8, b'a'].repeat(200);
        assert_eq!(Name::from_wire(&big), Err(NameError::NameTooLong(400)));
    }
}

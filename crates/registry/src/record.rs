//! The provenance record schema and its canonical line encoding.
//!
//! One [`Record`] is written per verification request. Its canonical form
//! is a single-line JSON object with a **fixed field order**; the record's
//! content digest is FNV-1a over that line with the digest fields omitted,
//! so any drift in the schema, the field order, or the values changes the
//! digest (and the golden-schema test fails loudly).

use crate::digest::Digest64;
use crate::json::json_string;

/// Verdict class of a registry record.
///
/// This is the registry's *archival* view of a verification outcome: the
/// serving layer maps the core `Verdict` (Genuine / Counterfeit /
/// Inconclusive) plus the recycling-probe result onto an incoming-
/// inspection decision — accept the part, reject it, or re-inspect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RecordVerdict {
    /// The part passed inspection and enters the build.
    Accept,
    /// The part failed inspection (counterfeit watermark or recycled wear).
    Reject,
    /// The part could not be judged and must be re-inspected.
    Inconclusive,
}

impl RecordVerdict {
    /// Stable lowercase label used in canonical record lines.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Accept => "accept",
            Self::Reject => "reject",
            Self::Inconclusive => "inconclusive",
        }
    }
}

impl core::fmt::Display for RecordVerdict {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// One verification's provenance record, before the registry assigns its
/// sequence number and digests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Caller-chosen unique request identifier — the idempotence key.
    /// Replaying a request with an identifier the registry has already
    /// recorded is a no-op.
    pub request_id: u64,
    /// The inspected chip's identifier (lot/tray position or die id).
    pub chip_id: u64,
    /// Declared provenance class of the lot the chip arrived in (the load
    /// generator uses ground truth here, so verdict mixes can be scored
    /// per class).
    pub class: String,
    /// Watermark scheme that produced the verdict (`"nor_tpew"`,
    /// `"nand_puf"`, `"reram_forming"` — the `WatermarkScheme::name`
    /// vocabulary), so fleet records from different backends stay
    /// distinguishable in one registry.
    pub scheme: String,
    /// Verifier build tag recorded for audit (schema version + recipe id).
    pub commit: String,
    /// Canonical one-line JSON of the published extraction recipe the
    /// verifier ran with (embedded verbatim — it must already be valid
    /// single-line JSON).
    pub params: String,
    /// The inspection decision.
    pub verdict: RecordVerdict,
    /// Stable reason label behind a reject/inconclusive verdict (empty for
    /// accepts).
    pub reason: String,
    /// Canonical one-line JSON of the per-request observability counters
    /// (embedded verbatim).
    pub metrics: String,
    /// Retry-ladder rungs the verifier walked before the verdict settled.
    pub ladder_depth: u32,
    /// Transient-fault retries the verifier spent.
    pub retries: u32,
}

/// A record as stored: sequence number assigned, digests computed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedRecord {
    /// Position in the registry log (0-based, gap-free).
    pub seq: u64,
    /// FNV-1a content digest of the canonical payload line.
    pub digest: Digest64,
    /// Chain digest after linking this record: `prev_chain.link(digest)`.
    pub chain: Digest64,
    /// The record itself.
    pub record: Record,
}

impl SealedRecord {
    /// Seals `record` at `seq` on top of `prev_chain`.
    #[must_use]
    pub fn seal(seq: u64, prev_chain: Digest64, record: Record) -> Self {
        let digest = Digest64::of(payload_line(seq, &record).as_bytes());
        Self {
            seq,
            digest,
            chain: prev_chain.link(digest),
            record,
        }
    }

    /// The canonical registry line: the digest-free payload with the
    /// `digest` and `chain` fields appended before the closing brace.
    #[must_use]
    pub fn line(&self) -> String {
        use core::fmt::Write as _;
        let mut line = payload_line(self.seq, &self.record);
        line.pop(); // strip the closing brace
        let _ = write!(
            line,
            ",\"digest\":\"{}\",\"chain\":\"{}\"}}",
            self.digest, self.chain
        );
        line
    }
}

/// The canonical single-line JSON payload the record digest covers. Field
/// order is part of the schema; any change breaks the golden fixture.
fn payload_line(seq: u64, r: &Record) -> String {
    format!(
        "{{\"seq\":{},\"request_id\":{},\"chip_id\":{},\"class\":{},\"scheme\":{},\
         \"verdict\":\"{}\",\
         \"reason\":{},\"ladder_depth\":{},\"retries\":{},\"commit\":{},\
         \"params\":{},\"metrics\":{}}}",
        seq,
        r.request_id,
        r.chip_id,
        json_string(&r.class),
        json_string(&r.scheme),
        r.verdict.name(),
        json_string(&r.reason),
        r.ladder_depth,
        r.retries,
        json_string(&r.commit),
        embed_json(&r.params),
        embed_json(&r.metrics),
    )
}

/// Embeds a pre-canonicalized JSON fragment, falling back to `null` for an
/// empty string and to a quoted string for anything that is clearly not a
/// JSON object/array (defensive: a malformed fragment must not corrupt the
/// line's structure).
fn embed_json(fragment: &str) -> String {
    let t = fragment.trim();
    if t.is_empty() {
        "null".to_string()
    } else if (t.starts_with('{') && t.ends_with('}')) || (t.starts_with('[') && t.ends_with(']')) {
        t.to_string()
    } else {
        json_string(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> Record {
        Record {
            request_id: 7,
            chip_id: 3,
            class: "genuine".into(),
            scheme: "nor_tpew".into(),
            commit: "flashmark-registry/1".into(),
            params: "{\"n_pe\":60000}".into(),
            verdict: RecordVerdict::Accept,
            reason: String::new(),
            metrics: "{\"flash.read_segment\":5}".into(),
            ladder_depth: 1,
            retries: 0,
        }
    }

    #[test]
    fn line_is_single_line_json_with_fixed_field_order() {
        let sealed = SealedRecord::seal(0, Digest64::EMPTY, record());
        let line = sealed.line();
        assert!(!line.contains('\n'));
        let order = [
            "\"seq\":",
            "\"request_id\":",
            "\"chip_id\":",
            "\"class\":",
            "\"scheme\":",
            "\"verdict\":",
            "\"reason\":",
            "\"ladder_depth\":",
            "\"retries\":",
            "\"commit\":",
            "\"params\":",
            "\"metrics\":",
            "\"digest\":",
            "\"chain\":",
        ];
        let mut last = 0;
        for key in order {
            let at = line
                .find(key)
                .unwrap_or_else(|| panic!("{key} missing: {line}"));
            assert!(at >= last, "{key} out of order: {line}");
            last = at;
        }
        assert!(line.contains("\"params\":{\"n_pe\":60000}"));
    }

    #[test]
    fn digest_covers_every_payload_field() {
        let base = SealedRecord::seal(0, Digest64::EMPTY, record());
        let mut altered = record();
        altered.ladder_depth = 2;
        assert_ne!(
            SealedRecord::seal(0, Digest64::EMPTY, altered).digest,
            base.digest
        );
        let mut altered = record();
        altered.reason = "recycled_wear".into();
        assert_ne!(
            SealedRecord::seal(0, Digest64::EMPTY, altered).digest,
            base.digest
        );
        // The same record at a different seq digests differently too.
        assert_ne!(
            SealedRecord::seal(1, Digest64::EMPTY, record()).digest,
            base.digest
        );
    }

    #[test]
    fn chain_links_the_previous_record() {
        let a = SealedRecord::seal(0, Digest64::EMPTY, record());
        let b = SealedRecord::seal(1, a.chain, record());
        assert_eq!(b.chain, a.chain.link(b.digest));
        assert_ne!(a.chain, b.chain);
    }

    #[test]
    fn string_escaping_and_fragment_embedding() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(embed_json(""), "null");
        assert_eq!(embed_json("{\"k\":1}"), "{\"k\":1}");
        assert_eq!(embed_json("not json"), "\"not json\"");
    }
}

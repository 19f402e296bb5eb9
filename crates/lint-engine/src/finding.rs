//! Findings, the machine-readable report, and the committed baseline.
//!
//! The report serializer is deterministic by construction: findings are
//! sorted by `(file, line, rule, message)`, rule counts live in a
//! `BTreeMap`, and nothing timestamped ever enters the document — so
//! `results/lint_report.json` is byte-identical across repeated runs.
//!
//! The baseline (`lint_baseline.json` at the workspace root) is a list of
//! *accepted* findings matched as a multiset on `(rule, file, message)` —
//! line numbers are deliberately excluded so unrelated edits shifting a
//! file do not churn the baseline.

use std::collections::BTreeMap;
use std::fmt;

use flashmark_registry::impl_to_json;
use flashmark_registry::json::{self, Json, ToJson};

/// Every rule family the engine knows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Panic-free hot paths (`unwrap`/`expect`/`panic!` family).
    PanicFree,
    /// No exact f64 equality on physics quantities.
    FloatEq,
    /// No wall-clock / OS randomness outside sanctioned modules.
    Nondeterminism,
    /// Every public item documented.
    MissingDocs,
    /// No raw thread spawning outside `crates/par`.
    ThreadDiscipline,
    /// No direct printing from library crates.
    PrintDiscipline,
    /// RNG/stream constructions must derive from a seed parameter.
    SeedDataflow,
    /// No `HashMap`/`HashSet` where iteration order can reach artifacts.
    MapOrder,
    /// No wall-clock reads outside the quarantined timing modules.
    WallClock,
    /// No ad-hoc float accumulation in cross-trial merge code.
    MergeCommutativity,
    /// `unsafe` / unchecked-access inventory and `forbid(unsafe_code)`.
    UnsafeAudit,
    /// Unreferenced `pub` items across the workspace.
    PubLiveness,
    /// Malformed or unjustified `flashmark-lint: allow(...)` comments.
    Suppression,
}

impl Rule {
    /// Stable kebab-case name used in reports, baselines, and
    /// suppression comments.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::PanicFree => "panic-free",
            Self::FloatEq => "float-eq",
            Self::Nondeterminism => "nondeterminism",
            Self::MissingDocs => "missing-docs",
            Self::ThreadDiscipline => "thread-discipline",
            Self::PrintDiscipline => "print-discipline",
            Self::SeedDataflow => "seed-dataflow",
            Self::MapOrder => "map-order",
            Self::WallClock => "wall-clock",
            Self::MergeCommutativity => "merge-commutativity",
            Self::UnsafeAudit => "unsafe-audit",
            Self::PubLiveness => "pub-liveness",
            Self::Suppression => "suppression",
        }
    }

    /// Parses a kebab-case rule name (as written in `allow(...)`).
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        ALL_RULES.iter().copied().find(|r| r.name() == name)
    }
}

/// Every rule, in report order.
pub const ALL_RULES: [Rule; 13] = [
    Rule::PanicFree,
    Rule::FloatEq,
    Rule::Nondeterminism,
    Rule::MissingDocs,
    Rule::ThreadDiscipline,
    Rule::PrintDiscipline,
    Rule::SeedDataflow,
    Rule::MapOrder,
    Rule::WallClock,
    Rule::MergeCommutativity,
    Rule::UnsafeAudit,
    Rule::PubLiveness,
    Rule::Suppression,
];

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// The result of one engine run over the workspace.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// All unsuppressed findings, sorted for stable output.
    pub findings: Vec<Finding>,
    /// Number of files analyzed.
    pub files_checked: usize,
    /// Findings silenced by a justified suppression comment.
    pub suppressed: usize,
    /// Findings matched (and removed) by the committed baseline.
    pub baselined: usize,
}

impl Report {
    /// Sorts findings into the canonical report order.
    pub fn normalize(&mut self) {
        self.findings.sort_by(|a, b| {
            (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
        });
    }

    /// Removes findings matched by the baseline (multiset on
    /// `(rule, file, message)`), counting them in `baselined`. Returns the
    /// baseline entries that matched nothing (stale entries).
    pub fn apply_baseline(&mut self, baseline: &[BaselineEntry]) -> Vec<BaselineEntry> {
        let mut budget: BTreeMap<(String, String, String), usize> = BTreeMap::new();
        for e in baseline {
            *budget
                .entry((e.rule.clone(), e.file.clone(), e.message.clone()))
                .or_insert(0) += 1;
        }
        let mut matched = 0usize;
        self.findings.retain(|f| {
            let key = (f.rule.name().to_string(), f.file.clone(), f.message.clone());
            if let Some(n) = budget.get_mut(&key) {
                if *n > 0 {
                    *n -= 1;
                    matched += 1;
                    return false;
                }
            }
            true
        });
        self.baselined += matched;
        budget
            .into_iter()
            .filter(|(_, n)| *n > 0)
            .flat_map(|((rule, file, message), n)| {
                std::iter::repeat_with(move || BaselineEntry {
                    rule: rule.clone(),
                    file: file.clone(),
                    message: message.clone(),
                })
                .take(n)
            })
            .collect()
    }

    /// Serializes the report as deterministic pretty-printed JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
        for f in &self.findings {
            *counts.entry(f.rule.name()).or_insert(0) += 1;
        }
        let counts = counts.into_iter().map(|(r, n)| (r.into(), n.to_json()));
        let doc = Json::Obj(vec![
            ("schema".into(), "flashmark-lint/1".to_json()),
            ("files_checked".into(), self.files_checked.to_json()),
            ("suppressed".into(), self.suppressed.to_json()),
            ("baselined".into(), self.baselined.to_json()),
            ("rule_counts".into(), Json::Obj(counts.collect())),
            ("findings".into(), self.findings.to_json()),
        ]);
        format!("{}\n", doc.pretty())
    }
}

impl ToJson for Rule {
    fn to_json(&self) -> Json {
        Json::Str(self.name().to_string())
    }
}

impl_to_json!(Finding {
    rule,
    file,
    line,
    message
});

/// One accepted finding in the committed baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineEntry {
    /// Rule name (kebab-case).
    pub rule: String,
    /// Workspace-relative path.
    pub file: String,
    /// Exact finding message.
    pub message: String,
}

impl_to_json!(BaselineEntry {
    rule,
    file,
    message
});

/// Serializes a baseline document.
#[must_use]
pub fn baseline_to_json(entries: &[BaselineEntry]) -> String {
    let doc = Json::Obj(vec![
        ("schema".into(), "flashmark-lint-baseline/1".to_json()),
        ("entries".into(), entries.to_json()),
    ]);
    format!("{}\n", doc.pretty())
}

/// Parses a baseline document.
///
/// # Errors
///
/// A message for malformed input, so the gate fails loudly rather than
/// silently accepting everything.
pub fn baseline_from_json(text: &str) -> Result<Vec<BaselineEntry>, String> {
    let doc = json::parse(text)?;
    let entries = doc.get("entries").and_then(Json::as_array);
    let entries = entries.ok_or("baseline missing `entries` array")?;
    let entry = |e: &Json| {
        let get = |key: &str| {
            e.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("baseline entry missing string `{key}`"))
        };
        Ok(BaselineEntry {
            rule: get("rule")?,
            file: get("file")?,
            message: get("message")?,
        })
    };
    entries.iter().map(entry).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(file: &str, line: u32, rule: Rule, msg: &str) -> Finding {
        Finding {
            file: file.to_string(),
            line,
            rule,
            message: msg.to_string(),
        }
    }

    #[test]
    fn report_json_is_deterministic_and_sorted() {
        let mut r = Report {
            findings: vec![
                finding("b.rs", 9, Rule::MapOrder, "z"),
                finding("a.rs", 3, Rule::PanicFree, "y"),
                finding("a.rs", 1, Rule::PanicFree, "x"),
            ],
            files_checked: 2,
            suppressed: 1,
            baselined: 0,
        };
        r.normalize();
        let one = r.to_json();
        let two = r.to_json();
        assert_eq!(one, two);
        let doc = json::parse(&one).unwrap();
        let order: Vec<(&str, u64)> = doc
            .get("findings")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|f| {
                (
                    f.get("file").and_then(Json::as_str).unwrap(),
                    f.get("line").and_then(Json::as_u64).unwrap(),
                )
            })
            .collect();
        assert_eq!(order, [("a.rs", 1), ("a.rs", 3), ("b.rs", 9)]);
        assert!(one.contains("\"panic-free\": 2"));
        assert!(one.ends_with("}\n"));
    }

    #[test]
    fn empty_report_serializes_cleanly() {
        let r = Report::default();
        let json = r.to_json();
        assert!(json.contains("\"findings\": []"));
        assert!(json.contains("\"rule_counts\": {}"));
    }

    #[test]
    fn json_escaping_round_trips() {
        let entries = vec![BaselineEntry {
            rule: "panic-free".to_string(),
            file: "a \"b\"\\c.rs".to_string(),
            message: "line1\nline2\ttabbed".to_string(),
        }];
        let doc = baseline_to_json(&entries);
        let back = baseline_from_json(&doc).unwrap();
        assert_eq!(back, entries);
    }

    #[test]
    fn baseline_matching_is_a_multiset() {
        let mut r = Report {
            findings: vec![
                finding("a.rs", 1, Rule::MapOrder, "m"),
                finding("a.rs", 5, Rule::MapOrder, "m"),
                finding("a.rs", 9, Rule::MapOrder, "m"),
            ],
            files_checked: 1,
            ..Report::default()
        };
        let baseline = vec![
            BaselineEntry {
                rule: "map-order".to_string(),
                file: "a.rs".to_string(),
                message: "m".to_string(),
            };
            2
        ];
        let stale = r.apply_baseline(&baseline);
        assert!(stale.is_empty());
        assert_eq!(r.baselined, 2);
        assert_eq!(r.findings.len(), 1, "third copy is NOT baselined");
    }

    #[test]
    fn stale_baseline_entries_are_reported() {
        let mut r = Report::default();
        let baseline = vec![BaselineEntry {
            rule: "float-eq".to_string(),
            file: "gone.rs".to_string(),
            message: "old".to_string(),
        }];
        let stale = r.apply_baseline(&baseline);
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].file, "gone.rs");
    }

    #[test]
    fn rule_names_round_trip() {
        for rule in ALL_RULES {
            assert_eq!(Rule::parse(rule.name()), Some(rule));
        }
        assert_eq!(Rule::parse("nope"), None);
    }

    #[test]
    fn hostile_baselines_are_errors() {
        assert!(baseline_from_json(&"[".repeat(200_000)).is_err());
        assert!(baseline_from_json("{\"entries\": [{\"rule\": 1}]}").is_err());
        assert!(baseline_from_json("{\"entries\": {}}").is_err());
        assert_eq!(baseline_from_json("{\"entries\": []}"), Ok(vec![]));
    }
}

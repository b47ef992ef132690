//! Diagnostic codes, severities and the report type.
//!
//! Every finding the verifier can produce carries a stable machine-readable
//! code (`V001`–`V041`), a severity, and a span locating it in the schedule
//! (step/op indices) or in a lowered program (node/op indices). The
//! [`Diagnostics`] report renders both a human transcript and JSON, so the
//! `cm5 lint` pipeline and CI can consume the same data.

use std::fmt;

use cm5_obs::json_str;

/// How bad a finding is.
///
/// `Error` and `Warning` findings fail a lint run; `Advice` findings are
/// informational — the paper's own schedules *deliberately* oversubscribe
/// the fat-tree root (that is what Figure 5 measures), so predicted
/// hotspots must not fail the builtin schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: the schedule is correct but has a predictable
    /// performance hazard.
    Advice,
    /// Suspicious but not provably wrong (e.g. a zero-byte transfer).
    Warning,
    /// The schedule is structurally wrong, does not conserve the pattern's
    /// bytes, or cannot complete under blocking CMMD semantics.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Advice => "advice",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Stable machine-readable diagnostic codes.
///
/// The numbering is grouped: `V00x` structural, `V01x` conservation/shape,
/// `V02x` blocking-semantics (deadlock), `V03x` contention, `V04x` buffer
/// occupancy. Codes are append-only; renumbering would break downstream
/// consumers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Code {
    /// V001: an op references a node outside `0..n`.
    BadNode,
    /// V002: an op sends a message from a node to itself.
    SelfMessage,
    /// V003: an op moves zero bytes (legal but almost always a bug).
    ZeroBytes,
    /// V010: a node appears in more than one op of a step that claims
    /// pairwise disjointness.
    StepConflict,
    /// V011: the same directed transfer appears twice in one step, so both
    /// messages carry the same tag and the payloads may be delivered in
    /// either order.
    DuplicatePair,
    /// V012: the schedule moves fewer bytes for a pair than the pattern
    /// requires.
    CoverageMissing,
    /// V013: the schedule moves more bytes for a pair than the pattern
    /// requires.
    CoverageExcess,
    /// V014: a step of a permutation-phase algorithm gives a node more than
    /// one send or receive partner.
    NotPermutation,
    /// V020: blocking sends/recvs form a wait-for cycle — the schedule
    /// deadlocks on the real machine. Carries the full witness path.
    DeadlockCycle,
    /// V021: an op blocks forever on a partner that never posts a matching
    /// operation (mispaired send/recv, wrong tag, or dropped op).
    StuckOp,
    /// V022: nodes reach different control-network collectives.
    CollectiveMismatch,
    /// V030: a step's concurrent transfers demand more than the fat-tree
    /// bisection (root link) capacity — a predicted hotspot.
    RootHotspot,
    /// V031: a step oversubscribes a link below the root (e.g. a fan-in
    /// serializing at one receiver's leaf link).
    LinkHotspot,
    /// V040: the static eager-send buffer bound of some node exceeds the
    /// configured receive-buffer budget — the "irregular pattern overflows
    /// receive buffers" failure mode the paper's GS scheduler prevents.
    EagerOverflow,
    /// V041: the static bound on rendezvous sends parked at a destination
    /// (posted `Isend`s whose receive has not been reached) exceeds the
    /// configured pending-message budget.
    PendingBacklog,
}

impl Code {
    /// Every code, in numbering order.
    pub const ALL: [Code; 15] = [
        Code::BadNode,
        Code::SelfMessage,
        Code::ZeroBytes,
        Code::StepConflict,
        Code::DuplicatePair,
        Code::CoverageMissing,
        Code::CoverageExcess,
        Code::NotPermutation,
        Code::DeadlockCycle,
        Code::StuckOp,
        Code::CollectiveMismatch,
        Code::RootHotspot,
        Code::LinkHotspot,
        Code::EagerOverflow,
        Code::PendingBacklog,
    ];

    /// The stable code string (`"V001"`…).
    pub fn as_str(&self) -> &'static str {
        match self {
            Code::BadNode => "V001",
            Code::SelfMessage => "V002",
            Code::ZeroBytes => "V003",
            Code::StepConflict => "V010",
            Code::DuplicatePair => "V011",
            Code::CoverageMissing => "V012",
            Code::CoverageExcess => "V013",
            Code::NotPermutation => "V014",
            Code::DeadlockCycle => "V020",
            Code::StuckOp => "V021",
            Code::CollectiveMismatch => "V022",
            Code::RootHotspot => "V030",
            Code::LinkHotspot => "V031",
            Code::EagerOverflow => "V040",
            Code::PendingBacklog => "V041",
        }
    }

    /// The severity this code always carries.
    pub fn severity(&self) -> Severity {
        match self {
            Code::ZeroBytes | Code::DuplicatePair | Code::EagerOverflow | Code::PendingBacklog => {
                Severity::Warning
            }
            Code::RootHotspot | Code::LinkHotspot => Severity::Advice,
            _ => Severity::Error,
        }
    }

    /// One-line description for the code table.
    pub fn title(&self) -> &'static str {
        match self {
            Code::BadNode => "op references a node outside 0..n",
            Code::SelfMessage => "op sends a message from a node to itself",
            Code::ZeroBytes => "op moves zero bytes",
            Code::StepConflict => "node appears twice in a pairwise-disjoint step",
            Code::DuplicatePair => "duplicate directed transfer (tag collision) in a step",
            Code::CoverageMissing => "schedule moves fewer bytes than the pattern requires",
            Code::CoverageExcess => "schedule moves more bytes than the pattern requires",
            Code::NotPermutation => "permutation-phase step gives a node several partners",
            Code::DeadlockCycle => "blocking send/recv wait-for cycle (deadlock)",
            Code::StuckOp => "op waits forever on a partner that never matches",
            Code::CollectiveMismatch => "nodes reach different collectives",
            Code::RootHotspot => "step exceeds fat-tree bisection (root) capacity",
            Code::LinkHotspot => "step oversubscribes a link below the root",
            Code::EagerOverflow => "eager-send buffer bound exceeds the receive budget",
            Code::PendingBacklog => "pending-rendezvous bound exceeds the backlog budget",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where a finding points: schedule coordinates (`step`/`op`) and/or
/// program coordinates (`node` — the op index of a lowered program goes in
/// `op`). All fields optional; a pattern-level finding has none.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Span {
    /// Schedule step index.
    pub step: Option<usize>,
    /// Op index (within the step, or within `node`'s lowered program).
    pub op: Option<usize>,
    /// Node id, for program-level findings.
    pub node: Option<usize>,
}

impl Span {
    /// A schedule-coordinate span.
    pub fn at(step: usize, op: usize) -> Span {
        Span {
            step: Some(step),
            op: Some(op),
            node: None,
        }
    }

    /// A step-only span.
    pub fn step(step: usize) -> Span {
        Span {
            step: Some(step),
            op: None,
            node: None,
        }
    }

    /// A program-coordinate span (`node`'s lowered program, op index `op`).
    pub fn program(node: usize, op: usize) -> Span {
        Span {
            step: None,
            op: Some(op),
            node: Some(node),
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts: Vec<String> = Vec::new();
        if let Some(s) = self.step {
            parts.push(format!("step {s}"));
        }
        if let Some(n) = self.node {
            parts.push(format!("node {n}"));
        }
        if let Some(o) = self.op {
            parts.push(format!("op {o}"));
        }
        if parts.is_empty() {
            f.write_str("<schedule>")
        } else {
            f.write_str(&parts.join(" "))
        }
    }
}

/// One verifier finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable machine-readable code.
    pub code: Code,
    /// Severity (always `code.severity()`).
    pub severity: Severity,
    /// Location of the finding.
    pub span: Span,
    /// Human-readable one-line message.
    pub message: String,
    /// Supporting evidence, one line per entry — for deadlocks, the full
    /// wait-for cycle witness path.
    pub witness: Vec<String>,
}

impl Diagnostic {
    /// Build a finding with the code's canonical severity and no witness.
    pub fn new(code: Code, span: Span, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: code.severity(),
            span,
            message: message.into(),
            witness: Vec::new(),
        }
    }

    /// Attach a witness path.
    pub fn with_witness(mut self, witness: Vec<String>) -> Diagnostic {
        self.witness = witness;
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} [{}]: {}",
            self.code, self.severity, self.span, self.message
        )?;
        for line in &self.witness {
            write!(f, "\n    {line}")?;
        }
        Ok(())
    }
}

/// The verifier's report: an ordered list of findings plus counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Diagnostics {
    diags: Vec<Diagnostic>,
}

impl Diagnostics {
    /// An empty report.
    pub fn new() -> Diagnostics {
        Diagnostics::default()
    }

    /// Append a finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diags.push(d);
    }

    /// Append every finding of `other`.
    pub fn extend(&mut self, other: impl IntoIterator<Item = Diagnostic>) {
        self.diags.extend(other);
    }

    /// The findings, in emission order.
    pub fn iter(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diags.iter()
    }

    /// Number of findings (all severities).
    pub fn len(&self) -> usize {
        self.diags.len()
    }

    /// True when there are no findings at all.
    pub fn is_empty(&self) -> bool {
        self.diags.is_empty()
    }

    /// Findings at `sev`.
    pub fn count(&self, sev: Severity) -> usize {
        self.diags.iter().filter(|d| d.severity == sev).count()
    }

    /// True when the schedule passes the lint gate: no errors, no warnings
    /// (advice is allowed — see [`Severity`]).
    pub fn is_clean(&self) -> bool {
        self.count(Severity::Error) == 0 && self.count(Severity::Warning) == 0
    }

    /// True when some finding carries `code`.
    pub fn has(&self, code: Code) -> bool {
        self.diags.iter().any(|d| d.code == code)
    }

    /// True when the verifier proved the schedule cannot complete under
    /// blocking semantics (any `V02x` finding).
    pub fn has_deadlock(&self) -> bool {
        self.has(Code::DeadlockCycle)
            || self.has(Code::StuckOp)
            || self.has(Code::CollectiveMismatch)
    }

    /// The one-line summary used by the transcript and `cm5 lint`.
    pub fn summary(&self) -> String {
        format!(
            "{} error(s), {} warning(s), {} advice",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Advice)
        )
    }

    /// Human transcript: one block per finding plus a summary line.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diags {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&self.summary());
        out.push('\n');
        out
    }

    /// JSON rendering: `{"schema":"cm5-lint/1","diagnostics":[...],
    /// "errors":E,"warnings":W,"advice":A,"clean":bool}`. Hand-rolled (the
    /// workspace is offline; no serde), matching the style of the bench
    /// artifacts; the schema stamp comes from `cm5-obs` like every other
    /// JSON emitter in the workspace.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&cm5_obs::schema_field("lint", 1));
        out.push_str(",\"diagnostics\":[");
        for (i, d) in self.diags.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"code\":\"{}\",\"severity\":\"{}\"",
                d.code, d.severity
            ));
            if let Some(s) = d.span.step {
                out.push_str(&format!(",\"step\":{s}"));
            }
            if let Some(n) = d.span.node {
                out.push_str(&format!(",\"node\":{n}"));
            }
            if let Some(o) = d.span.op {
                out.push_str(&format!(",\"op\":{o}"));
            }
            out.push_str(&format!(",\"message\":{}", json_str(&d.message)));
            if !d.witness.is_empty() {
                out.push_str(",\"witness\":[");
                for (j, w) in d.witness.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push_str(&json_str(w));
                }
                out.push(']');
            }
            out.push('}');
        }
        out.push_str(&format!(
            "],\"errors\":{},\"warnings\":{},\"advice\":{},\"clean\":{}}}",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Advice),
            self.is_clean()
        ));
        out
    }
}

impl IntoIterator for Diagnostics {
    type Item = Diagnostic;
    type IntoIter = std::vec::IntoIter<Diagnostic>;
    fn into_iter(self) -> Self::IntoIter {
        self.diags.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_unique() {
        let strs: Vec<&str> = Code::ALL.iter().map(|c| c.as_str()).collect();
        let mut dedup = strs.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), Code::ALL.len(), "duplicate code strings");
        assert_eq!(Code::BadNode.as_str(), "V001");
        assert_eq!(Code::DeadlockCycle.as_str(), "V020");
        assert_eq!(Code::RootHotspot.severity(), Severity::Advice);
        assert_eq!(Code::StuckOp.severity(), Severity::Error);
    }

    #[test]
    fn clean_allows_advice_only() {
        let mut d = Diagnostics::new();
        assert!(d.is_clean() && d.is_empty());
        d.push(Diagnostic::new(Code::RootHotspot, Span::step(3), "hot"));
        assert!(d.is_clean());
        assert!(!d.is_empty());
        d.push(Diagnostic::new(Code::ZeroBytes, Span::at(0, 1), "zero"));
        assert!(!d.is_clean());
    }

    #[test]
    fn human_rendering_includes_witness() {
        let mut d = Diagnostics::new();
        d.push(
            Diagnostic::new(Code::DeadlockCycle, Span::program(0, 0), "cycle of 2 nodes")
                .with_witness(vec!["node 0: ...".into(), "node 1: ...".into()]),
        );
        let text = d.render_human();
        assert!(text.contains("V020 error [node 0 op 0]: cycle of 2 nodes"));
        assert!(text.contains("\n    node 0: ..."));
        assert!(text.contains("1 error(s), 0 warning(s), 0 advice"));
    }

    #[test]
    fn json_rendering_is_well_formed() {
        let mut d = Diagnostics::new();
        d.push(Diagnostic::new(
            Code::CoverageMissing,
            Span::default(),
            "pair 0->1: \"missing\"",
        ));
        let json = d.render_json();
        assert!(json.contains("\"code\":\"V012\""));
        assert!(json.contains("\\\"missing\\\""));
        assert!(json.contains("\"clean\":false"));
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn span_display_forms() {
        assert_eq!(Span::at(2, 5).to_string(), "step 2 op 5");
        assert_eq!(Span::program(3, 7).to_string(), "node 3 op 7");
        assert_eq!(Span::default().to_string(), "<schedule>");
    }
}

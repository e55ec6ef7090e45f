//! Validate-while-parse enforcement: the streaming admission plane.
//!
//! The compiled arena ([`crate::compile`]) removed tree walks from
//! *validation*; this module removes the tree from *parsing*. A raw request
//! body — YAML or JSON, per [`BodyFormat`] — is tokenized once by the
//! pull-based [`kf_yaml::events::Tokenizer`] or
//! [`kf_yaml::json::JsonTokenizer`] (both emit the same event stream), and a
//! small state machine per candidate validator (the `StreamMatcher`)
//! advances arena node ids as events arrive:
//!
//! * the object's `kind:` is discovered during tokenization (no separate
//!   `peek_kind` pre-pass over a parsed tree);
//! * on the accept path **no document tree is ever allocated** — keys and
//!   scalars borrow from the wire buffer and are checked directly against
//!   the compiled nodes;
//! * the body is **tokenized once**: the die-fast pass keeps a copy of every
//!   event it pulls (a log that grows with what was read, not with the
//!   body). An admitted body's log is fed to [`kf_yaml::TreeBuilder`], and
//!   that tree is the document the API server stores
//!   ([`ValidatorSet::admit_raw_format`]); nothing parses the bytes again;
//! * denials are reported **from matcher state**, and a refusal pays only
//!   for what it reports: on the collect pass each matcher records a
//!   violation as a compact, unrendered *site* — the id of a snapshot of the
//!   shared document position (taken at most once per violating event, keys
//!   borrowed from the wire buffer) plus a compiled-node reference — and
//!   only the sites of the matcher whose report is served (fewest sites,
//!   first wins) are rendered into the exact [`Violation`]s the compiled
//!   tree walk would report. The collect pass replays the die-fast pass's
//!   log and then carries on with the *same* tokenizer, so it reads the
//!   identical event sequence without tokenizing the prefix twice. Deny
//!   traffic never parses the payload into a tree — the stream keeps
//!   tokenizing to the end of the document to collect the complete report
//!   and to honor the reference precedence of parse/multi-document/envelope
//!   defects over policy violations;
//! * the rare constructs the stream cannot decide (root-level fields seen
//!   before `kind:` whose values are containers, and constant/enumeration
//!   policies over container values) fall back to the tree path —
//!   [`ValidatorSet::validate_raw_tree_format`], which is also the reference
//!   implementation the parity fuzz tests pin the streaming verdicts to
//!   (when it admits, the document it parsed is the one stored). A
//!   handful of verdict-certain denials whose violation *message* needs a
//!   rendered container (e.g. a mapping where a constant scalar is required)
//!   re-run the reference once for the report only.
//!
//! `validate_raw` / `validate_raw_tree` return byte-identical outcomes —
//! the stream only *adds* the deciding event's source location to
//! stream-decided denials. See `docs/streaming-admission.md`.

use std::borrow::Cow;
use std::fmt::Write as _;

use k8s_model::{K8sObject, ResourceKind};
use kf_yaml::events::{Event, Pos, ScalarToken, Tokenizer};
use kf_yaml::json::JsonTokenizer;
use kf_yaml::{BodyFormat, TreeBuilder, Value};

use crate::compile::{CompiledNode, CompiledValidator};
use crate::schema_gen::looks_like_ip;
use crate::validator::{TypeTag, ValidatorSet, Violation, ViolationReason};

/// Source position attached to raw-body denials: the line (and, when the
/// stream decided, the byte offset) of the violating field or parse error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceLocation {
    /// 1-based line in the request body.
    pub line: usize,
    /// 0-based byte offset in the request body, when known.
    pub offset: Option<usize>,
}

impl From<Pos> for SourceLocation {
    fn from(pos: Pos) -> Self {
        SourceLocation {
            line: pos.line,
            offset: Some(pos.offset),
        }
    }
}

/// The verdict on a raw (wire-bytes) request body.
#[derive(Debug, Clone, PartialEq)]
pub enum RawVerdict {
    /// Some covering validator admits the object.
    Admitted,
    /// Every covering validator rejects the object.
    Denied {
        /// The violations of the closest-matching covering validator
        /// (identical to the tree path's report).
        violations: Vec<Violation>,
        /// Position of the event that decided the denial, when the stream
        /// decided it.
        location: Option<SourceLocation>,
    },
    /// The body is not a single, well-formed, recognizable Kubernetes
    /// object (YAML/JSON error, multi-document payload, missing/unknown
    /// `kind`, missing `metadata.name`).
    Unparsable {
        /// Why the body was rejected before policy evaluation.
        reason: String,
        /// Position of the parse error, when known.
        location: Option<SourceLocation>,
    },
}

impl RawVerdict {
    /// Whether the verdict admits the request.
    pub fn is_admitted(&self) -> bool {
        matches!(self, RawVerdict::Admitted)
    }
}

fn unparsable_error(error: &kf_yaml::Error) -> RawVerdict {
    let location = match error {
        kf_yaml::Error::Parse { line, .. } => Some(SourceLocation {
            line: *line,
            offset: None,
        }),
        _ => None,
    };
    RawVerdict::Unparsable {
        reason: error.to_string(),
        location,
    }
}

/// One tokenizer front end behind a common pull interface; which one runs is
/// the only format-specific decision the streaming plane ever makes.
enum WireTokenizer<'a> {
    Yaml(Tokenizer<'a>),
    Json(JsonTokenizer<'a>),
}

impl<'a> WireTokenizer<'a> {
    /// `format` must already be resolved (callers run [`BodyFormat::resolve`]
    /// once at the entry point; re-detecting here would rescan the leading
    /// whitespace on every pass).
    fn new(text: &'a str, format: BodyFormat) -> Result<Self, kf_yaml::Error> {
        debug_assert!(format != BodyFormat::Auto, "callers resolve Auto");
        match format {
            BodyFormat::Json => Ok(WireTokenizer::Json(JsonTokenizer::new(text))),
            _ => Tokenizer::new(text).map(WireTokenizer::Yaml),
        }
    }

    fn next_event(&mut self) -> Result<Option<Event<'a>>, kf_yaml::Error> {
        match self {
            WireTokenizer::Yaml(t) => t.next_event(),
            WireTokenizer::Json(t) => t.next_event(),
        }
    }

    fn document_count(&self) -> usize {
        match self {
            WireTokenizer::Yaml(t) => t.document_count(),
            WireTokenizer::Json(t) => t.document_count(),
        }
    }
}

/// What the die-fast pass's event log starts with room for. It grows only
/// as the pass reads further, so a refusal decided in the first lines of a
/// 1 MiB body logs a prefix, never the body. The five charts' manifests
/// are 23–239 events, 48 at the median.
const LOG_INITIAL_EVENTS: usize = 64;

/// Where a streaming pass pulls its events from: first the events an
/// earlier pass already read (the collect pass replays the die-fast pass's
/// log), then the live tokenizer, carrying on from where that pass stopped.
/// A logging pass — the die-fast one — keeps a copy of every event it pulls
/// from the tokenizer.
struct EventSource<'p, 'a> {
    replay: std::vec::IntoIter<Event<'a>>,
    live: &'p mut WireTokenizer<'a>,
    log: Option<&'p mut Vec<Event<'a>>>,
}

impl<'a> EventSource<'_, 'a> {
    fn pull(&mut self) -> Result<Option<Event<'a>>, kf_yaml::Error> {
        if let Some(event) = self.replay.next() {
            return Ok(Some(event));
        }
        let event = self.live.next_event()?;
        if let (Some(log), Some(event)) = (self.log.as_deref_mut(), &event) {
            log.push(event.clone());
        }
        Ok(event)
    }

    /// Log nothing more: no event read from here on can be admitted or
    /// need replaying.
    fn stop_logging(&mut self) {
        self.log = None;
    }
}

/// What an admitting pass read, not yet a tree: the caller decides when
/// to build it (the proxy stops its validation clock first, so the build —
/// the parse the server no longer does — is not billed as validation).
pub(crate) enum Admitted<'a> {
    /// Every event of the admitted document, as the die-fast pass read it.
    Events(Vec<Event<'a>>),
    /// The document the tree reference parsed to admit the body.
    Tree(Value),
}

impl Admitted<'_> {
    /// The admitted document: built from the logged events, or the tree
    /// the reference already parsed.
    pub(crate) fn into_document(self) -> Value {
        match self {
            Admitted::Events(events) => {
                let mut builder = TreeBuilder::default();
                events
                    .into_iter()
                    .find_map(|event| builder.feed(event))
                    .expect("the stream admits only once its document's end is logged")
            }
            Admitted::Tree(document) => document,
        }
    }
}

impl ValidatorSet {
    /// Validate a raw YAML request body **while parsing it**: the streaming
    /// entry point of the enforcement proxy. Admission allocates no
    /// document tree; denials synthesize the tree path's exact violation
    /// list from matcher state. Shorthand for
    /// [`ValidatorSet::validate_raw_format`] with [`BodyFormat::Yaml`].
    pub fn validate_raw(&self, text: &str) -> RawVerdict {
        self.validate_raw_format(text, BodyFormat::Yaml)
    }

    /// [`ValidatorSet::validate_raw`] with an explicit wire format
    /// ([`BodyFormat::Auto`] detects from the first significant byte). Both
    /// formats drive the same `StreamMatcher`s; only the tokenizer
    /// differs.
    ///
    /// Two-phase: a **die-fast** pass runs first — matchers stop at their
    /// first violation, exactly the cost profile of the compiled boolean
    /// fast path, so accepted traffic pays nothing for reporting — and keeps
    /// the events it reads. Only when that pass decides a denial does a
    /// **collect** pass run (still building no tree), with matchers
    /// recording the full violation lists the reference would report: it
    /// replays the logged events, then tokenizes on from where the die-fast
    /// pass stopped. This is [`ValidatorSet::admit_raw_format`] without
    /// building the admitted document.
    pub fn validate_raw_format(&self, text: &str, format: BodyFormat) -> RawVerdict {
        self.admission(text, format).0
    }

    /// [`ValidatorSet::validate_raw_format`], and on admission the document
    /// the body holds: built from the events the die-fast pass read, or the
    /// tree the reference parsed when the stream deferred to it. It equals
    /// what [`kf_yaml::parse`] ([`kf_yaml::parse_json`] for JSON) makes of
    /// `text`, so a server can store it instead of parsing the bytes again.
    /// `None` beside every refusal.
    pub fn admit_raw_format(&self, text: &str, format: BodyFormat) -> (RawVerdict, Option<Value>) {
        let (verdict, admitted) = self.admission(text, format);
        (verdict, admitted.map(Admitted::into_document))
    }

    /// The admission pass: the verdict on `text`, and what an admission
    /// read, unbuilt. The one place a body's tokenizer is made.
    pub(crate) fn admission<'a>(
        &self,
        text: &'a str,
        format: BodyFormat,
    ) -> (RawVerdict, Option<Admitted<'a>>) {
        let format = format.resolve(text);
        let mut tokenizer = match WireTokenizer::new(text, format) {
            Ok(tokenizer) => tokenizer,
            Err(e) => return (unparsable_error(&e), None),
        };
        // Constructs the stream cannot decide go to the authoritative tree
        // path, which keeps the document it parsed when it admits.
        let tree = || {
            let (verdict, document) = self.raw_tree_verdict(text, format);
            (verdict, document.map(Admitted::Tree))
        };
        let mut log = Vec::with_capacity(LOG_INITIAL_EVENTS);
        let fast = EventSource {
            replay: Vec::new().into_iter(),
            live: &mut tokenizer,
            log: Some(&mut log),
        };
        match streaming_verdict(self, text, format, fast, Mode::Fast) {
            StreamFlow::Verdict(RawVerdict::Admitted) => {
                (RawVerdict::Admitted, Some(Admitted::Events(log)))
            }
            StreamFlow::Verdict(verdict) => (verdict, None),
            StreamFlow::TreeFallback => tree(),
            StreamFlow::Report => {
                let collect = EventSource {
                    replay: log.into_iter(),
                    live: &mut tokenizer,
                    log: None,
                };
                match streaming_verdict(self, text, format, collect, Mode::Collect) {
                    StreamFlow::Verdict(verdict) => (verdict, None),
                    StreamFlow::TreeFallback => tree(),
                    StreamFlow::Report => unreachable!("collect mode produces verdicts"),
                }
            }
        }
    }

    /// The tree-path reference semantics for raw YAML bodies. Shorthand for
    /// [`ValidatorSet::validate_raw_tree_format`] with [`BodyFormat::Yaml`].
    pub fn validate_raw_tree(&self, text: &str) -> RawVerdict {
        self.validate_raw_tree_format(text, BodyFormat::Yaml)
    }

    /// The tree-path reference semantics for raw bodies: parse the full
    /// document, pre-check the object envelope, then validate the tree.
    /// [`ValidatorSet::validate_raw_format`] reaches exactly these verdicts
    /// (adding only the deciding event's location to stream-decided
    /// denials); the parity fuzz tests and the end-to-end benchmark's
    /// verdict-parity check both run this form.
    pub fn validate_raw_tree_format(&self, text: &str, format: BodyFormat) -> RawVerdict {
        self.raw_tree_verdict(text, format).0
    }

    /// The tree reference's verdict, and the one document it parsed when
    /// that document is admitted.
    fn raw_tree_verdict(&self, text: &str, format: BodyFormat) -> (RawVerdict, Option<Value>) {
        let unparsable = |reason: String| {
            let verdict = RawVerdict::Unparsable {
                reason,
                location: None,
            };
            (verdict, None)
        };
        let mut docs = match format.resolve(text) {
            BodyFormat::Json => match kf_yaml::parse_json(text) {
                Ok(doc) => vec![doc],
                Err(e) => return (unparsable_error(&e), None),
            },
            _ => match kf_yaml::parse_documents(text) {
                Ok(docs) => docs,
                Err(e) => return (unparsable_error(&e), None),
            },
        };
        if docs.len() != 1 {
            return unparsable(format!(
                "expected a single YAML document, found {}",
                docs.len()
            ));
        }
        let kind = match K8sObject::peek_kind(&docs[0]) {
            Ok(kind) => kind,
            Err(e) => return unparsable(e.to_string()),
        };
        match self.validate_kind_body(kind, &docs[0]) {
            Ok(()) => (RawVerdict::Admitted, docs.pop()),
            Err(violations) => {
                let verdict = RawVerdict::Denied {
                    violations,
                    location: None,
                };
                (verdict, None)
            }
        }
    }
}

/// Produce the report for a stream-decided denial whose violation messages
/// need rendered container values: re-run the full reference semantics
/// ([`ValidatorSet::validate_raw_tree_format`]) and stamp the deciding
/// event's position onto policy denials. Only the few denials flagged
/// [`StreamMatcher::report_via_tree`] take this path; everything else is
/// synthesized from matcher state without touching the payload again.
fn deny_report(set: &ValidatorSet, text: &str, format: BodyFormat, pos: Pos) -> RawVerdict {
    match set.validate_raw_tree_format(text, format) {
        // The tree path is authoritative; a disagreement here would be a
        // matcher bug, so trust the tree.
        RawVerdict::Admitted => RawVerdict::Admitted,
        RawVerdict::Denied { violations, .. } => RawVerdict::Denied {
            violations,
            location: Some(pos.into()),
        },
        unparsable => unparsable,
    }
}

/// One segment of the document position shared by all matchers: the event
/// stream is a single walk of the document, so "where are we" is tracked
/// once, not per matcher.
#[derive(Debug, Clone)]
enum TrackFrame<'a> {
    /// A mapping; `key` is the entry whose value is currently being read.
    Map { key: Option<Cow<'a, str>> },
    /// A sequence; `index` is the element currently being read.
    Seq { index: usize },
}

/// What the violating event carried, kept unrendered: violation messages
/// name the offending value's type or text.
#[derive(Debug)]
enum Found<'a> {
    /// A key event: an unknown field has no value to name.
    Nothing,
    /// A container opened: the tree walker's name for it (`map` / `seq`).
    Container(&'static str),
    /// A scalar, borrowed from the wire buffer.
    Scalar(ScalarToken<'a>),
}

impl Found<'_> {
    fn type_name(&self) -> &'static str {
        match self {
            Found::Nothing => "",
            Found::Container(name) => name,
            Found::Scalar(token) => token.type_name(),
        }
    }

    fn render(&self) -> String {
        match self {
            Found::Scalar(token) => token.render(),
            Found::Nothing | Found::Container(_) => String::new(),
        }
    }
}

/// The document position and value of one violating event, shared by every
/// matcher that records a violation at it.
#[derive(Debug)]
struct Snapshot<'a> {
    /// The event's path: `arena[start..start + len]`.
    start: u32,
    len: u32,
    found: Found<'a>,
}

/// Why a site violates, as references into the compiled arena — nothing is
/// rendered until the site's matcher turns out to be the one reported.
#[derive(Debug, Clone, Copy)]
enum SiteReason {
    /// The key is not among the compiled map's entries.
    UnknownField,
    /// The value is not of the placeholder type.
    Type(TypeTag),
    /// A `mapping` / `sequence` was required.
    Structure(&'static str),
    /// The value differs from the scalar constant `values[_]`.
    Const(u32),
    /// The value is none of the scalar options `values[start..start + len]`.
    Enum { start: u32, len: u32 },
    /// The value does not match `patterns[_]`.
    Pattern(u32),
    /// The message renders a container value: counted here, reported by
    /// the tree (see [`StreamMatcher::report_via_tree`]).
    Deferred,
}

/// One recorded violation of one matcher: which event, and why.
#[derive(Debug, Clone, Copy)]
struct Site {
    /// Index into [`PathTracker::snapshots`].
    snapshot: u32,
    reason: SiteReason,
}

/// Tracks the dotted path of the value the next event contributes to, and
/// keeps the positions violations were recorded at. Maintained by the
/// collect pass only.
#[derive(Debug, Default)]
struct PathTracker<'a> {
    frames: Vec<TrackFrame<'a>>,
    /// The frames of every snapshot, back to back.
    arena: Vec<TrackFrame<'a>>,
    snapshots: Vec<Snapshot<'a>>,
}

impl<'a> PathTracker<'a> {
    /// Mirror one event into the tracker, *before* matchers consume it (so
    /// a violation recorded at this event sees the path it belongs to).
    /// Container pushes happen after the matchers ran — see
    /// [`PathTracker::after_event`].
    fn before_event(&mut self, event: &Event<'a>) {
        if let Event::Key { name, .. } = event {
            if let Some(TrackFrame::Map { key }) = self.frames.last_mut() {
                *key = Some(name.clone());
            }
        }
    }

    /// Mirror the structural effect of an event after the matchers ran.
    fn after_event(&mut self, event: &Event<'a>) {
        match event {
            Event::MappingStart { .. } => self.frames.push(TrackFrame::Map { key: None }),
            Event::SequenceStart { .. } => self.frames.push(TrackFrame::Seq { index: 0 }),
            Event::Scalar { .. } => self.completed_value(),
            Event::End => {
                self.frames.pop();
                self.completed_value();
            }
            Event::Key { .. } | Event::DocumentEnd => {}
        }
    }

    fn completed_value(&mut self) {
        if let Some(TrackFrame::Seq { index }) = self.frames.last_mut() {
            *index += 1;
        }
    }

    /// Keep the current position and the event's value for later rendering;
    /// returns the snapshot's id.
    fn snapshot(&mut self, event: &Event<'a>) -> u32 {
        let id = self.snapshots.len() as u32;
        self.snapshots.push(Snapshot {
            start: self.arena.len() as u32,
            len: self.frames.len() as u32,
            found: match event {
                Event::Scalar { value, .. } => Found::Scalar(value.clone()),
                Event::MappingStart { .. } => Found::Container("map"),
                Event::SequenceStart { .. } => Found::Container("seq"),
                _ => Found::Nothing,
            },
        });
        self.arena.extend_from_slice(&self.frames);
        id
    }

    /// Render one site of a matcher over `compiled` into the violation the
    /// compiled tree walk reports: path in the tree walker's notation
    /// (`a.b[2].c`), messages from the compiled nodes.
    fn violation(&self, site: Site, compiled: &CompiledValidator) -> Violation {
        let snapshot = &self.snapshots[site.snapshot as usize];
        let frames = &self.arena[snapshot.start as usize..][..snapshot.len as usize];
        // One allocation per path: room for every key and its dot, and for
        // two-digit indices.
        let mut path = String::with_capacity(
            frames
                .iter()
                .map(|frame| match frame {
                    TrackFrame::Map { key } => key.as_ref().map_or(0, |key| key.len() + 1),
                    TrackFrame::Seq { .. } => 4,
                })
                .sum(),
        );
        for frame in frames {
            match frame {
                TrackFrame::Map { key: Some(key) } => {
                    if !path.is_empty() {
                        path.push('.');
                    }
                    path.push_str(key);
                }
                TrackFrame::Map { key: None } => {}
                TrackFrame::Seq { index } => {
                    let _ = write!(path, "[{index}]");
                }
            }
        }
        let found = &snapshot.found;
        let not_allowed = |allowed: String| ViolationReason::ValueNotAllowed {
            allowed,
            found: found.render(),
        };
        let reason = match site.reason {
            SiteReason::UnknownField => ViolationReason::UnknownField,
            SiteReason::Type(tag) => ViolationReason::TypeMismatch {
                expected: tag.placeholder().to_owned(),
                found: found.type_name().to_owned(),
            },
            SiteReason::Structure(expected) => ViolationReason::StructureMismatch {
                expected: expected.to_owned(),
                found: found.type_name().to_owned(),
            },
            SiteReason::Const(value) => not_allowed(compiled.value(value).scalar_to_string()),
            SiteReason::Enum { start, len } => not_allowed(
                compiled
                    .values_slice(start, len)
                    .iter()
                    .map(Value::scalar_to_string)
                    .collect::<Vec<_>>()
                    .join(", "),
            ),
            SiteReason::Pattern(pattern) => {
                not_allowed(compiled.pattern(pattern).source().to_owned())
            }
            SiteReason::Deferred => not_allowed(String::new()),
        };
        Violation { path, reason }
    }
}

/// The per-event snapshot, taken at most once no matter how many matchers
/// record a violation at the event. The fast (verdict-only) pass runs
/// without a tracker — no matcher records a site there, so none is kept.
struct SiteAtEvent<'p, 'a> {
    tracker: Option<&'p mut PathTracker<'a>>,
    event: &'p Event<'a>,
    snapshot: Option<u32>,
}

impl SiteAtEvent<'_, '_> {
    fn snapshot(&mut self) -> u32 {
        match (self.snapshot, self.tracker.as_mut()) {
            (Some(id), _) => id,
            (None, Some(tracker)) => *self.snapshot.insert(tracker.snapshot(self.event)),
            // Only Mode::Collect matchers record sites, and the collect
            // pass always runs with a tracker.
            (None, None) => 0,
        }
    }
}

/// The matcher-set health after one event, folded into the feed loop so the
/// caller never re-iterates the matchers to learn it.
struct DriveOutcome {
    /// Some matcher hit a construct the stream cannot decide.
    needs_tree: bool,
    /// Every matcher has rejected the document.
    all_failed: bool,
}

/// Drive one event through the shared path tracker (when one is maintained
/// — the collect pass only) and every matcher, in the order the path
/// semantics require. Used by both the main tokenizer loop and the
/// pre-`kind:` replay.
fn drive<'a>(
    matchers: &mut [StreamMatcher<'_>],
    mut tracker: Option<&mut PathTracker<'a>>,
    event: &Event<'a>,
) -> DriveOutcome {
    // Fast pass (`tracker` is `None`): matchers only reach verdicts, so the
    // document position bookkeeping is skipped entirely.
    if let Some(tracker) = tracker.as_mut() {
        tracker.before_event(event);
    }
    let mut outcome = DriveOutcome {
        needs_tree: false,
        all_failed: true,
    };
    {
        let mut at = SiteAtEvent {
            tracker: tracker.as_deref_mut(),
            event,
            snapshot: None,
        };
        for matcher in matchers.iter_mut() {
            matcher.feed(event, &mut at);
            outcome.needs_tree |= matcher.needs_tree;
            outcome.all_failed &= matcher.failed();
        }
    }
    if let Some(tracker) = tracker {
        tracker.after_event(event);
    }
    outcome
}

/// How the matchers run over the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Stop each matcher at its first violation and record nothing — the
    /// cheapest way to reach the admit/deny verdict. Every request starts
    /// here.
    Fast,
    /// Record every violation as a [`Site`]. Runs only after the fast pass
    /// decided a denial, to synthesize the report without building a tree.
    Collect,
}

/// The outcome of one streaming pass.
enum StreamFlow {
    /// A final verdict.
    Verdict(RawVerdict),
    /// The stream hit a construct it cannot decide; the caller must fall
    /// back to the tree path.
    TreeFallback,
    /// The denial was decided, but the report was not collected
    /// ([`Mode::Fast`] only): run a [`Mode::Collect`] pass over the same
    /// events — the log, then the rest of the tokenizer — which re-derives
    /// the deciding position along with the report.
    Report,
}

impl StreamFlow {
    fn verdict(verdict: RawVerdict) -> StreamFlow {
        StreamFlow::Verdict(verdict)
    }
}

/// Run the streaming matchers over the events of `text`, pulled from
/// `source`. `format` must already be resolved (not `Auto`).
fn streaming_verdict<'a>(
    set: &ValidatorSet,
    text: &'a str,
    format: BodyFormat,
    mut source: EventSource<'_, 'a>,
    mode: Mode,
) -> StreamFlow {
    let mut depth = 0usize;
    let mut started = false;
    let mut doc_done = false;
    // Root-level key whose value has not started yet.
    let mut pending_root_key: Option<(Cow<'_, str>, Pos)> = None;
    // Root-level scalar entries seen before `kind:` was discovered; replayed
    // into the matchers once the policy root is known.
    let mut prekind: Vec<(Cow<'_, str>, Pos, ScalarToken<'_>, Pos)> = Vec::new();
    let mut kind: Option<ResourceKind> = None;
    let mut matchers: Vec<StreamMatcher<'_>> = Vec::new();
    // Only the collect pass renders document paths; the fast pass skips the
    // position bookkeeping altogether (it can only ever answer admit/deny).
    let mut tracker = (mode == Mode::Collect).then(PathTracker::default);
    // A known kind no validator covers: the denial is certain, pending the
    // reference's precedence checks at end of stream.
    let mut uncovered_kind: Option<(ResourceKind, Pos)> = None;
    // Position of the event at which every candidate matcher had failed.
    let mut decided_at: Option<Pos> = None;
    // Envelope tracking: `metadata.name` must be a non-empty string.
    let mut metadata_open: Option<usize> = None;
    let mut pending_name = false;
    let mut name_ok = false;

    while !doc_done {
        let event = match source.pull() {
            Ok(Some(event)) => event,
            Ok(None) => break,
            Err(e) => return StreamFlow::verdict(unparsable_error(&e)),
        };
        // The event that resolves `kind:` is fed to the matchers by the
        // replay below, not by the regular per-event feed.
        let mut feed_event = kind.is_some();
        match &event {
            Event::MappingStart { .. } | Event::SequenceStart { .. } => {
                if !started {
                    if matches!(event, Event::SequenceStart { .. }) {
                        // Not an object envelope: reference semantics.
                        return StreamFlow::TreeFallback;
                    }
                    started = true;
                } else if depth == 1 {
                    if let Some((key, _)) = pending_root_key.take() {
                        if kind.is_none() {
                            if key == "kind" {
                                // `kind` is not a string: reference semantics.
                                return StreamFlow::TreeFallback;
                            }
                            // A container value before `kind:` is known
                            // cannot be validated in-stream.
                            return StreamFlow::TreeFallback;
                        }
                        if key == "metadata" && matches!(event, Event::MappingStart { .. }) {
                            metadata_open = Some(depth + 1);
                        }
                    }
                } else if metadata_open == Some(depth) && pending_name {
                    pending_name = false; // name is not a string
                }
                depth += 1;
            }
            Event::Key { name, pos } => {
                if !started {
                    return StreamFlow::TreeFallback;
                }
                if depth == 1 {
                    pending_root_key = Some((name.clone(), *pos));
                } else if metadata_open == Some(depth) {
                    pending_name = name == "name";
                }
            }
            Event::Scalar { value, pos } => {
                if !started {
                    // A bare-scalar document: reference semantics.
                    return StreamFlow::TreeFallback;
                }
                if depth == 1 {
                    if let Some((key, key_pos)) = pending_root_key.take() {
                        if key == "kind" && kind.is_none() {
                            let Some(kind_text) = value.as_str() else {
                                return StreamFlow::TreeFallback;
                            };
                            let Some(resolved) = ResourceKind::parse(kind_text) else {
                                return StreamFlow::TreeFallback;
                            };
                            kind = Some(resolved);
                            let route = set.validators_for(resolved);
                            if route.is_empty() {
                                // No validator covers the kind. The denial
                                // itself is certain, but the reference ranks
                                // envelope/multi-document defects above the
                                // UnknownKind violation — keep streaming and
                                // decide at end of document.
                                uncovered_kind = Some((resolved, *pos));
                                source.stop_logging();
                                feed_event = false;
                            } else {
                                for &index in route {
                                    let compiled = set.validators()[index as usize].compiled();
                                    let root = compiled
                                        .kind_root(resolved)
                                        .expect("routing table lists only covering validators");
                                    matchers.push(StreamMatcher::new(compiled, root, mode));
                                }
                                // Replay the envelope into the fresh
                                // matchers: the root mapping, every buffered
                                // pre-kind scalar entry, then `kind` itself.
                                // The replay checks matcher health after
                                // every event so an early deny is stamped
                                // with the position of the replayed field
                                // that decided it, not the `kind:` value's.
                                let mut replay: Vec<Event<'_>> =
                                    Vec::with_capacity(2 * prekind.len() + 3);
                                replay.push(Event::MappingStart {
                                    pos: Pos::default(),
                                });
                                for (bkey, bkey_pos, bvalue, bvalue_pos) in &prekind {
                                    replay.push(Event::Key {
                                        name: bkey.clone(),
                                        pos: *bkey_pos,
                                    });
                                    replay.push(Event::Scalar {
                                        value: bvalue.clone(),
                                        pos: *bvalue_pos,
                                    });
                                }
                                replay.push(Event::Key {
                                    name: Cow::Borrowed("kind"),
                                    pos: key_pos,
                                });
                                replay.push(Event::Scalar {
                                    value: value.clone(),
                                    pos: *pos,
                                });
                                for replay_event in &replay {
                                    let outcome =
                                        drive(&mut matchers, tracker.as_mut(), replay_event);
                                    if outcome.needs_tree {
                                        return StreamFlow::TreeFallback;
                                    }
                                    if decided_at.is_none() && outcome.all_failed {
                                        if mode == Mode::Fast {
                                            // The verdict is decided; stop
                                            // tokenizing and let the collect
                                            // pass produce the report.
                                            return StreamFlow::Report;
                                        }
                                        decided_at = Some(event_pos(replay_event));
                                    }
                                }
                                feed_event = false;
                            }
                        } else if kind.is_none() {
                            prekind.push((key, key_pos, value.clone(), *pos));
                        }
                    }
                } else if metadata_open == Some(depth) && pending_name {
                    pending_name = false;
                    if let ScalarToken::Str(s) = value {
                        if !s.is_empty() {
                            name_ok = true;
                        }
                    }
                }
            }
            Event::End => {
                depth = depth.saturating_sub(1);
                if let Some(open) = metadata_open {
                    if depth < open {
                        metadata_open = None;
                    }
                }
            }
            Event::DocumentEnd => {
                doc_done = true;
                feed_event = false;
            }
        }
        if feed_event && !matchers.is_empty() {
            let outcome = drive(&mut matchers, tracker.as_mut(), &event);
            if outcome.needs_tree {
                return StreamFlow::TreeFallback;
            }
            if decided_at.is_none() && outcome.all_failed {
                if mode == Mode::Fast {
                    // Every candidate has failed: the denial is decided
                    // here and tokenization stops. The collect pass
                    // replays the log up to this event, then tokenizes on
                    // (building no tree) for the report and for the
                    // reference precedence of later parse errors.
                    return StreamFlow::Report;
                }
                decided_at = Some(event_pos(&event));
            }
        }
        if !doc_done
            && matchers.is_empty()
            && uncovered_kind.is_some()
            && name_ok
            && metadata_open.is_none()
        {
            // The candidate set is empty (uncovered kind) and the envelope
            // is already satisfied: the rest of the document can only
            // contribute parse defects or a document count. Bail to a
            // scan-only tokenize loop — no per-event bookkeeping at all.
            loop {
                match source.pull() {
                    Ok(Some(Event::DocumentEnd)) => {
                        doc_done = true;
                        break;
                    }
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    Err(e) => return StreamFlow::verdict(unparsable_error(&e)),
                }
            }
        }
    }

    if !started {
        // Empty or comment-only body: reference semantics.
        return StreamFlow::TreeFallback;
    }
    // A request body must be exactly one document, and the reference ranks
    // multi-document (and any later parse) defects above envelope defects
    // and policy violations — `parse_documents` sees the whole stream before
    // `peek_kind` runs. Drain the tokenizer (building no trees) to reproduce
    // its outcome: the earliest parse error anywhere in the stream, else the
    // document count. The document is complete, so the log is too.
    source.stop_logging();
    match source.pull() {
        Ok(None) => {}
        Ok(Some(_)) => loop {
            match source.pull() {
                Ok(Some(_)) => continue,
                Ok(None) => {
                    return StreamFlow::verdict(RawVerdict::Unparsable {
                        reason: format!(
                            "expected a single YAML document, found {}",
                            source.live.document_count()
                        ),
                        location: None,
                    })
                }
                Err(e) => return StreamFlow::verdict(unparsable_error(&e)),
            }
        },
        Err(e) => return StreamFlow::verdict(unparsable_error(&e)),
    }
    if kind.is_none() || !name_ok {
        // Envelope defect (missing `kind` / `metadata.name`): cold path,
        // defer to the reference for its exact report.
        return StreamFlow::TreeFallback;
    }
    if let Some((kind, pos)) = uncovered_kind {
        // Synthesized without re-parsing: exactly the reference's report
        // for a covered envelope of an uncovered kind.
        return StreamFlow::verdict(RawVerdict::Denied {
            violations: vec![Violation {
                path: kind.as_str().to_owned(),
                reason: ViolationReason::UnknownKind,
            }],
            location: Some(pos.into()),
        });
    }
    let Some(pos) = decided_at else {
        debug_assert!(matchers.iter().any(|m| !m.failed()));
        return StreamFlow::verdict(RawVerdict::Admitted);
    };
    debug_assert_eq!(mode, Mode::Collect, "fast mode returns before this point");
    // Denied: report the closest match (fewest violations, first wins),
    // mirroring `ValidatorSet::validate_kind_body`.
    let winner = matchers
        .iter()
        .reduce(|best, candidate| {
            if candidate.sites.len() < best.sites.len() {
                candidate
            } else {
                best
            }
        })
        .expect("a decided denial has at least one matcher");
    if winner.report_via_tree {
        // The winning report contains a violation whose message renders a
        // container value; only this cold case re-reads the payload.
        return StreamFlow::verdict(deny_report(set, text, format, pos));
    }
    // Only the served report is rendered; the losers' sites are dropped as
    // recorded.
    let tracker = tracker.as_ref().expect("the collect pass keeps a tracker");
    StreamFlow::verdict(RawVerdict::Denied {
        violations: winner
            .sites
            .iter()
            .map(|&site| tracker.violation(site, winner.compiled))
            .collect(),
        location: Some(pos.into()),
    })
}

fn event_pos(event: &Event<'_>) -> Pos {
    match event {
        Event::MappingStart { pos }
        | Event::SequenceStart { pos }
        | Event::Key { pos, .. }
        | Event::Scalar { pos, .. } => *pos,
        Event::End | Event::DocumentEnd => Pos::default(),
    }
}

/// An open container frame of a [`StreamMatcher`].
#[derive(Debug, Clone, Copy)]
enum MFrame {
    /// Inside a mapping whose compiled entry run is `entries[start..start+len]`.
    Map { entries_start: u32, len: u32 },
    /// Inside a sequence whose elements check against `element`.
    Seq { element: u32 },
    /// Inside a subtree the policy does not descend into (`Any` subtrees,
    /// and the values of fields that already produced their violation).
    Skip,
}

/// Where the next value event lands.
#[derive(Debug)]
enum Target {
    Skip,
    Node(u32),
}

/// A state machine that advances compiled-arena node ids as tokenizer events
/// arrive, recording one [`Site`] exactly where the compiled tree walk
/// ([`CompiledValidator::validate_kind_body`](crate::compile::CompiledValidator::validate_kind_body))
/// would report a violation — without a document tree. A matcher with no
/// sites at end of document admits.
#[derive(Debug)]
pub(crate) struct StreamMatcher<'c> {
    compiled: &'c CompiledValidator,
    mode: Mode,
    stack: Vec<MFrame>,
    /// The node the next value event must satisfy (set by `Key` events and
    /// by the root); `Target::Skip` when the key already violated.
    pending: Option<Target>,
    /// Violations recorded so far ([`Mode::Collect`] only), in document
    /// order (the tree walk's order).
    sites: Vec<Site>,
    /// [`Mode::Fast`] only: cleared at the first violation, after which the
    /// matcher does no further work.
    alive: bool,
    /// The verdict cannot be decided in-stream (container-valued
    /// constant/enumeration policies): the whole request falls back.
    needs_tree: bool,
    /// The verdict is decided but some violation message requires a rendered
    /// container value; if this matcher's report is the one served, it is
    /// re-derived from the tree.
    report_via_tree: bool,
}

impl<'c> StreamMatcher<'c> {
    fn new(compiled: &'c CompiledValidator, root: u32, mode: Mode) -> Self {
        StreamMatcher {
            compiled,
            mode,
            stack: Vec::with_capacity(16),
            pending: Some(Target::Node(root)),
            sites: Vec::new(),
            alive: true,
            needs_tree: false,
            report_via_tree: false,
        }
    }

    /// Whether this matcher has rejected the document.
    fn failed(&self) -> bool {
        match self.mode {
            Mode::Fast => !self.alive,
            Mode::Collect => !self.sites.is_empty(),
        }
    }

    /// A violation occurred: in fast mode the matcher simply dies; in
    /// collect mode its site is recorded — no string is built on either
    /// pass.
    fn violate(&mut self, at: &mut SiteAtEvent<'_, '_>, reason: SiteReason) {
        match self.mode {
            Mode::Fast => self.alive = false,
            Mode::Collect => self.sites.push(Site {
                snapshot: at.snapshot(),
                reason,
            }),
        }
    }

    fn value_target(&mut self) -> Target {
        if matches!(self.stack.last(), Some(MFrame::Skip)) {
            return Target::Skip;
        }
        if let Some(target) = self.pending.take() {
            return target;
        }
        if let Some(MFrame::Seq { element }) = self.stack.last() {
            return Target::Node(*element);
        }
        // A value event with no expectation cannot occur in a well-formed
        // event stream; defer to the tree rather than guess.
        self.needs_tree = true;
        Target::Skip
    }

    /// A mapping or sequence opens where the current expectation points.
    /// Always pushes exactly one frame, so the stack stays aligned with the
    /// document nesting while violations accumulate.
    fn enter_container(&mut self, is_mapping: bool, at: &mut SiteAtEvent<'_, '_>) {
        match self.value_target() {
            Target::Skip => self.stack.push(MFrame::Skip),
            Target::Node(id) => match self.compiled.node(id) {
                CompiledNode::Map { entries_start, len } if is_mapping => {
                    self.stack.push(MFrame::Map { entries_start, len });
                }
                CompiledNode::Seq { element } if !is_mapping => {
                    self.stack.push(MFrame::Seq { element });
                }
                CompiledNode::Any => self.stack.push(MFrame::Skip),
                CompiledNode::Const { value } => {
                    // A constant policy over a container value needs a
                    // structural comparison the stream cannot perform —
                    // unless the constant is a scalar, in which case any
                    // container trivially mismatches; the violation message
                    // renders the container, so the report (only) defers.
                    if self.compiled.value(value).is_scalar() {
                        self.violate(at, SiteReason::Deferred);
                        self.report_via_tree = true;
                    } else {
                        self.needs_tree = true;
                    }
                    self.stack.push(MFrame::Skip);
                }
                CompiledNode::Enum { start, len } => {
                    if self
                        .compiled
                        .values_slice(start, len)
                        .iter()
                        .all(Value::is_scalar)
                    {
                        self.violate(at, SiteReason::Deferred);
                        self.report_via_tree = true;
                    } else {
                        self.needs_tree = true;
                    }
                    self.stack.push(MFrame::Skip);
                }
                CompiledNode::Pattern { .. } => {
                    self.violate(at, SiteReason::Deferred);
                    self.report_via_tree = true;
                    self.stack.push(MFrame::Skip);
                }
                CompiledNode::Type(tag) => {
                    self.violate(at, SiteReason::Type(tag));
                    self.stack.push(MFrame::Skip);
                }
                CompiledNode::Map { .. } => {
                    self.violate(at, SiteReason::Structure("mapping"));
                    self.stack.push(MFrame::Skip);
                }
                CompiledNode::Seq { .. } => {
                    self.violate(at, SiteReason::Structure("sequence"));
                    self.stack.push(MFrame::Skip);
                }
            },
        }
    }

    fn feed(&mut self, event: &Event<'_>, at: &mut SiteAtEvent<'_, '_>) {
        if !self.alive || self.needs_tree {
            return;
        }
        match event {
            Event::MappingStart { .. } => self.enter_container(true, at),
            Event::SequenceStart { .. } => self.enter_container(false, at),
            Event::Key { name, .. } => match self.stack.last() {
                Some(MFrame::Skip) => {}
                Some(MFrame::Map { entries_start, len }) => {
                    let entries = self.compiled.entries(*entries_start, *len);
                    match self.compiled.lookup(entries, name.as_ref()) {
                        Some(entry) => self.pending = Some(Target::Node(entry.child)),
                        None => {
                            // Unknown field: the tree walk reports it and
                            // does not descend into the value.
                            self.violate(at, SiteReason::UnknownField);
                            self.pending = Some(Target::Skip);
                        }
                    }
                }
                _ => self.needs_tree = true,
            },
            Event::Scalar { value, .. } => match self.value_target() {
                Target::Skip => {}
                Target::Node(id) => self.check_scalar(id, value, at),
            },
            Event::End => {
                self.stack.pop();
            }
            Event::DocumentEnd => {}
        }
    }

    /// Check a scalar token against a compiled node, recording the site of
    /// the tree walk's violation on mismatch.
    fn check_scalar(&mut self, id: u32, token: &ScalarToken<'_>, at: &mut SiteAtEvent<'_, '_>) {
        match self.compiled.node(id) {
            CompiledNode::Any => {}
            CompiledNode::Type(tag) => {
                if !token_matches_tag(tag, token) {
                    self.violate(at, SiteReason::Type(tag));
                }
            }
            CompiledNode::Const { value } => {
                let expected = self.compiled.value(value);
                if !token_loosely_equals(token, expected) {
                    if expected.is_scalar() {
                        self.violate(at, SiteReason::Const(value));
                    } else {
                        // The `allowed` message renders a container
                        // constant; the verdict is certain, the report
                        // defers.
                        self.violate(at, SiteReason::Deferred);
                        self.report_via_tree = true;
                    }
                }
            }
            CompiledNode::Enum { start, len } => {
                let options = self.compiled.values_slice(start, len);
                if !options
                    .iter()
                    .any(|option| token_loosely_equals(token, option))
                {
                    if options.iter().all(Value::is_scalar) {
                        self.violate(at, SiteReason::Enum { start, len });
                    } else {
                        self.violate(at, SiteReason::Deferred);
                        self.report_via_tree = true;
                    }
                }
            }
            CompiledNode::Pattern { pattern } => {
                let compiled_pattern = self.compiled.pattern(pattern);
                let ok = token
                    .as_str()
                    .map(|text| compiled_pattern.matches(text))
                    .unwrap_or(false);
                if !ok {
                    self.violate(at, SiteReason::Pattern(pattern));
                }
            }
            CompiledNode::Map { .. } => self.violate(at, SiteReason::Structure("mapping")),
            CompiledNode::Seq { .. } => self.violate(at, SiteReason::Structure("sequence")),
        }
    }
}

/// [`TypeTag::matches`] over a scalar token instead of a tree node.
fn token_matches_tag(tag: TypeTag, token: &ScalarToken<'_>) -> bool {
    match tag {
        TypeTag::String => matches!(token, ScalarToken::Str(_)),
        TypeTag::Int => {
            matches!(token, ScalarToken::Int(_))
                || token
                    .as_str()
                    .map(|s| s.parse::<i64>().is_ok())
                    .unwrap_or(false)
        }
        TypeTag::Float => {
            matches!(token, ScalarToken::Float(_) | ScalarToken::Int(_))
                || token
                    .as_str()
                    .map(|s| s.parse::<f64>().is_ok())
                    .unwrap_or(false)
        }
        TypeTag::Bool => matches!(token, ScalarToken::Bool(_)),
        TypeTag::Ip => token.as_str().map(looks_like_ip).unwrap_or(false),
    }
}

/// [`Value::loosely_equals`] between a scalar token and a (scalar) tree
/// node: integer/float representations of the same number are equal.
fn token_loosely_equals(token: &ScalarToken<'_>, value: &Value) -> bool {
    match (token, value) {
        (ScalarToken::Int(a), Value::Float(b)) => (*a as f64 - *b).abs() < f64::EPSILON,
        (ScalarToken::Float(a), Value::Int(b)) => (*b as f64 - *a).abs() < f64::EPSILON,
        (ScalarToken::Null, Value::Null) => true,
        (ScalarToken::Bool(a), Value::Bool(b)) => a == b,
        (ScalarToken::Int(a), Value::Int(b)) => a == b,
        (ScalarToken::Float(a), Value::Float(b)) => a == b,
        (ScalarToken::Str(a), Value::Str(b)) => a.as_ref() == b,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validator::{Validator, ViolationReason};

    fn validator() -> Validator {
        let manifests = vec![
            kf_yaml::parse(
                r#"apiVersion: apps/v1
kind: Deployment
metadata:
  name: web
spec:
  replicas: int
  template:
    spec:
      containers:
        - name: nginx
          image: docker.io/bitnami/nginx:string
          imagePullPolicy: IfNotPresent
"#,
            )
            .unwrap(),
            kf_yaml::parse(
                r#"apiVersion: apps/v1
kind: Deployment
metadata:
  name: web
spec:
  replicas: int
  template:
    spec:
      containers:
        - name: nginx
          image: docker.io/bitnami/nginx:string
          imagePullPolicy: Always
"#,
            )
            .unwrap(),
        ];
        Validator::from_manifests("demo", &manifests).unwrap()
    }

    fn set() -> ValidatorSet {
        ValidatorSet::single(validator())
    }

    fn request(image: &str, policy: &str, replicas: &str) -> String {
        format!(
            r#"apiVersion: apps/v1
kind: Deployment
metadata:
  name: web
spec:
  replicas: {replicas}
  template:
    spec:
      containers:
        - name: nginx
          image: {image}
          imagePullPolicy: {policy}
"#
        )
    }

    /// The same request as wire JSON.
    fn request_json(image: &str, policy: &str, replicas: &str) -> String {
        kf_yaml::to_json(&kf_yaml::parse(&request(image, policy, replicas)).unwrap())
    }

    #[test]
    fn streaming_admits_compliant_bodies_and_matches_tree() {
        let set = set();
        let text = request("docker.io/bitnami/nginx:1.25", "Always", "3");
        assert_eq!(set.validate_raw(&text), RawVerdict::Admitted);
        assert_eq!(set.validate_raw_tree(&text), RawVerdict::Admitted);
    }

    #[test]
    fn streaming_denies_with_the_tree_report_and_a_location() {
        let set = set();
        let text = request("evil.example/pwn:latest", "Always", "3");
        let RawVerdict::Denied {
            violations,
            location,
        } = set.validate_raw(&text)
        else {
            panic!("expected denial");
        };
        let RawVerdict::Denied {
            violations: tree_violations,
            ..
        } = set.validate_raw_tree(&text)
        else {
            panic!("expected tree denial");
        };
        assert_eq!(violations, tree_violations);
        let location = location.expect("stream-decided denial carries a location");
        // The violating field (`image:`) sits on line 11 of the body.
        assert_eq!(location.line, 11);
        let offset = location.offset.expect("stream denial has a byte offset");
        assert!(text[offset..].starts_with("evil.example/pwn:latest"));
    }

    #[test]
    fn json_bodies_stream_to_the_same_verdicts() {
        let set = set();
        let ok = request_json("docker.io/bitnami/nginx:1.25", "Always", "3");
        assert_eq!(
            set.validate_raw_format(&ok, BodyFormat::Json),
            RawVerdict::Admitted
        );
        assert_eq!(
            set.validate_raw_format(&ok, BodyFormat::Auto),
            RawVerdict::Admitted,
            "auto-detection must route `{{`-rooted bodies to the JSON front end"
        );
        let bad = request_json("evil.example/pwn:latest", "Always", "3");
        let RawVerdict::Denied {
            violations,
            location,
        } = set.validate_raw_format(&bad, BodyFormat::Json)
        else {
            panic!("expected denial");
        };
        // The violation list is byte-identical to the YAML stream's and to
        // the compiled tree's; only the source location is format-specific.
        let yaml_bad = request("evil.example/pwn:latest", "Always", "3");
        let RawVerdict::Denied {
            violations: yaml_violations,
            ..
        } = set.validate_raw(&yaml_bad)
        else {
            panic!("expected YAML denial");
        };
        assert_eq!(violations, yaml_violations);
        let RawVerdict::Denied {
            violations: tree_violations,
            ..
        } = set.validate_raw_tree_format(&bad, BodyFormat::Json)
        else {
            panic!("expected JSON tree denial");
        };
        assert_eq!(violations, tree_violations);
        let offset = location.unwrap().offset.unwrap();
        assert!(bad[offset..].starts_with("\"evil.example/pwn:latest\""));
    }

    #[test]
    fn stream_denials_synthesize_single_violation_reports() {
        // The collect pass must produce the exact single-violation report —
        // path in the tree walker's notation included — from matcher state.
        // (That no document tree is parsed on this path is a property of
        // the code shape, measured by `kubefence.stream.deny_us_p50` in
        // `benchmark/` rather than asserted here.)
        let set = set();
        let text = request("evil.example/pwn:latest", "Always", "3");
        let RawVerdict::Denied { violations, .. } = set.validate_raw(&text) else {
            panic!("expected denial");
        };
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].path, "spec.template.spec.containers[0].image");
    }

    #[test]
    fn multi_violation_reports_are_synthesized_in_document_order() {
        let set = set();
        // Three violations: bad image, unknown field, bad pull policy.
        let text = r#"apiVersion: apps/v1
kind: Deployment
metadata:
  name: web
spec:
  replicas: 3
  template:
    spec:
      hostNetwork: true
      containers:
        - name: nginx
          image: evil.example/pwn:latest
          imagePullPolicy: Never
"#;
        let stream = set.validate_raw(text);
        let tree = set.validate_raw_tree(text);
        let RawVerdict::Denied { violations, .. } = &stream else {
            panic!("expected denial");
        };
        assert_eq!(violations.len(), 3);
        let RawVerdict::Denied {
            violations: tree_violations,
            ..
        } = &tree
        else {
            panic!("expected tree denial");
        };
        assert_eq!(violations, tree_violations);
    }

    #[test]
    fn early_deny_stops_before_later_syntax_errors() {
        let set = set();
        // The violation (line 2) precedes a syntax error (line 5): the
        // denial verdict is certain, but the reference ranks the parse
        // defect higher — the stream keeps draining and reports it, and the
        // request stays denied either way.
        let text = "kind: Deployment\nhostNetwork: true\nmetadata:\n  name: x\n  {broken\n";
        let verdict = set.validate_raw(text);
        assert!(
            !verdict.is_admitted(),
            "early-deny traffic must stay denied: {verdict:?}"
        );
    }

    #[test]
    fn unparsable_bodies_report_position_and_reason() {
        let set = set();
        let RawVerdict::Unparsable { reason, location } = set.validate_raw("a: 1\n   b: 2\n")
        else {
            panic!("expected unparsable");
        };
        assert!(reason.contains("line 2"), "reason was: {reason}");
        assert_eq!(location.unwrap().line, 2);
    }

    #[test]
    fn unparsable_json_bodies_report_position_and_reason() {
        let set = set();
        let RawVerdict::Unparsable { reason, location } =
            set.validate_raw_format("{\"kind\": \"Deployment\",\n  broken}", BodyFormat::Json)
        else {
            panic!("expected unparsable");
        };
        assert!(reason.contains("line 2"), "reason was: {reason}");
        assert_eq!(location.unwrap().line, 2);
        // Duplicate keys are rejected, same as the YAML front end.
        let dup = "{\"kind\": \"Deployment\", \"kind\": \"Pod\"}";
        let stream = set.validate_raw_format(dup, BodyFormat::Json);
        assert!(matches!(stream, RawVerdict::Unparsable { .. }));
        assert_eq!(stream, set.validate_raw_tree_format(dup, BodyFormat::Json));
    }

    #[test]
    fn over_deep_bodies_are_unparsable_not_a_stack_overflow() {
        // ~20 KB of YAML flow nesting and ~120 KB of JSON nesting: before
        // the tokenizers capped depth, either one overflowed a default
        // 2 MiB thread stack (scanning, building or dropping the tree) and
        // aborted the process before any policy ran.
        let yaml = format!(
            "kind: Deployment\nmetadata: {{name: web}}\nspec: {}{}\n",
            "[".repeat(10_000),
            "]".repeat(10_000)
        );
        let json = format!(
            "{{\"kind\": \"Deployment\",\n\"metadata\": {{\"name\": \"web\"}},\n\"spec\": {}{}}}",
            "[".repeat(60_000),
            "]".repeat(60_000)
        );
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let set = set();
                for (text, format) in [(yaml, BodyFormat::Yaml), (json, BodyFormat::Json)] {
                    let verdict = set.validate_raw_format(&text, format);
                    // The tree reference inherits the tokenizer's limit.
                    assert_eq!(verdict, set.validate_raw_tree_format(&text, format));
                    let RawVerdict::Unparsable { reason, location } = verdict else {
                        panic!("{}: expected unparsable, got {verdict:?}", format.name());
                    };
                    assert!(reason.contains("nesting"), "reason was: {reason}");
                    assert_eq!(location.expect("positioned").line, 3);
                }
            })
            .expect("spawn")
            .join()
            .expect("no panic on the small stack");
    }

    #[test]
    fn multi_document_bodies_are_rejected_by_both_paths() {
        let set = set();
        let doc = request("docker.io/bitnami/nginx:1.25", "Always", "3");
        let text = format!("{doc}---\n{doc}");
        assert!(!set.validate_raw(&text).is_admitted());
        assert!(!set.validate_raw_tree(&text).is_admitted());
        // The JSON analogue of a multi-document body is trailing content.
        let json = request_json("docker.io/bitnami/nginx:1.25", "Always", "3");
        let trailing = format!("{json}{json}");
        let stream = set.validate_raw_format(&trailing, BodyFormat::Json);
        assert!(matches!(stream, RawVerdict::Unparsable { .. }));
        assert_eq!(
            stream,
            set.validate_raw_tree_format(&trailing, BodyFormat::Json)
        );
    }

    #[test]
    fn missing_envelope_fields_are_unparsable() {
        let set = set();
        for text in [
            "",
            "just a scalar\n",
            "- a\n- b\n",
            "replicas: 3\n",
            "kind: Deployment\nmetadata: {}\n",
            "kind: NotAKind\nmetadata:\n  name: x\n",
        ] {
            let stream = set.validate_raw(text);
            let tree = set.validate_raw_tree(text);
            assert!(
                matches!(stream, RawVerdict::Unparsable { .. }),
                "`{text}` should be unparsable, got {stream:?}"
            );
            assert_eq!(
                stream, tree,
                "`{text}`: streaming and reference outcomes must be identical"
            );
        }
        // And the JSON equivalents of the envelope defects.
        for text in [
            "",
            "\"just a scalar\"",
            "[1, 2]",
            "{\"replicas\": 3}",
            "{\"kind\": \"Deployment\", \"metadata\": {}}",
            "{\"kind\": \"NotAKind\", \"metadata\": {\"name\": \"x\"}}",
        ] {
            let stream = set.validate_raw_format(text, BodyFormat::Json);
            let tree = set.validate_raw_tree_format(text, BodyFormat::Json);
            assert!(
                matches!(stream, RawVerdict::Unparsable { .. }),
                "`{text}` should be unparsable, got {stream:?}"
            );
            assert_eq!(
                stream, tree,
                "`{text}`: streaming and reference outcomes must be identical"
            );
        }
    }

    #[test]
    fn kind_discovered_after_other_scalars() {
        let set = set();
        // `apiVersion` precedes `kind`; the pre-kind scalar buffer replays
        // it into the matchers.
        let text = request("docker.io/bitnami/nginx:1.25", "IfNotPresent", "2");
        assert!(text.starts_with("apiVersion"));
        assert_eq!(set.validate_raw(&text), RawVerdict::Admitted);
    }

    #[test]
    fn containers_before_kind_fall_back_to_the_tree_path() {
        let set = set();
        // `metadata` (a container) precedes `kind`: the stream cannot
        // decide and must defer — verdicts still match the tree path.
        let compliant =
            "apiVersion: apps/v1\nmetadata:\n  name: web\nkind: Deployment\nspec:\n  replicas: 3\n";
        assert_eq!(
            set.validate_raw(compliant),
            set.validate_raw_tree(compliant)
        );
        let hostile = "metadata:\n  name: web\nkind: Deployment\nspec:\n  hostNetwork: true\n";
        assert_eq!(set.validate_raw(hostile), set.validate_raw_tree(hostile));
        assert!(!set.validate_raw(hostile).is_admitted());
    }

    #[test]
    fn replayed_prekind_denials_stamp_the_violating_field() {
        let set = set();
        // `hostNetwork` precedes `kind:` — it is buffered and replayed once
        // the policy root is known; the denial location must point at it,
        // not at the `kind:` value that triggered the replay.
        let text = "hostNetwork: true\nkind: Deployment\nmetadata:\n  name: x\n";
        let RawVerdict::Denied { location, .. } = set.validate_raw(text) else {
            panic!("expected denial");
        };
        let location = location.expect("stream-decided denial carries a location");
        assert_eq!(location.line, 1);
        assert!(text[location.offset.unwrap()..].starts_with("hostNetwork"));
    }

    #[test]
    fn stream_denials_follow_reference_precedence() {
        let set = set();
        // Policy violation present but `metadata.name` missing: the
        // reference ranks the envelope defect higher; the stream agrees.
        let text = "kind: Deployment\nhostNetwork: true\n";
        assert_eq!(set.validate_raw(text), set.validate_raw_tree(text));
        assert!(matches!(
            set.validate_raw(text),
            RawVerdict::Unparsable { .. }
        ));
        // A hostile first document followed by a second one: the
        // multi-document defect outranks the policy violations.
        let text = "kind: Deployment\nhostNetwork: true\nmetadata:\n  name: x\n---\nkind: Pod\nmetadata:\n  name: y\n";
        assert_eq!(set.validate_raw(text), set.validate_raw_tree(text));
        assert!(matches!(
            set.validate_raw(text),
            RawVerdict::Unparsable { .. }
        ));
    }

    #[test]
    fn unknown_kinds_deny_with_the_unknown_kind_violation() {
        let set = set();
        let text = "kind: Secret\nmetadata:\n  name: stolen\n";
        let RawVerdict::Denied { violations, .. } = set.validate_raw(text) else {
            panic!("expected denial");
        };
        assert_eq!(violations.len(), 1);
        assert!(matches!(violations[0].reason, ViolationReason::UnknownKind));
        // The tree path reports the same violations (it never carries a
        // stream location, so compare the violation lists).
        let RawVerdict::Denied {
            violations: tree_violations,
            location: tree_location,
        } = set.validate_raw_tree(text)
        else {
            panic!("expected tree denial");
        };
        assert_eq!(violations, tree_violations);
        assert_eq!(tree_location, None);
        // The JSON form reaches the same violations.
        let json = "{\"kind\": \"Secret\", \"metadata\": {\"name\": \"stolen\"}}";
        let RawVerdict::Denied {
            violations: json_violations,
            ..
        } = set.validate_raw_format(json, BodyFormat::Json)
        else {
            panic!("expected JSON denial");
        };
        assert_eq!(violations, json_violations);
    }
}

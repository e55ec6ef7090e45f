//! Validate-while-parse enforcement: the streaming admission plane.
//!
//! The compiled arena ([`crate::compile`]) removed tree walks from
//! *validation*; this module removes the tree from *parsing*. A raw request
//! body — YAML or JSON, per [`BodyFormat`] — is tokenized once by the
//! pull-based [`kf_yaml::events::Tokenizer`] or
//! [`kf_yaml::json::JsonTokenizer`] (both emit the same event stream), and a
//! small state machine per candidate validator (the `StreamMatcher`)
//! advances arena node ids as events arrive. The stream is the only serving
//! validator: it decides and reports every body from the events it read.
//!
//! * the object's `kind:` is discovered during tokenization (no separate
//!   `peek_kind` pre-pass over a parsed tree), and the matchers it selects
//!   are fed the document's events from its first one — borrowed from the
//!   pass's event log — so fields before `kind:` are checked like any other;
//! * on the accept path **matching allocates no document tree** — keys and
//!   scalars borrow from the wire buffer and are checked directly against
//!   the compiled nodes;
//! * the body is **tokenized once**: the die-fast pass keeps every event it
//!   pulls (a log that grows with what was read, not with the body). An
//!   admitted body's log is fed to [`kf_yaml::TreeBuilder`], and that tree
//!   is the document the API server stores
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
//!   identical event sequence without tokenizing the prefix twice. The
//!   stream keeps tokenizing to the end of the document to collect the
//!   complete report and to honor the reference precedence of
//!   parse/multi-document/envelope defects over policy violations;
//! * envelope defects — a root that is not a mapping, a missing, non-string
//!   or unknown `kind`, an empty `metadata.name` — are decided at the end of
//!   the document and worded with the [`k8s_model::Error`] that
//!   [`K8sObject::peek_kind`] returns;
//! * a container that meets a constant, enumeration or pattern node is built
//!   from its own events ([`kf_yaml::TreeBuilder`]) until it closes, then
//!   checked with the tree walk's own comparison. A node with no container
//!   among its values decides at the container's first event; only the
//!   report's rendering of the container waits for it to close.
//!
//! [`ValidatorSet::validate_raw_tree_format`] is the parse-then-validate
//! reference the parity suites pin the stream to; no serving path calls it.
//! `validate_raw` / `validate_raw_tree` return byte-identical outcomes —
//! the stream only *adds* the deciding event's source location to denials.
//! See `docs/streaming-admission.md`.

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

/// An envelope defect, as the reference reports it: unpositioned.
fn unparsable_envelope(error: k8s_model::Error) -> RawVerdict {
    RawVerdict::Unparsable {
        reason: error.to_string(),
        location: None,
    }
}

fn missing_field(field: &str) -> k8s_model::Error {
    k8s_model::Error::MissingField {
        field: field.to_owned(),
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
    fn new(text: &'a str, format: BodyFormat) -> Self {
        debug_assert!(format != BodyFormat::Auto, "callers resolve Auto");
        match format {
            BodyFormat::Json => WireTokenizer::Json(JsonTokenizer::new(text)),
            _ => WireTokenizer::Yaml(
                Tokenizer::new(text).expect("constructing a YAML tokenizer reads nothing"),
            ),
        }
    }

    fn next_event(&mut self) -> Result<Option<Event<'a>>, kf_yaml::Error> {
        match self {
            WireTokenizer::Yaml(t) => t.next_event(),
            WireTokenizer::Json(t) => t.next_event(),
        }
    }
}

/// What the die-fast pass's event log starts with room for. It grows only
/// as the pass reads further, so a refusal decided in the first lines of a
/// 1 MiB body logs a prefix, never the body. The five charts' manifests
/// are 23–239 events, 48 at the median.
const LOG_INITIAL_EVENTS: usize = 64;

/// Where a streaming pass reads its events: first the ones already in the
/// log (the collect pass re-reads what the die-fast pass logged), then the
/// live tokenizer, carrying on from where that pass stopped. While logging
/// — the die-fast pass, until nothing it reads can be admitted or replayed
/// — each live event is moved into the log and read from there.
struct EventSource<'p, 'a> {
    log: &'p mut Vec<Event<'a>>,
    /// How many of the log's events this pass has read.
    read: usize,
    live: &'p mut WireTokenizer<'a>,
    logging: bool,
    /// The current event, once the pass reads past the log unlogged.
    unlogged: Option<Event<'a>>,
}

impl<'p, 'a> EventSource<'p, 'a> {
    fn new(log: &'p mut Vec<Event<'a>>, live: &'p mut WireTokenizer<'a>, logging: bool) -> Self {
        EventSource {
            log,
            read: 0,
            live,
            logging,
            unlogged: None,
        }
    }

    /// Move to the next event; `false` at the end of the stream.
    fn advance(&mut self) -> Result<bool, kf_yaml::Error> {
        if self.read < self.log.len() {
            self.read += 1;
            return Ok(true);
        }
        let Some(event) = self.live.next_event()? else {
            return Ok(false);
        };
        if self.logging {
            self.log.push(event);
            self.read += 1;
        } else {
            self.unlogged = Some(event);
        }
        Ok(true)
    }

    /// The event [`EventSource::advance`] moved to.
    fn current(&self) -> &Event<'a> {
        // Logged events are read before any unlogged one.
        match &self.unlogged {
            Some(event) => event,
            None => &self.log[self.read - 1],
        }
    }

    /// Every event this pass has read, oldest first, while each was logged:
    /// the document's events from its first one, for matchers that start
    /// late.
    fn read_so_far(&self) -> &[Event<'a>] {
        debug_assert!(self.unlogged.is_none(), "the log covers what was read");
        &self.log[..self.read]
    }

    /// Log nothing more: no event read from here on can be admitted or
    /// need replaying.
    fn stop_logging(&mut self) {
        self.logging = false;
    }
}

/// What an admitting pass read, not yet a tree: every event of the admitted
/// document, as the die-fast pass logged them. The caller decides when to
/// build it (the proxy stops its validation clock first, so the build — the
/// parse the server no longer does — is not billed as validation).
pub(crate) struct Admitted<'a>(Vec<Event<'a>>);

impl Admitted<'_> {
    /// The admitted document, built from the logged events.
    pub(crate) fn into_document(self) -> Value {
        let mut builder = TreeBuilder::default();
        self.0
            .into_iter()
            .find_map(|event| builder.feed(event))
            .expect("the stream admits only once its document's end is logged")
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
    /// re-reads the logged events, then tokenizes on from where the die-fast
    /// pass stopped. This is [`ValidatorSet::admit_raw_format`] without
    /// building the admitted document.
    pub fn validate_raw_format(&self, text: &str, format: BodyFormat) -> RawVerdict {
        self.admission(text, format).0
    }

    /// [`ValidatorSet::validate_raw_format`], and on admission the document
    /// the body holds, built from the events the die-fast pass read. It
    /// equals what [`kf_yaml::parse`] ([`kf_yaml::parse_json`] for JSON)
    /// makes of `text`, so a server can store it instead of parsing the
    /// bytes again. `None` beside every refusal.
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
        let mut tokenizer = WireTokenizer::new(text, format.resolve(text));
        let mut log = Vec::with_capacity(LOG_INITIAL_EVENTS);
        let fast = EventSource::new(&mut log, &mut tokenizer, true);
        match streaming_verdict(self, fast, Mode::Fast) {
            StreamFlow::Verdict(RawVerdict::Admitted) => {
                (RawVerdict::Admitted, Some(Admitted(log)))
            }
            StreamFlow::Verdict(verdict) => (verdict, None),
            StreamFlow::Report => {
                let collect = EventSource::new(&mut log, &mut tokenizer, false);
                match streaming_verdict(self, collect, Mode::Collect) {
                    StreamFlow::Verdict(verdict) => (verdict, None),
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
    /// (adding only the deciding event's location to denials); the parity
    /// fuzz tests and the end-to-end benchmark's verdict-parity check both
    /// run this form.
    pub fn validate_raw_tree_format(&self, text: &str, format: BodyFormat) -> RawVerdict {
        let docs = match format.resolve(text) {
            BodyFormat::Json => kf_yaml::parse_json(text).map(|doc| vec![doc]),
            _ => kf_yaml::parse_documents(text),
        };
        let docs = match docs {
            Ok(docs) => docs,
            Err(e) => return unparsable_error(&e),
        };
        if docs.len() != 1 {
            return RawVerdict::Unparsable {
                reason: format!("expected a single YAML document, found {}", docs.len()),
                location: None,
            };
        }
        let kind = match K8sObject::peek_kind(&docs[0]) {
            Ok(kind) => kind,
            Err(e) => return unparsable_envelope(e),
        };
        match self.validate_kind_body(kind, &docs[0]) {
            Ok(()) => RawVerdict::Admitted,
            Err(violations) => RawVerdict::Denied {
                violations,
                location: None,
            },
        }
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
    /// A container a matcher built from its events (see
    /// [`StreamMatcher::capture`]), for messages that render it.
    Built(Value),
    /// A scalar, borrowed from the wire buffer.
    Scalar(ScalarToken<'a>),
}

impl Found<'_> {
    fn type_name(&self) -> &'static str {
        match self {
            Found::Nothing => "",
            Found::Container(name) => name,
            Found::Built(value) => value.type_name(),
            Found::Scalar(token) => token.type_name(),
        }
    }

    fn render(&self) -> String {
        match self {
            Found::Built(value) => value.scalar_to_string(),
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
    /// The value differs from the constant `values[_]`.
    Const(u32),
    /// The value is none of the options `values[start..start + len]`.
    Enum { start: u32, len: u32 },
    /// The value does not match `patterns[_]`.
    Pattern(u32),
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

/// Drive one event through the shared path tracker (when one is maintained
/// — the collect pass only) and every matcher, in the order the path
/// semantics require. Returns where the denial is decided when every
/// matcher has now failed: the event's position, or — when a built
/// container closed at it — the container's first event.
fn drive<'a>(
    matchers: &mut [StreamMatcher<'_>],
    mut tracker: Option<&mut PathTracker<'a>>,
    event: &Event<'a>,
) -> Option<Pos> {
    // Fast pass (`tracker` is `None`): matchers only reach verdicts, so the
    // document position bookkeeping is skipped entirely.
    if let Some(tracker) = tracker.as_mut() {
        tracker.before_event(event);
    }
    let mut all_failed = true;
    let mut pos = event_pos(event);
    {
        let mut at = SiteAtEvent {
            tracker: tracker.as_deref_mut(),
            event,
            snapshot: None,
        };
        for matcher in matchers.iter_mut() {
            if let Some(opened) = matcher.feed(event, &mut at) {
                pos = opened;
            }
            all_failed &= matcher.failed();
        }
    }
    if let Some(tracker) = tracker {
        tracker.after_event(event);
    }
    all_failed.then_some(pos)
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
    /// The denial was decided, but the report was not collected
    /// ([`Mode::Fast`] only): run a [`Mode::Collect`] pass over the same
    /// events — the log, then the rest of the tokenizer — which re-derives
    /// the deciding position along with the report.
    Report,
}

/// Run the streaming matchers over the events `source` reads.
fn streaming_verdict<'a>(
    set: &ValidatorSet,
    mut source: EventSource<'_, 'a>,
    mode: Mode,
) -> StreamFlow {
    let mut depth = 0usize;
    let mut doc_done = false;
    // Root-level key whose value has not started yet.
    let mut root_key: Option<Cow<'a, str>> = None;
    // The root's `kind` with its position, or the error `peek_kind` reports
    // for it; `None` while no root `kind` was read.
    let mut kind: Option<Result<(ResourceKind, Pos), k8s_model::Error>> = None;
    let mut matchers: Vec<StreamMatcher<'_>> = Vec::new();
    // Only the collect pass renders document paths; the fast pass skips the
    // position bookkeeping altogether (it can only ever answer admit/deny).
    let mut tracker = (mode == Mode::Collect).then(PathTracker::default);
    // Where every candidate matcher had failed.
    let mut decided_at: Option<Pos> = None;
    // Envelope tracking: `metadata.name` must be a non-empty string.
    let mut metadata_open: Option<usize> = None;
    let mut pending_name = false;
    let mut name_ok = false;

    while !doc_done {
        match source.advance() {
            Ok(true) => {}
            Ok(false) => break,
            Err(e) => return StreamFlow::Verdict(unparsable_error(&e)),
        }
        let event = source.current();
        // What the matchers are fed: this event — or, at the `kind:` that
        // creates them, every event of the document so far.
        let mut fed = if matchers.is_empty() {
            &[][..]
        } else {
            std::slice::from_ref(event)
        };
        match event {
            Event::MappingStart { .. } | Event::SequenceStart { .. } => {
                if depth == 1 {
                    match root_key.take().as_deref() {
                        Some("kind") => kind = Some(Err(missing_field("kind"))),
                        Some("metadata") if matches!(event, Event::MappingStart { .. }) => {
                            metadata_open = Some(depth + 1);
                        }
                        _ => {}
                    }
                } else if metadata_open == Some(depth) {
                    pending_name = false; // name is not a string
                }
                depth += 1;
            }
            Event::Key { name, .. } => {
                if depth == 1 {
                    root_key = Some(name.clone());
                } else if metadata_open == Some(depth) {
                    pending_name = name == "name";
                }
            }
            Event::Scalar { value, pos } => {
                if depth == 1 && root_key.take().as_deref() == Some("kind") {
                    let resolved = match value.as_str() {
                        Some(text) => {
                            ResourceKind::parse(text).ok_or_else(|| k8s_model::Error::UnknownKind {
                                kind: text.to_owned(),
                            })
                        }
                        None => Err(missing_field("kind")),
                    };
                    if let Ok(resolved) = resolved {
                        for &index in set.validators_for(resolved) {
                            let compiled = set.validators()[index as usize].compiled();
                            let root = compiled
                                .kind_root(resolved)
                                .expect("routing table lists only covering validators");
                            matchers.push(StreamMatcher::new(compiled, root, mode));
                        }
                        // The fresh matchers start at the root mapping, so
                        // an early deny is stamped with the position of the
                        // field that decided it, before `kind:` or not.
                        fed = source.read_so_far();
                    }
                    kind = Some(resolved.map(|resolved| (resolved, *pos)));
                } else if metadata_open == Some(depth) && pending_name {
                    pending_name = false;
                    name_ok = matches!(value, ScalarToken::Str(name) if !name.is_empty());
                }
            }
            Event::End => {
                depth = depth.saturating_sub(1);
                if metadata_open.is_some_and(|open| depth < open) {
                    metadata_open = None;
                }
            }
            Event::DocumentEnd => {
                doc_done = true;
                fed = &[];
            }
        }
        for event in fed {
            if let (None, Some(pos)) = (decided_at, drive(&mut matchers, tracker.as_mut(), event)) {
                if mode == Mode::Fast {
                    // Every candidate has failed: the denial is decided
                    // here and tokenization stops. The collect pass
                    // re-reads the log up to this event, then tokenizes on
                    // (building no tree) for the report and for the
                    // reference precedence of later parse errors.
                    return StreamFlow::Report;
                }
                decided_at = Some(pos);
            }
        }
        if matchers.is_empty() && kind.is_some() {
            // No matcher will run: nothing read from here on is admitted
            // or replayed. Once the envelope is decided too, the rest of
            // the document can only contribute parse defects or a document
            // count; the drain below scans it without bookkeeping.
            source.stop_logging();
            if name_ok || matches!(kind, Some(Err(_))) {
                break;
            }
        }
    }

    // A request body must be exactly one document, and the reference ranks
    // multi-document (and any later parse) defects above envelope defects
    // and policy violations — `parse_documents` sees the whole stream before
    // `peek_kind` runs. Drain the tokenizer (building no trees) to reproduce
    // its outcome: the earliest parse error anywhere in the stream, else the
    // number of documents.
    source.stop_logging();
    let mut documents = usize::from(doc_done);
    loop {
        match source.advance() {
            Ok(true) => documents += usize::from(matches!(source.current(), Event::DocumentEnd)),
            Ok(false) => break,
            Err(e) => return StreamFlow::Verdict(unparsable_error(&e)),
        }
    }
    if documents != 1 {
        return StreamFlow::Verdict(RawVerdict::Unparsable {
            reason: format!("expected a single YAML document, found {documents}"),
            location: None,
        });
    }
    // The envelope, in `K8sObject::peek_kind`'s order. A root that is not a
    // mapping has no root `kind`.
    let (kind, kind_pos) = match kind {
        None => return StreamFlow::Verdict(unparsable_envelope(missing_field("kind"))),
        Some(Err(error)) => return StreamFlow::Verdict(unparsable_envelope(error)),
        Some(Ok(kind)) => kind,
    };
    if !name_ok {
        return StreamFlow::Verdict(unparsable_envelope(missing_field("metadata.name")));
    }
    if matchers.is_empty() {
        // No validator covers the kind: exactly the reference's report for
        // a covered envelope of an uncovered kind.
        return StreamFlow::Verdict(RawVerdict::Denied {
            violations: vec![Violation {
                path: kind.as_str().to_owned(),
                reason: ViolationReason::UnknownKind,
            }],
            location: Some(kind_pos.into()),
        });
    }
    let Some(pos) = decided_at else {
        debug_assert!(matchers.iter().any(|m| !m.failed()));
        return StreamFlow::Verdict(RawVerdict::Admitted);
    };
    debug_assert_eq!(mode, Mode::Collect, "fast mode returns before this point");
    // Denied: report the closest match (fewest violations, first wins),
    // mirroring `ValidatorSet::validate_kind_body`. Only the served report
    // is rendered; the losers' sites are dropped as recorded.
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
    let tracker = tracker.as_ref().expect("the collect pass keeps a tracker");
    StreamFlow::Verdict(RawVerdict::Denied {
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
    /// the values of fields that already produced their violation, and
    /// containers being built).
    Skip,
}

/// Where the next value event lands.
#[derive(Debug)]
enum Target {
    Skip,
    Node(u32),
}

/// A container a constant, enumeration or pattern node met, built from its
/// own events until it closes. The tree walk compares values, and renders
/// them in its messages; this is the one place the stream builds anything
/// while matching, and it holds only this container.
#[derive(Debug)]
struct Capture {
    /// The node's violation, should the container turn out not allowed.
    reason: SiteReason,
    /// Whether that violation is already recorded: no value of the node is
    /// a container, so none could match.
    decided: bool,
    /// The container's first event: where the violation is recorded and
    /// located.
    snapshot: u32,
    pos: Pos,
    /// The matcher's stack depth with the container's frame on it.
    depth: usize,
    builder: TreeBuilder,
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
    /// Cleared at the first violation in [`Mode::Fast`], and in either mode
    /// on an event a well-formed stream cannot produce; a dead matcher does
    /// no further work and never admits.
    alive: bool,
    /// The container being built, if any (see [`Capture`]); boxed, as
    /// only a few bodies ever build one.
    capture: Option<Box<Capture>>,
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
            capture: None,
        }
    }

    /// Whether this matcher has rejected the document.
    fn failed(&self) -> bool {
        !self.alive || !self.sites.is_empty()
    }

    /// A violation occurred at the current event.
    fn violate(&mut self, at: &mut SiteAtEvent<'_, '_>, reason: SiteReason) {
        self.record(at.snapshot(), reason);
    }

    /// A violation occurred: in fast mode the matcher simply dies; in
    /// collect mode its site is recorded — no string is built on either
    /// pass.
    fn record(&mut self, snapshot: u32, reason: SiteReason) {
        match self.mode {
            Mode::Fast => self.alive = false,
            Mode::Collect => self.sites.push(Site { snapshot, reason }),
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
        // event stream: fail closed.
        self.alive = false;
        Target::Skip
    }

    /// A mapping or sequence opens where the current expectation points.
    /// Always pushes exactly one frame, so the stack stays aligned with the
    /// document nesting while violations accumulate.
    fn enter_container(&mut self, event: &Event<'_>, at: &mut SiteAtEvent<'_, '_>) {
        let is_mapping = matches!(event, Event::MappingStart { .. });
        let Target::Node(id) = self.value_target() else {
            self.stack.push(MFrame::Skip);
            return;
        };
        let value_check = match self.compiled.node(id) {
            CompiledNode::Map { entries_start, len } if is_mapping => {
                self.stack.push(MFrame::Map { entries_start, len });
                return;
            }
            CompiledNode::Seq { element } if !is_mapping => {
                self.stack.push(MFrame::Seq { element });
                return;
            }
            CompiledNode::Any => None,
            CompiledNode::Type(tag) => {
                self.violate(at, SiteReason::Type(tag));
                None
            }
            CompiledNode::Map { .. } => {
                self.violate(at, SiteReason::Structure("mapping"));
                None
            }
            CompiledNode::Seq { .. } => {
                self.violate(at, SiteReason::Structure("sequence"));
                None
            }
            CompiledNode::Const { value } => Some(SiteReason::Const(value)),
            CompiledNode::Enum { start, len } => Some(SiteReason::Enum { start, len }),
            CompiledNode::Pattern { pattern } => Some(SiteReason::Pattern(pattern)),
        };
        self.stack.push(MFrame::Skip);
        if let Some(reason) = value_check {
            self.capture(reason, event_pos(event), at);
        }
    }

    /// The containers a value may equal under `reason`'s node, with the
    /// scalars beside them: a constant, or an enumeration's options. A
    /// pattern matches strings only.
    fn allowed_values(&self, reason: SiteReason) -> &'c [Value] {
        match reason {
            SiteReason::Const(value) => std::slice::from_ref(self.compiled.value(value)),
            SiteReason::Enum { start, len } => self.compiled.values_slice(start, len),
            _ => &[],
        }
    }

    /// A constant, enumeration or pattern node meets the container just
    /// pushed. With no container among the node's values the verdict is
    /// certain here, and only the collect pass builds the container, to
    /// render it; otherwise both passes build it and decide when it closes.
    fn capture(&mut self, reason: SiteReason, pos: Pos, at: &mut SiteAtEvent<'_, '_>) {
        let snapshot = at.snapshot();
        let decided = self.allowed_values(reason).iter().all(Value::is_scalar);
        if decided {
            self.record(snapshot, reason);
            if self.mode == Mode::Fast {
                return;
            }
        }
        self.capture = Some(Box::new(Capture {
            reason,
            decided,
            snapshot,
            pos,
            depth: self.stack.len(),
            builder: TreeBuilder::default(),
        }));
    }

    /// The captured container closed: check it as the tree walk does
    /// ([`Value::loosely_equals`]) unless already decided, and keep it for
    /// the report to render. Returns the container's position.
    fn close(&mut self, mut capture: Capture, at: &mut SiteAtEvent<'_, '_>) -> Pos {
        let built = capture
            .builder
            .feed(Event::DocumentEnd)
            .unwrap_or(Value::Null);
        let allowed = || {
            self.allowed_values(capture.reason)
                .iter()
                .any(|value| built.loosely_equals(value))
        };
        if !capture.decided && !allowed() {
            self.record(capture.snapshot, capture.reason);
        }
        if let Some(tracker) = at.tracker.as_deref_mut() {
            tracker.snapshots[capture.snapshot as usize].found = Found::Built(built);
        }
        capture.pos
    }

    /// Feed one event. Returns the position of a built container that
    /// closed at it.
    fn feed(&mut self, event: &Event<'_>, at: &mut SiteAtEvent<'_, '_>) -> Option<Pos> {
        if !self.alive {
            return None;
        }
        match event {
            Event::MappingStart { .. } | Event::SequenceStart { .. } => {
                self.enter_container(event, at);
            }
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
                // A key outside a mapping cannot occur in a well-formed
                // event stream: fail closed.
                _ => self.alive = false,
            },
            Event::Scalar { value, .. } => {
                if let Target::Node(id) = self.value_target() {
                    self.check_scalar(id, value, at);
                }
            }
            Event::End => {
                self.stack.pop();
            }
            Event::DocumentEnd => {}
        }
        let capture = self.capture.as_mut()?;
        capture.builder.feed(event.clone());
        if capture.depth <= self.stack.len() {
            return None;
        }
        let capture = self.capture.take()?;
        Some(self.close(*capture, at))
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
                if !token_loosely_equals(token, self.compiled.value(value)) {
                    self.violate(at, SiteReason::Const(value));
                }
            }
            CompiledNode::Enum { start, len } => {
                if !self
                    .compiled
                    .values_slice(start, len)
                    .iter()
                    .any(|option| token_loosely_equals(token, option))
                {
                    self.violate(at, SiteReason::Enum { start, len });
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

/// [`Value::loosely_equals`] between a scalar token and a tree node:
/// integer/float representations of the same number are equal, and no
/// scalar equals a container.
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
    use crate::compile::compile;
    use crate::security::{SecurityLock, SecurityLocks};
    use crate::validator::{PolicyNode, Validator, ViolationReason};

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
        // The stream counts the documents it drains, empty ones skipped, as
        // `parse_documents` does.
        for (text, documents) in [
            ("---\n# none\n---\n".to_owned(), 0),
            (format!("{doc}---\n---\nkind: Pod\n"), 2),
            (format!("kind: Pod\n---\n{doc}---\n{doc}"), 3),
        ] {
            let stream = set.validate_raw(&text);
            assert_eq!(stream, set.validate_raw_tree(&text), "{text}");
            let RawVerdict::Unparsable { reason, .. } = stream else {
                panic!("expected unparsable, got {stream:?}");
            };
            assert!(reason.ends_with(&format!("found {documents}")), "{reason}");
        }
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
        // `apiVersion` precedes `kind`; the matchers `kind:` selects are fed
        // the document from its first event.
        let text = request("docker.io/bitnami/nginx:1.25", "IfNotPresent", "2");
        assert!(text.starts_with("apiVersion"));
        assert_eq!(set.validate_raw(&text), RawVerdict::Admitted);
    }

    #[test]
    fn containers_before_kind_match_the_reference_and_locate_the_field() {
        let set = set();
        // `metadata` (a container) precedes `kind`: the stream decides it
        // like any other field, with the reference's verdict.
        let compliant =
            "apiVersion: apps/v1\nmetadata:\n  name: web\nkind: Deployment\nspec:\n  replicas: 3\n";
        assert_eq!(set.validate_raw(compliant), RawVerdict::Admitted);
        assert_eq!(
            set.validate_raw(compliant),
            set.validate_raw_tree(compliant)
        );
        let hostile = "metadata:\n  name: web\nkind: Deployment\nspec:\n  hostNetwork: true\n";
        let RawVerdict::Denied {
            violations,
            location,
        } = set.validate_raw(hostile)
        else {
            panic!("expected denial");
        };
        let RawVerdict::Denied {
            violations: tree_violations,
            ..
        } = set.validate_raw_tree(hostile)
        else {
            panic!("expected tree denial");
        };
        assert_eq!(violations, tree_violations);
        let offset = location.expect("located").offset.expect("an offset");
        assert!(hostile[offset..].starts_with("hostNetwork"), "{offset}");
    }

    #[test]
    fn pre_kind_denials_stamp_the_violating_field() {
        let set = set();
        // `hostNetwork` precedes `kind:` — the matchers read it once the
        // policy root is known; the denial location must point at it, not
        // at the `kind:` value that created them.
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

    /// A container-valued constant in front of the stream, two ways: a
    /// security lock pinning a mapping, and an enumeration of two mappings
    /// compiled straight into an arena. The stream builds the container it
    /// meets and compares it as the tree walk does.
    #[test]
    fn container_valued_constants_are_decided_in_stream() {
        let locked = {
            let mut validator = validator();
            validator.apply_security_locks(&SecurityLocks::none().with_lock(SecurityLock {
                field: "containers[].securityContext.capabilities".to_owned(),
                locked_value: kf_yaml::parse("drop: [ALL]").unwrap(),
                add_if_missing: true,
                rationale: "a container-valued lock".to_owned(),
            }));
            ValidatorSet::single(validator)
        };
        let enumerated = {
            let mut policy = validator()
                .policy_for(ResourceKind::Deployment)
                .unwrap()
                .clone();
            let PolicyNode::Map(root) = &mut policy else {
                panic!("a mapping policy");
            };
            let Some(PolicyNode::Map(spec)) = root.get_mut("spec") else {
                panic!("a spec policy");
            };
            let options = ["type: Recreate", "type: RollingUpdate"];
            spec.insert(
                "strategy".to_owned(),
                PolicyNode::Enum(options.map(|o| kf_yaml::parse(o).unwrap()).to_vec()),
            );
            let compiled = compile([(ResourceKind::Deployment, &policy)]);
            ValidatorSet::single(Validator::from_arena("enumerated", compiled))
        };
        let base = request("docker.io/bitnami/nginx:1.25", "Always", "3");
        let capabilities = |value: &str| {
            format!("{base}          securityContext:\n            capabilities: {value}\n")
        };
        let strategy =
            |value: &str| base.replacen("spec:\n", &format!("spec:\n  strategy: {value}\n"), 1);
        type Body<'f> = &'f dyn Fn(&str) -> String;
        let table: [(&ValidatorSet, Body, &[&str], &[&str]); 2] = [
            (
                &locked,
                &capabilities,
                &["{drop: [ALL]}"],
                &["{drop: [NET_RAW]}", "{add: [ALL]}", "ALL"],
            ),
            (
                &enumerated,
                &strategy,
                &["{type: Recreate}", "{type: RollingUpdate}"],
                &["{type: Canary}", "Recreate"],
            ),
        ];
        for (set, body, admitted, denied) in table {
            for (value, admits) in admitted
                .iter()
                .map(|v| (v, true))
                .chain(denied.iter().map(|v| (v, false)))
            {
                let yaml = body(value);
                let json = kf_yaml::to_json(&kf_yaml::parse(&yaml).unwrap());
                let json_value = kf_yaml::to_json(&kf_yaml::parse(value).unwrap());
                for (text, format, first) in [
                    (&yaml, BodyFormat::Yaml, *value),
                    (&json, BodyFormat::Json, json_value.as_str()),
                ] {
                    let (verdict, document) = set.admit_raw_format(text, format);
                    let reference = set.validate_raw_tree_format(text, format);
                    if admits {
                        assert_eq!(verdict, RawVerdict::Admitted, "{value} {format:?}");
                        assert_eq!(reference, RawVerdict::Admitted, "{value} {format:?}");
                        let parsed = match format {
                            BodyFormat::Json => kf_yaml::parse_json(text),
                            _ => kf_yaml::parse(text),
                        };
                        assert_eq!(document, Some(parsed.unwrap()), "{value} {format:?}");
                        continue;
                    }
                    let RawVerdict::Denied {
                        violations,
                        location,
                    } = verdict
                    else {
                        panic!("{value} {format:?}: expected denial, got {verdict:?}");
                    };
                    let RawVerdict::Denied {
                        violations: tree_violations,
                        ..
                    } = reference
                    else {
                        panic!("{value} {format:?}: expected tree denial, got {reference:?}");
                    };
                    assert_eq!(violations, tree_violations, "{value} {format:?}");
                    let offset = location.expect("located").offset.expect("an offset");
                    assert!(
                        text[offset..].starts_with(first),
                        "{value} {format:?}: located at {:?}",
                        &text[offset..]
                    );
                }
            }
        }
    }
}

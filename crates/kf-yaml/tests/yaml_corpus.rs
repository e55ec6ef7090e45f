//! The differential corpus: YAML edge forms, each with what the reader makes
//! of it — the documents as compact JSON, or the refusal and its line — and
//! the position of every key and scalar event. `yaml_corpus.txt` describes
//! its own format. A mismatch prints the row as the reader reads it today,
//! in the file's format, so a deliberate change is one reviewed paste.

use kf_yaml::events::{Event, Tokenizer};
use kf_yaml::{parse_documents, to_json, Error};

/// One corpus row: its title, the line it starts on, the input, and the
/// expected result and positions as written in the file.
struct Row {
    title: String,
    line: usize,
    yaml: String,
    expected: Vec<String>,
}

/// Decode a row's `yaml:` field: `\n`, `\r`, `\t`, `\\` and `\u{HEX}`.
fn unescape(field: &str, line: usize) -> String {
    let mut out = String::new();
    let mut chars = field.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('\\') => out.push('\\'),
            Some('u') => {
                let hex: String = chars.by_ref().take_while(|&c| c != '}').collect();
                let code = hex
                    .strip_prefix('{')
                    .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                    .and_then(char::from_u32);
                out.push(code.unwrap_or_else(|| panic!("line {line}: bad escape `\\u{hex}`")));
            }
            other => panic!("line {line}: unknown escape `\\{other:?}`"),
        }
    }
    out
}

fn rows(corpus: &str) -> Vec<Row> {
    let mut rows: Vec<Row> = Vec::new();
    for (index, text) in corpus.lines().enumerate() {
        let line = index + 1;
        if let Some(title) = text.strip_prefix("== ") {
            rows.push(Row {
                title: title.to_owned(),
                line,
                yaml: String::new(),
                expected: Vec::new(),
            });
            continue;
        }
        if text.is_empty() || text.starts_with('#') || text.starts_with("note:") {
            continue;
        }
        let row = rows
            .last_mut()
            .unwrap_or_else(|| panic!("line {line}: content before the first `== ` row"));
        match text.strip_prefix("yaml:") {
            Some(yaml) => row.yaml = unescape(yaml.strip_prefix(' ').unwrap_or(yaml), line),
            None => row.expected.push(text.to_owned()),
        }
    }
    rows
}

/// `text` with its non-ASCII white space written as the `yaml:` field's
/// `\u{HEX}` escape, so no corpus line holds an invisible character.
fn visible(text: &str) -> String {
    text.chars()
        .map(|c| match c {
            c if c.is_whitespace() && !c.is_ascii() => format!("\\u{{{:X}}}", u32::from(c)),
            c => c.to_string(),
        })
        .collect()
}

/// What the reader makes of `yaml`, as the corpus writes it.
fn actual(yaml: &str) -> Vec<String> {
    let documents = match parse_documents(yaml) {
        Ok(documents) => documents,
        Err(Error::Parse { line, message }) => return vec![format!("refuse {line}: {message}")],
        Err(other) => panic!("a parse returned a non-parse error: {other}"),
    };
    let mut out: Vec<String> = documents
        .iter()
        .map(|document| format!("doc: {}", visible(&to_json(document))))
        .collect();
    if out.is_empty() {
        out.push("no documents".to_owned());
    }
    let mut at = String::from("at:");
    let mut tokenizer = Tokenizer::new(yaml).expect("the tree parser accepted it");
    while let Some(event) = tokenizer.next_event().expect("the tree parser accepted it") {
        let (kind, pos) = match event {
            Event::Key { pos, .. } => ('K', pos),
            Event::Scalar { pos, .. } => ('S', pos),
            _ => continue,
        };
        at.push_str(&format!(" {kind}{}:{}", pos.line, pos.offset));
    }
    out.push(at);
    out
}

#[test]
fn the_reader_reads_every_corpus_row_as_recorded() {
    let corpus = include_str!("yaml_corpus.txt");
    let rows = rows(corpus);
    assert!(rows.len() >= 40, "{} rows", rows.len());
    let mut mismatches = String::new();
    for row in &rows {
        let actual = actual(&row.yaml);
        if actual != row.expected {
            mismatches.push_str(&format!(
                "\nline {}: == {}\n  expected: {:?}\n  actual:\n{}\n",
                row.line,
                row.title,
                row.expected,
                actual.join("\n")
            ));
        }
        // The stream front end refuses where the tree parser does, at the
        // same line: the tree parser is a builder over the same events.
        if let [refusal] = &row.expected[..] {
            if refusal.starts_with("refuse ") {
                let error = match Tokenizer::new(&row.yaml) {
                    Err(error) => error,
                    Ok(mut tokenizer) => loop {
                        match tokenizer.next_event() {
                            Ok(Some(_)) => continue,
                            Ok(None) => panic!("line {}: the events never refused", row.line),
                            Err(error) => break error,
                        }
                    },
                };
                let Error::Parse { line, message } = error else {
                    panic!("line {}: {error}", row.line);
                };
                assert_eq!(&format!("refuse {line}: {message}"), refusal);
            }
        }
    }
    assert!(mismatches.is_empty(), "corpus mismatches:{mismatches}");
}

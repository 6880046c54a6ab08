//! Minimal RFC-4180-style CSV reader and writer.
//!
//! Implemented in-tree (rather than pulling a dependency) because the
//! profiling pipeline needs only a small, predictable subset: configurable
//! delimiter, double-quote quoting with `""` escapes, quoted fields that may
//! contain delimiters and newlines, and `\n`, `\r\n` and a lone `\r` as
//! record terminators. Empty fields are NULL by the conventions of
//! [`crate::column::Column`].
//!
//! Reading is one byte-level scan over the input that yields every field
//! as a span: unquoted fields borrow their bytes, and a field is copied
//! only once a `"` appears in it. [`table_from_csv`] encodes its columns
//! straight from those spans.

use std::borrow::Cow;
use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::Path;

use crate::error::TableError;
use crate::table::Table;

/// CSV parsing options.
#[derive(Debug, Clone)]
pub struct CsvOptions {
    /// Field delimiter (default `,`).
    pub delimiter: char,
    /// Whether the first record carries column names (default `true`).
    /// Without a header, columns are named `col0`, `col1`, ...
    pub has_header: bool,
}

impl Default for CsvOptions {
    fn default() -> Self {
        CsvOptions { delimiter: ',', has_header: true }
    }
}

/// One parsed CSV record together with the 1-based source line it starts
/// on (a record spans multiple lines when a quoted field contains
/// newlines).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvRecord {
    /// 1-based line number of the record's first character.
    pub line: usize,
    /// The record's fields, in order.
    pub fields: Vec<String>,
}

/// Fields per chunk of [`Fields`]. No allocation grows with the whole
/// input: glibc's malloc raises its mmap threshold to the largest block a
/// program frees, and one input-sized block left tens of MB of freed heap
/// resident after every parse.
const CHUNK: usize = 1 << 15;

/// Every field of a CSV input in order, and where each record starts.
struct Fields<'a> {
    /// The fields, [`CHUNK`] to a chunk.
    chunks: Vec<Vec<Cow<'a, str>>>,
    /// Number of fields.
    len: usize,
    /// Per record: the 1-based line it starts on and the index of its
    /// first field.
    records: Vec<(usize, usize)>,
}

impl<'a> Fields<'a> {
    fn push(&mut self, field: Cow<'a, str>) {
        if self.len.is_multiple_of(CHUNK) {
            self.chunks.push(Vec::with_capacity(CHUNK));
        }
        self.chunks[self.len / CHUNK].push(field);
        self.len += 1;
    }

    /// Field `i` of the input.
    fn get(&self, i: usize) -> &str {
        &self.chunks[i / CHUNK][i % CHUNK]
    }

    /// The field indices of record `r`.
    fn record(&self, r: usize) -> std::ops::Range<usize> {
        let end = self.records.get(r + 1).map_or(self.len, |&(_, start)| start);
        self.records[r].1..end
    }
}

/// Splits `input` into fields and records.
///
/// Outside quotes, `\r\n`, a lone `\r` and `\n` each end a record and
/// count one line; a terminator that ends no content is a blank line and
/// yields no record. A `"` anywhere in a field opens a quoted section that
/// runs to the next unpaired `"`; inside it `""` is a literal quote and
/// only `\n` counts a line. A delimiter that is itself `"`, `\r` or `\n`
/// keeps that byte's own meaning; a multi-byte delimiter is matched on its
/// UTF-8 bytes.
fn scan<'a>(input: &'a str, delimiter: char) -> Result<Fields<'a>, TableError> {
    let bytes = input.as_bytes();
    let mut utf8 = [0u8; 4];
    let delimiter = delimiter.encode_utf8(&mut utf8).as_bytes();
    // Bytes the field loop stops at: quote, terminators, and the
    // delimiter's lead byte (which only ever starts a character).
    let mut special = [false; 256];
    for &b in [b'"', b'\n', b'\r'].iter().chain(delimiter.first()) {
        special[usize::from(b)] = true;
    }
    let mut fields = Fields { chunks: Vec::new(), len: 0, records: Vec::new() };
    let mut line = 1usize;
    let mut i = 0usize;
    while i < bytes.len() {
        if let Some(len) = terminator_len(bytes, i) {
            line += 1;
            i += len;
            continue;
        }
        fields.records.push((line, fields.len));
        loop {
            // The field's text so far, once a quote made it differ from
            // the input bytes; `stretch` starts its current unquoted run.
            let mut owned: Option<String> = None;
            let mut stretch = i;
            let ends_record = loop {
                let Some(skip) = bytes[i..].iter().position(|&b| special[usize::from(b)]) else {
                    i = bytes.len();
                    break true;
                };
                i += skip;
                match bytes[i] {
                    b'"' => {
                        let text = owned.get_or_insert_with(String::new);
                        text.push_str(&input[stretch..i]);
                        i = quoted(input, i + 1, &mut line, text)?;
                        stretch = i;
                    }
                    b'\n' | b'\r' => break true,
                    _ if bytes[i..].starts_with(delimiter) => break false,
                    _ => i += 1,
                }
            };
            let tail = &input[stretch..i];
            let field = match owned {
                Some(mut text) => {
                    text.push_str(tail);
                    Cow::Owned(text)
                }
                None => Cow::Borrowed(tail),
            };
            fields.push(field);
            if !ends_record {
                i += delimiter.len();
                continue;
            }
            if let Some(len) = terminator_len(bytes, i) {
                line += 1;
                i += len;
            }
            break;
        }
    }
    Ok(fields)
}

/// Length of the record terminator at `bytes[i]` (`\r\n` is one), if any.
fn terminator_len(bytes: &[u8], i: usize) -> Option<usize> {
    match bytes.get(i)? {
        b'\n' => Some(1),
        b'\r' if bytes.get(i + 1) == Some(&b'\n') => Some(2),
        b'\r' => Some(1),
        _ => None,
    }
}

/// Reads the quoted section whose opening quote sits just before `i`:
/// appends its text to `text` and returns the position past the closing
/// quote. An unclosed quote is an error on the line the quote opened on.
fn quoted(
    input: &str,
    mut i: usize,
    line: &mut usize,
    text: &mut String,
) -> Result<usize, TableError> {
    let bytes = input.as_bytes();
    let opened = *line;
    loop {
        let Some(len) = bytes[i..].iter().position(|&b| b == b'"') else {
            return Err(TableError::Csv {
                line: opened,
                message: "unterminated quoted field (quote never closed before end of input)"
                    .into(),
            });
        };
        let close = i + len;
        text.push_str(&input[i..close]);
        *line += bytes[i..close].iter().filter(|&&b| b == b'\n').count();
        if bytes.get(close + 1) != Some(&b'"') {
            return Ok(close + 1);
        }
        text.push('"');
        i = close + 2;
    }
}

/// The scanner's line number at the end of `bytes`, for errors found
/// before scanning (invalid UTF-8). Toggling on every `"` tracks the
/// scanner's quote state: an escaped `""` toggles twice.
fn line_at_end(bytes: &[u8]) -> usize {
    let mut line = 1;
    let mut quoted = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => quoted = !quoted,
            b'\n' => line += 1,
            b'\r' if !quoted => {
                line += 1;
                i += usize::from(bytes.get(i + 1) == Some(&b'\n'));
            }
            _ => {}
        }
        i += 1;
    }
    line
}

/// Splits CSV `input` into records of owned fields, each with the source
/// line it starts on.
pub fn parse_csv_records(input: &str, options: &CsvOptions) -> Result<Vec<CsvRecord>, TableError> {
    let fields = scan(input, options.delimiter)?;
    Ok((0..fields.records.len())
        .map(|r| CsvRecord {
            line: fields.records[r].0,
            fields: fields.record(r).map(|i| fields.get(i).to_string()).collect(),
        })
        .collect())
}

/// Parses CSV text into a [`Table`], recording `csv parse` and
/// `dictionary encode` spans in the ambient registry.
pub fn table_from_csv(name: &str, input: &str, options: &CsvOptions) -> Result<Table, TableError> {
    let span = muds_obs::span("csv parse");
    let fields = scan(input, options.delimiter)?;
    // The first record's fields; an input without records has no columns.
    let first = if fields.records.is_empty() { 0..0 } else { fields.record(0) };
    let generated: Vec<String>;
    let (header, first_row): (Vec<&str>, usize) = if options.has_header {
        (first.map(|i| fields.get(i)).collect(), 1)
    } else {
        generated = (0..first.len()).map(|i| format!("col{i}")).collect();
        (generated.iter().map(String::as_str).collect(), 0)
    };
    if header.is_empty() {
        return Err(TableError::NoColumns);
    }
    // Widths are checked here, where source line numbers are known.
    for r in first_row..fields.records.len() {
        let got = fields.record(r).len();
        if got != header.len() {
            return Err(TableError::RaggedRow {
                row: r - first_row,
                expected: header.len(),
                got,
                line: Some(fields.records[r].0),
            });
        }
    }
    span.stop();
    let _span = muds_obs::span("dictionary encode");
    Table::check_schema(&header)?;
    let rows = &fields.records[first_row..];
    Ok(Table::encode(name, &header, rows.len(), |r, c| fields.get(rows[r].1 + c)))
}

/// Parses raw CSV bytes (e.g. an uploaded request body) into a [`Table`].
///
/// The bytes must be UTF-8; a malformed sequence is reported as a CSV
/// error pointing at the line containing the first invalid byte.
pub fn table_from_csv_bytes(
    name: &str,
    bytes: &[u8],
    options: &CsvOptions,
) -> Result<Table, TableError> {
    let input = std::str::from_utf8(bytes).map_err(|e| TableError::Csv {
        line: line_at_end(&bytes[..e.valid_up_to()]),
        message: format!("invalid UTF-8 at byte offset {}", e.valid_up_to()),
    })?;
    table_from_csv(name, input, options)
}

/// Reads a CSV file into a [`Table`], named after the file stem.
pub fn table_from_csv_file(
    path: impl AsRef<Path>,
    options: &CsvOptions,
) -> Result<Table, TableError> {
    let path = path.as_ref();
    let mut input = String::new();
    File::open(path)?.read_to_string(&mut input)?;
    let name = path.file_stem().and_then(|s| s.to_str()).unwrap_or("table");
    table_from_csv(name, &input, options)
}

/// Serializes a field, quoting when necessary.
fn write_field(out: &mut String, field: &str, delimiter: char) {
    let needs_quotes = field.contains(delimiter)
        || field.contains('"')
        || field.contains('\n')
        || field.contains('\r');
    if needs_quotes {
        out.push('"');
        for c in field.chars() {
            if c == '"' {
                out.push('"');
            }
            out.push(c);
        }
        out.push('"');
    } else {
        out.push_str(field);
    }
}

/// Serializes a [`Table`] to CSV text (header included; NULLs as empty
/// fields). Round-trips through [`table_from_csv`].
pub fn table_to_csv(table: &Table, options: &CsvOptions) -> String {
    let mut out = String::new();
    for (i, name) in table.column_names().iter().enumerate() {
        if i > 0 {
            out.push(options.delimiter);
        }
        write_field(&mut out, name, options.delimiter);
    }
    out.push('\n');
    for r in 0..table.num_rows() {
        for (i, v) in table.row(r).iter().enumerate() {
            if i > 0 {
                out.push(options.delimiter);
            }
            write_field(&mut out, v.unwrap_or(""), options.delimiter);
        }
        out.push('\n');
    }
    out
}

/// Writes a [`Table`] to a CSV file.
pub fn table_to_csv_file(
    table: &Table,
    path: impl AsRef<Path>,
    options: &CsvOptions,
) -> Result<(), TableError> {
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(table_to_csv(table, options).as_bytes())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::tests::{assert_matches_from_scratch, rows_of};

    #[test]
    fn basic_parse() {
        let t = table_from_csv("t", "a,b\n1,2\n3,4\n", &CsvOptions::default()).unwrap();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.column_names(), vec!["a", "b"]);
        assert_eq!(t.row(1), vec![Some("3"), Some("4")]);
    }

    #[test]
    fn quoted_fields_with_delimiters_and_newlines() {
        let input = "a,b\n\"x,y\",\"line1\nline2\",\n";
        // Note: three fields in the data row — ragged, should error.
        assert!(table_from_csv("t", input, &CsvOptions::default()).is_err());
        let input = "a,b\n\"x,y\",\"line1\nline2\"\n";
        let t = table_from_csv("t", input, &CsvOptions::default()).unwrap();
        assert_eq!(t.row(0), vec![Some("x,y"), Some("line1\nline2")]);
    }

    #[test]
    fn escaped_quotes() {
        let t = table_from_csv("t", "a\n\"he said \"\"hi\"\"\"\n", &CsvOptions::default()).unwrap();
        assert_eq!(t.row(0), vec![Some("he said \"hi\"")]);
    }

    #[test]
    fn unterminated_quote_is_error() {
        let err = table_from_csv("t", "a\n\"oops\n", &CsvOptions::default()).unwrap_err();
        assert!(matches!(err, TableError::Csv { .. }));
    }

    #[test]
    fn unterminated_quote_reports_the_opening_line() {
        // The quote opens on line 2; the field then swallows the rest of
        // the input. The error must point at line 2, not at EOF.
        let err =
            table_from_csv("t", "a\n\"oops\nmore\nlines\n", &CsvOptions::default()).unwrap_err();
        match err {
            TableError::Csv { line, message } => {
                assert_eq!(line, 2, "expected the quote-open line");
                assert!(message.contains("unterminated"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn crlf_terminators() {
        let t = table_from_csv("t", "a,b\r\n1,2\r\n", &CsvOptions::default()).unwrap();
        assert_eq!(t.num_rows(), 1);
        assert_eq!(t.row(0), vec![Some("1"), Some("2")]);
    }

    #[test]
    fn lone_carriage_return_terminates_the_record() {
        // Classic-Mac line endings: "a,b\r1,2\r" is two records, not one
        // record with glued fields (a regression the fuzzer caught: the
        // old parser swallowed the '\r' and merged adjacent lines).
        let t = table_from_csv("t", "a,b\r1,2\r3,4", &CsvOptions::default()).unwrap();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.column_names(), vec!["a", "b"]);
        assert_eq!(t.row(0), vec![Some("1"), Some("2")]);
        assert_eq!(t.row(1), vec![Some("3"), Some("4")]);
        // And a ragged record after lone-\r terminators reports the right
        // line.
        let err = table_from_csv("t", "a,b\r1,2\r3,4,5\r", &CsvOptions::default()).unwrap_err();
        assert!(matches!(err, TableError::RaggedRow { row: 1, got: 3, line: Some(3), .. }));
    }

    #[test]
    fn trailing_delimiter_is_a_ragged_row_with_line_number() {
        // "1,2," parses as three fields (the last one empty/NULL); against
        // a two-column header that is a ragged row on line 3.
        let err = table_from_csv("t", "a,b\n1,2\n3,4,\n", &CsvOptions::default()).unwrap_err();
        assert!(matches!(
            err,
            TableError::RaggedRow { row: 1, expected: 2, got: 3, line: Some(3) }
        ));
    }

    #[test]
    fn missing_trailing_newline() {
        let t = table_from_csv("t", "a,b\n1,2", &CsvOptions::default()).unwrap();
        assert_eq!(t.num_rows(), 1);
    }

    #[test]
    fn empty_fields_are_null() {
        let t = table_from_csv("t", "a,b\n,2\n", &CsvOptions::default()).unwrap();
        assert_eq!(t.row(0), vec![None, Some("2")]);
    }

    #[test]
    fn quoted_empty_string_is_also_null() {
        // We deliberately collapse "" (quoted empty) and empty to NULL.
        let t = table_from_csv("t", "a,b\n\"\",2\n", &CsvOptions::default()).unwrap();
        assert_eq!(t.row(0), vec![None, Some("2")]);
    }

    #[test]
    fn custom_delimiter() {
        let opts = CsvOptions { delimiter: ';', has_header: true };
        let t = table_from_csv("t", "a;b\n1;2\n", &opts).unwrap();
        assert_eq!(t.row(0), vec![Some("1"), Some("2")]);
    }

    #[test]
    fn headerless_input() {
        let opts = CsvOptions { delimiter: ',', has_header: false };
        let t = table_from_csv("t", "1,2\n3,4\n", &opts).unwrap();
        assert_eq!(t.column_names(), vec!["col0", "col1"]);
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    fn ragged_rows_rejected_with_row_number() {
        let err = table_from_csv("t", "a,b\n1,2\n1,2,3\n", &CsvOptions::default()).unwrap_err();
        assert!(matches!(err, TableError::RaggedRow { row: 1, line: Some(3), .. }));
    }

    #[test]
    fn ragged_row_after_multiline_quoted_field_reports_record_start_line() {
        // The second data record starts on line 3 but its quoted field
        // spans through line 5; the ragged third record starts on line 6.
        let input = "a,b\n1,2\n\"x\ny\nz\",3\n4,5,6\n";
        let err = table_from_csv("t", input, &CsvOptions::default()).unwrap_err();
        assert!(matches!(err, TableError::RaggedRow { row: 2, got: 3, line: Some(6), .. }));
    }

    #[test]
    fn round_trip() {
        let t = table_from_csv(
            "t",
            "a,b\n\"x,1\",\n\"multi\nline\",\"q\"\"q\"\n",
            &CsvOptions::default(),
        )
        .unwrap();
        let csv = table_to_csv(&t, &CsvOptions::default());
        let t2 = table_from_csv("t", &csv, &CsvOptions::default()).unwrap();
        assert_eq!(t.num_rows(), t2.num_rows());
        for r in 0..t.num_rows() {
            assert_eq!(t.row(r), t2.row(r));
        }
    }

    #[test]
    fn file_round_trip() {
        let t = table_from_csv("x", "a,b\n1,2\n", &CsvOptions::default()).unwrap();
        let dir = std::env::temp_dir().join("muds-csv-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.csv");
        table_to_csv_file(&t, &path, &CsvOptions::default()).unwrap();
        let t2 = table_from_csv_file(&path, &CsvOptions::default()).unwrap();
        assert_eq!(t2.name(), "roundtrip");
        assert_eq!(t2.num_rows(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bytes_entry_point_parses_and_validates_utf8() {
        let t = table_from_csv_bytes("t", b"a,b\n1,2\n", &CsvOptions::default()).unwrap();
        assert_eq!(t.num_rows(), 1);
        // Invalid UTF-8 is reported on the line the scanner would be on: a
        // lone '\r' ends a line outside quotes, "\r\n" is one line end, and
        // inside a quoted field only '\n' counts.
        for (bytes, line) in [
            (&b"a,b\n1,\xff\n"[..], 2),
            (b"a,b\r1,\xff\r", 2),
            (b"a,b\r\n1,2\r\n\xff", 3),
            (b"a,b\r\r1,\xff", 3),
            (b"a\n\"x\ry\xff\"\n", 2),
            (b"a\n\"x\r\ny\"\"\r\xff\"\n", 3),
        ] {
            match table_from_csv_bytes("t", bytes, &CsvOptions::default()) {
                Err(TableError::Csv { line: got, message }) => {
                    assert_eq!(got, line, "{bytes:?}");
                    assert!(message.contains("UTF-8"), "{message}");
                }
                other => panic!("{bytes:?}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn empty_input_is_no_columns() {
        assert!(matches!(
            table_from_csv("t", "", &CsvOptions::default()),
            Err(TableError::NoColumns)
        ));
    }

    /// The scanner's outcome on `input` in one comparable line: the header
    /// and decoded rows, or the exact error.
    fn outcome(input: &str, options: &CsvOptions) -> String {
        match table_from_csv("t", input, options) {
            Ok(t) => format!(
                "{:?} {:?}",
                t.column_names(),
                (0..t.num_rows()).map(|r| t.row(r)).collect::<Vec<_>>()
            ),
            Err(e) => format!("{e:?}"),
        }
    }

    #[test]
    fn edge_cases_pin_exact_outcomes_and_lines() {
        let comma = CsvOptions::default();
        let semicolon = CsvOptions { delimiter: ';', has_header: false };
        let e_acute = CsvOptions { delimiter: 'é', has_header: true };
        let unterminated =
            "unterminated quoted field (quote never closed before end of input)".to_string();
        let cases: Vec<(&str, &CsvOptions, String)> = vec![
            ("", &comma, "NoColumns".into()),
            ("\n\r\n\r", &comma, "NoColumns".into()),
            ("", &semicolon, "NoColumns".into()),
            (
                "a,b\r1,2\r\n\n3,4",
                &comma,
                r#"["a", "b"] [[Some("1"), Some("2")], [Some("3"), Some("4")]]"#.into(),
            ),
            ("a\n\"oops\nmore", &comma, format!("Csv {{ line: 2, message: {unterminated:?} }}")),
            ("a\n1\n\"x\"\"", &comma, format!("Csv {{ line: 3, message: {unterminated:?} }}")),
            // Inside quotes a lone '\r' is not a line end, "\r\n" is one.
            (
                "a,b\n\"x\ry\",1\n1,2,3\n",
                &comma,
                "RaggedRow { row: 1, expected: 2, got: 3, line: Some(3) }".into(),
            ),
            (
                "a,b\n\"x\r\ny\",1\n1,2,3\n",
                &comma,
                "RaggedRow { row: 1, expected: 2, got: 3, line: Some(4) }".into(),
            ),
            (
                "a,b\n\n\n1,2,3",
                &comma,
                "RaggedRow { row: 0, expected: 2, got: 3, line: Some(4) }".into(),
            ),
            // Quotes mid-field, an empty quoted name, an escaped quote, and
            // a quoted empty cell (NULL).
            (
                "a\"b\"c,\"\"\n\"\"\"\",x\n\"\",y",
                &comma,
                r#"["abc", ""] [[Some("\""), Some("x")], [None, Some("y")]]"#.into(),
            ),
            (
                "1;2\n3;4;5",
                &semicolon,
                "RaggedRow { row: 1, expected: 2, got: 3, line: Some(2) }".into(),
            ),
            ("x;\"a;b\"\n", &semicolon, r#"["col0", "col1"] [[Some("x"), Some("a;b")]]"#.into()),
            // 'è' shares 'é''s lead byte but is not the delimiter.
            ("aéb\nè,é\"xéy\"\n", &e_acute, r#"["a", "b"] [[Some("è,"), Some("xéy")]]"#.into()),
            (
                "aéb\nèéé\n",
                &e_acute,
                "RaggedRow { row: 0, expected: 2, got: 3, line: Some(2) }".into(),
            ),
            ("a,a\n1,2", &comma, r#"DuplicateColumnName("a")"#.into()),
        ];
        for (input, options, expected) in cases {
            assert_eq!(outcome(input, options), expected, "{input:?}");
        }
        // A ragged row is reported before the schema is judged.
        let wide: Vec<String> = (0..=crate::MAX_COLUMNS).map(|i| format!("c{i}")).collect();
        let wide = wide.join(",");
        assert_eq!(
            outcome(&format!("{wide}\n1\n"), &comma),
            "RaggedRow { row: 0, expected: 257, got: 1, line: Some(2) }"
        );
        assert_eq!(outcome(&format!("{wide}\n"), &comma), "TooManyColumns { got: 257, max: 256 }");
    }

    /// Hostile fragments: every byte the scanner treats specially, a
    /// character sharing the `é` delimiter's lead byte, and plain text.
    const PIECES: [&str; 12] = [",", ";", "\"", "\r", "\n", "\r\n", "é", "è", "日", "a", "b", " "];

    fn text(pieces: &[usize]) -> String {
        pieces.iter().map(|&p| PIECES[p % PIECES.len()]).collect()
    }

    /// The delimiters and header modes every property runs under.
    fn option_sets() -> [CsvOptions; 3] {
        [
            CsvOptions { delimiter: ',', has_header: true },
            CsvOptions { delimiter: ';', has_header: false },
            CsvOptions { delimiter: 'é', has_header: true },
        ]
    }

    proptest::proptest! {
        /// Random tables of hostile cells (empty ones are NULL; short
        /// cells from a small alphabet repeat often) survive
        /// `table_to_csv` → `table_from_csv` exactly, encoded as a
        /// from-scratch build would encode them.
        #[test]
        fn hostile_tables_round_trip(
            (width, names, cells) in (
                2usize..5,
                proptest::collection::vec(proptest::collection::vec(0usize..12, 0..3), 4),
                proptest::collection::vec(
                    proptest::collection::vec(proptest::collection::vec(0usize..12, 0..3), 4),
                    0..8,
                ),
            )
        ) {
            // '#' is not a piece, so the suffix keeps names distinct.
            let names: Vec<String> =
                names[..width].iter().enumerate().map(|(i, p)| format!("{}#{i}", text(p))).collect();
            let rows: Vec<Vec<String>> =
                cells.iter().map(|r| r[..width].iter().map(|c| text(c)).collect()).collect();
            let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
            let table = Table::from_rows("t", &name_refs, &rows).unwrap();
            for options in option_sets() {
                let csv = table_to_csv(&table, &options);
                let back = table_from_csv("t", &csv, &options).unwrap();
                // Without a header, the names line reads back as data.
                let (names, rows) = if options.has_header {
                    (names.clone(), rows.clone())
                } else {
                    let generated = (0..width).map(|i| format!("col{i}")).collect();
                    (generated, [vec![names.clone()], rows.clone()].concat())
                };
                assert_eq!(back.column_names(), names, "{csv:?}");
                assert_eq!(rows_of(&back), rows, "{csv:?}");
                assert_matches_from_scratch(&back);
            }
        }

        /// Raw strings over the same alphabet never panic: every input
        /// gives a typed error or a table that matches a from-scratch
        /// build and the owned record split.
        #[test]
        fn raw_strings_give_a_table_or_a_typed_error(
            (pieces, bad) in (proptest::collection::vec(0usize..12, 0..40), 0usize..40)
        ) {
            let input = text(&pieces);
            for options in option_sets() {
                let records = parse_csv_records(&input, &options);
                match table_from_csv("t", &input, &options) {
                    Ok(t) => {
                        assert_matches_from_scratch(&t);
                        let mut records: Vec<Vec<String>> =
                            records.unwrap().into_iter().map(|r| r.fields).collect();
                        if options.has_header {
                            assert_eq!(t.column_names(), records.remove(0));
                        }
                        assert_eq!(rows_of(&t), records, "{input:?}");
                    }
                    Err(TableError::Csv { line, .. }) => {
                        assert!(matches!(records, Err(TableError::Csv { line: l, .. }) if l == line));
                    }
                    Err(_) => assert!(records.is_ok(), "{input:?}"),
                }
            }
            // An invalid byte anywhere is a CSV error on a real line.
            let at = (0..=bad.min(input.len())).rev().find(|&i| input.is_char_boundary(i)).unwrap_or(0);
            let mut bytes = input.clone().into_bytes();
            bytes.insert(at, 0xff);
            let lines = 1 + input.matches(['\n', '\r']).count();
            match table_from_csv_bytes("t", &bytes, &CsvOptions::default()) {
                Err(TableError::Csv { line, message }) => {
                    assert!((1..=lines).contains(&line) && message.contains("UTF-8"), "{bytes:?}");
                }
                other => panic!("{bytes:?}: unexpected {other:?}"),
            }
        }
    }
}

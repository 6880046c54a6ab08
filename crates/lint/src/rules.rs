//! The lint rule catalogue (L001–L006) and the per-file analysis context.
//!
//! Rules pattern-match over the token stream from [`crate::lexer`],
//! guided by three pieces of per-file context computed up front:
//!
//! * **test regions** — `#[cfg(test)]` / `#[test]` items and files under a
//!   `tests/` directory. Only L003 (SAFETY comments) applies inside them;
//!   panic, determinism, and clock rules are about production behaviour.
//! * **loop regions** — brace ranges introduced by `loop`/`while`/`for`,
//!   used by L006 to tell a predicate-guarded condvar wait from a bare one.
//! * **hash-typed names** — identifiers declared in this file with a
//!   `HashMap`/`HashSet` type (let bindings, struct fields), used by L001
//!   to find iteration with nondeterministic order.
//!
//! Findings are suppressed by inline allow comments
//! (`// lint:allow(<key>): <justification>`, see [`crate::allows`]) on the
//! same line or an immediately preceding comment line.

use crate::allows::AllowSite;
use crate::lexer::{lex, Lexed, Token, TokenKind};

/// One lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Malformed allow comment (unknown key / missing justification).
    L000,
    /// Hash-order determinism: iteration over `HashMap`/`HashSet`.
    L001,
    /// Panic in library code: `unwrap`/`expect`/`panic!`/`[literal]` index.
    L002,
    /// `unsafe` without a `// SAFETY:` comment.
    L003,
    /// Wall-clock reads outside the obs/serve/cli allowlist.
    L004,
    /// Obs metric name not in the DESIGN.md §7 catalogue.
    L005,
    /// Condvar `.wait()` not guarded by a loop predicate.
    L006,
    /// Lock-order cycle in the interprocedural lock-acquisition graph:
    /// two call paths acquire the same locks in opposite orders.
    L008,
    /// Blocking call (file I/O, `write_all`, condvar wait, hot mutex)
    /// reachable from the reactor event loop on its own thread.
    L009,
    /// `let _ = call(…);` / statement-position `.ok();` discarding a
    /// result in library code.
    L010,
}

impl Rule {
    /// Every rule, in id order — drives the SARIF `tool.driver.rules`
    /// array so viewers can resolve `ruleId` references.
    pub const ALL: [Rule; 10] = [
        Rule::L000,
        Rule::L001,
        Rule::L002,
        Rule::L003,
        Rule::L004,
        Rule::L005,
        Rule::L006,
        Rule::L008,
        Rule::L009,
        Rule::L010,
    ];

    pub fn id(self) -> &'static str {
        match self {
            Rule::L000 => "L000",
            Rule::L001 => "L001",
            Rule::L002 => "L002",
            Rule::L003 => "L003",
            Rule::L004 => "L004",
            Rule::L005 => "L005",
            Rule::L006 => "L006",
            Rule::L008 => "L008",
            Rule::L009 => "L009",
            Rule::L010 => "L010",
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Rule::L000 => "allow-syntax",
            Rule::L001 => "hash-order",
            Rule::L002 => "panic-in-library",
            Rule::L003 => "unsafe-needs-safety-comment",
            Rule::L004 => "wall-clock",
            Rule::L005 => "counter-catalogue",
            Rule::L006 => "condvar-wait-without-loop",
            Rule::L008 => "lock-order-cycle",
            Rule::L009 => "blocking-in-reactor",
            Rule::L010 => "swallowed-result",
        }
    }

    /// The `lint:allow(<key>)` key that suppresses this rule, if any.
    /// L003 has no allow key: the `// SAFETY:` comment *is* the mechanism.
    pub fn allow_key(self) -> Option<&'static str> {
        match self {
            Rule::L000 | Rule::L003 => None,
            Rule::L001 => Some("hash-order"),
            Rule::L002 => Some("panic"),
            Rule::L004 => Some("wall-clock"),
            Rule::L005 => Some("counter-name"),
            Rule::L006 => Some("condvar-loop"),
            Rule::L008 => Some("lock-order"),
            Rule::L009 => Some("blocking-reactor"),
            Rule::L010 => Some("swallowed-result"),
        }
    }
}

/// All rules with an allow key, for validating allow comments.
pub const ALLOW_KEYS: [&str; 8] = [
    "hash-order",
    "panic",
    "wall-clock",
    "counter-name",
    "condvar-loop",
    "lock-order",
    "blocking-reactor",
    "swallowed-result",
];

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub rule: Rule,
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    pub line: usize,
    pub col: usize,
    pub message: String,
}

impl Diagnostic {
    /// `file:line:col: L002 [panic-in-library] message`.
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{}: {} [{}] {}",
            self.file,
            self.line,
            self.col,
            self.rule.id(),
            self.rule.name(),
            self.message
        )
    }
}

/// Per-file rule tuning resolved by the workspace walker.
#[derive(Debug, Clone, Default)]
pub struct FileOptions {
    /// Entire file is test/fixture code (under a `tests/`, `benches/`, or
    /// `examples/` directory): only L003 applies.
    pub is_test_file: bool,
    /// Panics are acceptable here (binary entry points, vendored code):
    /// L002 is skipped.
    pub panic_allowed: bool,
    /// File is allowed to read wall clocks (the obs/serve/cli
    /// instrumentation layers).
    pub clock_allowed: bool,
    /// Check registered obs metric names against this catalogue; `None`
    /// disables L005 for the file.
    pub catalogue: Option<std::collections::BTreeSet<String>>,
}

/// Methods whose receiver iterates a collection in storage order.
const ITER_METHODS: [&str; 8] =
    ["iter", "iter_mut", "keys", "values", "values_mut", "into_keys", "into_values", "drain"];

/// Chain sinks whose result does not depend on iteration order (or that
/// restore a deterministic order). Seeing one of these later in the same
/// statement exempts an L001 candidate.
const ORDER_INSENSITIVE_SINKS: [&str; 22] = [
    "sum",
    "product",
    "count",
    "len",
    "is_empty",
    "min",
    "max",
    "min_by",
    "max_by",
    "min_by_key",
    "max_by_key",
    "all",
    "any",
    "contains",
    "find",
    "position",
    "sort",
    "sort_by",
    "sort_unstable",
    "sort_by_key",
    "sort_unstable_by",
    "sorted",
];

/// Obs registration functions whose first string argument is a metric name.
const METRIC_FNS: [&str; 6] = ["counter", "gauge", "histogram", "add", "gauge_set", "gauge_max"];

/// Wall-clock acquisition points: `<type>::<fn>` paths.
const CLOCK_PATHS: [(&str, &str); 3] =
    [("Instant", "now"), ("SystemTime", "now"), ("SystemTime", "UNIX_EPOCH")];

/// Analysis of one file.
pub struct FileAnalysis {
    lexed: Lexed,
    /// `in_test[i]` — token `i` is inside a `#[cfg(test)]`/`#[test]` item.
    in_test: Vec<bool>,
    /// `in_loop[i]` — token `i` is lexically inside a loop body.
    in_loop: Vec<bool>,
    /// Identifiers declared with a hash-table type in this file.
    hash_names: std::collections::BTreeSet<String>,
    /// Valid allow comments: `(comment line, key, last covered line)`.
    /// An allow covers its own line (trailing comment) plus the whole
    /// statement that starts directly below it.
    allows: Vec<(usize, String, usize)>,
    /// Malformed allow comments found while parsing.
    allow_errors: Vec<(usize, String)>,
    /// All parsed allow sites (valid ones), for cross-referencing tests.
    pub allow_sites: Vec<AllowSite>,
}

impl FileAnalysis {
    pub fn new(source: &str) -> FileAnalysis {
        let lexed = lex(source);
        let in_test = mark_test_regions(&lexed.tokens);
        let in_loop = mark_loop_regions(&lexed.tokens);
        let hash_names = collect_hash_names(&lexed.tokens);
        let mut allows = Vec::new();
        let mut allow_errors = Vec::new();
        let mut allow_sites = Vec::new();
        for comment in &lexed.comments {
            for parsed in crate::allows::parse_allow_comments(&comment.text, comment.line) {
                match parsed {
                    Ok(site) => {
                        let cover_end = allow_cover_end(&lexed.tokens, site.line);
                        allows.push((site.line, site.key.clone(), cover_end));
                        allow_sites.push(site);
                    }
                    Err(message) => allow_errors.push((comment.line, message)),
                }
            }
        }
        FileAnalysis { lexed, in_test, in_loop, hash_names, allows, allow_errors, allow_sites }
    }

    /// Is there a `// SAFETY:` comment on `line`, or in the contiguous
    /// comment run directly above it (every line between the comment and
    /// `line` must itself hold a comment)?
    fn has_safety_comment(&self, line: usize) -> bool {
        let comment_lines: std::collections::BTreeSet<usize> = self
            .lexed
            .comments
            .iter()
            .flat_map(|c| c.line..=c.line + c.text.matches('\n').count())
            .collect();
        self.lexed.comments.iter().any(|c| {
            c.text.contains("SAFETY:")
                && c.line <= line
                && (c.line + 1..line).all(|between| comment_lines.contains(&between))
        })
    }

    /// Is the finding at `line` suppressed by an allow comment for `key`
    /// on the same line or covering the statement below it? Public so the
    /// workspace-level semantic pass (L008/L009) can honour file-local
    /// allows on the diagnostics it attributes to this file.
    pub fn allowed(&self, line: usize, key: &str) -> bool {
        self.allows.iter().any(|(allow_line, allow_key, cover_end)| {
            allow_key == key && *allow_line <= line && line <= *cover_end
        })
    }
}

/// Last line an allow comment on `allow_line` covers: its own line plus
/// the statement that starts within the next 4 lines (the comment may
/// continue over a few plain lines before code resumes). The statement
/// runs to its terminating `;`, an opening `{` (loop/if headers), or the
/// `}` / `)` that closes an enclosing block — whichever comes first.
fn allow_cover_end(tokens: &[Token], allow_line: usize) -> usize {
    let Some(start) = tokens.iter().position(|t| t.line > allow_line) else { return allow_line };
    if tokens[start].line > allow_line + 4 {
        return allow_line; // allow not directly above code: same-line only
    }
    let mut depth = 0i32;
    let mut last_line = tokens[start].line;
    for token in &tokens[start..] {
        last_line = token.line;
        match token.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => {
                depth -= 1;
                if depth < 0 {
                    return last_line;
                }
            }
            ";" if depth <= 0 => return last_line,
            "{" | "}" if depth <= 0 => return last_line,
            _ => {}
        }
    }
    last_line
}

/// Runs every applicable rule over `source`, returning findings sorted by
/// position. `file` is the workspace-relative path used in diagnostics.
pub fn lint_source(file: &str, source: &str, options: &FileOptions) -> Vec<Diagnostic> {
    let analysis = FileAnalysis::new(source);
    let mut out = Vec::new();

    // L000: malformed allow comments are findings everywhere, test or not —
    // a broken allow silently stops suppressing.
    for (line, message) in &analysis.allow_errors {
        out.push(Diagnostic {
            rule: Rule::L000,
            file: file.to_string(),
            line: *line,
            col: 1,
            message: message.clone(),
        });
    }

    rule_l003_unsafe(file, &analysis, &mut out);
    if !options.is_test_file {
        rule_l001_hash_order(file, &analysis, &mut out);
        if !options.panic_allowed {
            rule_l002_panic(file, &analysis, &mut out);
            rule_l010_swallowed_result(file, &analysis, &mut out);
        }
        if !options.clock_allowed {
            rule_l004_wall_clock(file, &analysis, &mut out);
        }
        if let Some(catalogue) = &options.catalogue {
            rule_l005_counter_catalogue(file, &analysis, catalogue, &mut out);
        }
        rule_l006_condvar(file, &analysis, &mut out);
    }

    out.sort_by_key(|d| (d.line, d.col, d.rule));
    out
}

/// Exposes the file's valid allow sites (used by the determinism
/// cross-reference test).
pub fn collect_allows(source: &str) -> Vec<AllowSite> {
    FileAnalysis::new(source).allow_sites
}

// ---------------------------------------------------------------------------
// Context marking
// ---------------------------------------------------------------------------

/// Marks tokens covered by `#[cfg(test)]` / `#[test]` items: from the
/// attribute to the end of the following brace-balanced item (or the `;`
/// that ends a braceless one).
fn mark_test_regions(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if is_test_attribute(tokens, i) {
            // Find the item's opening brace (skipping further attributes),
            // then its matching close.
            let mut j = i;
            let mut depth = 0usize;
            let mut opened = false;
            while j < tokens.len() {
                match tokens[j].text.as_str() {
                    "{" => {
                        depth += 1;
                        opened = true;
                    }
                    "}" => {
                        depth = depth.saturating_sub(1);
                        if opened && depth == 0 {
                            break;
                        }
                    }
                    ";" if !opened && depth == 0 => break,
                    _ => {}
                }
                j += 1;
            }
            let end = j.min(tokens.len() - 1);
            for flag in &mut mask[i..=end] {
                *flag = true;
            }
            i = end + 1;
        } else {
            i += 1;
        }
    }
    mask
}

/// `#` `[` `cfg` `(` `test` … or `#` `[` `test` `]` at `i`.
fn is_test_attribute(tokens: &[Token], i: usize) -> bool {
    let text = |k: usize| tokens.get(i + k).map(|t| t.text.as_str());
    if text(0) != Some("#") || text(1) != Some("[") {
        return false;
    }
    match text(2) {
        Some("test") => text(3) == Some("]"),
        Some("cfg") => text(3) == Some("(") && text(4) == Some("test"),
        _ => false,
    }
}

/// Marks tokens lexically inside a `loop`/`while`/`for` body.
fn mark_loop_regions(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    // Stack of brace kinds: true = loop body (or nested inside one).
    let mut stack: Vec<bool> = Vec::new();
    // A loop keyword arms the *next* top-level `{`; `;` disarms (e.g. a
    // `while` used inside a macro that never opens a block).
    let mut armed = false;
    let mut paren_depth = 0usize;
    for (i, token) in tokens.iter().enumerate() {
        match token.text.as_str() {
            "loop" | "while" | "for" if token.kind == TokenKind::Ident => armed = true,
            "(" | "[" => paren_depth += 1,
            ")" | "]" => paren_depth = paren_depth.saturating_sub(1),
            "{" => {
                let inside = stack.last().copied().unwrap_or(false);
                let is_loop_body = armed && paren_depth == 0;
                stack.push(inside || is_loop_body);
                if is_loop_body {
                    armed = false;
                }
            }
            "}" => {
                stack.pop();
            }
            ";" if paren_depth == 0 => armed = false,
            _ => {}
        }
        if stack.last().copied().unwrap_or(false) {
            mask[i] = true;
        }
    }
    mask
}

/// Identifiers declared in this file with a `HashMap`/`HashSet` type:
/// `name: …HashMap<…`, `let [mut] name = HashMap::new()`, and the
/// `with_capacity` / `from` constructors.
fn collect_hash_names(tokens: &[Token]) -> std::collections::BTreeSet<String> {
    let mut names = std::collections::BTreeSet::new();
    for i in 0..tokens.len() {
        if tokens[i].kind != TokenKind::Ident {
            continue;
        }
        let name = &tokens[i].text;
        // `name :` followed by a type mentioning HashMap/HashSet within a
        // short window (covers struct fields and annotated lets).
        if tokens.get(i + 1).is_some_and(|t| t.text == ":")
            && tokens.get(i + 2).is_some_and(|t| t.text != ":")
        {
            let window = &tokens[i + 2..tokens.len().min(i + 12)];
            let mut angle = 0i32;
            for t in window {
                match t.text.as_str() {
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    "=" | ";" | ")" | "{" if angle <= 0 => break,
                    "," if angle <= 0 => break,
                    "HashMap" | "HashSet" => {
                        names.insert(name.clone());
                        break;
                    }
                    _ => {}
                }
            }
        }
        // `name = HashMap::new(…)` / `with_capacity(…)` etc.
        if tokens.get(i + 1).is_some_and(|t| t.text == "=")
            && tokens.get(i + 2).is_some_and(|t| t.text == "HashMap" || t.text == "HashSet")
        {
            names.insert(name.clone());
        }
    }
    names
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

/// L001 — iteration over a hash-typed binding. Two shapes:
/// `name.iter()/keys()/…` and `for … in [&[mut]] name {`. A chain ending
/// in an order-insensitive sink is exempt; so is an allow comment.
fn rule_l001_hash_order(file: &str, analysis: &FileAnalysis, out: &mut Vec<Diagnostic>) {
    let tokens = &analysis.lexed.tokens;
    for i in 0..tokens.len() {
        if analysis.in_test[i] {
            continue;
        }
        let token = &tokens[i];
        if token.kind != TokenKind::Ident || !analysis.hash_names.contains(&token.text) {
            continue;
        }
        // Shape 1: `name . <iter-method> (`.
        let method = tokens.get(i + 1).filter(|t| t.text == ".").and_then(|_| tokens.get(i + 2));
        if let Some(m) = method {
            if ITER_METHODS.contains(&m.text.as_str())
                && tokens.get(i + 3).is_some_and(|t| t.text == "(")
            {
                if chain_has_order_insensitive_sink(tokens, i + 3)
                    || analysis.allowed(token.line, "hash-order")
                {
                    continue;
                }
                out.push(Diagnostic {
                    rule: Rule::L001,
                    file: file.to_string(),
                    line: token.line,
                    col: token.col,
                    message: format!(
                        "iteration over hash-ordered `{}` via `.{}()`: order is nondeterministic \
                         across runs; sort the items, use a BTree collection, or justify with \
                         `// lint:allow(hash-order): <why order cannot leak>`",
                        token.text, m.text
                    ),
                });
            }
            continue;
        }
        // Shape 2: `for <pat> in [& [mut]] name {`.
        let mut j = i;
        let mut prefix_ok = true;
        for _ in 0..2 {
            if j == 0 {
                break;
            }
            let prev = &tokens[j - 1];
            if prev.text == "&" || prev.text == "mut" {
                j -= 1;
            } else {
                break;
            }
        }
        if j == 0 || tokens[j - 1].text != "in" {
            prefix_ok = false;
        }
        let body_next = tokens.get(i + 1).is_some_and(|t| t.text == "{");
        if prefix_ok && body_next && !analysis.allowed(token.line, "hash-order") {
            out.push(Diagnostic {
                rule: Rule::L001,
                file: file.to_string(),
                line: token.line,
                col: token.col,
                message: format!(
                    "`for` loop over hash-ordered `{}`: order is nondeterministic across runs; \
                     iterate a sorted view or justify with `// lint:allow(hash-order): …`",
                    token.text
                ),
            });
        }
    }
}

/// Scans the method chain starting at the `(` of the iteration call:
/// does any later `.sink(` in the same statement make order irrelevant?
fn chain_has_order_insensitive_sink(tokens: &[Token], open_paren: usize) -> bool {
    let mut depth = 0i32;
    let mut i = open_paren;
    while i < tokens.len() {
        match tokens[i].text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => {
                depth -= 1;
                if depth < 0 {
                    return false; // chain ended inside an enclosing call
                }
            }
            ";" | "{" if depth == 0 => return false,
            _ if depth == 0
                && tokens[i].kind == TokenKind::Ident
                && ORDER_INSENSITIVE_SINKS.contains(&tokens[i].text.as_str()) =>
            {
                return true;
            }
            _ => {}
        }
        i += 1;
    }
    false
}

/// L002 — `.unwrap()`, `.expect(…)`, `panic!`, `unimplemented!`, `todo!`,
/// and integer-literal slice indexing in non-test code.
fn rule_l002_panic(file: &str, analysis: &FileAnalysis, out: &mut Vec<Diagnostic>) {
    let tokens = &analysis.lexed.tokens;
    for i in 0..tokens.len() {
        if analysis.in_test[i] || tokens[i].kind != TokenKind::Ident {
            continue;
        }
        let token = &tokens[i];
        let preceded_by_dot = i > 0 && tokens[i - 1].text == ".";
        let followed_by_paren = tokens.get(i + 1).is_some_and(|t| t.text == "(");
        let followed_by_bang = tokens.get(i + 1).is_some_and(|t| t.text == "!");
        // `.unwrap()` takes no argument; `.expect("…")` takes a string
        // literal message. Anything else (e.g. a parser's own
        // `self.expect(b'{')` returning Result) is a different method.
        let std_panic_shape = match token.text.as_str() {
            "unwrap" => tokens.get(i + 2).is_some_and(|t| t.text == ")"),
            "expect" => tokens.get(i + 2).is_some_and(|t| t.kind == TokenKind::Str),
            _ => false,
        };
        let finding = match token.text.as_str() {
            "unwrap" | "expect" if preceded_by_dot && followed_by_paren && std_panic_shape => {
                Some(format!(
                    "`.{}()` can panic: return a typed error instead (or justify with \
                     `// lint:allow(panic): <why this cannot fire>`)",
                    token.text
                ))
            }
            "panic" | "unimplemented" | "todo" if followed_by_bang => Some(format!(
                "`{}!` in library code: return a typed error instead (or justify with \
                 `// lint:allow(panic): …`)",
                token.text
            )),
            _ => None,
        };
        if let Some(message) = finding {
            if !analysis.allowed(token.line, "panic") {
                out.push(Diagnostic {
                    rule: Rule::L002,
                    file: file.to_string(),
                    line: token.line,
                    col: token.col,
                    message,
                });
            }
        }
        // Integer-literal indexing `name[0]` — the narrow, high-signal
        // slice-index subset (arbitrary `a[i]` would drown the report).
        if tokens.get(i + 1).is_some_and(|t| t.text == "[")
            && tokens.get(i + 2).is_some_and(|t| t.kind == TokenKind::Number)
            && tokens.get(i + 3).is_some_and(|t| t.text == "]")
            && !analysis.allowed(token.line, "panic")
        {
            out.push(Diagnostic {
                rule: Rule::L002,
                file: file.to_string(),
                line: token.line,
                col: token.col,
                message: format!(
                    "literal index `{}[{}]` can panic on short input: use `.get({})` or justify \
                     with `// lint:allow(panic): …`",
                    token.text,
                    tokens[i + 2].text,
                    tokens[i + 2].text
                ),
            });
        }
    }
}

/// L003 — every `unsafe` keyword needs a `// SAFETY:` comment on the same
/// line or within the 4 lines above. Applies in test code too.
fn rule_l003_unsafe(file: &str, analysis: &FileAnalysis, out: &mut Vec<Diagnostic>) {
    for token in &analysis.lexed.tokens {
        if token.kind == TokenKind::Ident
            && token.text == "unsafe"
            && !analysis.has_safety_comment(token.line)
        {
            out.push(Diagnostic {
                rule: Rule::L003,
                file: file.to_string(),
                line: token.line,
                col: token.col,
                message: "`unsafe` without a `// SAFETY:` comment: state the invariant that makes \
                          this sound in a comment directly above"
                    .to_string(),
            });
        }
    }
}

/// L004 — `Instant::now`/`SystemTime::now`/`UNIX_EPOCH` outside the
/// instrumentation allowlist.
fn rule_l004_wall_clock(file: &str, analysis: &FileAnalysis, out: &mut Vec<Diagnostic>) {
    let tokens = &analysis.lexed.tokens;
    for i in 0..tokens.len() {
        if analysis.in_test[i] || tokens[i].kind != TokenKind::Ident {
            continue;
        }
        for (type_name, fn_name) in CLOCK_PATHS {
            let is_read = tokens[i].text == type_name
                && tokens.get(i + 1).is_some_and(|t| t.text == ":")
                && tokens.get(i + 2).is_some_and(|t| t.text == ":")
                && tokens.get(i + 3).is_some_and(|t| t.text == fn_name);
            if !is_read || analysis.allowed(tokens[i].line, "wall-clock") {
                continue;
            }
            out.push(Diagnostic {
                rule: Rule::L004,
                file: file.to_string(),
                line: tokens[i].line,
                col: tokens[i].col,
                message: format!(
                    "`{type_name}::{fn_name}` in an algorithm crate: wall-clock reads belong \
                     in obs/serve instrumentation; route timing through `muds_obs` spans or \
                     justify with `// lint:allow(wall-clock): <why results cannot depend on \
                     it>`"
                ),
            });
        }
    }
}

/// L005 — string literals registered as obs metric names must appear in
/// the DESIGN.md §7 catalogue.
fn rule_l005_counter_catalogue(
    file: &str,
    analysis: &FileAnalysis,
    catalogue: &std::collections::BTreeSet<String>,
    out: &mut Vec<Diagnostic>,
) {
    let tokens = &analysis.lexed.tokens;
    for i in 0..tokens.len() {
        if analysis.in_test[i] || tokens[i].kind != TokenKind::Ident {
            continue;
        }
        if !METRIC_FNS.contains(&tokens[i].text.as_str()) {
            continue;
        }
        if tokens.get(i + 1).is_none_or(|t| t.text != "(") {
            continue;
        }
        let Some(arg) = tokens.get(i + 2).filter(|t| t.kind == TokenKind::Str) else { continue };
        let name = arg.text.trim_matches('"');
        // Metric names are `prefix.suffix`; other string-first calls that
        // happen to share a function name (e.g. a local `add("x", …)`)
        // won't look like one.
        if !name.contains('.')
            || !name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_')
        {
            continue;
        }
        if !catalogue.contains(name) && !analysis.allowed(arg.line, "counter-name") {
            out.push(Diagnostic {
                rule: Rule::L005,
                file: file.to_string(),
                line: arg.line,
                col: arg.col,
                message: format!(
                    "metric name {name:?} is not in the DESIGN.md §7 counter catalogue: add it \
                     there (names drift silently otherwise) or justify with \
                     `// lint:allow(counter-name): …`"
                ),
            });
        }
    }
}

/// L006 — `.wait(` / `.wait_timeout(` outside a `loop`/`while`/`for`
/// body. `wait_while` is self-guarding and exempt.
fn rule_l006_condvar(file: &str, analysis: &FileAnalysis, out: &mut Vec<Diagnostic>) {
    let tokens = &analysis.lexed.tokens;
    for i in 0..tokens.len() {
        if analysis.in_test[i] || tokens[i].kind != TokenKind::Ident {
            continue;
        }
        let token = &tokens[i];
        if (token.text == "wait" || token.text == "wait_timeout")
            && i > 0
            && tokens[i - 1].text == "."
            && tokens.get(i + 1).is_some_and(|t| t.text == "(")
            && !analysis.in_loop[i]
            && !analysis.allowed(token.line, "condvar-loop")
        {
            out.push(Diagnostic {
                rule: Rule::L006,
                file: file.to_string(),
                line: token.line,
                col: token.col,
                message: format!(
                    "`.{}()` outside a loop: condvar waits return spuriously; re-check the \
                     predicate in a `while`/`loop`, or justify with \
                     `// lint:allow(condvar-loop): <what loops for you>`",
                    token.text
                ),
            });
        }
    }
}

/// L010 — a discarded result in library code: `let _ = call(…);` or a
/// statement-position `.ok();`. The persist write-through path must never
/// drop an I/O error silently; genuinely best-effort discards carry a
/// `// lint:allow(swallowed-result): …` justification instead.
///
/// Two shapes keep the rule high-signal:
/// * `let _ = RHS;` only fires when the RHS contains a call (`(` present) —
///   `let _ = case;` silences an unused binding, not a Result.
/// * `.ok();` only fires in statement position — `let hex = ….ok();` binds
///   the Option and `….ok()?;`/match arms never end in `();`.
fn rule_l010_swallowed_result(file: &str, analysis: &FileAnalysis, out: &mut Vec<Diagnostic>) {
    let tokens = &analysis.lexed.tokens;
    for i in 0..tokens.len() {
        if analysis.in_test[i] {
            continue;
        }
        // `let` `_` `=` … `;` with a call somewhere in the RHS.
        if tokens[i].text == "let"
            && tokens[i].kind == TokenKind::Ident
            && tokens.get(i + 1).is_some_and(|t| t.text == "_")
            && tokens.get(i + 2).is_some_and(|t| t.text == "=")
        {
            let mut depth = 0i32;
            let mut has_call = false;
            for t in &tokens[i + 3..] {
                match t.text.as_str() {
                    "(" => {
                        depth += 1;
                        has_call = true;
                    }
                    "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    ";" if depth <= 0 => break,
                    _ => {}
                }
            }
            if has_call && !analysis.allowed(tokens[i].line, "swallowed-result") {
                out.push(Diagnostic {
                    rule: Rule::L010,
                    file: file.to_string(),
                    line: tokens[i].line,
                    col: tokens[i].col,
                    message: "`let _ = …` discards a call result in library code: handle or \
                              report the error, or justify with \
                              `// lint:allow(swallowed-result): …`"
                        .to_string(),
                });
            }
        }
        // Statement-position `.ok();`.
        if tokens[i].text == "ok"
            && tokens[i].kind == TokenKind::Ident
            && i > 0
            && tokens[i - 1].text == "."
            && tokens.get(i + 1).is_some_and(|t| t.text == "(")
            && tokens.get(i + 2).is_some_and(|t| t.text == ")")
            && tokens.get(i + 3).is_some_and(|t| t.text == ";")
        {
            // Walk back to the statement start; a `let`, `=`, or `return`
            // on the way means the Option is consumed, not discarded.
            let mut consumed = false;
            for t in tokens[..i].iter().rev() {
                match t.text.as_str() {
                    ";" | "{" | "}" => break,
                    "let" | "=" | "return" => {
                        consumed = true;
                        break;
                    }
                    _ => {}
                }
            }
            if !consumed && !analysis.allowed(tokens[i].line, "swallowed-result") {
                out.push(Diagnostic {
                    rule: Rule::L010,
                    file: file.to_string(),
                    line: tokens[i].line,
                    col: tokens[i].col,
                    message: "statement-position `.ok();` swallows a Result in library code: \
                              handle or report the error, or justify with \
                              `// lint:allow(swallowed-result): …`"
                        .to_string(),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Diagnostic> {
        lint_source("test.rs", src, &FileOptions::default())
    }

    fn rules_of(diags: &[Diagnostic]) -> Vec<Rule> {
        diags.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn l001_flags_hash_iteration_and_respects_sinks() {
        let src = "
            use std::collections::HashMap;
            fn f() {
                let mut counts: HashMap<u32, usize> = HashMap::new();
                for (k, v) in &counts { emit(k, v); }
                let total: usize = counts.values().sum();
                let listed: Vec<_> = counts.keys().collect();
            }
        ";
        let diags = run(src);
        assert_eq!(rules_of(&diags), vec![Rule::L001, Rule::L001], "{diags:?}");
        assert_eq!(diags[0].line, 5, "for loop flagged");
        assert_eq!(diags[1].line, 7, "unsorted collect flagged; .sum() exempt");
    }

    #[test]
    fn l001_allow_comment_suppresses() {
        let src = "
            fn f(counts: std::collections::HashMap<u32, u32>) {
                // lint:allow(hash-order): sums are commutative
                for v in &counts { s += v; }
            }
        ";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn l002_flags_panics_and_literal_indexing() {
        let src = "
            fn f(v: &[u8]) -> u8 {
                let x = maybe().unwrap();
                let y = maybe().expect(\"present\");
                if v.is_empty() { panic!(\"empty\"); }
                v[0]
            }
        ";
        let diags = run(src);
        assert_eq!(rules_of(&diags), vec![Rule::L002; 4], "{diags:?}");
        assert!(diags[3].message.contains("v[0]"));
    }

    #[test]
    fn l002_skips_test_code_and_unwrap_or() {
        let src = "
            fn f() -> u32 { maybe().unwrap_or(2) }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { super::f(); maybe().unwrap(); }
            }
        ";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn l003_requires_safety_comment() {
        let bad = "fn f() { unsafe { do_it(); } }";
        let good = "fn f() {\n    // SAFETY: the handler only touches a static atomic.\n    unsafe { do_it(); }\n}";
        assert_eq!(rules_of(&run(bad)), vec![Rule::L003]);
        assert!(run(good).is_empty());
    }

    #[test]
    fn l003_applies_even_in_test_code() {
        let src = "#[cfg(test)] mod tests { fn t() { unsafe { x(); } } }";
        assert_eq!(rules_of(&run(src)), vec![Rule::L003]);
    }

    #[test]
    fn l004_flags_clocks_unless_allowlisted() {
        let src = "fn f() { let t = std::time::Instant::now(); }";
        assert_eq!(rules_of(&run(src)), vec![Rule::L004]);
        let options = FileOptions { clock_allowed: true, ..FileOptions::default() };
        assert!(lint_source("test.rs", src, &options).is_empty());
    }

    #[test]
    fn l005_checks_names_against_catalogue() {
        let src = "fn f() { muds_obs::add(\"pli.requests\", 1); muds_obs::add(\"pli.bogus\", 1); }";
        let options = FileOptions {
            catalogue: Some(["pli.requests".to_string()].into_iter().collect()),
            ..FileOptions::default()
        };
        let diags = lint_source("test.rs", src, &options);
        assert_eq!(rules_of(&diags), vec![Rule::L005], "{diags:?}");
        assert!(diags[0].message.contains("pli.bogus"));
    }

    #[test]
    fn l006_wants_a_loop_around_waits() {
        let bad = "fn f(cv: &Condvar, g: Guard) { let g = cv.wait(g).unwrap_or_else(|p| p.into_inner()); }";
        let good = "fn f(cv: &Condvar, mut g: Guard) { while !*g { g = cv.wait(g).unwrap_or_else(|p| p.into_inner()); } }";
        assert_eq!(rules_of(&run(bad)), vec![Rule::L006]);
        assert!(run(good).is_empty(), "{:?}", run(good));
    }

    #[test]
    fn l000_reports_malformed_allows() {
        let missing = "// lint:allow(hash-order)\nfn f() {}";
        let unknown = "// lint:allow(whatever): because\nfn f() {}";
        assert_eq!(rules_of(&run(missing)), vec![Rule::L000]);
        assert_eq!(rules_of(&run(unknown)), vec![Rule::L000]);
    }

    #[test]
    fn l010_flags_discarded_results() {
        let bad = "
            fn f(w: &mut W) {
                let _ = w.write(b\"x\");
                w.send().ok();
            }
        ";
        let diags = run(bad);
        assert_eq!(rules_of(&diags), vec![Rule::L010, Rule::L010], "{diags:?}");
        assert_eq!((diags[0].line, diags[1].line), (3, 4));
    }

    #[test]
    fn l010_skips_bindings_returns_and_non_calls() {
        let good = "
            fn f(w: &mut W) -> Option<u32> {
                let _ = unused_variable;
                let value = w.parse().ok();
                if let Some(v) = w.peek().ok() { use_it(v); }
                return w.count().ok();
            }
        ";
        assert!(run(good).is_empty(), "{:?}", run(good));
    }

    #[test]
    fn l010_respects_allow_and_test_and_binary_context() {
        let allowed = "
            fn f(w: &mut W) {
                // lint:allow(swallowed-result): best-effort trace write
                let _ = w.write(b\"x\");
            }
        ";
        assert!(run(allowed).is_empty(), "{:?}", run(allowed));
        let in_test = "#[cfg(test)] mod tests { fn t(w: &mut W) { let _ = w.write(b\"x\"); } }";
        assert!(run(in_test).is_empty(), "{:?}", run(in_test));
        // Binaries (panic_allowed contexts) report errors by exiting; the
        // discard rule is library-code hygiene like L002.
        let options = FileOptions { panic_allowed: true, ..FileOptions::default() };
        let diags =
            lint_source("src/main.rs", "fn f(w: &mut W) { let _ = w.write(b\"x\"); }", &options);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn strings_and_comments_never_fire_rules() {
        let src = "
            fn f() -> String {
                // calling .unwrap() here would panic!
                format!(\"docs say .unwrap() and panic! and unsafe\")
            }
        ";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn diagnostics_render_with_spans() {
        let diags = run("fn f() { x.unwrap(); }");
        assert_eq!(diags[0].render(), "test.rs:1:12: L002 [panic-in-library] `.unwrap()` can panic: return a typed error instead (or justify with `// lint:allow(panic): <why this cannot fire>`)");
    }
}

//! Graph input/output: the **text edge list**, one `src dst [weight]` triple
//! per line, `#`- or `%`-prefixed comment lines ignored. This matches the
//! format of SNAP and KONECT downloads, so real datasets can be dropped in
//! if available. It is the one input format, whatever a file's extension;
//! the cache of a parsed graph is the on-disk CSR of [`crate::ingest`].
//!
//! # The text parser
//!
//! The file is read whole and parsed as bytes: one pass that recognises
//! `[blank] digits blank+ digits [blank+ digits] [blank] \n` and turns it
//! into an [`Edge`] with no `String`, no token iterator and no intermediate
//! copy of the edges. Every line that is anything else — a comment, a
//! leading `+`, a fourth token, a value past `u32::MAX`, a missing field, a
//! byte ≥ 0x80 — goes to `parse_line`, the line-at-a-time routine built
//! on `str::trim` / `split_whitespace` / `str::parse`, which either yields
//! the edge (Unicode blanks between fields) or the error with its 1-based
//! line number. What is accepted and what each error says is therefore
//! defined by that routine alone; the byte path is an accelerator for the
//! lines real files consist of, and a property test holds the two to the
//! same result on generated bytes.
//!
//! [`crate::ingest::ingest_file`] parses on several threads (at most eight
//! per available core; a larger count falls back to one per core): the
//! buffer is cut near `len · i / threads`, every cut is moved forward to the
//! next line start, the pieces are parsed independently and concatenated in
//! order. When a piece fails, the buffer is parsed again on one thread, so
//! the error is the earliest line's, with its line number in the whole file.
//!
//! Memory: the file's bytes, the edges (12 B each, capacity = the piece's
//! line count) and, on the multi-threaded path, one more copy of the edges
//! while the pieces are concatenated.

use crate::edgelist::EdgeList;
use crate::types::{Edge, EdgeWeight, VertexId};
use crate::{on_scoped_threads, GraphError, Result};
use std::io::{BufWriter, Write};
use std::path::Path;

/// Parses a whole text edge list held in memory on up to `threads` threads.
///
/// A count above eight per available core falls back to the available
/// parallelism, as a campaign's worker count does: every cut is one step of
/// a loop and every non-empty piece one OS thread, so an unbounded count
/// (`usize::MAX`) would never return and a large one would start a thread
/// per line.
pub(crate) fn parse_text_edge_list(data: &[u8], threads: usize) -> Result<EdgeList> {
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = match threads {
        oversized if oversized > available.saturating_mul(8) => available,
        threads => threads.max(1),
    };
    parse_text_at_cuts(data, (1..threads).map(|i| data.len() / threads * i))
}

/// Parses `data` in pieces that start at the first line start at or after
/// each of `cuts` (ascending byte offsets), one thread per piece.
fn parse_text_at_cuts(data: &[u8], cuts: impl Iterator<Item = usize>) -> Result<EdgeList> {
    let mut pieces: Vec<&[u8]> = Vec::new();
    let mut start = 0;
    for cut in cuts {
        let cut = cut.clamp(start, data.len());
        // A piece ends with the line that contains byte `cut - 1`.
        let end = match cut.checked_sub(1) {
            Some(last) => line_end(data, last).map_or(data.len(), |newline| newline + 1),
            None => 0,
        };
        if end > start {
            pieces.push(&data[start..end]);
            start = end;
        }
    }
    if start < data.len() || pieces.is_empty() {
        pieces.push(&data[start..]);
    }

    let parsed = on_scoped_threads(pieces.iter().copied(), parse_text);
    let parts = match parsed.into_iter().collect::<Result<Vec<TextEdges>>>() {
        Ok(parts) => parts,
        Err(error) if pieces.len() == 1 => return Err(error),
        // Pieces count lines from their own start; one more pass over the
        // whole buffer finds the earliest bad line under its number in the
        // file.
        Err(_) => return parse_text(data).map(TextEdges::into_edge_list),
    };
    let total: usize = parts.iter().map(|part| part.edges.len()).sum();
    let mut parts = parts.into_iter();
    let mut all = parts.next().expect("at least one piece");
    all.edges.reserve_exact(total - all.edges.len());
    for part in parts {
        all.max_vertex = all.max_vertex.max(part.max_vertex);
        all.edges.extend_from_slice(&part.edges);
    }
    Ok(all.into_edge_list())
}

/// The edges of one piece of text and the largest endpoint among them.
struct TextEdges {
    edges: Vec<Edge>,
    max_vertex: VertexId,
}

impl TextEdges {
    fn into_edge_list(self) -> EdgeList {
        let vertex_count = if self.edges.is_empty() {
            0
        } else {
            u64::from(self.max_vertex) + 1
        };
        EdgeList::from_parts(vertex_count, self.edges)
    }
}

/// Index of the first `\n` at or after `from`.
fn line_end(data: &[u8], from: usize) -> Option<usize> {
    data[from..]
        .iter()
        .position(|&b| b == b'\n')
        .map(|at| from + at)
}

/// The ASCII bytes `char::is_whitespace` accepts — space and U+0009..=U+000D
/// (`u8::is_ascii_whitespace` leaves out VT) — other than the line feed.
#[inline(always)]
fn is_blank(b: u8) -> bool {
    b == b' ' || b == b'\t' || (0x0b..=b'\r').contains(&b)
}

/// The one-pass byte parser over a run of whole lines.
fn parse_text(data: &[u8]) -> Result<TextEdges> {
    // One slot per line, so the vector never grows. Counted in `u8` lanes,
    // 255 bytes at a time, which is what lets the compiler vectorise it (a
    // `usize` accumulator runs at a seventh of the speed).
    let line_feeds: usize = data
        .chunks(255)
        .map(|chunk| chunk.iter().map(|&b| u8::from(b == b'\n')).sum::<u8>() as usize)
        .sum();
    let mut edges: Vec<Edge> = Vec::with_capacity(line_feeds + 1);
    let mut max_vertex: VertexId = 0;
    let mut pos = 0;
    let mut line_no = 0;
    while pos < data.len() {
        let edge = match plain_line(data, pos) {
            Some((edge, next)) => {
                pos = next;
                edge
            }
            None => {
                let end = line_end(data, pos).unwrap_or(data.len());
                let edge = parse_line(&data[pos..end], line_no)?;
                pos = end + 1;
                edge
            }
        };
        if let Some(edge) = edge {
            max_vertex = max_vertex.max(edge.src).max(edge.dst);
            edges.push(edge);
        }
        line_no += 1;
    }
    Ok(TextEdges { edges, max_vertex })
}

/// Recognises the line starting at `pos` when it is blank or
/// `src dst [weight]` in plain ASCII decimal: returns what it holds and the
/// position after its line feed. `None` means "not that simple", never
/// "malformed" — the caller hands the line to [`parse_line`].
#[inline(always)]
fn plain_line(data: &[u8], pos: usize) -> Option<(Option<Edge>, usize)> {
    // Reading past the end yields a line feed: the last line needs none.
    let at = |i: usize| data.get(i).copied().unwrap_or(b'\n');
    let skip_blanks = |mut i: usize| {
        while is_blank(at(i)) {
            i += 1;
        }
        i
    };
    // The digits at `start` as a value that fits `u32`, and where they end.
    // What may follow them is for the caller to judge: below, only a blank,
    // the line end or (after blanks) the next field's digits get through.
    let field = |start: usize| -> Option<(u32, usize)> {
        let mut i = start;
        let mut value: u64 = 0;
        loop {
            let digit = at(i).wrapping_sub(b'0');
            if digit > 9 {
                break;
            }
            value = value * 10 + u64::from(digit);
            if value > u64::from(u32::MAX) {
                return None;
            }
            i += 1;
        }
        (i > start).then_some((value as u32, i))
    };

    let i = skip_blanks(pos);
    if at(i) == b'\n' {
        return Some((None, i + 1));
    }
    let (src, i) = field(i)?;
    let (dst, i) = field(skip_blanks(i))?;
    let i = skip_blanks(i);
    if at(i) == b'\n' {
        return Some((Some(Edge::new(src, dst)), i + 1));
    }
    let (weight, i) = field(i)?;
    let i = skip_blanks(i);
    (at(i) == b'\n').then_some((Some(Edge::weighted(src, dst, weight)), i + 1))
}

/// The line-at-a-time routine: what one line (without its line feed) means.
/// `line_no` is 0-based; messages print it 1-based.
fn parse_line(line: &[u8], line_no: usize) -> Result<Option<Edge>> {
    // The error `BufRead::lines` reports for such a line.
    let line = std::str::from_utf8(line).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "stream did not contain valid UTF-8",
        )
    })?;
    parse_line_str(line, line_no)
}

fn parse_line_str(line: &str, line_no: usize) -> Result<Option<Edge>> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
        return Ok(None);
    }
    let mut parts = trimmed.split_whitespace();
    let src: VertexId = parse_field(parts.next(), line_no, "src")?;
    let dst: VertexId = parse_field(parts.next(), line_no, "dst")?;
    let weight: EdgeWeight = match parts.next() {
        Some(text) => text.parse().map_err(|_| {
            GraphError::Format(format!("line {}: invalid weight '{text}'", line_no + 1))
        })?,
        None => 1,
    };
    Ok(Some(Edge::weighted(src, dst, weight)))
}

fn parse_field(field: Option<&str>, line_no: usize, name: &str) -> Result<u32> {
    let text = field
        .ok_or_else(|| GraphError::Format(format!("line {}: missing {name} field", line_no + 1)))?;
    text.parse()
        .map_err(|_| GraphError::Format(format!("line {}: invalid {name} '{text}'", line_no + 1)))
}

/// Writes a text edge list to a writer (weights included only when ≠ 1).
///
/// # Errors
///
/// Returns [`GraphError::Io`] on write failures.
pub fn write_text_edge_list<W: Write>(writer: W, edges: &EdgeList) -> Result<()> {
    let mut writer = BufWriter::new(writer);
    writeln!(
        writer,
        "# grasp-graph edge list: {} vertices, {} edges",
        edges.vertex_count(),
        edges.edge_count()
    )?;
    for e in edges.iter() {
        if e.weight == 1 {
            writeln!(writer, "{} {}", e.src, e.dst)?;
        } else {
            writeln!(writer, "{} {} {}", e.src, e.dst, e.weight)?;
        }
    }
    writer.flush()?;
    Ok(())
}

/// Reads a text edge list from a file.
///
/// # Errors
///
/// Propagates I/O and format errors.
pub fn read_edge_list_file<P: AsRef<Path>>(path: P) -> Result<EdgeList> {
    read_edge_list_file_on(path.as_ref(), 1)
}

/// [`read_edge_list_file`] with the parser spread over `threads` threads.
pub(crate) fn read_edge_list_file_on(path: &Path, threads: usize) -> Result<EdgeList> {
    parse_text_edge_list(&std::fs::read(path)?, threads)
}

/// Writes a text edge list to a file.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_edge_list_file<P: AsRef<Path>>(path: P, edges: &EdgeList) -> Result<()> {
    write_text_edge_list(std::fs::File::create(path)?, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn sample_edges() -> EdgeList {
        let mut el = EdgeList::new(5);
        el.push(0, 1).unwrap();
        el.push_weighted(1, 2, 7).unwrap();
        el.push(4, 0).unwrap();
        el
    }

    #[test]
    fn an_oversized_thread_count_still_parses() {
        // Two lines make at most two pieces, so at most two threads start.
        let edges = parse_text_edge_list(b"0 1\n1 2\n", usize::MAX).unwrap();
        assert_eq!(edges.edges(), &[Edge::new(0, 1), Edge::new(1, 2)]);
    }

    #[test]
    fn text_round_trip() {
        let edges = sample_edges();
        let mut buf = Vec::new();
        write_text_edge_list(&mut buf, &edges).unwrap();
        let parsed = parse_text_edge_list(&buf[..], 1).unwrap();
        assert_eq!(parsed.edge_count(), 3);
        assert_eq!(parsed.edges()[1].weight, 7);
        assert_eq!(parsed.vertex_count(), 5);
    }

    #[test]
    fn text_parser_skips_comments_and_blanks() {
        let text = "# comment\n% another\n\n0 1\n2 3 9\n";
        let parsed = parse_text_edge_list(text.as_bytes(), 1).unwrap();
        assert_eq!(parsed.edge_count(), 2);
        assert_eq!(parsed.edges()[1].weight, 9);
    }

    #[test]
    fn text_parser_reports_malformed_lines() {
        let missing = parse_text_edge_list("0\n".as_bytes(), 1);
        assert!(matches!(missing, Err(GraphError::Format(_))));
        let junk = parse_text_edge_list("a b\n".as_bytes(), 1);
        assert!(matches!(junk, Err(GraphError::Format(_))));
        let bad_weight = parse_text_edge_list("0 1 x\n".as_bytes(), 1);
        assert!(matches!(bad_weight, Err(GraphError::Format(_))));
    }

    #[test]
    fn empty_text_gives_empty_list() {
        let parsed = parse_text_edge_list("# nothing here\n".as_bytes(), 1).unwrap();
        assert_eq!(parsed.edge_count(), 0);
        assert_eq!(parsed.vertex_count(), 0);
    }

    #[test]
    fn file_round_trip_both_formats() {
        let dir = std::env::temp_dir().join("grasp_graph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let edges = sample_edges();

        // Text whatever the extension: a `.bin` name no longer picks a
        // format.
        for name in ["edges.txt", "edges.bin"] {
            let path = dir.join(name);
            write_edge_list_file(&path, &edges).unwrap();
            assert!(std::fs::read(&path).unwrap().starts_with(b"# grasp-graph"));
            assert_eq!(read_edge_list_file(&path).unwrap(), edges, "{name}");
        }
    }

    /// The parser this module had before the byte-level one — `BufRead::lines`
    /// over the reader, one `String` per line, the edges pushed one by one
    /// through the checked `push_edge` — kept as the oracle.
    fn read_text_edge_list_by_lines<R: Read>(reader: R) -> Result<EdgeList> {
        use std::io::BufRead;
        let reader = std::io::BufReader::new(reader);
        let mut edges: Vec<Edge> = Vec::new();
        let mut max_vertex: u64 = 0;
        for (line_no, line) in reader.lines().enumerate() {
            let line = line?;
            if let Some(edge) = parse_line_str(&line, line_no)? {
                max_vertex = max_vertex.max(u64::from(edge.src)).max(u64::from(edge.dst));
                edges.push(edge);
            }
        }
        let vertex_count = if edges.is_empty() { 0 } else { max_vertex + 1 };
        let mut list = EdgeList::with_capacity(vertex_count, edges.len());
        for e in edges {
            list.push_edge(e)?;
        }
        Ok(list)
    }

    /// A result in comparable form: the list, or the error's variant (and
    /// I/O kind) with its full message.
    fn outcome(result: Result<EdgeList>) -> std::result::Result<EdgeList, String> {
        result.map_err(|e| match &e {
            GraphError::Io(io) => format!("Io({:?}): {e}", io.kind()),
            GraphError::Format(_) => format!("Format: {e}"),
            other => format!("unexpected variant {other:?}"),
        })
    }

    fn edges_of(triples: &[(u32, u32, u32)]) -> std::result::Result<EdgeList, String> {
        Ok(triples
            .iter()
            .map(|&(s, d, w)| Edge::weighted(s, d, w))
            .collect())
    }

    /// The corner cases of the text format, spelled out (this is the table
    /// in `docs/datasets.md`). Each is also held against the oracle.
    #[test]
    fn text_format_corner_cases() {
        let format = |msg: &str| Err(format!("Format: malformed graph data: {msg}"));
        let bad_utf8 =
            || Err("Io(InvalidData): i/o error: stream did not contain valid UTF-8".to_owned());
        let cases: Vec<(&[u8], std::result::Result<EdgeList, String>)> = vec![
            (b"1 2\n", edges_of(&[(1, 2, 1)])),
            (b"1 2", edges_of(&[(1, 2, 1)])),
            (b"1\t2\t3\r\n4 5\r\n", edges_of(&[(1, 2, 3), (4, 5, 1)])),
            (b"  1 \x0b 2 \x0c\n", edges_of(&[(1, 2, 1)])),
            (b"1 2\r3 4\n", edges_of(&[(1, 2, 3)])),
            (b"+1 002\n", edges_of(&[(1, 2, 1)])),
            (b"# c\n% c\n\n \t\n1 2\n", edges_of(&[(1, 2, 1)])),
            (b"1 2 3 junk 5\n", edges_of(&[(1, 2, 3)])),
            (b"4294967295 0\n", edges_of(&[(u32::MAX, 0, 1)])),
            ("1\u{a0}2\n".as_bytes(), edges_of(&[(1, 2, 1)])),
            ("1\u{2003}2\u{2003}3\n".as_bytes(), edges_of(&[(1, 2, 3)])),
            (b"", Ok(EdgeList::new(0))),
            (b"# only a comment", Ok(EdgeList::new(0))),
            (
                b"4294967296 0\n",
                format("line 1: invalid src '4294967296'"),
            ),
            (b"0 1\n7\n", format("line 2: missing dst field")),
            (b"0 1\n\n x 2\n", format("line 3: invalid src 'x'")),
            (b"-1 2\n", format("line 1: invalid src '-1'")),
            (b"1x 2\n", format("line 1: invalid src '1x'")),
            (b"1 2\x1c3\n", format("line 1: invalid dst '2\u{1c}3'")),
            (b"1 2 3\x004\n", format("line 1: invalid weight '3\x004'")),
            (b"1 2.5\n", format("line 1: invalid dst '2.5'")),
            (b"1 2 x\n", format("line 1: invalid weight 'x'")),
            (b"1 + 3\n", format("line 1: invalid dst '+'")),
            (b"1 2\n3 \xff\n", bad_utf8()),
            (b"1 2\n#\xff\n", bad_utf8()),
            (b"1 2 3 \xc3\n", bad_utf8()),
            // The earlier line's error wins over a later undecodable line.
            (b"1\n\xff\n", format("line 1: missing dst field")),
        ];
        for (text, expected) in cases {
            let shown = String::from_utf8_lossy(text).into_owned();
            assert_eq!(
                outcome(parse_text_edge_list(text, 1)),
                expected,
                "{shown:?}"
            );
            assert_eq!(
                outcome(read_text_edge_list_by_lines(text)),
                expected,
                "oracle on {shown:?}"
            );
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        const NUMBERS: &[&str] = &[
            "0",
            "1",
            "7",
            "12",
            "345",
            "65535",
            "007",
            "+3",
            "4294967295",
            "4294967296",
            "00000000000000000000001",
            "99999999999999999999",
            "-1",
            "1e3",
            "2.5",
            "+",
        ];
        const BLANKS: &[&str] = &[
            " ", " ", " ", "\t", "  ", " \t ", "\x0b", "\x0c", "\r", "\u{a0}", "\u{2003}", "\u{85}",
        ];
        const EDGES: &[&str] = &["", "", "", " ", "\t", "\r", "\u{a0}"];
        const LINE_ENDS: &[&str] = &["\n", "\n", "\n", "\r\n", "\n\n", ""];
        const SOUP: &[&[u8]] = &[
            b"#",
            b"%",
            b"# 1 2",
            b"x",
            b"junk",
            b"\0",
            b"\x1c",
            b"\xff",
            b"\xc3",
            b"\xe2\x80",
            b" ",
            b"\n",
            b"1",
            b"23",
            "\u{e9}".as_bytes(),
        ];

        /// One line of text, its shape decided by the digits of `word`:
        /// mostly `src dst [weight [junk]]` with every part drawn from the
        /// tables above, sometimes a comment, sometimes fragment soup.
        fn line_from(word: u64) -> Vec<u8> {
            let mut rest = word;
            let mut pick = |n: usize| {
                let choice = (rest % n as u64) as usize;
                rest /= n as u64;
                choice
            };
            let mut line = Vec::new();
            match pick(32) {
                0 => {
                    for _ in 0..1 + pick(4) {
                        line.extend_from_slice(SOUP[pick(SOUP.len())]);
                    }
                }
                1 | 2 => {
                    line.extend_from_slice(EDGES[pick(EDGES.len())].as_bytes());
                    line.extend_from_slice(SOUP[pick(3)]);
                    line.extend_from_slice(SOUP[pick(SOUP.len())]);
                }
                shape => {
                    line.extend_from_slice(EDGES[pick(EDGES.len())].as_bytes());
                    // Two or three fields most of the time; one and four too.
                    let fields = match shape {
                        3 => 1,
                        4..=6 => 4,
                        _ => 2 + shape % 2,
                    };
                    for field in 0..fields {
                        if field > 0 {
                            line.extend_from_slice(BLANKS[pick(BLANKS.len())].as_bytes());
                        }
                        // Mostly the numbers that parse.
                        let number = if pick(24) == 0 {
                            pick(NUMBERS.len())
                        } else {
                            pick(9)
                        };
                        line.extend_from_slice(NUMBERS[number].as_bytes());
                    }
                    line.extend_from_slice(EDGES[pick(EDGES.len())].as_bytes());
                }
            }
            line.extend_from_slice(LINE_ENDS[pick(LINE_ENDS.len())].as_bytes());
            line
        }

        fn arb_text() -> impl Strategy<Value = Vec<u8>> {
            proptest::collection::vec(0u64..=u64::MAX, 0..24)
                .prop_map(|words| words.into_iter().flat_map(line_from).collect())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// On arbitrary bytes the byte parser and the line-based one
            /// agree: the same list, or the same error variant and message
            /// (line number included).
            #[test]
            fn byte_parser_matches_the_line_parser(text in arb_text()) {
                prop_assert_eq!(
                    outcome(parse_text_edge_list(&text[..], 1)),
                    outcome(read_text_edge_list_by_lines(&text[..]))
                );
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Wherever the buffer is cut, and for every thread count, the
            /// multi-threaded parse gives what the single-threaded one
            /// gives: the list, or the earliest line's error.
            #[test]
            fn parallel_parse_matches_serial(text in arb_text()) {
                let serial = outcome(parse_text_edge_list(&text, 1));
                for threads in 1..=8 {
                    prop_assert_eq!(
                        outcome(parse_text_edge_list(&text, threads)),
                        serial.clone(),
                        "threads={}", threads
                    );
                }
                for cut in 0..=text.len() {
                    prop_assert_eq!(
                        outcome(parse_text_at_cuts(&text, std::iter::once(cut))),
                        serial.clone(),
                        "cut at {}", cut
                    );
                }
            }
        }
    }
}

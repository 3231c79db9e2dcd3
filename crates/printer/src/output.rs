//! Rendering route tables as text.
//!
//! "Output from pathalias is a simple linear file, in the UNIX
//! tradition." One line per visible route: optionally the cost, then
//! the host name, then the format string, tab separated — exactly the
//! layout of the paper's worked example.

use crate::route::{RouteRef, RouteTable};
use crate::traverse::for_each_route;
use pathalias_graph::Cost;
use pathalias_mapper::ShortestPathTree;
use std::cmp::Ordering;
use std::io::{self, Write};

/// Bytes of lines [`write_tree`] gathers before each write to its sink.
const WRITE_CHUNK: usize = 64 * 1024;

/// Output ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Sort {
    /// Ascending cost, ties by name — the order of the paper's example.
    #[default]
    ByCost,
    /// Lexicographic by host name (handy for diffing maps).
    ByName,
}

/// Output options.
#[derive(Debug, Clone, Copy, Default)]
pub struct PrintOptions {
    /// Prefix each line with the path cost (the paper's example shows
    /// costs; the production tool's default omitted them).
    pub with_costs: bool,
    /// Line ordering.
    pub sort: Sort,
    /// Include hidden entries (networks, subdomains, private hosts),
    /// marked with a leading `#` — a debugging aid.
    pub include_hidden: bool,
}

/// Renders the table to a string: what [`render_tree`] prints for the
/// tree the table was computed from.
pub fn render(table: &RouteTable, opts: &PrintOptions) -> String {
    let mut lines = Lines::with_capacity(table.entries.len());
    for (at, r) in (0u32..).zip(&table.entries) {
        lines.push(&r.view(), at, opts);
    }
    into_string(|out| lines.write(opts, out))
}

/// Renders the routes of `tree` to a string: what [`write_tree`]
/// writes.
pub fn render_tree(tree: &ShortestPathTree, opts: &PrintOptions) -> String {
    into_string(|out| write_tree(tree, opts, out))
}

/// Writes the route file of `tree` to `out` straight from the
/// traversal, without building a [`RouteTable`]: each printed route's
/// name and route are copied into one arena as the walk hands them
/// out, the lines are sorted as fixed-size rows, and written out with
/// byte copies, 64 KiB at a time, then `out` is flushed. Byte for byte
/// what [`render`] prints for `compute_routes(tree)`.
pub fn write_tree(
    tree: &ShortestPathTree,
    opts: &PrintOptions,
    out: &mut impl Write,
) -> io::Result<()> {
    let mut lines = Lines::with_capacity(tree.mapped_count());
    for_each_route(tree, |r| lines.push(&r, r.node.raw(), opts));
    lines.write(opts, out)
}

/// What `write` puts into a byte vector, as a string.
fn into_string(write: impl FnOnce(&mut Vec<u8>) -> io::Result<()>) -> String {
    let mut out = Vec::new();
    write(&mut out).expect("a Vec takes every write");
    String::from_utf8(out).expect("names and routes are UTF-8")
}

/// Routes on their way to the page: every printed route's name and
/// route back to back in one arena, and a row per line locating them.
struct Lines {
    text: String,
    rows: Vec<Row>,
}

/// One output line, fixed size, so sorting moves no text.
#[derive(Debug, Clone, Copy)]
struct Row {
    cost: Cost,
    /// The name's first eight bytes, big-endian and zero-padded: most
    /// name comparisons end here without reading the arena.
    prefix: u64,
    /// Where the name starts in the arena; the route follows it.
    off: usize,
    name_len: u32,
    route_len: u32,
    /// The last tie-break: the route's place in the table (which is in
    /// node order), or its node.
    tie: u32,
    hidden: bool,
}

impl Lines {
    fn with_capacity(routes: usize) -> Lines {
        Lines {
            text: String::new(),
            rows: Vec::with_capacity(routes),
        }
    }

    /// Adds `r`, if `opts` prints it.
    fn push(&mut self, r: &RouteRef<'_>, tie: u32, opts: &PrintOptions) {
        let hidden = !r.kind.is_visible();
        if hidden && !opts.include_hidden {
            return;
        }
        let mut head = [0u8; 8];
        let n = r.name.len().min(8);
        head[..n].copy_from_slice(&r.name.as_bytes()[..n]);
        let len = |text: &str| u32::try_from(text.len()).expect("a name or route under 4 GiB");
        self.rows.push(Row {
            cost: r.cost,
            prefix: u64::from_be_bytes(head),
            off: self.text.len(),
            name_len: len(r.name),
            route_len: len(r.route),
            tie,
            hidden,
        });
        self.text.push_str(r.name);
        self.text.push_str(r.route);
    }

    fn name(&self, row: &Row) -> &str {
        &self.text[row.off..row.off + row.name_len as usize]
    }

    fn route(&self, row: &Row) -> &str {
        let at = row.off + row.name_len as usize;
        &self.text[at..at + row.route_len as usize]
    }

    /// Name order: the prefixes decide unless they are equal.
    fn by_name(&self, a: &Row, b: &Row) -> Ordering {
        a.prefix
            .cmp(&b.prefix)
            .then_with(|| self.name(a).cmp(self.name(b)))
    }

    /// Sorts the rows — by (cost, name, tie), or (name, tie) under
    /// [`Sort::ByName`] — and writes one line per row to `out`: an
    /// optional `# ` marker for a hidden entry, the cost when asked
    /// for, then the name and the route, tab separated. Lines gather
    /// in a buffer of about [`WRITE_CHUNK`] bytes between writes.
    fn write(mut self, opts: &PrintOptions, out: &mut impl Write) -> io::Result<()> {
        let mut rows = std::mem::take(&mut self.rows);
        match opts.sort {
            Sort::ByCost => rows.sort_unstable_by(|a, b| {
                (a.cost.cmp(&b.cost))
                    .then_with(|| self.by_name(a, b))
                    .then(a.tie.cmp(&b.tie))
            }),
            Sort::ByName => {
                rows.sort_unstable_by(|a, b| self.by_name(a, b).then(a.tie.cmp(&b.tie)))
            }
        }
        let mut buf = Vec::with_capacity(WRITE_CHUNK);
        for row in &rows {
            if row.hidden {
                buf.extend_from_slice(b"# ");
            }
            if opts.with_costs {
                push_decimal(&mut buf, row.cost);
                buf.push(b'\t');
            }
            buf.extend_from_slice(self.name(row).as_bytes());
            buf.push(b'\t');
            buf.extend_from_slice(self.route(row).as_bytes());
            buf.push(b'\n');
            if buf.len() >= WRITE_CHUNK {
                out.write_all(&buf)?;
                buf.clear();
            }
        }
        out.write_all(&buf)?;
        out.flush()
    }
}

/// Appends `n` in decimal.
fn push_decimal(out: &mut Vec<u8>, mut n: Cost) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&buf[at..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute_routes;
    use pathalias_mapper::{map, MapOptions};
    use pathalias_parser::parse;

    fn table(text: &str, source: &str) -> RouteTable {
        let g = parse(text).unwrap();
        let s = g.try_node(source).unwrap();
        let tree = map(&g, s, &MapOptions::default()).unwrap();
        compute_routes(&tree)
    }

    #[test]
    fn cost_sorted_with_costs() {
        let t = table("a b(20)\na c(10)\n", "a");
        let s = render(
            &t,
            &PrintOptions {
                with_costs: true,
                ..PrintOptions::default()
            },
        );
        assert_eq!(s, "0\ta\t%s\n10\tc\tc!%s\n20\tb\tb!%s\n");
    }

    #[test]
    fn name_sorted_without_costs() {
        let t = table("a b(20)\na c(10)\n", "a");
        let s = render(
            &t,
            &PrintOptions {
                sort: Sort::ByName,
                ..PrintOptions::default()
            },
        );
        assert_eq!(s, "a\t%s\nb\tb!%s\nc\tc!%s\n");
    }

    #[test]
    fn equal_costs_tie_by_name() {
        let t = table("a x(10), m(10)\n", "a");
        let s = render(
            &t,
            &PrintOptions {
                with_costs: true,
                ..PrintOptions::default()
            },
        );
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[1].contains("\tm\t"));
        assert!(lines[2].contains("\tx\t"));
    }

    #[test]
    fn hidden_entries_marked() {
        let t = table("a NET(5)\nNET = {x}(5)\n", "a");
        let normal = render(&t, &PrintOptions::default());
        assert!(!normal.contains("NET\t"), "{normal}");
        let debug = render(
            &t,
            &PrintOptions {
                include_hidden: true,
                ..PrintOptions::default()
            },
        );
        assert!(debug.contains("# NET\t"), "{debug}");
    }

    /// `text` mapped from `source` and rendered both ways, which must
    /// agree.
    fn rendered(text: &str, source: &str, opts: &PrintOptions) -> String {
        let g = parse(text).unwrap();
        let tree = map(&g, g.try_node(source).unwrap(), &MapOptions::default()).unwrap();
        let from_tree = render_tree(&tree, opts);
        assert_eq!(from_tree, render(&compute_routes(&tree), opts));
        from_tree
    }

    const COSTS: PrintOptions = PrintOptions {
        with_costs: true,
        sort: Sort::ByCost,
        include_hidden: false,
    };

    #[test]
    fn a_percent_operator_splices_into_the_first_marker() {
        // A known defect, pinned as it prints: the `%` operator puts a
        // literal `%` beside the marker, and `c` is spliced into the
        // first `%s` of `b%sun%%s`, the `%` and `s` of `%sun`.
        let text = "a b%(10)\nb sun%(10)\nsun c(10)\n";
        assert_eq!(
            rendered(text, "a", &COSTS),
            "0\ta\t%s\n10\tb\tb%%s\n20\tsun\tb%sun%%s\n30\tc\tbc!%sun%%s\n"
        );
    }

    #[test]
    fn a_name_printed_twice_prints_both_lines() {
        // `.edu`'s member `caip` and the host named `caip.edu` print
        // under one name, at their own costs.
        let text = "hub gw(10), caip.edu(20)\ngw .edu(0)\n.edu = {caip}(0)\n";
        assert_eq!(
            rendered(text, "hub", &COSTS),
            "0\thub\t%s\n10\t.edu\tgw!%s\n10\tcaip.edu\tgw!caip.edu!%s\n\
             10\tgw\tgw!%s\n20\tcaip.edu\tcaip.edu!%s\n"
        );
    }

    #[test]
    fn ties_fall_to_node_order_in_both_renderers() {
        // Two `caip.edu` lines at one cost, and hidden entries under
        // `-n`: the tree renderer breaks every tie as the table does.
        let text =
            "hub gw(10), caip.edu(10), NET(5)\ngw .edu(0)\n.edu = {caip}(0)\nNET = {x, y}(5)\n";
        for with_costs in [false, true] {
            for sort in [Sort::ByCost, Sort::ByName] {
                for include_hidden in [false, true] {
                    let opts = PrintOptions {
                        with_costs,
                        sort,
                        include_hidden,
                    };
                    rendered(text, "hub", &opts);
                }
            }
        }
    }

    #[test]
    fn writing_spans_many_chunks_and_stops_at_a_failed_write() {
        // A star whose route file is several write chunks long.
        let mut text = String::from("hub ");
        let arms: Vec<String> = (0..3_000)
            .map(|i| format!("arm-{i:04}-of-a-star-with-long-names({})", i % 97))
            .collect();
        text.push_str(&arms.join(", "));
        text.push('\n');
        let g = parse(&text).unwrap();
        let tree = map(&g, g.try_node("hub").unwrap(), &MapOptions::default()).unwrap();
        let mut written = Vec::new();
        write_tree(&tree, &COSTS, &mut written).unwrap();
        assert!(written.len() > 2 * WRITE_CHUNK, "{} bytes", written.len());
        assert_eq!(written, render(&compute_routes(&tree), &COSTS).as_bytes());

        /// Takes one chunk, then fails as a closed pipe does.
        struct Closes(usize);
        impl Write for Closes {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.0 > 0 {
                    return Err(io::ErrorKind::BrokenPipe.into());
                }
                self.0 += buf.len();
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = Closes(0);
        let err = write_tree(&tree, &COSTS, &mut sink).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        assert!(
            sink.0 >= WRITE_CHUNK && sink.0 < 2 * WRITE_CHUNK,
            "{}",
            sink.0
        );
    }

    #[test]
    fn decimal_costs() {
        for n in [0, 7, 10, 99, 100, 12_345, u64::MAX] {
            let mut out = Vec::new();
            push_decimal(&mut out, n);
            assert_eq!(out, n.to_string().as_bytes());
        }
    }
}

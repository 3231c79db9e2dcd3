//! The two-thread build ([`parse_inputs`]) against [`parse_into`] run
//! on each input in turn: the same graph, node for node and row for
//! row, the same warnings in the same order, and, when an input fails,
//! the same error over the same partial graph.

use pathalias_graph::Graph;
use pathalias_parser::{parse_inputs, parse_into, ParseError};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// splitmix64: a world is drawn from one seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[self.below(from.len())]
    }
}

/// A host from a small pool, so links repeat; now and then in upper
/// case, so `-i` merges some of them.
fn host(r: &mut Rng) -> String {
    let name = match r.below(10) {
        0 => format!("N{}", r.below(12)),
        1 => format!(".dom{}", r.below(4)),
        _ => format!("h{}", r.below(300)),
    };
    if r.below(5) == 0 {
        name.to_ascii_uppercase()
    } else {
        name
    }
}

fn cost(r: &mut Rng) -> String {
    let expr = r.pick(&[
        "10", "HOURLY", "DAILY/2", "DEMAND+5", "HOURLY*3", "0", "DEAD",
    ]);
    format!("({expr})")
}

/// One link target, with its operator and cost.
fn target(r: &mut Rng) -> String {
    let name = host(r);
    let cost = if r.below(3) == 0 {
        String::new()
    } else {
        cost(r)
    };
    match r.below(6) {
        0 => format!("@{name}{cost}"),
        1 => format!("{name}!{cost}"),
        2 => format!("{name}:{cost}"),
        _ => format!("{name}{cost}"),
    }
}

fn list(r: &mut Rng, max: usize, item: impl Fn(&mut Rng) -> String) -> String {
    let items: Vec<String> = (0..1 + r.below(max)).map(|_| item(r)).collect();
    items.join(", ")
}

/// One statement, mostly link rows, but of every kind the language
/// has.
fn statement(r: &mut Rng) -> String {
    match r.below(24) {
        0 => {
            // A network, its members on several lines.
            let members = list(r, 6, |r| {
                let m = host(r);
                if r.below(3) == 0 {
                    m + &cost(r)
                } else {
                    m
                }
            });
            let op = r.pick(&["", "@", "%"]);
            let default = if r.below(2) == 0 {
                cost(r)
            } else {
                String::new()
            };
            let members = members.replace(", ", ",\n  ");
            format!("N{} = {op}{{{members}}}{default}", r.below(12))
        }
        1 => format!("{} = {}", host(r), host(r)),
        2 => format!("private {{{}}}", list(r, 3, host)),
        3 => format!("file {{site{}}}", r.below(5)),
        4 | 5 => {
            let kw = r.pick(&["dead", "delete"]);
            let items = list(r, 3, |r| match r.below(2) {
                0 => host(r),
                _ => format!("{}!{}", host(r), host(r)),
            });
            format!("{kw} {{{items}}}")
        }
        6 => {
            let items = list(r, 3, |r| {
                let bias = r.pick(&["-5", "HOURLY", "10", "-DAILY"]);
                format!("{}({bias})", host(r))
            });
            format!("adjust {{{items}}}")
        }
        7 => format!("gated {{N{}}}", r.below(12)),
        8 => format!("gateway {{N{}!{}}}", r.below(12), host(r)),
        9 => format!("# a comment\n\n{} {}", host(r), target(r)),
        10 => {
            let from = host(r);
            format!("{from} {}, \\\n  {}, {from}(5)", target(r), target(r))
        }
        _ => format!("{}\t{}", host(r), list(r, 6, target)),
    }
}

/// A statement that does not parse.
fn broken(r: &mut Rng) -> &'static str {
    r.pick(&[
        "a b(",
        "q $",
        "x = ",
        "dead {a!}",
        "N = {a, b",
        "a @b!(10)",
        "file {a, b}",
        "adjust {x}",
        "(oops)",
        "a b(5/0)",
        "a b(10) c(20)",
        "gateway {n}",
    ])
}

/// A world: its files, and which input, if any, cannot be read (one
/// past the last file is an unreadable file after them).
struct World {
    files: Vec<(String, String)>,
    unreadable: Option<usize>,
}

/// Up to five files of up to 1,500 statements, so the larger worlds
/// span several buffers of recorded ops. Some files end their lines
/// in CRLF; some worlds carry a broken statement, or an unreadable
/// file.
fn world(seed: u64) -> World {
    let mut r = Rng(seed);
    let n = 1 + r.below(5);
    let broken_at = (r.below(3) == 0).then(|| (r.below(n), r.below(1_500)));
    let files = (0..n)
        .map(|f| {
            let len = [0, 3, 40, 700, 1_500][r.below(5)];
            let eol = if r.below(4) == 0 { "\r\n" } else { "\n" };
            let mut text = String::new();
            for s in 0..len {
                let stmt = if broken_at == Some((f, s)) {
                    broken(&mut r).to_string()
                } else {
                    statement(&mut r)
                };
                text.push_str(&stmt.replace('\n', eol));
                text.push_str(eol);
            }
            if broken_at.is_some_and(|(bf, bs)| bf == f && bs >= len) {
                text.push_str(broken(&mut r));
            }
            (format!("file{f}.map"), text)
        })
        .collect();
    let unreadable = (r.below(4) == 0).then(|| r.below(n + 1));
    World { files, unreadable }
}

/// Why a build stopped.
#[derive(Debug, PartialEq)]
enum Failed {
    Unreadable(usize),
    Parse(ParseError),
}

impl From<ParseError> for Failed {
    fn from(e: ParseError) -> Self {
        Failed::Parse(e)
    }
}

/// `parse_into` on each input in turn, stopping at the first failure.
fn one_at_a_time(w: &World, ignore_case: bool) -> (Graph, Result<(), Failed>) {
    let mut g = Graph::with_ignore_case(ignore_case);
    for (i, (file, text)) in w.files.iter().enumerate() {
        if w.unreadable == Some(i) {
            return (g, Err(Failed::Unreadable(i)));
        }
        if let Err(e) = parse_into(&mut g, file, text) {
            return (g, Err(Failed::Parse(e)));
        }
    }
    if w.unreadable == Some(w.files.len()) {
        return (g, Err(Failed::Unreadable(w.files.len())));
    }
    (g, Ok(()))
}

/// The two-thread build over owned copies of the texts, the unreadable
/// input an `Err` item.
fn two_threads(w: &World, ignore_case: bool) -> (Graph, Result<(), Failed>) {
    let mut g = Graph::with_ignore_case(ignore_case);
    let inputs = w.files.len() + usize::from(w.unreadable == Some(w.files.len()));
    let items = (0..inputs).map(|i| match w.files.get(i) {
        _ if w.unreadable == Some(i) => Err(Failed::Unreadable(i)),
        Some((file, text)) => Ok((file.clone(), text.clone())),
        None => unreachable!("only the unreadable input is past the files"),
    });
    let done = parse_inputs(&mut g, items);
    (g, done)
}

/// Everything a declaration can leave in the graph, one line a node,
/// then the warnings and the file count.
fn dump(g: &Graph) -> Vec<String> {
    let mut out: Vec<String> = g
        .iter_nodes()
        .map(|(id, n)| {
            let row: Vec<String> = g
                .links_from(id)
                .map(|(_, l)| format!("{}/{}/{}/{:?}", l.to.index(), l.cost, l.op, l.flags))
                .collect();
            format!(
                "{} {} {:?} {} [{}]",
                id.index(),
                g.name(id),
                n.flags,
                n.adjust,
                row.join(" ")
            )
        })
        .collect();
    out.extend(g.warnings().iter().map(|w| format!("warning: {w}")));
    out.push(format!("files: {}", g.current_file().index()));
    out
}

proptest! {
    // The CI fuzz job raises the case count with PROPTEST_CASES.
    #![proptest_config(ProptestConfig::with_cases_env(64))]

    #[test]
    fn two_threads_build_what_one_input_at_a_time_builds(seed in any::<u64>()) {
        let w = world(seed);
        for ignore_case in [false, true] {
            let (want, want_done) = one_at_a_time(&w, ignore_case);
            let (got, got_done) = two_threads(&w, ignore_case);
            prop_assert_eq!(&got_done, &want_done);
            prop_assert_eq!(dump(&got), dump(&want));
        }
    }
}

/// The worlds reach what they are for: builds over several buffers,
/// parse errors, unreadable inputs, and the warnings of every
/// declaration rule.
#[test]
fn the_worlds_span_buffers_and_failures() {
    let (mut big, mut parse_errors, mut unreadable) = (0, 0, 0);
    let mut warnings = std::collections::BTreeSet::new();
    for seed in 0..64 {
        let w = world(seed);
        let (g, done) = one_at_a_time(&w, false);
        big += usize::from(g.link_count() > 4_096);
        match done {
            Err(Failed::Parse(_)) => parse_errors += 1,
            Err(Failed::Unreadable(_)) => unreadable += 1,
            Ok(()) => {}
        }
        for w in g.warnings() {
            let kind = format!("{w:?}");
            warnings.insert(kind[..kind.find([' ', '{']).unwrap_or(kind.len())].to_string());
        }
    }
    assert!(big >= 8, "{big} worlds of over 4,096 links");
    assert!(parse_errors >= 8, "{parse_errors} parse errors");
    assert!(unreadable >= 8, "{unreadable} unreadable inputs");
    assert_eq!(
        warnings.into_iter().collect::<Vec<_>>(),
        [
            "DuplicateLink",
            "NoSuchLink",
            "PrivateAfterUse",
            "RedeclaredNet",
            "SelfAlias",
            "SelfLink"
        ]
    );
}

static LIVE: AtomicUsize = AtomicUsize::new(0);

/// A text that counts itself while it lives.
struct Counted(String);

impl Counted {
    fn new(text: String) -> Counted {
        LIVE.fetch_add(1, Ordering::SeqCst);
        Counted(text)
    }
}

impl Drop for Counted {
    fn drop(&mut self) {
        LIVE.fetch_sub(1, Ordering::SeqCst);
    }
}

impl AsRef<str> for Counted {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

#[test]
fn at_most_two_texts_are_alive() {
    let most = AtomicUsize::new(0);
    let items = (0..200).map(|i| {
        // The text about to be made is at most the second alive.
        most.fetch_max(LIVE.load(Ordering::SeqCst) + 1, Ordering::SeqCst);
        let text = format!("h{i} h{}(10)\n", i + 1);
        Ok::<_, ParseError>((format!("f{i}"), Counted::new(text)))
    });
    let mut g = Graph::new();
    parse_inputs(&mut g, items).unwrap();
    assert_eq!(g.node_count(), 201);
    assert_eq!(LIVE.load(Ordering::SeqCst), 0);
    assert_eq!(most.load(Ordering::SeqCst), 2);
}

#[test]
fn an_error_ends_the_run_before_the_next_item_is_taken() {
    let taken = AtomicUsize::new(0);
    let items = ["a b(10)\n", "b c(\n", "c d(10)\n"]
        .into_iter()
        .enumerate()
        .map(|(i, text)| {
            taken.fetch_add(1, Ordering::SeqCst);
            Ok::<_, ParseError>((format!("f{i}"), text))
        });
    let mut g = Graph::new();
    let e = parse_inputs(&mut g, items).unwrap_err();
    assert_eq!(e.to_string(), "f1:1:5: expected a cost, found end of line");
    assert_eq!(taken.load(Ordering::SeqCst), 2);
    assert_eq!(g.node_count(), 2);
}

/// A text that cannot be read on the thread that made it.
struct ReadableOffThread(String, std::thread::ThreadId);

impl AsRef<str> for ReadableOffThread {
    fn as_ref(&self) -> &str {
        assert_ne!(
            std::thread::current().id(),
            self.1,
            "read on the declaring thread"
        );
        &self.0
    }
}

#[test]
fn a_panic_while_declaring_ends_the_run() {
    // Enough statements that the helper runs out of buffers and waits
    // for one back: the declaring side's panic must not leave it
    // waiting.
    let text: String = (0..20_000)
        .map(|i| format!("h{i} h{}(1)\n", i + 1))
        .collect();
    let item = ("big", ReadableOffThread(text, std::thread::current().id()));
    let run = std::panic::catch_unwind(|| {
        let mut g = Graph::new();
        let _ = parse_inputs(&mut g, [Ok::<_, ParseError>(item)]);
    });
    assert!(run.is_err());
}

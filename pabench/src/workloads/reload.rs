//! `reload`: writes beside reads, on `big`.
//!
//! `serve --map` with a reader connection sending a `QUERY` every
//! quarter millisecond while an editor applies a seeded script of
//! map-file edits, each followed by `RELOAD` timed to its `200 reloaded
//! generation=` reply. It uses the layers `batch` uses (plus
//! core::delta, the graph splice, mapper repair and printer update)
//! differently.
//!
//! * op: `RELOAD` after a one-link cost edit on a small row whose link
//!   the shortest-path tree uses, so a label moves and the table is
//!   re-rendered (`op_p50_us`); `op_per_s` is edits absorbed per second
//!   of `RELOAD` time over the script's mix of three cost edits to one
//!   structural edit.
//! * alt: `RELOAD` after a structural edit — a new host appended with a
//!   link pair: a first mention, which forces the full pipeline.
//! * setup: `serve --map` spawn → first correct `QUERY`.
//!
//! The reader is paced, not saturating: on this 2-vCPU box a
//! closed-loop reader at full speed leaves the reload thread half a
//! processor, and `RELOAD` then takes anything from 0.35 to 2 s from
//! one run to the next (see the README). What the reader sees while a
//! `RELOAD` is in flight is the traced run's
//! `server.reload_reader_p50_us`.
//!
//! After the last cost edit of every round and after the last edit, a
//! cold in-process pipeline over the edited text is the oracle for 64
//! sampled answers plus every host the edits touched (outside the
//! measured window): that checks what the incremental path built up,
//! before a structural edit's full rebuild could paper over it. Reader
//! queries are drawn from hosts no edit can affect, so each has one
//! right answer throughout.

use super::{cold_starts, map_args, Ctx, Outcome};
use crate::child::Daemon;
use crate::layers;
use crate::rng::Rng;
use crate::stats::{latency_us, Tally};
use crate::trace::Tracer;
use crate::wire::{closed_loop, prom_value, Conn, Exchange, Until};
use crate::world::{expect_query, lookup_script, pipeline, LookupClass, Scale, World, USER};
use pathalias_core::{plan_delta, DeltaPlan, NodeId};
use pathalias_server::MapSource;
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const SETUP_REPEATS: usize = 3;
/// Cost edits between structural edits.
const COST_EDITS_PER_ROUND: usize = 3;
/// Rows with more links than this are not "small".
const MAX_ROW: usize = 6;
/// A cost edit may move at most this many labels.
const MAX_SUBTREE: usize = 32;
/// Edits prepared ahead of the window; the window never needs more.
const COST_EDITS: usize = 48;
const STRUCTURAL_EDITS: usize = 16;
/// The reader's pause between queries.
const READER_PACE: Duration = Duration::from_micros(250);
/// Answers sampled at each oracle checkpoint, besides touched hosts.
const CHECK_SAMPLE: usize = 64;

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    match ctx.tracer {
        None => end_to_end(ctx),
        Some(tracer) => traced(ctx, tracer),
    }
}

/// One scripted edit of the map text.
#[derive(Debug, Clone)]
pub(super) enum Edit {
    /// Raise the cost of `head`'s link to `target` by one.
    Cost {
        /// Index of the file holding `head`'s row.
        file: usize,
        /// The row's host.
        head: String,
        /// The link's target, a tree child of `head`.
        target: String,
    },
    /// Append `new_host` with a link pair to `anchor`.
    Structural {
        /// Index of the file appended to.
        file: usize,
        /// An existing host.
        anchor: String,
        /// A name the map has never mentioned.
        new_host: String,
    },
}

impl Edit {
    fn is_cost(&self) -> bool {
        matches!(self, Edit::Cost { .. })
    }

    /// The file the edit changes.
    fn file(&self) -> usize {
        match self {
            Edit::Cost { file, .. } | Edit::Structural { file, .. } => *file,
        }
    }

    /// Hosts whose answers the edit may change.
    fn touched(&self) -> Vec<&str> {
        match self {
            Edit::Cost { head, target, .. } => vec![head, target],
            Edit::Structural {
                anchor, new_host, ..
            } => vec![anchor, new_host],
        }
    }

    /// Applies the edit to its file's text.
    fn apply(&self, text: &mut String) -> Result<(), String> {
        match self {
            Edit::Cost { head, target, .. } => {
                let (start, end) =
                    row_of(text, head).ok_or_else(|| format!("no row for `{head}`"))?;
                let (open, close) = link_cost(&text[start..end], target)
                    .ok_or_else(|| format!("no link `{head}` -> `{target}`"))?;
                text.insert_str(start + close, "+1");
                debug_assert!(open < close);
                Ok(())
            }
            Edit::Structural {
                anchor, new_host, ..
            } => {
                if !text.ends_with('\n') {
                    text.push('\n');
                }
                text.push_str(&format!(
                    "{anchor}\t{new_host}(DAILY)\n{new_host}\t{anchor}(DAILY)\n"
                ));
                Ok(())
            }
        }
    }
}

/// The byte range of the line `head\t...`, when exactly one line of
/// `text` starts so.
fn row_of(text: &str, head: &str) -> Option<(usize, usize)> {
    let mut found = None;
    let mut at = 0;
    for line in text.split_inclusive('\n') {
        if line.len() > head.len() && line.starts_with(head) && line.as_bytes()[head.len()] == b'\t'
        {
            if found.is_some() {
                return None;
            }
            found = Some((at, at + line.trim_end_matches('\n').len()));
        }
        at += line.len();
    }
    found
}

/// In a row, the offsets of the parentheses around the cost of the link
/// to `target`, when `target` is linked exactly once.
fn link_cost(row: &str, target: &str) -> Option<(usize, usize)> {
    let mut found = None;
    let mut from = 0;
    while let Some(i) = row[from..].find(target) {
        let at = from + i;
        from = at + target.len();
        let before_ok = at > 0 && matches!(row.as_bytes()[at - 1], b'\t' | b' ' | b',');
        if before_ok && row.as_bytes().get(from) == Some(&b'(') {
            if found.is_some() {
                return None;
            }
            let close = from + row[from..].find(')')?;
            // A nested parenthesis would make the first `)` the wrong
            // one; the generator writes none, and such a row is skipped.
            if row[from + 1..close].contains('(') {
                return None;
            }
            found = Some((from, close));
        }
    }
    found
}

/// Names mentioned in any statement that is not a plain link list (one
/// with a brace or `=`: networks, aliases, `private`, `dead`, `adjust`,
/// gateways). `core::plan_delta` refuses an edit whose row mentions one
/// of them, because such names mean something only a full parse knows;
/// this is the same rule in one pass over the text, so that choosing
/// edits does not cost a `plan_delta` call (0.1 s on `big`) apiece.
/// Collecting too much is the safe direction.
fn non_plain_names(files: &[(String, String)]) -> HashSet<&str> {
    let is_name = |b: u8| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-');
    let mut names = HashSet::new();
    for (_, text) in files {
        let bytes = text.as_bytes();
        let (mut i, mut depth) = (0, 0usize);
        let mut statement: Vec<&str> = Vec::new();
        let mut plain = true;
        while i < bytes.len() {
            match bytes[i] {
                b'#' => {
                    while i < bytes.len() && bytes[i] != b'\n' {
                        i += 1;
                    }
                }
                b'\\' if bytes.get(i + 1) == Some(&b'\n') => i += 2,
                b'\n' if depth == 0 => {
                    if !plain {
                        names.extend(statement.iter().copied());
                    }
                    statement.clear();
                    plain = true;
                    i += 1;
                }
                b @ (b'{' | b'}' | b'=') => {
                    plain = false;
                    match b {
                        b'{' => depth += 1,
                        b'}' => depth = depth.saturating_sub(1),
                        _ => {}
                    }
                    i += 1;
                }
                b if is_name(b) => {
                    let start = i;
                    while i < bytes.len() && is_name(bytes[i]) {
                        i += 1;
                    }
                    statement.push(&text[start..i]);
                }
                _ => i += 1,
            }
        }
        if !plain {
            names.extend(statement);
        }
    }
    names
}

/// Whether a row is a plain link list none of whose hosts (outside the
/// cost expressions) has non-plain semantics.
fn row_is_plain(row: &str, non_plain: &HashSet<&str>) -> bool {
    if row.contains(['{', '}', '=']) {
        return false;
    }
    let mut depth = 0usize;
    row.split(|c: char| {
        match c {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            _ => {}
        }
        depth > 0 || !(c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
    })
    .all(|name| name.is_empty() || !non_plain.contains(name))
}

/// The edit script and the hosts no edit in it can affect.
#[derive(Debug)]
pub(super) struct EditScript {
    /// Cost edits, on distinct rows.
    pub cost: Vec<Edit>,
    /// Structural edits.
    pub structural: Vec<Edit>,
    /// Nodes whose label a cost edit may move.
    pub affected: HashSet<NodeId>,
}

/// Plans the edits. A cost-edit candidate is a tree edge `head → child`
/// out of a small, plain row: raising its cost moves the labels of
/// `child`'s (small) subtree and nothing else. A candidate is kept
/// only if its row stays clear of every name with non-plain semantics,
/// which is what `core::plan_delta` asks before it plans a patch, so
/// the script holds edits the incremental path is meant to absorb —
/// whether the daemon then does absorb them is what the workload
/// measures (the traced run puts three of them through `plan_delta`).
pub(super) fn plan_edits(
    world: &World,
    seed: u64,
    cost_edits: usize,
    structural_edits: usize,
) -> Result<EditScript, String> {
    let mut rng = Rng::new(seed, 3);
    let tree = &world.oracle.mapped.tree;
    let aug = tree.frozen();
    let base = world.oracle.frozen.graph();
    let home = aug.id_of(&world.home).ok_or("home is not in the graph")?;

    // Invented back links are appended after a row's declared links; an
    // edit to a node one of them points at cannot be patched.
    let mut invented_target: HashSet<NodeId> = HashSet::new();
    for id in base.node_ids() {
        for e in aug.out_edges(id).skip(base.degree(id)) {
            invented_target.insert(aug.edge_target(e));
        }
    }
    let kids = tree.children();
    let subtree = |root: NodeId| -> Option<Vec<NodeId>> {
        let mut seen = vec![root];
        let mut i = 0;
        while i < seen.len() {
            seen.extend(kids[seen[i].index()].iter().copied());
            if seen.len() > MAX_SUBTREE {
                return None;
            }
            i += 1;
        }
        Some(seen)
    };
    let plain_host = |id: NodeId| {
        !aug.is_net(id)
            && !aug.is_domain(id)
            && aug.is_mappable(id)
            && aug.id_of(aug.name(id)) == Some(id)
    };

    // Which file holds each head's row, and how many rows it has in
    // all: an edit is planned only for a host with one row anywhere.
    let mut rows_of: HashMap<&str, (usize, usize)> = HashMap::new();
    for (f, (_, text)) in world.files.iter().enumerate() {
        for line in text.lines() {
            if let Some((head, _)) = line.split_once('\t') {
                rows_of.entry(head).or_insert((f, 0)).1 += 1;
            }
        }
    }
    let non_plain = non_plain_names(&world.files);

    let mut candidates: Vec<(NodeId, NodeId)> = Vec::new();
    for child in base.node_ids() {
        let Some(label) = tree.label(child) else {
            continue;
        };
        let Some((head, edge)) = label.pred else {
            continue;
        };
        if head == home || head.index() >= base.node_count() {
            continue;
        }
        let (first, _) = aug.edge_slice(head);
        let declared = ((edge.raw() - first) as usize) < base.degree(head);
        if declared
            && base.degree(head) <= MAX_ROW
            && plain_host(head)
            && plain_host(child)
            && !invented_target.contains(&head)
        {
            candidates.push((head, child));
        }
    }
    // A seeded shuffle, then first come first served.
    for i in (1..candidates.len()).rev() {
        candidates.swap(i, rng.below(i + 1));
    }

    let mut script = EditScript {
        cost: Vec::new(),
        structural: Vec::new(),
        affected: HashSet::new(),
    };
    let mut used_heads: HashSet<NodeId> = HashSet::new();
    for (head, child) in candidates {
        if script.cost.len() == cost_edits {
            break;
        }
        if used_heads.contains(&head) || script.affected.contains(&head) {
            continue;
        }
        let Some(moved) = subtree(child) else {
            continue;
        };
        let (head_name, child_name) = (aug.name(head), aug.name(child));
        let Some(&(file, 1)) = rows_of.get(head_name) else {
            continue;
        };
        let text = &world.files[file].1;
        let Some((start, end)) = row_of(text, head_name) else {
            continue;
        };
        let row = &text[start..end];
        if link_cost(row, child_name).is_none() || !row_is_plain(row, &non_plain) {
            continue;
        }
        let edit = Edit::Cost {
            file,
            head: head_name.to_string(),
            target: child_name.to_string(),
        };
        used_heads.insert(head);
        script.affected.extend(moved);
        script.cost.push(edit);
    }
    if script.cost.len() < cost_edits.min(4) {
        return Err(format!(
            "only {} cost-edit candidates in this world",
            script.cost.len()
        ));
    }

    let hosts: Vec<NodeId> = base.node_ids().filter(|&id| plain_host(id)).collect();
    // Anchors are hosts with a row of their own (some hosts are only
    // ever link targets), drawn until the script is full.
    let anchors: Vec<NodeId> = hosts
        .iter()
        .copied()
        .filter(|&id| rows_of.contains_key(aug.name(id)))
        .collect();
    if anchors.is_empty() {
        return Err("no host with a row of its own to anchor a structural edit".to_string());
    }
    for k in 0..structural_edits {
        let anchor = aug.name(anchors[rng.below(anchors.len())]);
        script.structural.push(Edit::Structural {
            file: rows_of[anchor].0,
            anchor: anchor.to_string(),
            new_host: format!("pabnew{k}x{}", rng.below(100_000)),
        });
    }
    Ok(script)
}

/// Exact-host queries whose answers no scripted edit can change.
fn reader_script(world: &World, edits: &EditScript, seed: u64) -> Vec<Exchange> {
    let affected_names: HashSet<&str> = world
        .oracle
        .printed
        .routes
        .entries
        .iter()
        .filter(|r| edits.affected.contains(&r.node))
        .map(|r| r.name.as_str())
        .collect();
    let anchors: HashSet<&str> = edits.structural.iter().flat_map(|e| e.touched()).collect();
    let script = lookup_script(&world.oracle.db, seed, 16 * 1024);
    script
        .singles
        .into_iter()
        .zip(script.classes)
        .zip(script.hosts)
        .filter(|((_, class), host)| {
            *class == LookupClass::Exact
                && !affected_names.contains(host.as_str())
                && !anchors.contains(host.as_str())
        })
        .map(|((x, _), _)| x)
        .collect()
}

/// The map files as the editor sees them: current text, and the paths
/// the daemon reads.
struct Editor {
    texts: Vec<(String, String)>,
    paths: Vec<String>,
    touched: Vec<String>,
    generation: u64,
    entries: usize,
}

impl Editor {
    /// Applies `edit` and rewrites its file.
    fn apply(&mut self, edit: &Edit) -> Result<(), String> {
        let f = edit.file();
        edit.apply(&mut self.texts[f].1)?;
        std::fs::write(&self.paths[f], &self.texts[f].1)
            .map_err(|e| format!("rewriting {}: {e}", self.paths[f]))?;
        self.touched
            .extend(edit.touched().into_iter().map(str::to_string));
        self.generation += 1;
        if !edit.is_cost() {
            self.entries += 1;
        }
        Ok(())
    }

    /// The reply `RELOAD` must give after the edit just applied.
    fn expect_reloaded(&self) -> Vec<u8> {
        format!(
            "200 reloaded generation={} entries={}",
            self.generation, self.entries
        )
        .into_bytes()
    }

    /// Oracle checkpoint: a cold pipeline over the edited text, then
    /// sampled and touched hosts asked of the daemon.
    fn checkpoint(
        &mut self,
        world: &World,
        addr: std::net::SocketAddr,
        rng: &mut Rng,
    ) -> Result<Tally, String> {
        let oracle = pipeline(&self.texts, &world.options, None)?;
        let mut tally = Tally::default();
        tally.record(oracle.db.len() == self.entries);
        let mut names: Vec<&str> = oracle.db.iter().map(|e| e.name.as_str()).collect();
        names.sort_unstable();
        let mut ask: Vec<String> = (0..CHECK_SAMPLE)
            .map(|_| names[rng.below(names.len())].to_string())
            .collect();
        ask.append(&mut self.touched);
        let mut conn = Conn::tcp(addr).map_err(|e| format!("checkpoint connection: {e}"))?;
        for host in &ask {
            let got = conn
                .roundtrip(format!("QUERY {host} {USER}\n").as_bytes())
                .map_err(|e| format!("checkpoint query: {e}"))?;
            tally.record(got == expect_query(&oracle.db, host).as_slice());
        }
        Ok(tally)
    }
}

/// What the editor and the reader measured.
#[derive(Default)]
struct Window {
    cost_s: Vec<f64>,
    structural_s: Vec<f64>,
    /// Reader latencies sampled wholly inside a `RELOAD`.
    reader_ns: Vec<u64>,
    /// Seconds some `RELOAD` was in flight.
    in_flight_s: f64,
    /// The daemon's peak resident set before the first edit, after the
    /// first round (three cost edits and a structural one) and after
    /// the last edit. The peak climbs with every reload, by an amount
    /// that differs from run to run (410 or 530 MB after one round, in
    /// calibration), so only the first can carry a bound; the other
    /// two are per-layer figures of the traced run.
    rss_mb: [f64; 3],
}

/// Runs the edit/`RELOAD` loop for `seconds` of editing and reloading
/// (checkpoints do not count), with the reader running beside it.
fn window(
    p: &mut Prepared,
    daemon: &Daemon,
    seconds: f64,
    seed: u64,
    on_reload: &mut dyn FnMut(&Edit, &mut Conn) -> Result<(), String>,
    out: &mut Outcome,
) -> Result<Window, String> {
    let Prepared {
        world,
        edits,
        editor,
        reader,
        ..
    } = p;
    let (world, edits, reader) = (&*world, &*edits, reader.as_slice());
    let mut w = Window::default();
    let in_flight = AtomicBool::new(false);
    let stop = AtomicBool::new(false);
    let addr = daemon.tcp;
    let mut rng = Rng::new(seed, 4);
    let mut conn = Conn::tcp(addr).map_err(|e| format!("editor connection: {e}"))?;
    conn.upgrade()?;

    w.rss_mb[0] = daemon.peak_rss_mb().unwrap_or(0.0);

    let (reader_phase, edited) = std::thread::scope(|scope| {
        let reader_thread = scope.spawn(|| {
            let mut conn = match Conn::tcp(addr) {
                Ok(c) => c,
                Err(e) => return Err(format!("reader connection: {e}")),
            };
            let mut cursor = 0;
            let mut flagged: Vec<u64> = Vec::new();
            let mut phase = crate::wire::Phase::default();
            while !stop.load(Ordering::SeqCst) {
                std::thread::sleep(READER_PACE);
                let before = in_flight.load(Ordering::SeqCst);
                let mut one = closed_loop(reader, &mut cursor, Until::Count(1), |x| {
                    conn.roundtrip(&x.request)
                        .map(|got| got == x.expect.as_slice())
                });
                if before && in_flight.load(Ordering::SeqCst) {
                    flagged.extend(&one.latencies_ns);
                }
                phase.tally.absorb(one.tally);
                if let Some(why) = one.broken.take() {
                    phase.broken = Some(why);
                    break;
                }
            }
            Ok((phase, flagged))
        });

        let edited = (|| -> Result<(), String> {
            let (mut next_cost, mut next_structural) = (0, 0);
            let mut busy = 0.0;
            let mut since_check = 0;
            while busy < seconds {
                let structural = (next_cost + next_structural) % (COST_EDITS_PER_ROUND + 1)
                    == COST_EDITS_PER_ROUND;
                let edit = if structural {
                    edits.structural.get(next_structural)
                } else {
                    edits.cost.get(next_cost)
                };
                let Some(edit) = edit else { break };
                let t0 = Instant::now();
                editor.apply(edit)?;
                in_flight.store(true, Ordering::SeqCst);
                let t1 = Instant::now();
                let reply = conn
                    .roundtrip(b"RELOAD\n")
                    .map(|got| got == editor.expect_reloaded().as_slice());
                let reload_s = t1.elapsed().as_secs_f64();
                in_flight.store(false, Ordering::SeqCst);
                busy += t0.elapsed().as_secs_f64();
                w.in_flight_s += reload_s;
                out.tally.record(matches!(reply, Ok(true)));
                if let Err(e) = reply {
                    return Err(format!("RELOAD: {e}"));
                }
                if structural {
                    next_structural += 1;
                    w.structural_s.push(reload_s);
                    if next_structural == 1 {
                        w.rss_mb[1] = daemon.peak_rss_mb().unwrap_or(0.0);
                    }
                } else {
                    next_cost += 1;
                    w.cost_s.push(reload_s);
                }
                on_reload(edit, &mut conn)?;
                since_check += 1;
                if !structural && next_cost % COST_EDITS_PER_ROUND == 0 {
                    out.tally.absorb(editor.checkpoint(world, addr, &mut rng)?);
                    since_check = 0;
                }
            }
            if since_check > 0 {
                out.tally.absorb(editor.checkpoint(world, addr, &mut rng)?);
            }
            Ok(())
        })();
        stop.store(true, Ordering::SeqCst);
        (reader_thread.join(), edited)
    });
    edited?;
    w.rss_mb[2] = daemon.peak_rss_mb().unwrap_or(0.0);
    let (phase, flagged) = reader_phase.map_err(|_| "the reader thread panicked".to_string())??;
    out.absorb(&phase);
    w.reader_ns = flagged;
    if w.cost_s.is_empty() || w.structural_s.is_empty() {
        return Err("the window was too short for one edit of each kind".to_string());
    }
    Ok(w)
}

struct Prepared {
    world: World,
    edits: EditScript,
    editor: Editor,
    reader: Vec<Exchange>,
    args: Vec<String>,
}

fn prepare(ctx: &Ctx, world: World) -> Result<Prepared, String> {
    let paths = world.write_files(ctx.dir)?;
    let edits = plan_edits(&world, ctx.seed, COST_EDITS, STRUCTURAL_EDITS)?;
    let reader = reader_script(&world, &edits, ctx.seed);
    if reader.len() < 256 {
        return Err("too few hosts left for the reader".to_string());
    }
    let args = map_args(&paths, &world.home);
    let editor = Editor {
        texts: world.files.clone(),
        paths,
        touched: Vec::new(),
        generation: 0,
        entries: world.oracle.db.len(),
    };
    Ok(Prepared {
        world,
        edits,
        editor,
        reader,
        args,
    })
}

fn end_to_end(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut p = prepare(ctx, World::build(Scale::Big, ctx.seed, None)?)?;
    let (mut daemon, setup) = cold_starts(ctx, &p.args, &p.reader[0], SETUP_REPEATS, &mut out)?;

    let w = window(
        &mut p,
        &daemon,
        ctx.seconds,
        ctx.seed,
        &mut |_, _| Ok(()),
        &mut out,
    )?;
    if !daemon.is_alive() {
        out.broken
            .push("the daemon died during the run".to_string());
    }
    if w.reader_ns.is_empty() {
        return Err("the reader completed no query while a RELOAD was in flight".to_string());
    }

    let us = |s: &[f64]| s.iter().map(|v| v * 1e6).collect::<Vec<f64>>();
    let m = &mut out.metrics;
    m.put("setup_s", &setup);
    m.put1("rss_mb", w.rss_mb[0]);
    m.put("op_p50_us", &us(&w.cost_s));
    m.put1(
        "op_per_s",
        (w.cost_s.len() + w.structural_s.len()) as f64 / w.in_flight_s,
    );
    m.put("alt_p50_us", &us(&w.structural_s));
    out.notes.push(format!(
        "{} cost-edit and {} structural reloads; reader p50 {:.1} us while a RELOAD was in flight ({} samples); peak RSS {:.0} MB before the first edit, {:.0} MB after the first round, {:.0} MB after the last",
        w.cost_s.len(),
        w.structural_s.len(),
        latency_us(&mut w.reader_ns.clone()).0,
        w.reader_ns.len(),
        w.rss_mb[0],
        w.rss_mb[1],
        w.rss_mb[2]
    ));
    let list = |s: &[f64]| {
        s.iter()
            .map(|v| format!("{v:.2}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    out.notes.push(format!(
        "cost-edit reloads (s): {}; structural (s): {}",
        list(&w.cost_s),
        list(&w.structural_s)
    ));
    Ok(out)
}

fn traced(ctx: &Ctx, tracer: &Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let root = tracer.open("pabench.reload", None, 0);
    let (world, _, mut m) =
        layers::traced_world(Scale::Big, ctx.seed, 8 * 1024, ctx.dir, tracer, root)?;
    let mut p = prepare(ctx, world)?;

    // In-process: the daemon's own source type with its stage cache,
    // over a private copy of the files, through the same edits.
    let copy_dir = ctx.dir.join("inproc");
    std::fs::create_dir_all(&copy_dir)
        .map_err(|e| format!("creating {}: {e}", copy_dir.display()))?;
    let copies: Vec<PathBuf> = p
        .world
        .files
        .iter()
        .map(|(name, text)| {
            let path = copy_dir.join(name);
            std::fs::write(&path, text)
                .map(|_| path)
                .map_err(|e| format!("writing a map copy: {e}"))
        })
        .collect::<Result<_, _>>()?;
    let source = MapSource::map_files(copies.clone(), p.world.options.clone());
    let MapSource::Map { cache, .. } = &source else {
        unreachable!("map_files builds a Map source");
    };
    tracer
        .time("server.load_cold", Some(root), 0, || {
            source.load_serving_timed()
        })
        .map_err(|e| format!("in-process cold load: {e}"))?;
    let mut texts = p.world.files.clone();
    let (mut delta_s, mut full_s, mut plan_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut taken = 0u64;
    let in_process_cost = &p.edits.cost[p.edits.cost.len() - 3..];
    for edit in in_process_cost.iter().chain(p.edits.structural.last()) {
        let f = edit.file();
        let before = texts.clone();
        edit.apply(&mut texts[f].1)?;
        if edit.is_cost() {
            let graph = cache
                .snapshot()
                .ok_or("the stage cache is empty after a load")?;
            let t0 = Instant::now();
            let plan = tracer.time("core.plan_delta", Some(root), 0, || {
                plan_delta(&before, &texts, &graph)
            });
            plan_s.push(t0.elapsed().as_secs_f64());
            out.tally.record(matches!(plan, DeltaPlan::Patch { .. }));
        }
        std::fs::write(&copies[f], &texts[f].1)
            .map_err(|e| format!("rewriting a map copy: {e}"))?;
        let deltas = cache.delta_reloads();
        let name = if edit.is_cost() {
            "server.reload_delta"
        } else {
            "server.reload_full"
        };
        let t0 = Instant::now();
        let (resolver, _, _) = tracer
            .time(name, Some(root), 0, || source.load_serving_timed())
            .map_err(|e| format!("in-process reload: {e}"))?;
        let secs = t0.elapsed().as_secs_f64();
        if edit.is_cost() {
            delta_s.push(secs);
            taken += cache.delta_reloads() - deltas;
        } else {
            full_s.push(secs);
        }
        // The reloaded table must answer like a cold pipeline.
        let oracle = pipeline(&texts, &p.world.options, None)?;
        for host in edit.touched() {
            let want = oracle.db.route_to(host, USER);
            let got = pathalias_mailer::Resolver::resolve(&resolver, host, USER)
                .ok()
                .map(|r| r.route);
            out.tally.record(got == want);
        }
    }
    tracer.close(root);
    m.put("server.reload_delta_s", &delta_s);
    m.put("server.reload_full_s", &full_s);
    m.put("core.plan_delta_s", &plan_s);
    m.put1(
        "server.reload_delta_taken_ratio",
        taken as f64 / delta_s.len() as f64,
    );
    drop(source);
    let _ = std::fs::remove_dir_all(&copy_dir);

    // Over the wire: a short window, scraping the reload phases after
    // each structural (full-pipeline) reload.
    let (daemon, _) = cold_starts(ctx, &p.args, &p.reader[0], 1, &mut out)?;
    let mut phases: Vec<[f64; 5]> = Vec::new();
    let mut rid = 0u64;
    let w = window(
        &mut p,
        &daemon,
        ctx.seconds / 3.0,
        ctx.seed,
        &mut |edit, conn| {
            rid += 1;
            let id = tracer.open(
                if edit.is_cost() {
                    "server.reload_cost_edit"
                } else {
                    "server.reload_structural"
                },
                None,
                rid,
            );
            tracer.close(id);
            if edit.is_cost() {
                return Ok(());
            }
            let scrape = conn.metrics()?;
            let phase = |name: &str| {
                prom_value(
                    &scrape,
                    "pathalias_reload_phase_seconds",
                    Some(&format!("phase=\"{name}\"")),
                )
                .unwrap_or(0.0)
            };
            phases.push([
                phase("parse"),
                phase("build"),
                phase("freeze"),
                phase("map"),
                phase("print"),
            ]);
            Ok(())
        },
        &mut out,
    )?;
    let column = |i: usize| phases.iter().map(|p| p[i]).collect::<Vec<f64>>();
    for (i, name) in [
        "server.reload_parse_s",
        "server.reload_build_s",
        "server.reload_freeze_s",
        "server.reload_map_s",
        "server.reload_print_s",
    ]
    .into_iter()
    .enumerate()
    {
        m.put(name, &column(i));
    }
    let mut reader_ns = w.reader_ns;
    m.put1(
        "server.reload_reader_p50_us",
        if reader_ns.is_empty() {
            0.0
        } else {
            latency_us(&mut reader_ns).0
        },
    );
    m.put1("server.reload_rss_first_round_mb", w.rss_mb[1]);
    m.put1("server.reload_rss_last_mb", w.rss_mb[2]);
    out.metrics = m;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_edit_rewrites_one_cost() {
        let mut text = "a\tb(10), c(HOURLY*4)\nab\tc(5)\nb\ta(10)\n".to_string();
        Edit::Cost {
            file: 0,
            head: "a".into(),
            target: "c".into(),
        }
        .apply(&mut text)
        .unwrap();
        assert_eq!(text, "a\tb(10), c(HOURLY*4+1)\nab\tc(5)\nb\ta(10)\n");
        // A target linked twice, or a head with two rows, is refused.
        let mut twice = "a\tb(10), b(20)\n".to_string();
        assert!(Edit::Cost {
            file: 0,
            head: "a".into(),
            target: "b".into()
        }
        .apply(&mut twice)
        .is_err());
        let mut two_rows = "a\tb(10)\na\tc(20)\n".to_string();
        assert!(Edit::Cost {
            file: 0,
            head: "a".into(),
            target: "b".into()
        }
        .apply(&mut two_rows)
        .is_err());
        // `b` must match a whole name, not the tail of `ab`.
        let mut tail = "x\tab(10), b(20)\n".to_string();
        Edit::Cost {
            file: 0,
            head: "x".into(),
            target: "b".into(),
        }
        .apply(&mut tail)
        .unwrap();
        assert_eq!(tail, "x\tab(10), b(20+1)\n");
    }

    #[test]
    fn structural_edit_appends_a_link_pair() {
        let mut text = "a\tb(10)".to_string();
        Edit::Structural {
            file: 0,
            anchor: "a".into(),
            new_host: "n1".into(),
        }
        .apply(&mut text)
        .unwrap();
        assert_eq!(text, "a\tb(10)\na\tn1(DAILY)\nn1\ta(DAILY)\n");
    }

    #[test]
    fn planned_edits_patch_and_agree_with_a_cold_pipeline() {
        let world = World::build(Scale::Small(600), 21, None).unwrap();
        let edits = plan_edits(&world, 21, 6, 2).unwrap();
        assert!(edits.cost.len() >= 4, "{} cost edits", edits.cost.len());
        assert_eq!(edits.structural.len(), 2);
        // Same seed, same script.
        let again = plan_edits(&world, 21, 6, 2).unwrap();
        assert_eq!(format!("{:?}", edits.cost), format!("{:?}", again.cost));
        // Applying every edit keeps the map parseable, moves only
        // affected hosts, and adds the new hosts.
        let mut texts = world.files.clone();
        for e in edits.cost.iter().chain(&edits.structural) {
            e.apply(&mut texts[e.file()].1).unwrap();
        }
        let after = pipeline(&texts, &world.options, None).unwrap();
        assert_eq!(after.db.len(), world.oracle.db.len() + 2);
        let reader = reader_script(&world, &edits, 21);
        assert!(reader.len() > 100);
        for x in &reader {
            let host = std::str::from_utf8(&x.request)
                .unwrap()
                .split(' ')
                .nth(1)
                .unwrap();
            assert_eq!(expect_query(&after.db, host), x.expect, "{host} moved");
        }
    }
}

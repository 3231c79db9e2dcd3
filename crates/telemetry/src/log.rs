//! Leveled `key=value` structured logging.
//!
//! One line per event: `ts=<unix_ms> level=<level> event=<name>`
//! followed by caller-supplied fields in order. Values containing
//! spaces, quotes, or `=` are quoted with backslash escapes so lines
//! stay machine-parseable. The level comes from `PATHALIAS_LOG`
//! (`error|warn|info|debug`, default `info`; `off` or `none` for no
//! log at all); events above the configured level are dropped before
//! any formatting happens.
//!
//! Writes go to stderr with errors ignored — the daemon must survive a
//! closed stderr the same way it survives a closed stdout.

use std::fmt::Display;
use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::{Arc, Mutex};

/// Log severity, ordered from most to least urgent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Unrecoverable or dropped work: failed reloads, accept errors.
    Error,
    /// Suspicious but survivable: bad requests, watch hiccups.
    Warn,
    /// Lifecycle landmarks: startup, reload success, drain. Default.
    Info,
    /// Per-connection chatter: open/close, watch polls.
    Debug,
}

impl Level {
    /// Parses `error|warn|info|debug` (case-insensitive); anything
    /// else — including unset — falls back to `Info`.
    pub fn parse(s: &str) -> Level {
        match s.to_ascii_lowercase().as_str() {
            "error" => Level::Error,
            "warn" | "warning" => Level::Warn,
            "debug" => Level::Debug,
            _ => Level::Info,
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }
}

/// Where finished log lines go.
#[derive(Debug, Clone)]
enum Sink {
    /// Best-effort stderr (write errors ignored).
    Stderr,
    /// In-memory capture for tests.
    Capture(Arc<Mutex<String>>),
    /// Nowhere: every event is dropped before formatting.
    Discard,
}

/// A cheaply-clonable leveled logger.
///
/// Cloning shares the sink, so one logger can be handed to every
/// connection thread. Use [`Logger::from_env`] in the daemon and
/// [`Logger::capture`] in tests that assert on (or assert the absence
/// of) output.
#[derive(Debug, Clone)]
pub struct Logger {
    level: Level,
    sink: Sink,
}

impl Logger {
    /// A stderr logger at an explicit level.
    pub fn new(level: Level) -> Logger {
        Logger {
            level,
            sink: Sink::Stderr,
        }
    }

    /// The logger a `PATHALIAS_LOG` value names: `off` or `none`
    /// (case-insensitive) is [`Logger::off`], anything else a stderr
    /// logger at [`Level::parse`]'s reading of it.
    pub fn parse(spec: &str) -> Logger {
        match spec.to_ascii_lowercase().as_str() {
            "off" | "none" => Logger::off(),
            _ => Logger::new(Level::parse(spec)),
        }
    }

    /// The logger named by `PATHALIAS_LOG` (see [`Logger::parse`]).
    pub fn from_env() -> Logger {
        Logger::parse(&std::env::var("PATHALIAS_LOG").unwrap_or_default())
    }

    /// A logger that drops everything — the right default for servers
    /// embedded in another program (or a test), where writing to the
    /// host process's stderr uninvited would be rude.
    pub fn off() -> Logger {
        Logger {
            level: Level::Error,
            sink: Sink::Discard,
        }
    }

    /// A logger whose output accumulates in the returned buffer.
    pub fn capture(level: Level) -> (Logger, Arc<Mutex<String>>) {
        let buf = Arc::new(Mutex::new(String::new()));
        (
            Logger {
                level,
                sink: Sink::Capture(Arc::clone(&buf)),
            },
            buf,
        )
    }

    /// The configured threshold level.
    pub fn level(&self) -> Level {
        self.level
    }

    /// Whether an event at `level` would be emitted.
    pub fn enabled(&self, level: Level) -> bool {
        !matches!(self.sink, Sink::Discard) && level <= self.level
    }

    /// Starts an event at `level`; fields chain, [`Event::emit`] writes.
    pub fn event(&self, level: Level, name: &str) -> Event<'_> {
        let line = if self.enabled(level) {
            let mut line = String::with_capacity(64);
            let _ = write!(
                line,
                "ts={} level={} event={name}",
                crate::unix_ms(),
                level.as_str()
            );
            Some(line)
        } else {
            None
        };
        Event { logger: self, line }
    }

    /// Shorthand for [`Logger::event`] at [`Level::Error`].
    pub fn error(&self, name: &str) -> Event<'_> {
        self.event(Level::Error, name)
    }

    /// Shorthand for [`Logger::event`] at [`Level::Warn`].
    pub fn warn(&self, name: &str) -> Event<'_> {
        self.event(Level::Warn, name)
    }

    /// Shorthand for [`Logger::event`] at [`Level::Info`].
    pub fn info(&self, name: &str) -> Event<'_> {
        self.event(Level::Info, name)
    }

    /// Shorthand for [`Logger::event`] at [`Level::Debug`].
    pub fn debug(&self, name: &str) -> Event<'_> {
        self.event(Level::Debug, name)
    }

    fn write_line(&self, line: &str) {
        match &self.sink {
            Sink::Stderr => {
                // Best-effort: a closed or full stderr must never take
                // the daemon down (mirrors the stdout hardening).
                let mut err = std::io::stderr().lock();
                let _ = writeln!(err, "{line}");
            }
            Sink::Capture(buf) => {
                if let Ok(mut buf) = buf.lock() {
                    buf.push_str(line);
                    buf.push('\n');
                }
            }
            // Unreachable in practice: `enabled` filters Discard
            // events before a line is ever built.
            Sink::Discard => {}
        }
    }
}

/// A log event under construction; dropped silently if below level.
#[derive(Debug)]
pub struct Event<'a> {
    logger: &'a Logger,
    /// `None` when the event is filtered out — fields become no-ops.
    line: Option<String>,
}

impl Event<'_> {
    /// Appends one `key=value` field. Values with spaces, quotes, or
    /// `=` are quoted; embedded newlines are replaced to keep the
    /// one-line-per-event invariant.
    pub fn field(mut self, key: &str, value: impl Display) -> Self {
        if let Some(line) = &mut self.line {
            let rendered = value.to_string();
            line.push(' ');
            line.push_str(key);
            line.push('=');
            push_value(line, &rendered);
        }
        self
    }

    /// Writes the finished line to the logger's sink.
    pub fn emit(self) {
        if let Some(line) = &self.line {
            self.logger.write_line(line);
        }
    }
}

/// Appends `value` to `line`, quoting when it would break parsing.
fn push_value(line: &mut String, value: &str) {
    let needs_quote = value.is_empty() || value.contains([' ', '"', '=', '\\', '\n', '\r', '\t']);
    if !needs_quote {
        line.push_str(value);
        return;
    }
    line.push('"');
    for ch in value.chars() {
        match ch {
            '"' => line.push_str("\\\""),
            '\\' => line.push_str("\\\\"),
            '\n' | '\r' => line.push_str("\\n"),
            '\t' => line.push_str("\\t"),
            other => line.push(other),
        }
    }
    line.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_from_error_to_debug() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Warn < Level::Info);
        assert!(Level::Info < Level::Debug);
    }

    #[test]
    fn parse_accepts_all_documented_levels() {
        assert_eq!(Level::parse("error"), Level::Error);
        assert_eq!(Level::parse("WARN"), Level::Warn);
        assert_eq!(Level::parse("info"), Level::Info);
        assert_eq!(Level::parse("debug"), Level::Debug);
        assert_eq!(Level::parse(""), Level::Info);
        assert_eq!(Level::parse("verbose"), Level::Info);
        // `off` is not a level: it selects the logger that drops
        // everything, where it used to fall through to `info`.
        for spec in ["off", "OFF", "none"] {
            assert!(!Logger::parse(spec).enabled(Level::Error), "{spec}");
        }
        assert!(Logger::parse("error").enabled(Level::Error));
        assert_eq!(Logger::parse("debug").level(), Level::Debug);
        assert_eq!(Logger::parse("").level(), Level::Info);
    }

    #[test]
    fn emitted_lines_carry_ts_level_event_and_fields() {
        let (logger, buf) = Logger::capture(Level::Debug);
        logger
            .info("reload")
            .field("map", "east")
            .field("generation", 3)
            .emit();
        let out = buf.lock().unwrap().clone();
        assert!(out.starts_with("ts="), "missing timestamp: {out}");
        assert!(out.contains(" level=info event=reload map=east generation=3\n"));
    }

    #[test]
    fn events_above_the_threshold_are_dropped() {
        let (logger, buf) = Logger::capture(Level::Error);
        logger.warn("bad_request").field("line", "junk").emit();
        logger.info("conn_open").emit();
        logger.debug("watch_poll").emit();
        assert!(buf.lock().unwrap().is_empty());
        logger.error("reload_failed").field("map", "east").emit();
        assert!(buf.lock().unwrap().contains("event=reload_failed map=east"));
    }

    #[test]
    fn off_logger_drops_every_level() {
        let logger = Logger::off();
        assert!(!logger.enabled(Level::Error));
        // Emitting through a dead logger is a harmless no-op.
        logger.error("reload_failed").field("map", "east").emit();
    }

    #[test]
    fn awkward_values_are_quoted_and_escaped() {
        let (logger, buf) = Logger::capture(Level::Info);
        logger
            .info("x")
            .field("spaced", "two words")
            .field("quoted", "say \"hi\"")
            .field("empty", "")
            .field("newline", "a\nb")
            .emit();
        let out = buf.lock().unwrap().clone();
        assert!(out.contains("spaced=\"two words\""));
        assert!(out.contains("quoted=\"say \\\"hi\\\"\""));
        assert!(out.contains("empty=\"\""));
        assert!(out.contains("newline=\"a\\nb\""));
        assert_eq!(out.lines().count(), 1, "event must stay one line: {out}");
    }
}

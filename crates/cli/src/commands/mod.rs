//! Subcommand implementations. Each returns the text it would print, so
//! integration tests can drive commands without spawning processes.

pub mod distributed;
pub mod generate;
pub mod inspect;
pub mod organize;
pub mod run;
pub mod simulate;

use crate::args::{ArgError, Args};
use cloudburst_core::obs::{self, EventRecord, RecordingSink, SinkHandle};
use std::fmt::Write as _;
use std::sync::Arc;

/// Uniform error type for commands: argument problems or I/O.
#[derive(Debug)]
pub enum CmdError {
    Args(ArgError),
    Io(std::io::Error),
    Other(String),
}

impl std::fmt::Display for CmdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CmdError::Args(e) => write!(f, "{e}"),
            CmdError::Io(e) => write!(f, "{e}"),
            CmdError::Other(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CmdError {}

impl From<ArgError> for CmdError {
    fn from(e: ArgError) -> Self {
        CmdError::Args(e)
    }
}

impl From<std::io::Error> for CmdError {
    fn from(e: std::io::Error) -> Self {
        CmdError::Io(e)
    }
}

/// `--timeline` / `--trace-out` for one run: a recording sink when either
/// is asked for, and one place that renders and writes the events.
pub(crate) struct TraceOpts {
    timeline: bool,
    trace_out: Option<String>,
    recorder: Option<Arc<RecordingSink>>,
}

impl TraceOpts {
    pub(crate) fn from_args(args: &Args) -> Result<Self, CmdError> {
        let timeline: bool = args.get_or("timeline", false)?;
        let trace_out = args.get("trace-out").map(str::to_owned);
        let recorder = (timeline || trace_out.is_some()).then(RecordingSink::new);
        Ok(TraceOpts {
            timeline,
            trace_out,
            recorder,
        })
    }

    /// The sink a run should emit into (disabled when nothing is asked for).
    pub(crate) fn sink(&self) -> SinkHandle {
        match &self.recorder {
            Some(rec) => SinkHandle::new(Arc::clone(rec) as _),
            None => SinkHandle::disabled(),
        }
    }

    /// Render the recorded run's Gantt and/or write its JSONL trace.
    pub(crate) fn finish(self, out: &mut String) -> Result<(), CmdError> {
        match &self.recorder {
            Some(rec) => render_events(out, &rec.take(), self.timeline, self.trace_out.as_deref()),
            None => Ok(()),
        }
    }
}

/// Append the Gantt of `events` (with `timeline`) and write them as JSONL
/// to `trace_out`, if given.
pub(crate) fn render_events(
    out: &mut String,
    events: &[EventRecord],
    timeline: bool,
    trace_out: Option<&str>,
) -> Result<(), CmdError> {
    if timeline {
        let _ = write!(
            out,
            "{}",
            obs::Timeline::from_events(events).render_gantt(100)
        );
    }
    if let Some(path) = trace_out {
        std::fs::write(path, obs::encode_jsonl(events))?;
        let _ = writeln!(out, "trace: {} events -> {path}", events.len());
    }
    Ok(())
}

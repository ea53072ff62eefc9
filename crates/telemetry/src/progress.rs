//! Opt-in progress reporting for long runs.
//!
//! The paper's crawl spanned 201 weeks; a reproduction run over thousands
//! of domains takes minutes and should not run dark. Pipeline stages emit
//! [`ProgressEvent`]s through a [`Progress`] implementation chosen by the
//! caller — [`StderrProgress`] for CLI runs, [`NullProgress`] (the
//! default) for tests and embedding.

/// One progress update from a pipeline stage.
#[derive(Debug, Clone, Copy)]
pub struct ProgressEvent<'a> {
    /// The pipeline phase emitting the event (e.g. `"crawl"`).
    pub(crate) phase: &'a str,
    /// Completed units (1-based).
    pub(crate) current: u64,
    /// Total units expected (0 when unknown).
    pub(crate) total: u64,
    /// Free-form detail (e.g. `"2018-03-05: 483 pages"`).
    pub(crate) detail: &'a str,
}

/// Receives progress events. Implementations must be cheap and
/// non-blocking — they run inline with the pipeline.
pub trait Progress: Send + Sync {
    /// Handles one event.
    fn on_event(&self, event: &ProgressEvent<'_>);
}

/// Discards every event.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NullProgress;

impl Progress for NullProgress {
    fn on_event(&self, _event: &ProgressEvent<'_>) {}
}

/// Prints one line per event to stderr:
/// `[crawl  12/201] 2018-05-21: 483 pages`.
#[derive(Debug, Clone, Copy, Default)]
pub struct StderrProgress;

impl Progress for StderrProgress {
    fn on_event(&self, event: &ProgressEvent<'_>) {
        if event.total > 0 {
            eprintln!(
                "[{} {:>3}/{}] {}",
                event.phase, event.current, event.total, event.detail
            );
        } else {
            eprintln!("[{} {}] {}", event.phase, event.current, event.detail);
        }
    }
}

impl<F> Progress for F
where
    F: Fn(&ProgressEvent<'_>) + Send + Sync,
{
    fn on_event(&self, event: &ProgressEvent<'_>) {
        self(event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn closures_implement_progress() {
        let seen: Mutex<Vec<(String, u64)>> = Mutex::new(Vec::new());
        let reporter = |event: &ProgressEvent<'_>| {
            seen.lock()
                .expect("lock")
                .push((event.phase.to_string(), event.current));
        };
        for week in 1..=3 {
            reporter.on_event(&ProgressEvent {
                phase: "crawl",
                current: week,
                total: 3,
                detail: "",
            });
        }
        let seen = seen.into_inner().expect("lock");
        assert_eq!(seen.len(), 3);
        assert_eq!(seen[2], ("crawl".to_string(), 3));
    }

    #[test]
    fn null_progress_is_silent() {
        NullProgress.on_event(&ProgressEvent {
            phase: "x",
            current: 1,
            total: 1,
            detail: "ignored",
        });
    }
}

//! Cooperative run control: abort flags and progress callbacks threaded
//! through the explanation pipeline.
//!
//! The pipeline is CPU-bound and single-pass; preemption is neither
//! possible nor wanted. Instead, long-running stages poll an
//! [`AtomicBool`] abort flag at deterministic points — stage boundaries
//! and once per greedy MCIMR iteration — and bail out with
//! [`CoreError::Aborted`] when it is
//! set. The same hook points emit [`ProgressEvent`]s, which callers
//! (e.g. the RPC server's `Partial` streaming) can forward without the
//! core crate knowing anything about transports.
//!
//! A `RunControl` with no flag and no sink costs one branch per hook
//! point; the uncontrolled entry points pass exactly that.

use std::sync::atomic::{AtomicBool, Ordering};

use crate::error::{CoreError, Result};
use crate::memo::MemoHandle;

/// A progress notification emitted while an explanation run is underway.
///
/// Events are emitted from deterministic points in the pipeline, so for
/// a fixed input the *sequence* of events is identical across runs and
/// thread counts; only their wall-clock spacing varies.
#[derive(Debug, Clone, PartialEq)]
pub enum ProgressEvent {
    /// A pipeline stage boundary was crossed (e.g. `"prune-offline"`,
    /// `"score"`, `"select"`).
    Stage {
        /// Short stable identifier of the stage that is starting.
        stage: &'static str,
    },
    /// The greedy search committed another confounder: the top-k-so-far
    /// set after this iteration.
    Selected {
        /// Names of all attributes selected so far, in selection order.
        names: Vec<String>,
        /// Conditional mutual information remaining after conditioning
        /// on the selected set.
        cmi_so_far: f64,
        /// The unconditioned I(O;T) baseline the run started from.
        initial_cmi: f64,
    },
}

/// Sink for [`ProgressEvent`]s. Implemented for closures.
pub type ProgressSink<'a> = dyn Fn(ProgressEvent) + Sync + 'a;

/// Abort flag + progress sink handed down through a run.
///
/// Both members are optional; [`RunControl::none()`] is the zero-cost
/// default used by the plain entry points.
#[derive(Clone, Copy, Default)]
pub struct RunControl<'a> {
    /// When set to `true` (by any thread), the run stops at its next
    /// hook point with `CoreError::Aborted`.
    pub abort: Option<&'a AtomicBool>,
    /// Receives progress events; called inline from pipeline threads,
    /// so implementations must be cheap and `Sync`.
    pub progress: Option<&'a ProgressSink<'a>>,
    /// Sub-query memo store the run may consult and populate (see
    /// [`crate::memo`]). `None` disables memoization; results are
    /// byte-identical either way.
    pub memo: Option<&'a MemoHandle>,
}

impl std::fmt::Debug for RunControl<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunControl")
            .field("abort", &self.abort.map(|a| a.load(Ordering::Relaxed)))
            .field("progress", &self.progress.is_some())
            .field("memo", &self.memo.is_some())
            .finish()
    }
}

impl<'a> RunControl<'a> {
    /// A control with neither abort flag nor progress sink.
    pub fn none() -> Self {
        Self::default()
    }

    /// A control that only polls `abort`.
    pub fn with_abort(abort: &'a AtomicBool) -> Self {
        RunControl {
            abort: Some(abort),
            ..RunControl::default()
        }
    }

    /// Returns this control with a memo handle attached.
    pub fn with_memo(mut self, memo: &'a MemoHandle) -> Self {
        self.memo = Some(memo);
        self
    }

    /// Returns `Err(CoreError::Aborted)` if the abort flag is set.
    ///
    /// This is the single hook long stages call; `Acquire` ordering
    /// pairs with the `Release` store canceller threads perform.
    pub fn check(&self) -> Result<()> {
        match self.abort {
            Some(flag) if flag.load(Ordering::Acquire) => Err(CoreError::Aborted),
            _ => Ok(()),
        }
    }

    /// Emits a progress event if a sink is attached.
    pub fn emit(&self, event: ProgressEvent) {
        if let Some(sink) = self.progress {
            sink(event);
        }
    }

    /// Convenience: emit a stage-boundary event.
    pub fn stage(&self, stage: &'static str) {
        self.emit(ProgressEvent::Stage { stage });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn null_control_never_aborts_or_emits() {
        let ctl = RunControl::none();
        assert!(ctl.check().is_ok());
        ctl.stage("score"); // must be a no-op, not a panic
        ctl.emit(ProgressEvent::Selected {
            names: vec![],
            cmi_so_far: 0.0,
            initial_cmi: 0.0,
        });
    }

    #[test]
    fn abort_flag_is_honored_only_once_set() {
        let flag = AtomicBool::new(false);
        let ctl = RunControl::with_abort(&flag);
        assert!(ctl.check().is_ok());
        flag.store(true, Ordering::Release);
        assert_eq!(ctl.check(), Err(CoreError::Aborted));
    }

    #[test]
    fn progress_events_reach_the_sink_in_order() {
        let seen: Mutex<Vec<ProgressEvent>> = Mutex::new(Vec::new());
        let sink = |e: ProgressEvent| seen.lock().unwrap().push(e);
        let ctl = RunControl {
            progress: Some(&sink),
            ..RunControl::default()
        };
        ctl.stage("prune-offline");
        ctl.emit(ProgressEvent::Selected {
            names: vec!["a".into()],
            cmi_so_far: 1.5,
            initial_cmi: 2.0,
        });
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 2);
        assert_eq!(
            seen[0],
            ProgressEvent::Stage {
                stage: "prune-offline"
            }
        );
        assert!(matches!(&seen[1], ProgressEvent::Selected { names, .. } if names == &["a"]));
    }
}

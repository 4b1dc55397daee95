//! The one type checker. Every typing rule — expressions, filters,
//! projections, windows, aggregates, patterns — is written once, in the
//! binding code of [`super::Expr`] and the operator constructors, and
//! reports each failed check through a [`Binder`].
//!
//! A binder runs in one of two modes. **Fail-fast** (query compilation)
//! turns the first failed check into the [`NebulaError`] the caller
//! returns. **Collect** (the pre-flight analyzer) records every failed
//! check as a [`Diagnostic`] at the current operator path and keeps
//! binding: a failed subtree gets a *poisoned* type (`None`), which
//! every rule accepts without a further diagnostic, so one defect yields
//! exactly one finding.

use super::FunctionRegistry;
use crate::analysis::{Code, Diagnostic};
use crate::error::{NebulaError, Result};

/// Binds plans against a [`FunctionRegistry`], failing fast or
/// collecting diagnostics.
pub(crate) struct Binder<'r> {
    registry: &'r FunctionRegistry,
    /// Index of the operator being bound (`op{i}` in paths).
    op: usize,
    /// The current path, kept only while collecting.
    path: String,
    /// `None` fails fast; `Some` collects.
    diags: Option<Vec<Diagnostic>>,
}

impl<'r> Binder<'r> {
    /// A binder whose first failed check is the error.
    pub(crate) fn fail_fast(registry: &'r FunctionRegistry) -> Self {
        Binder {
            registry,
            op: 0,
            path: String::new(),
            diags: None,
        }
    }

    /// A binder that records every failed check and keeps going.
    pub(crate) fn collect(registry: &'r FunctionRegistry) -> Self {
        Binder {
            diags: Some(Vec::new()),
            ..Binder::fail_fast(registry)
        }
    }

    pub(crate) fn registry(&self) -> &'r FunctionRegistry {
        self.registry
    }

    /// Starts binding operator `op` of the plan.
    pub(crate) fn enter(&mut self, op: usize) {
        self.op = op;
    }

    /// Sets the path of the checks that follow to `op{i}:{detail}`.
    pub(crate) fn at(&mut self, detail: impl std::fmt::Display) {
        if self.diags.is_some() {
            self.path = format!("op{}:{detail}", self.op);
        }
    }

    /// Reports a failed check: the error when failing fast, otherwise a
    /// diagnostic at the current path (and `Ok`, so binding goes on).
    pub(crate) fn report(&mut self, code: Code, message: impl Into<String>) -> Result<()> {
        let message = message.into();
        match &mut self.diags {
            Some(diags) => {
                diags.push(Diagnostic::new(code, self.path.as_str(), message));
                Ok(())
            }
            None => Err(match code {
                Code::BadWindowGeometry | Code::MissingTimeField | Code::OperatorInstantiation => {
                    NebulaError::Plan(message)
                }
                _ => NebulaError::Type(message),
            }),
        }
    }

    /// Every diagnostic recorded while collecting.
    pub(crate) fn into_diagnostics(self) -> Vec<Diagnostic> {
        self.diags.unwrap_or_default()
    }
}

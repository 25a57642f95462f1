//! Error type of the front-end.

use std::error::Error;
use std::fmt;

/// Errors reported by elaboration.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum FrontendError {
    /// A referenced port is not declared.
    UnknownPort {
        /// Port name.
        name: String,
    },
    /// A referenced variable is not declared.
    UnknownVar {
        /// Variable name (or id rendering).
        name: String,
    },
    /// A write targets an input port or a read targets an output port.
    PortDirection {
        /// Port name.
        name: String,
    },
    /// A declared output port is written by no statement of the behaviour.
    UnwrittenOutput {
        /// Port name.
        name: String,
    },
    /// The behaviour uses a construct elaboration does not support.
    Unsupported {
        /// Explanation.
        message: String,
    },
    /// Elaboration produced an inconsistent CDFG (internal invariant).
    Elaboration {
        /// Explanation.
        message: String,
    },
}

impl fmt::Display for FrontendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrontendError::UnknownPort { name } => write!(f, "unknown port `{name}`"),
            FrontendError::UnknownVar { name } => write!(f, "unknown variable `{name}`"),
            FrontendError::PortDirection { name } => {
                write!(f, "port `{name}` accessed against its direction")
            }
            FrontendError::UnwrittenOutput { name } => {
                write!(f, "output port `{name}` is never written")
            }
            FrontendError::Unsupported { message } => write!(f, "unsupported construct: {message}"),
            FrontendError::Elaboration { message } => write!(f, "elaboration error: {message}"),
        }
    }
}

impl Error for FrontendError {}

impl From<hls_ir::IrError> for FrontendError {
    fn from(e: hls_ir::IrError) -> Self {
        FrontendError::Elaboration {
            message: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        let errs = [
            FrontendError::UnknownPort { name: "p".into() },
            FrontendError::UnknownVar { name: "v3".into() },
            FrontendError::UnwrittenOutput {
                name: "pixel".into(),
            },
            FrontendError::Unsupported {
                message: "nested threads".into(),
            },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn ir_error_converts() {
        let ir = hls_ir::IrError::MultipleEntries { count: 2 };
        let fe: FrontendError = ir.into();
        assert!(matches!(fe, FrontendError::Elaboration { .. }));
    }
}

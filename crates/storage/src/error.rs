//! Error type for the storage substrate.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// Result alias used throughout `maxson-storage`.
pub type Result<T> = std::result::Result<T, StorageError>;

/// Errors raised by Norc readers, writers, and table management.
#[derive(Debug)]
pub enum StorageError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// A filesystem operation on a known file or directory failed.
    FileIo {
        /// The file or directory operated on.
        path: PathBuf,
        /// The OS error.
        source: io::Error,
    },
    /// A file failed structural validation (bad magic, truncated section,
    /// checksum mismatch, ...).
    Corrupt {
        /// What was being decoded.
        context: String,
    },
    /// The value written or requested does not match the column type.
    TypeMismatch {
        /// Column involved.
        column: String,
        /// Expected column type name.
        expected: &'static str,
        /// What was found instead.
        found: String,
    },
    /// A schema, column, table, or database was not found.
    NotFound {
        /// Description of what was missing.
        what: String,
    },
    /// Rows appended do not match the schema arity or batch shape.
    ShapeMismatch {
        /// Description of the mismatch.
        detail: String,
    },
    /// The requested operation is not valid in the current state.
    InvalidOperation {
        /// Description of the violation.
        detail: String,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "I/O error: {e}"),
            StorageError::FileIo { path, source } => {
                write!(f, "I/O error on {}: {source}", path.display())
            }
            StorageError::Corrupt { context } => write!(f, "corrupt data: {context}"),
            StorageError::TypeMismatch {
                column,
                expected,
                found,
            } => write!(
                f,
                "type mismatch in column '{column}': expected {expected}, found {found}"
            ),
            StorageError::NotFound { what } => write!(f, "not found: {what}"),
            StorageError::ShapeMismatch { detail } => write!(f, "shape mismatch: {detail}"),
            StorageError::InvalidOperation { detail } => {
                write!(f, "invalid operation: {detail}")
            }
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) | StorageError::FileIo { source: e, .. } => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StorageError {
    fn from(e: io::Error) -> Self {
        StorageError::Io(e)
    }
}

impl StorageError {
    /// An I/O error that names the `path` it happened on.
    pub fn io_at(path: impl AsRef<Path>, source: io::Error) -> Self {
        StorageError::FileIo {
            path: path.as_ref().to_path_buf(),
            source,
        }
    }

    /// Convenience constructor for corruption errors.
    pub fn corrupt(context: impl Into<String>) -> Self {
        StorageError::Corrupt {
            context: context.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_context() {
        let e = StorageError::corrupt("footer length");
        assert!(e.to_string().contains("footer length"));
        let e = StorageError::NotFound {
            what: "table mydb.t".into(),
        };
        assert!(e.to_string().contains("mydb.t"));
    }

    #[test]
    fn io_errors_convert() {
        let e: StorageError = io::Error::new(io::ErrorKind::NotFound, "gone").into();
        assert!(matches!(e, StorageError::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn file_io_errors_name_the_path() {
        let e = StorageError::io_at(
            "/warehouse/db/t/part-00003.norc",
            io::Error::new(io::ErrorKind::NotFound, "gone"),
        );
        assert!(e.to_string().contains("part-00003.norc"));
        assert!(format!("{e:?}").contains("part-00003.norc"));
        assert!(std::error::Error::source(&e).is_some());
    }
}

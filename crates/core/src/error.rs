//! [`FacilityError`]: the typed error of facade operations, into which
//! the access layer's, the catalog's, the workflow engine's and the
//! admission front door's errors convert with `?`.

use lsdf_adal::AdalError;
use lsdf_admission::AdmissionError;
use lsdf_metadata::MetadataError;
use lsdf_workflow::WorkflowError;

/// Errors surfaced by facility operations.
#[derive(Debug, Clone, PartialEq)]
pub enum FacilityError {
    /// A project name was registered twice.
    DuplicateProject(String),
    /// No such project.
    UnknownProject(String),
    /// Access-layer failure (auth, path, backend).
    Adal(AdalError),
    /// Metadata-repository failure.
    Metadata(MetadataError),
    /// Workflow failure.
    Workflow(WorkflowError),
    /// Ingest rejected because metadata is missing or invalid and the
    /// facility enforces metadata-at-ingest.
    MetadataRequired {
        /// The offending item's key.
        key: String,
        /// Why validation failed.
        reason: String,
    },
    /// Request shed (or refused) by the multi-tenant admission front
    /// door; the typed error carries `retry_after_ns`.
    Admission(AdmissionError),
}

impl std::fmt::Display for FacilityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FacilityError::DuplicateProject(p) => write!(f, "project '{p}' already registered"),
            FacilityError::UnknownProject(p) => write!(f, "unknown project '{p}'"),
            FacilityError::Adal(e) => write!(f, "{e}"),
            FacilityError::Metadata(e) => write!(f, "{e}"),
            FacilityError::Workflow(e) => write!(f, "{e}"),
            FacilityError::MetadataRequired { key, reason } => {
                write!(f, "ingest of '{key}' rejected: {reason}")
            }
            FacilityError::Admission(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FacilityError {}

impl From<AdalError> for FacilityError {
    fn from(e: AdalError) -> Self {
        FacilityError::Adal(e)
    }
}
impl From<MetadataError> for FacilityError {
    fn from(e: MetadataError) -> Self {
        FacilityError::Metadata(e)
    }
}
impl From<WorkflowError> for FacilityError {
    fn from(e: WorkflowError) -> Self {
        FacilityError::Workflow(e)
    }
}
impl From<AdmissionError> for FacilityError {
    fn from(e: AdmissionError) -> Self {
        FacilityError::Admission(e)
    }
}

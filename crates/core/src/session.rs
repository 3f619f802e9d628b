//! Session-scoped tenant handle: every operation a project performs
//! rides one [`ProjectSession`], which classifies the request into a
//! QoS lane, passes the admission front door, and only then touches
//! the ADAL. This is the API the multi-tenant redesign converges on —
//! facility-level `adal()` access remains for operators and tests.

use bytes::Bytes;

use lsdf_adal::{Credential, HealthReport, OpKind, RequestClass};
use lsdf_admission::{Lane, ProjectUsage, Ticket};
use lsdf_storage::Payload;

use crate::error::FacilityError;
use crate::facility::Facility;
use crate::ingest::{IngestItem, IngestPolicy, IngestReport};

/// A tenant's handle on the facility, scoped to one project and one
/// credential. Obtained from [`Facility::session`] /
/// [`Facility::session_as`].
pub struct ProjectSession<'a> {
    facility: &'a Facility,
    project: String,
    cred: Credential,
}

impl<'a> ProjectSession<'a> {
    pub(crate) fn new(facility: &'a Facility, project: String, cred: Credential) -> Self {
        ProjectSession {
            facility,
            project,
            cred,
        }
    }

    /// The project this session is scoped to.
    pub fn project(&self) -> &str {
        &self.project
    }

    fn path(&self, key: &str) -> String {
        format!("lsdf://{}/{}", self.project, key)
    }

    /// Maps the ADAL's request classification onto the admission lane:
    /// reads ride the interactive (or tape-recall) lane per request,
    /// writes ride the lane the tenant registered for bulk traffic.
    fn lane(&self, class: RequestClass) -> Lane {
        match class {
            RequestClass::InteractiveRead => Lane::Interactive,
            RequestClass::TapeRecall => Lane::TapeRecall,
            RequestClass::BulkWrite => self.facility.default_lane(&self.project),
        }
    }

    /// Stores an object under `key`, passing admission first. Returns
    /// the admission [`Ticket`] (simulated wait + queue depth); a shed
    /// request surfaces as [`FacilityError::Admission`] with
    /// `retry_after_ns`, before any byte reaches storage.
    pub fn put(&self, key: &str, data: impl Into<Payload>) -> Result<Ticket, FacilityError> {
        let data = data.into();
        let class = self.facility.adal().classify(OpKind::Put, &self.project);
        let ticket =
            self.facility
                .admission()
                .admit(&self.project, self.lane(class), data.len() as u64)?;
        self.facility.adal().put(&self.cred, &self.path(key), data)?;
        Ok(ticket)
    }

    /// Fetches the object under `key`; reads spend an operation token
    /// on the interactive (or tape-recall) lane but no byte tokens.
    pub fn get(&self, key: &str) -> Result<Bytes, FacilityError> {
        let class = self.facility.adal().classify(OpKind::Get, &self.project);
        self.facility
            .admission()
            .admit(&self.project, self.lane(class), 0)?;
        Ok(self.facility.adal().get(&self.cred, &self.path(key))?)
    }

    /// Batch-ingests `items` into this session's project (each item's
    /// `project` field is overwritten with the session's). Admission
    /// is decided serially per item before the pool fan-out; shed
    /// items are tallied in [`IngestReport::shed`].
    pub fn ingest_batch(&self, items: Vec<IngestItem>, policy: IngestPolicy) -> IngestReport {
        let items = items
            .into_iter()
            .map(|mut item| {
                // Reuses the item's buffer: no allocation per item.
                item.project.clone_from(&self.project);
                item
            })
            .collect();
        self.facility.ingest_batch(&self.cred, items, policy)
    }

    /// Point-in-time health of the project's mount (breaker state,
    /// journal depth, replica presence).
    pub fn health(&self) -> Option<HealthReport> {
        self.facility.adal().health(&self.project)
    }

    /// The project's front-door account: admitted/shed requests,
    /// admitted bytes, and the governor's current throttle level.
    pub fn usage(&self) -> ProjectUsage {
        self.facility
            .admission()
            .usage(&self.project)
            .unwrap_or_default()
    }
}

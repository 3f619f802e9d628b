//! Session-scoped tenant handle: every operation a project performs
//! rides one [`ProjectSession`]. A session is a resolved capability. It
//! holds the project opened in the ADAL for its credential (a
//! [`ProjectHandle`]), the project's admission [`Account`] and the lane
//! its writes ride, so an op authorizes, passes the front door and
//! reaches the backend without looking any of them up by name. This is
//! the API the multi-tenant redesign converges on — facility-level
//! `adal()` access remains for operators and tests.

use std::cell::RefCell;

use bytes::Bytes;

use lsdf_adal::{Credential, HealthReport, OpKind, ProjectHandle, RequestClass};
use lsdf_admission::{Account, Lane, ProjectUsage, Ticket};
use lsdf_storage::Payload;

use crate::error::FacilityError;
use crate::facility::Facility;
use crate::ingest::{IngestItem, IngestPolicy, IngestReport};

/// A tenant's handle on the facility, scoped to one project and one
/// credential. Obtained from [`Facility::session`] /
/// [`Facility::session_as`].
///
/// An op first checks the session's handle: opened on the first op,
/// re-opened when a grant, a token or a mount changed since (a revoke
/// fails the very next op), and never kept when the ADAL refused it (the
/// next op opens anew). Only then does it spend an admission token, so
/// a refused request spends none. The handle lives in a `RefCell`: a
/// session is one thread's, and every thread opens its own.
pub struct ProjectSession<'a> {
    facility: &'a Facility,
    project: String,
    cred: Credential,
    handle: RefCell<Option<ProjectHandle<'a>>>,
    account: Account,
    write_lane: Lane,
}

impl<'a> ProjectSession<'a> {
    pub(crate) fn new(
        facility: &'a Facility,
        project: String,
        cred: Credential,
        account: Account,
        write_lane: Lane,
    ) -> Self {
        ProjectSession {
            facility,
            project,
            cred,
            handle: RefCell::new(None),
            account,
            write_lane,
        }
    }

    /// The project this session is scoped to.
    pub fn project(&self) -> &str {
        &self.project
    }

    /// Runs `op` on the session's handle, opening it first when there is
    /// none or it is no longer current. A refused open is returned (the
    /// ADAL counted it denied) before `op` runs, and is not kept.
    fn with_handle<T>(
        &self,
        op: impl FnOnce(&ProjectHandle<'a>) -> Result<T, FacilityError>,
    ) -> Result<T, FacilityError> {
        let mut slot = self.handle.borrow_mut();
        if let Some(handle) = slot.as_ref().filter(|h| h.is_current()) {
            return op(handle);
        }
        *slot = None;
        let handle = slot.insert(self.facility.adal().open(&self.cred, &self.project)?);
        op(handle)
    }

    /// Stores an object under `key`, passing admission first. Returns
    /// the admission [`Ticket`] (simulated wait + queue depth); a shed
    /// request surfaces as [`FacilityError::Admission`] with
    /// `retry_after_ns`, before any byte reaches storage.
    pub fn put(&self, key: &str, data: impl Into<Payload>) -> Result<Ticket, FacilityError> {
        let data = data.into();
        self.with_handle(|handle| {
            handle.authorize(OpKind::Put)?;
            let ticket = self.account.admit(self.write_lane, data.len() as u64)?;
            handle.put(key, data)?;
            Ok(ticket)
        })
    }

    /// Fetches the object under `key`; reads spend an operation token
    /// on the interactive (or, on an HSM mount, tape-recall) lane but
    /// no byte tokens.
    pub fn get(&self, key: &str) -> Result<Bytes, FacilityError> {
        self.with_handle(|handle| {
            let lane = match handle.read_class() {
                RequestClass::InteractiveRead => Lane::Interactive,
                RequestClass::TapeRecall => Lane::TapeRecall,
            };
            self.account.admit(lane, 0)?;
            Ok(handle.get(key)?)
        })
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
        self.account.usage()
    }
}

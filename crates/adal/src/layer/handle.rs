//! A project opened once for a credential: the capability every op on
//! it presents instead of a credential and a path.

use std::borrow::Cow;
use std::sync::atomic::Ordering;

use bytes::Bytes;
use lsdf_obs::TraceCtx;
use lsdf_storage::Payload;

use super::{Adal, AdalError, Mount, OpKind, PendingPut, RequestClass};
use crate::auth::{Access, AuthError, Credential};
use crate::path::{LsdfPath, PathError};

/// A project opened for one credential by [`Adal::open`]: the
/// principal, whether it may write, the mount and the read-side
/// [`RequestClass`], resolved once under the auth, ACL and mount epochs
/// read before resolving. Each op on the handle compares those epochs
/// with the current ones (`Acquire` loads) and, when one moved, re-opens
/// the project for that op, so no op is served under a revoked grant, a
/// re-registered token or a replaced mount. The holder re-opens the
/// handle for good when [`ProjectHandle::is_current`] turns false.
#[derive(Clone)]
pub struct ProjectHandle<'a> {
    adal: &'a Adal,
    cred: Credential,
    project: String,
    epochs: [u64; 3],
    user: String,
    may_write: bool,
    mount: Mount,
}

impl ProjectHandle<'_> {
    /// How the front door should treat the project's reads.
    pub fn read_class(&self) -> RequestClass {
        self.mount.read_class
    }

    /// False once a grant, a token or a mount changed after the handle
    /// resolved (it may or may not concern this handle).
    pub fn is_current(&self) -> bool {
        self.epochs == self.adal.epochs()
    }

    /// Refuses `op` when it writes and the principal may only read: a
    /// denied request, counted once. Every op on the handle checks this
    /// itself; a caller that must not act on a refused op (spend an
    /// admission token) asks first.
    pub fn authorize(&self, op: OpKind) -> Result<(), AdalError> {
        if self.may_write || op.access() == Access::Read {
            return Ok(());
        }
        self.adal.ops.denied.inc();
        let (user, project) = (self.user.clone(), self.project.clone());
        Err(AuthError::Denied { user, project, access: Access::Write }.into())
    }

    /// Stores an object under `key`: a staged put and its commit.
    pub fn put(&self, key: &str, data: impl Into<Payload>) -> Result<(), AdalError> {
        self.adal.put_at(Target::Key(self, key), data)
    }

    /// Stages a put of `key` for a later batched commit; see
    /// [`Adal::put_stage_traced`].
    pub fn put_stage(&self, parent: &TraceCtx, key: &str, data: impl Into<Payload>) -> Result<PendingPut, AdalError> {
        self.adal.stage(parent, Target::Key(self, key), data)
    }

    /// Fetches the object under `key`.
    pub fn get(&self, key: &str) -> Result<Bytes, AdalError> {
        self.adal.get_at(Target::Key(self, key))
    }
}

/// What an operation names: a path, with the credential to open its
/// project for, or a key of a project already open.
#[derive(Clone, Copy)]
pub(super) enum Target<'t> {
    Path(&'t Credential, &'t str),
    Key(&'t ProjectHandle<'t>, &'t str),
}

impl Target<'_> {
    /// The `lsdf://project/key` the operation names: its trace's key.
    pub(super) fn path(&self) -> Cow<'_, str> {
        match self {
            Target::Path(_, path) => Cow::Borrowed(path),
            Target::Key(handle, key) => Cow::Owned(format!("lsdf://{}/{key}", handle.project)),
        }
    }
}

impl Adal {
    /// The auth, ACL and mount epochs, read before a handle resolves and
    /// compared on each of its ops.
    fn epochs(&self) -> [u64; 3] {
        [self.auth.epoch(), self.acl.epoch(), self.mount_epoch.load(Ordering::Acquire)]
    }

    /// Opens `project` for `cred`: authenticates, checks that the
    /// principal holds a grant on it (every grant may read) and finds
    /// the mount. A refused open is a denied request, counted once in
    /// `adal_denied_total`; a project with no mount is
    /// [`AdalError::NoMount`].
    pub fn open(&self, cred: &Credential, project: &str) -> Result<ProjectHandle<'_>, AdalError> {
        let epochs = self.epochs();
        let (user, may_write, mount) = self.resolve(cred, project, Access::Read)?;
        let (cred, project) = (cred.clone(), project.to_string());
        Ok(ProjectHandle { adal: self, cred, project, epochs, user, may_write, mount })
    }

    /// What opening resolves, for an op that needs `access`: the
    /// principal, whether it may write, and the mount. A principal
    /// without `access` is refused here.
    fn resolve(&self, cred: &Credential, project: &str, access: Access) -> Result<(String, bool, Mount), AdalError> {
        let denied = |e: AuthError| {
            self.ops.denied.inc();
            AdalError::Auth(e)
        };
        let user = self.auth.authenticate(cred).map_err(denied)?.user;
        let granted = self.acl.granted(&user, project);
        if !granted.is_some_and(|g| g.permits(access)) {
            return Err(denied(AuthError::Denied { user, project: project.to_string(), access }));
        }
        let mount = self.mounts.read().get(project).cloned();
        let mount = mount.ok_or_else(|| AdalError::NoMount(project.to_string()))?;
        Ok((user, granted == Some(Access::Write), mount))
    }

    /// The front half of every operation, between its latency span and
    /// its backend call: only a listing may name a whole project; the
    /// op's mount comes from a current handle once `op` is authorized,
    /// else (a path, or a handle whose epochs moved) from resolving the
    /// project for this op. The key comes back borrowed from `at`.
    pub(super) fn enter<'t>(&'t self, op: OpKind, at: Target<'t>) -> Result<(Cow<'t, Mount>, &'t str), AdalError> {
        let (cred, project, key) = match at {
            Target::Path(cred, path) => {
                let (project, key) = LsdfPath::split(path)?;
                (cred, project, key)
            }
            Target::Key(handle, key) => (&handle.cred, handle.project.as_str(), key),
        };
        if key.is_empty() && op != OpKind::List {
            return Err(PathError::EmptyKey(at.path().into_owned()).into());
        }
        let mount = match at {
            Target::Key(handle, _) if handle.is_current() => {
                handle.authorize(op)?;
                Cow::Borrowed(&handle.mount)
            }
            _ => Cow::Owned(self.resolve(cred, project, op.access())?.2),
        };
        Ok((mount, key))
    }
}

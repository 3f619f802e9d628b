//! Authentication and per-project authorization.
//!
//! The ADAL is "extensible to support new backends, **authentication
//! mechanisms**" (paper, slide 9). We provide token credentials validated
//! by a pluggable [`AuthProvider`], and per-project ACLs with read/write
//! permission bits.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use lsdf_sync::{ranks, OrderedRwLock};

/// A presented credential.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Credential {
    /// An opaque API token.
    Token(String),
    /// The anonymous principal.
    Anonymous,
}

/// A resolved identity.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Principal {
    /// User name.
    pub user: String,
}

/// Requested access level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Read objects and metadata.
    Read,
    /// Ingest new objects.
    Write,
}

impl Access {
    /// Whether holding `self` permits `wanted`: a writer may also read.
    pub fn permits(self, wanted: Access) -> bool {
        self == Access::Write || wanted == Access::Read
    }
}

/// Authentication / authorization failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuthError {
    /// Credential not recognised.
    InvalidCredential,
    /// Principal lacks the permission on the project.
    Denied {
        /// The user.
        user: String,
        /// The project.
        project: String,
        /// What was requested.
        access: Access,
    },
}

impl std::fmt::Display for AuthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuthError::InvalidCredential => write!(f, "invalid credential"),
            AuthError::Denied {
                user,
                project,
                access,
            } => write!(f, "user '{user}' denied {access:?} on '{project}'"),
        }
    }
}

impl std::error::Error for AuthError {}

/// Resolves credentials to principals. Implementations can wrap whatever
/// mechanism a site uses (static tokens here; X.509 or LDAP in a real
/// deployment).
pub trait AuthProvider: Send + Sync {
    /// Authenticates a credential.
    fn authenticate(&self, cred: &Credential) -> Result<Principal, AuthError>;

    /// A number that moves whenever a credential may come to resolve
    /// differently (a token registered, re-registered or dropped), bumped
    /// with a `Release` store after the change. A project handle records
    /// it before it resolves and re-resolves on its next op once it has
    /// moved; a provider whose answers never change returns a constant.
    fn epoch(&self) -> u64;
}

/// A static token registry.
pub struct TokenAuth {
    tokens: OrderedRwLock<HashMap<String, String>>,
    /// Bumped by every [`TokenAuth::register`].
    epoch: AtomicU64,
    /// Whether anonymous access resolves to a `guest` principal.
    allow_anonymous: bool,
}

impl Default for TokenAuth {
    fn default() -> Self {
        Self::new()
    }
}

impl TokenAuth {
    /// An empty registry denying anonymous access.
    pub fn new() -> Self {
        TokenAuth {
            tokens: OrderedRwLock::new(ranks::ADAL_AUTH_TOKENS, HashMap::new()),
            epoch: AtomicU64::new(0),
            allow_anonymous: false,
        }
    }

    /// Allows anonymous access as user `guest`.
    pub fn with_anonymous(mut self) -> Self {
        self.allow_anonymous = true;
        self
    }

    /// Registers a token for a user (re-registering moves it to `user`).
    pub fn register(&self, token: &str, user: &str) {
        self.tokens
            .write()
            .insert(token.to_string(), user.to_string());
        self.epoch.fetch_add(1, Ordering::Release);
    }
}

impl AuthProvider for TokenAuth {
    fn authenticate(&self, cred: &Credential) -> Result<Principal, AuthError> {
        match cred {
            Credential::Token(t) => self
                .tokens
                .read()
                .get(t)
                .map(|u| Principal { user: u.clone() })
                .ok_or(AuthError::InvalidCredential),
            Credential::Anonymous => {
                if self.allow_anonymous {
                    Ok(Principal {
                        user: "guest".to_string(),
                    })
                } else {
                    Err(AuthError::InvalidCredential)
                }
            }
        }
    }

    fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }
}

/// Per-project access-control lists.
pub struct Acl {
    /// user → project → may write (every grant may read): nested so
    /// that a check probes with the two borrowed names it was given.
    grants: OrderedRwLock<HashMap<String, HashMap<String, bool>>>,
    /// Bumped by every grant and revoke; see [`Acl::epoch`].
    epoch: AtomicU64,
}

impl Default for Acl {
    fn default() -> Self {
        Self::new()
    }
}

impl Acl {
    /// An empty ACL (denies everything).
    pub fn new() -> Self {
        Acl {
            grants: OrderedRwLock::new(ranks::ADAL_ACL_GRANTS, HashMap::new()),
            epoch: AtomicU64::new(0),
        }
    }

    /// Grants read (and optionally write) on `project` to `user`.
    pub fn grant(&self, user: &str, project: &str, write: bool) {
        let mut grants = self.grants.write();
        grants.entry(user.to_string()).or_default().insert(project.to_string(), write);
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// Revokes all access on `project` from `user`.
    pub fn revoke(&self, user: &str, project: &str) {
        if let Some(projects) = self.grants.write().get_mut(user) {
            projects.remove(project);
        }
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// A number that moves with every grant and revoke, bumped with a
    /// `Release` store after the change: what a project handle compares
    /// per op to see that the access it resolved may have changed.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The most `user` may do on `project`: `None` without a grant.
    pub fn granted(&self, user: &str, project: &str) -> Option<Access> {
        let grants = self.grants.read();
        let may_write = *grants.get(user)?.get(project)?;
        Some(if may_write { Access::Write } else { Access::Read })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_auth_resolves_known_tokens() {
        let auth = TokenAuth::new();
        auth.register("s3cret", "garcia");
        let p = auth
            .authenticate(&Credential::Token("s3cret".into()))
            .unwrap();
        assert_eq!(p.user, "garcia");
        assert_eq!(
            auth.authenticate(&Credential::Token("wrong".into())),
            Err(AuthError::InvalidCredential)
        );
    }

    #[test]
    fn anonymous_configurable() {
        let strict = TokenAuth::new();
        assert!(strict.authenticate(&Credential::Anonymous).is_err());
        let open = TokenAuth::new().with_anonymous();
        assert_eq!(
            open.authenticate(&Credential::Anonymous).unwrap().user,
            "guest"
        );
    }

    #[test]
    fn acl_read_write_separation() {
        let acl = Acl::new();
        acl.grant("alice", "zebrafish", false); // read-only
        assert_eq!(acl.granted("alice", "zebrafish"), Some(Access::Read));
        assert!(!Access::Read.permits(Access::Write));
        acl.grant("alice", "zebrafish", true);
        assert_eq!(acl.granted("alice", "zebrafish"), Some(Access::Write));
        assert!(Access::Write.permits(Access::Read));
        // Other projects still denied.
        assert_eq!(acl.granted("alice", "katrin"), None);
        acl.revoke("alice", "zebrafish");
        assert_eq!(acl.granted("alice", "zebrafish"), None);
    }

    #[test]
    fn grants_are_per_user_and_per_project() {
        let acl = Acl::new();
        acl.grant("alice", "zebrafish", true);
        acl.grant("alice", "katrin", false);
        acl.grant("bob", "katrin", true);
        // One project's grant is not another's, for the same user.
        assert_eq!(acl.granted("alice", "katrin"), Some(Access::Read));
        assert_eq!(acl.granted("bob", "zebrafish"), None);
        // A revoke takes that grant and leaves the user's others.
        acl.revoke("alice", "zebrafish");
        assert_eq!(acl.granted("alice", "zebrafish"), None);
        assert_eq!(acl.granted("alice", "katrin"), Some(Access::Read));
        assert_eq!(acl.granted("bob", "katrin"), Some(Access::Write));
        // Revoking what was never granted is a no-op.
        acl.revoke("carol", "katrin");
        acl.revoke("bob", "zebrafish");
        assert_eq!(acl.granted("bob", "katrin"), Some(Access::Write));
    }

    #[test]
    fn every_grant_revoke_and_registration_moves_an_epoch() {
        let (acl, auth) = (Acl::new(), TokenAuth::new());
        let (a0, t0) = (acl.epoch(), auth.epoch());
        acl.grant("alice", "zebrafish", true);
        acl.revoke("alice", "zebrafish");
        auth.register("s3cret", "alice");
        auth.register("s3cret", "bob");
        assert_eq!((acl.epoch() - a0, auth.epoch() - t0), (2, 2));
        let p = auth.authenticate(&Credential::Token("s3cret".into())).unwrap();
        assert_eq!(p.user, "bob");
    }
}

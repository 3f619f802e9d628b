//! Authentication and per-project authorization.
//!
//! The ADAL is "extensible to support new backends, **authentication
//! mechanisms**" (paper, slide 9). We provide token credentials validated
//! by a pluggable [`AuthProvider`], and per-project ACLs with read/write
//! permission bits.

use std::collections::HashMap;

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
}

/// A static token registry.
pub struct TokenAuth {
    tokens: OrderedRwLock<HashMap<String, String>>,
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
            allow_anonymous: false,
        }
    }

    /// Allows anonymous access as user `guest`.
    pub fn with_anonymous(mut self) -> Self {
        self.allow_anonymous = true;
        self
    }

    /// Registers a token for a user.
    pub fn register(&self, token: &str, user: &str) {
        self.tokens
            .write()
            .insert(token.to_string(), user.to_string());
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
}

/// Per-project access-control lists.
pub struct Acl {
    /// user → project → may write (every grant may read): nested so
    /// that a check probes with the two borrowed names it was given.
    grants: OrderedRwLock<HashMap<String, HashMap<String, bool>>>,
}

impl Default for Acl {
    fn default() -> Self {
        Self::new()
    }
}

impl Acl {
    /// An empty ACL (denies everything).
    pub fn new() -> Self {
        Acl { grants: OrderedRwLock::new(ranks::ADAL_ACL_GRANTS, HashMap::new()) }
    }

    /// Grants read (and optionally write) on `project` to `user`.
    pub fn grant(&self, user: &str, project: &str, write: bool) {
        let mut grants = self.grants.write();
        grants.entry(user.to_string()).or_default().insert(project.to_string(), write);
    }

    /// Revokes all access on `project` from `user`.
    pub fn revoke(&self, user: &str, project: &str) {
        if let Some(projects) = self.grants.write().get_mut(user) {
            projects.remove(project);
        }
    }

    /// Checks an access request.
    pub fn check(
        &self,
        principal: &Principal,
        project: &str,
        access: Access,
    ) -> Result<(), AuthError> {
        let grants = self.grants.read();
        let ok = grants
            .get(principal.user.as_str())
            .and_then(|projects| projects.get(project))
            .is_some_and(|&may_write| may_write || access == Access::Read);
        if ok {
            Ok(())
        } else {
            Err(AuthError::Denied {
                user: principal.user.clone(),
                project: project.to_string(),
                access,
            })
        }
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
        let alice = Principal {
            user: "alice".into(),
        };
        acl.grant("alice", "zebrafish", false); // read-only
        assert!(acl.check(&alice, "zebrafish", Access::Read).is_ok());
        assert!(matches!(
            acl.check(&alice, "zebrafish", Access::Write),
            Err(AuthError::Denied { .. })
        ));
        acl.grant("alice", "zebrafish", true);
        assert!(acl.check(&alice, "zebrafish", Access::Write).is_ok());
        // Other projects still denied.
        assert!(acl.check(&alice, "katrin", Access::Read).is_err());
        acl.revoke("alice", "zebrafish");
        assert!(acl.check(&alice, "zebrafish", Access::Read).is_err());
    }

    #[test]
    fn grants_are_per_user_and_per_project() {
        let acl = Acl::new();
        let (alice, bob) = (Principal { user: "alice".into() }, Principal { user: "bob".into() });
        acl.grant("alice", "zebrafish", true);
        acl.grant("alice", "katrin", false);
        acl.grant("bob", "katrin", true);
        // One project's grant is not another's, for the same user.
        assert!(acl.check(&alice, "katrin", Access::Write).is_err());
        assert!(acl.check(&bob, "zebrafish", Access::Read).is_err());
        // A revoke takes that grant and leaves the user's others.
        acl.revoke("alice", "zebrafish");
        assert_eq!(
            acl.check(&alice, "zebrafish", Access::Read),
            Err(AuthError::Denied {
                user: "alice".into(),
                project: "zebrafish".into(),
                access: Access::Read,
            })
        );
        assert!(acl.check(&alice, "katrin", Access::Read).is_ok());
        assert!(acl.check(&bob, "katrin", Access::Write).is_ok());
        // Revoking what was never granted is a no-op.
        acl.revoke("carol", "katrin");
        acl.revoke("bob", "zebrafish");
        assert!(acl.check(&bob, "katrin", Access::Write).is_ok());
    }
}

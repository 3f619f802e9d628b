//! The unified `lsdf://project/path` namespace.

use std::fmt;

/// A parsed LSDF path: `lsdf://<project>/<key>`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LsdfPath {
    /// Project (mount) name.
    pub project: String,
    /// Key within the project's backend.
    pub key: String,
}

/// Path parsing failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathError {
    /// Missing the `lsdf://` scheme prefix.
    BadScheme(String),
    /// Empty project component.
    EmptyProject(String),
    /// Empty key component.
    EmptyKey(String),
}

impl fmt::Display for PathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathError::BadScheme(p) => write!(f, "'{p}': expected lsdf:// scheme"),
            PathError::EmptyProject(p) => write!(f, "'{p}': empty project"),
            PathError::EmptyKey(p) => write!(f, "'{p}': empty key"),
        }
    }
}

impl std::error::Error for PathError {}

impl LsdfPath {
    /// Builds a path from components.
    pub fn new(project: &str, key: &str) -> Self {
        LsdfPath {
            project: project.to_string(),
            key: key.trim_start_matches('/').to_string(),
        }
    }

    /// The project and key of `lsdf://project/key/with/slashes`,
    /// borrowed from `s`: what an operation that only reads them needs.
    /// The key may be empty (`lsdf://project/` and `lsdf://project` name
    /// a whole project, as a listing prefix).
    pub fn split(s: &str) -> Result<(&str, &str), PathError> {
        let rest = s
            .strip_prefix("lsdf://")
            .ok_or_else(|| PathError::BadScheme(s.to_string()))?;
        let (project, key) = rest.split_once('/').unwrap_or((rest, ""));
        if project.is_empty() {
            return Err(PathError::EmptyProject(s.to_string()));
        }
        Ok((project, key))
    }

    /// Parses a listing prefix: like [`LsdfPath::parse`] but the key may
    /// be empty (`lsdf://project/` lists a whole project).
    pub fn parse_prefix(s: &str) -> Result<Self, PathError> {
        let (project, key) = Self::split(s)?;
        Ok(LsdfPath {
            project: project.to_string(),
            key: key.to_string(),
        })
    }

    /// Parses `lsdf://project/key/with/slashes`.
    pub fn parse(s: &str) -> Result<Self, PathError> {
        match Self::parse_prefix(s)? {
            p if p.key.is_empty() => Err(PathError::EmptyKey(s.to_string())),
            p => Ok(p),
        }
    }
}

impl fmt::Display for LsdfPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lsdf://{}/{}", self.project, self.key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        let p = LsdfPath::parse("lsdf://zebrafish/raw/day1/img-001.raw").unwrap();
        assert_eq!(p.project, "zebrafish");
        assert_eq!(p.key, "raw/day1/img-001.raw");
        assert_eq!(p.to_string(), "lsdf://zebrafish/raw/day1/img-001.raw");
        assert_eq!(LsdfPath::parse(&p.to_string()).unwrap(), p);
    }

    #[test]
    fn bad_paths_rejected() {
        assert!(matches!(
            LsdfPath::parse("http://x/y"),
            Err(PathError::BadScheme(_))
        ));
        assert!(matches!(
            LsdfPath::parse("lsdf:///key"),
            Err(PathError::EmptyProject(_))
        ));
        assert!(matches!(
            LsdfPath::parse("lsdf://proj/"),
            Err(PathError::EmptyKey(_))
        ));
        assert!(matches!(
            LsdfPath::parse("lsdf://proj"),
            Err(PathError::EmptyKey(_))
        ));
    }

    #[test]
    fn split_borrows_the_halves_and_allows_an_empty_key() {
        assert_eq!(
            LsdfPath::split("lsdf://zebrafish/raw/day1/img-001.raw"),
            Ok(("zebrafish", "raw/day1/img-001.raw"))
        );
        assert_eq!(LsdfPath::split("lsdf://proj/"), Ok(("proj", "")));
        assert_eq!(LsdfPath::split("lsdf://proj"), Ok(("proj", "")));
        assert_eq!(LsdfPath::split("http://x/y"), Err(PathError::BadScheme("http://x/y".into())));
        assert_eq!(LsdfPath::split("lsdf:///k"), Err(PathError::EmptyProject("lsdf:///k".into())));
    }

    #[test]
    fn parse_prefix_allows_empty_key() {
        let p = LsdfPath::parse_prefix("lsdf://proj/").unwrap();
        assert_eq!((p.project.as_str(), p.key.as_str()), ("proj", ""));
        let p = LsdfPath::parse_prefix("lsdf://proj").unwrap();
        assert_eq!(p.key, "");
        let p = LsdfPath::parse_prefix("lsdf://proj/sub/").unwrap();
        assert_eq!(p.key, "sub/");
        assert!(LsdfPath::parse_prefix("lsdf:///x").is_err());
    }

    #[test]
    fn new_trims_leading_slash() {
        assert_eq!(LsdfPath::new("p", "/a/b").key, "a/b");
    }
}

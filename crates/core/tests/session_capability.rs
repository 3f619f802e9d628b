//! A session resolves its project once (principal, grant, mount,
//! admission account) yet never serves an op under authority that has
//! changed since, and never spends a token on a request it refuses.

use std::sync::Arc;

use bytes::Bytes;
use lsdf_core::prelude::*;
use lsdf_adal::{Access, AuthError, ObjectStoreBackend};
use lsdf_metadata::zebrafish_schema;
use lsdf_workloads::microscopy::HtmGenerator;

const PROJECT: &str = "zebrafish-htm";

fn b(s: &'static str) -> Bytes {
    Bytes::from_static(s.as_bytes())
}

fn denied_as(user: &str) -> impl Fn(&Result<Bytes, FacilityError>) -> bool + '_ {
    move |r| {
        matches!(r, Err(FacilityError::Adal(AdalError::Auth(AuthError::Denied { user: u, .. }))) if u == user)
    }
}

#[test]
fn revoke_remount_and_a_moved_token_apply_on_the_next_op() {
    let store = BackendChoice::ObjectStore { capacity: u64::MAX };
    let f = Facility::builder().tenant(ProjectSpec::new(zebrafish_schema(), store)).build().unwrap();
    f.register_user("tok", "alice");
    f.grant("alice", PROJECT, true);
    let session = f.session_as(PROJECT, Credential::Token("tok".into())).unwrap();
    session.put("a", b("one")).unwrap();
    assert_eq!(session.get("a").unwrap(), b("one"));

    // A revoke between two gets fails the second, and spends no token.
    f.revoke("alice", PROJECT);
    let admitted = session.usage().admitted;
    assert!(denied_as("alice")(&session.get("a")));
    assert_eq!(session.usage().admitted, admitted);
    f.grant("alice", PROJECT, true);
    assert_eq!(session.get("a").unwrap(), b("one"));

    // A remount between two gets makes the second read the new backend.
    let migrated = Arc::new(ObjectStore::new("migrated", u64::MAX));
    migrated.put("a", b("two")).unwrap();
    f.adal().mount(PROJECT, Arc::new(ObjectStoreBackend::new(migrated)));
    assert_eq!(session.get("a").unwrap(), b("two"));

    // The token moves to bob, who holds no grant, then a read-only one:
    // his read passes, his write is refused before admission.
    f.register_user("tok", "bob");
    assert!(denied_as("bob")(&session.get("a")));
    f.grant("bob", PROJECT, false);
    assert_eq!(session.get("a").unwrap(), b("two"));
    let admitted = session.usage().admitted;
    let write = session.put("b", b("x"));
    assert!(
        matches!(&write, Err(FacilityError::Adal(AdalError::Auth(AuthError::Denied { access: Access::Write, .. })))),
        "{write:?}"
    );
    assert_eq!(session.usage().admitted, admitted);
    eprintln!("revoke/remount took effect on the next op");
}

#[test]
fn a_refused_request_spends_no_admission_token() {
    // Seven interactive tokens and a deep queue, on a stopped clock: a
    // request admitted past the seventh would wait.
    let quota = QuotaSpec::per_second(7, 1 << 20).queue_depth(64);
    let store = BackendChoice::ObjectStore { capacity: u64::MAX };
    let spec = ProjectSpec::new(zebrafish_schema(), store).quota(quota);
    let f = Facility::builder().tenant(spec).build().unwrap();
    f.obs().set_virtual_time_ns(1);
    let owner = f.session(PROJECT).unwrap();
    owner.put("k", b("px")).unwrap();
    let series = || -> Vec<String> {
        let snap = f.obs().snapshot();
        let counters = snap.counters.iter().map(|(id, v)| format!("{id} {v}"));
        let gauges = snap.gauges.iter().map(|(id, v)| format!("{id} {v}"));
        let waits = snap.histograms.iter().map(|(id, h)| format!("{id} {}", h.count));
        counters.chain(gauges).chain(waits).filter(|s| s.starts_with("admission_")).collect()
    };
    let before = (owner.usage(), series());

    // A stranger hammers the project through a session and a batch.
    let stranger = Credential::Token("stranger".into());
    let session = f.session_as(PROJECT, stranger.clone()).unwrap();
    for _ in 0..10 {
        let r = session.get("k");
        assert!(matches!(r, Err(FacilityError::Adal(AdalError::Auth(AuthError::InvalidCredential)))), "{r:?}");
    }
    let mut gen = HtmGenerator::new(5, 32);
    let items: Vec<IngestItem> = gen.next_fish().into_iter().take(6).map(|(acq, img)| IngestItem {
        project: PROJECT.into(),
        key: acq.key(),
        data: img.encode(),
        metadata: Some(acq.document()),
    }).collect();
    let report = f.ingest_batch(&stranger, items, IngestPolicy::default());
    assert_eq!((report.registered, report.rejected, report.shed), (0, 6, 0));
    // Each refused op is one denial; none moved an admission series.
    assert_eq!(f.obs().counter_value(names::ADAL_DENIED_TOTAL, &[]), 16);
    assert_eq!((owner.usage(), series()), before);

    // The owner's next get is admitted at once.
    owner.get("k").unwrap();
    let waits = f.obs().histogram(names::ADMISSION_WAIT_NS, &[("project", PROJECT), ("lane", "interactive")]);
    assert_eq!((waits.count(), waits.sum()), (1, 0));
}

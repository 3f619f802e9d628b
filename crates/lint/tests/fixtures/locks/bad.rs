// Fixture: locks outside the lsdf-sync wrappers. Each construction —
// std::sync or parking_lot — must trip L5 (lock_order) as a raw lock
// outside crates/sync/; the shard vector must trip L4 (locks).
use std::sync::{Mutex, RwLock};

pub struct Shared {
    inner: std::sync::Mutex<Vec<u8>>,
    index: RwLock<u32>,
    ready: parking_lot::Condvar,
}

impl Shared {
    pub fn new() -> Self {
        Self {
            inner: std::sync::Mutex::new(Vec::new()),
            index: RwLock::new(0),
            ready: parking_lot::Condvar::new(),
        }
    }
}

pub fn scratch() -> parking_lot::Mutex<u8> {
    parking_lot::Mutex::new(0)
}

pub struct AdHocShards {
    // A private shard array outside lsdf_dfs::shard must fire L4.
    stripes: Vec<parking_lot::RwLock<Vec<u8>>>,
}

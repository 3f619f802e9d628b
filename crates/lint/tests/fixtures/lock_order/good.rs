//! L5 fixture (good): every construction names a declared rank, as a
//! field init, inside a wrapper, or with the rank on the next line.

use std::sync::Arc;

use lsdf_sync::{ranks, OrderedMutex, OrderedRwLock};

pub struct Facility {
    table: Arc<OrderedRwLock<u32>>,
    state: OrderedMutex<u32>,
}

impl Facility {
    pub fn new() -> Self {
        Self {
            table: Arc::new(OrderedRwLock::new(ranks::OUTER, 0)),
            state: OrderedMutex::new(
                ranks::INNER,
                0,
            ),
        }
    }
}

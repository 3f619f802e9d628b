// Fixture: the constructions of `bad.rs`, each under a justified
// per-line waiver — no findings allowed.
use parking_lot::{Condvar, Mutex};

pub struct Gate {
    open: Mutex<bool>,
    changed: Condvar,
}

impl Gate {
    pub fn new() -> Self {
        Self {
            // lint: allow(lock_order) -- guards one flag; held only across the condvar wait below
            open: Mutex::new(false),
            changed: Condvar::new(), // lint: allow(lock_order) -- a condvar has no ordered wrapper
        }
    }

    pub fn wait(&self) {
        let mut open = self.open.lock();
        while !*open {
            self.changed.wait(&mut open);
        }
    }
}

pub fn poison_tolerant() -> u8 {
    // lint: allow(lock_order) -- function-local, never shared
    let m = std::sync::Mutex::new(7u8);
    let v = *m.lock().unwrap_or_else(|e| e.into_inner());
    v
}

// Fixture: a waiver without its `-- why`. The annotation is malformed
// (one `annotation` violation) and waives nothing (the raw lock still
// trips L5).
pub fn scratch() -> parking_lot::Mutex<u8> {
    parking_lot::Mutex::new(0) // lint: allow(lock_order)
}

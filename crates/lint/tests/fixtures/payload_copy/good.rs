// Fixture: the handle is shared, and the one clone that is a refcount
// bump says so — no L6 findings allowed.
pub fn stash(data: &Payload, out: &mut Vec<Payload>) {
    // lint: allow(payload_copy) -- Payload handle clone: refcount bump
    out.push(data.clone());
}

// Fixture: one deep copy of a payload binding on the ADAL data path —
// must trip L6 (payload_copy) with no baseline to absorb it.
pub fn stash(data: &[u8], out: &mut Vec<Vec<u8>>) {
    out.push(data.to_vec());
}

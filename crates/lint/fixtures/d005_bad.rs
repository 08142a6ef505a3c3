// D005 bad fixture — analyzed as crates/pipeline/src/transport.rs.
// Lock guards held across blocking channel/socket calls: hold time becomes
// coupled to network latency.

pub fn broadcast(state: &Mutex<Vec<u64>>, tx: &Sender<u64>) {
    let guard = state.lock();
    for v in guard.clone() {
        tx.send(v);
    }
}

pub fn flush_under_read_lock(shards: &RwLock<Vec<u8>>, stream: &mut TcpStream) {
    let snapshot = shards.read();
    stream.write_all(&snapshot);
    stream.flush();
}

// std's locks return the guard inside a `LockResult`: unwrapped, recovered
// from poison or passed through a helper, the binding is still the guard.
pub fn reply_under_recovered_guard(state: &Mutex<Vec<u64>>, tx: &Sender<u64>) {
    let guard = state.lock().unwrap_or_else(PoisonError::into_inner);
    tx.send(guard.len() as u64);
}

pub fn flush_under_std_write_lock(shards: &RwLock<Vec<u8>>, stream: &mut TcpStream) {
    let mut shards = shards.write().expect("shard lock");
    shards.push(0);
    stream.flush();
}

pub fn accept_under_helper_guard(seats: &Mutex<Vec<u8>>, listener: &TcpListener) {
    let seats = unpoisoned(seats.lock());
    listener.accept();
    drop(seats);
}

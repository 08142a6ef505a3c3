// D005 good fixture — analyzed as crates/pipeline/src/transport.rs.
// Data is copied out of the guard and the guard released (end of scope or
// explicit drop) before anything blocks.

fn broadcast(state: &Mutex<Vec<u64>>, tx: &Sender<u64>) {
    let snapshot = {
        let guard = state.lock();
        guard.clone()
    };
    for v in snapshot {
        tx.send(v);
    }
}

fn flush_after_drop(shards: &RwLock<Vec<u8>>, stream: &mut TcpStream) {
    let snapshot = shards.read();
    let bytes = snapshot.clone();
    drop(snapshot);
    stream.write_all(&bytes);
    stream.flush();
}

fn chained_temporary(state: &Mutex<Vec<u64>>, tx: &Sender<u64>) {
    // The guard here is a temporary dropped at the end of the statement.
    let len = state.lock().len();
    tx.send(len as u64);
}

fn std_guard_dropped_first(state: &Mutex<Vec<u64>>, tx: &Sender<u64>) {
    let guard = unpoisoned(state.lock());
    let len = guard.len();
    drop(guard);
    tx.send(len as u64);
}

fn std_chained_temporary(state: &Mutex<Vec<u64>>, tx: &Sender<u64>) {
    // Chained past the `LockResult` adapter, the guard is again a temporary.
    let len = state.lock().unwrap_or_else(PoisonError::into_inner).len();
    tx.send(len as u64);
}

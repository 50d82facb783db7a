//! A checkpoint save that fails part-way must leave the previous checkpoint
//! loadable. The failure is a real kernel one: the file-size limit
//! (`RLIMIT_FSIZE`) is lowered below the checkpoint's size, so the save's
//! writes stop with `EFBIG` mid-payload, as on a full disk. The limit is
//! process-wide, so this test lives alone in its own test binary.

#![cfg(target_os = "linux")]

use graph_zeppelin::{GraphZeppelin, GzConfig};

#[repr(C)]
struct Rlimit {
    cur: u64,
    max: u64,
}

const RLIMIT_FSIZE: i32 = 1;
const SIGXFSZ: i32 = 25;
const SIG_IGN: usize = 1;

extern "C" {
    fn getrlimit(resource: i32, limit: *mut Rlimit) -> i32;
    fn setrlimit(resource: i32, limit: *const Rlimit) -> i32;
    fn signal(signum: i32, handler: usize) -> usize;
}

#[test]
fn failed_checkpoint_save_leaves_the_previous_checkpoint_loadable() {
    let dir = gz_testutil::TempDir::new("gz-durable-ckpt");
    let path = dir.path().join("state.gzc");
    let mut gz = GraphZeppelin::new(GzConfig::in_ram(64)).unwrap();
    for v in 1..8u32 {
        gz.edge_update(0, v);
    }
    let saved = gz.save_checkpoint(&path).unwrap();
    let want = gz.connected_components().unwrap().labels().to_vec();
    for v in 8..16u32 {
        gz.edge_update(0, v);
    }

    let mut old = Rlimit { cur: 0, max: 0 };
    let half = Rlimit { cur: std::fs::metadata(&path).unwrap().len() / 2, max: 0 };
    // SAFETY: plain libc calls on valid `rlimit` structs. Ignoring SIGXFSZ
    // turns an over-limit write into an EFBIG error instead of a kill.
    unsafe {
        signal(SIGXFSZ, SIG_IGN);
        assert_eq!(getrlimit(RLIMIT_FSIZE, &mut old), 0);
        assert_eq!(setrlimit(RLIMIT_FSIZE, &Rlimit { max: old.max, ..half }), 0);
    }
    let failed = gz.save_checkpoint(&path);
    // SAFETY: as above; the old soft limit never exceeds the hard one.
    unsafe { assert_eq!(setrlimit(RLIMIT_FSIZE, &old), 0) };
    assert!(failed.is_err(), "a save cut short by EFBIG must report an error");

    let mut restored = GraphZeppelin::restore(&path).expect("previous checkpoint still loadable");
    assert_eq!(GraphZeppelin::checkpoint_header(&path).unwrap(), saved);
    assert_eq!(restored.connected_components().unwrap().labels(), &want[..]);
    assert_eq!(std::fs::read_dir(dir.path()).unwrap().count(), 1, "temp file removed");
}

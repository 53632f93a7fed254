//! Map persistence into a map directory that does not exist yet.
//!
//! Its own test binary: the map registries are process-wide, so a map
//! another test already built in the same process would be served from
//! memory and never reach `persist`.

use restore_maskmap::{arch_map, arch_map_digest, map_path, uarch_map, uarch_map_digest};
use restore_uarch::UarchConfig;
use restore_workloads::{Scale, WorkloadId};
use std::path::Path;

fn map_files(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("map directory exists after a build")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

#[test]
fn absent_map_dir_is_created_and_holds_one_file_per_build() {
    let root = std::env::temp_dir().join(format!("restore-maskmap-persist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    // Two missing levels: the directory and its parent.
    let dir = root.join("store").join("maps");
    let (scale, uarch, horizon) = (Scale::smoke(), UarchConfig::default(), 120);

    uarch_map(WorkloadId::Gzipx, scale, &uarch, horizon, Some(&dir));
    let uarch_file =
        map_path(&dir, "uarch", WorkloadId::Gzipx, uarch_map_digest(scale, &uarch, horizon));
    assert_eq!(map_files(&dir), vec![uarch_file.file_name().unwrap().to_str().unwrap()]);

    arch_map(WorkloadId::Gzipx, scale, Some(&dir));
    let arch_file = map_path(&dir, "arch", WorkloadId::Gzipx, arch_map_digest(scale));
    let files = map_files(&dir);
    assert_eq!(files.len(), 2, "one maskmap-*.json per build, no temp files: {files:?}");
    assert!(files.iter().all(|f| f.starts_with("maskmap-") && f.ends_with(".json")), "{files:?}");
    assert!(uarch_file.exists() && arch_file.exists());
    std::fs::remove_dir_all(&root).unwrap();
}

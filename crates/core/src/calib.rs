//! Persisting fitted cost parameters across serving sessions.
//!
//! The `qt_cost::calibrate` loop (PR-7) fits [`CostParams`] from observed
//! operator timings, but the fit used to die with the process — every
//! serving run re-traded on the reference constants until enough traffic
//! re-calibrated them. This module snapshots fitted params through the
//! hand-rolled [`Wire`] codec (no serde, same framing
//! as the transport) so a later `run_qt_serve` starts with calibrated costs:
//! set [`crate::ServeConfig::calibration_path`] and the serving runners call
//! [`load_cost_params`] before building a single offer.
//!
//! The file format is a 4-byte magic (`b"QTCP"`), a one-byte version, and
//! the `Wire` encoding of the params. Loading is total: a missing file, a
//! foreign magic, or a truncated body all yield `None` (the caller keeps its
//! configured params) rather than an error — a stale snapshot must never
//! stop the federation from serving.

use qt_cost::CostParams;
use qt_trade::wire::Wire;
use std::path::Path;

const MAGIC: &[u8; 4] = b"QTCP";
const VERSION: u8 = 1;

/// Snapshot `params` to `path` (atomic enough for our single-writer use:
/// write to `<path>.tmp`, then rename).
pub fn save_cost_params(path: &Path, params: &CostParams) -> std::io::Result<()> {
    let mut bytes = Vec::with_capacity(5 + 7 * 8);
    bytes.extend_from_slice(MAGIC);
    bytes.push(VERSION);
    params.put(&mut bytes);
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, &bytes)?;
    std::fs::rename(&tmp, path)
}

/// Load a snapshot written by [`save_cost_params`]. `None` on any problem —
/// missing file, wrong magic/version, truncated or trailing bytes.
pub fn load_cost_params(path: &Path) -> Option<CostParams> {
    let bytes = std::fs::read(path).ok()?;
    let body = bytes.strip_prefix(MAGIC.as_slice())?;
    let (&v, body) = body.split_first()?;
    if v != VERSION {
        return None;
    }
    CostParams::decode(body).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("qt-calib-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn snapshot_roundtrips() {
        let path = tmp_path("roundtrip.qtcp");
        let params = CostParams {
            cpu_tuple: 3.3e-8,
            ..CostParams::reference()
        };
        save_cost_params(&path, &params).unwrap();
        assert_eq!(load_cost_params(&path), Some(params));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_snapshots_load_as_none() {
        let path = tmp_path("bad.qtcp");
        assert_eq!(load_cost_params(&path), None, "missing file");
        std::fs::write(&path, b"NOPE").unwrap();
        assert_eq!(load_cost_params(&path), None, "foreign magic");
        std::fs::write(&path, b"QTCP\x01\x00\x00").unwrap();
        assert_eq!(load_cost_params(&path), None, "truncated body");
        std::fs::remove_file(&path).ok();
    }
}
